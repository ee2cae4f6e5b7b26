//! Span tracer: nested epoch/batch/stage intervals on the sim clock.

use std::borrow::Cow;

/// A closed interval on the [`crate::obs::SimClock`].
///
/// Spans nest strictly (epoch ⊃ batch ⊃ stage); because the clock only
/// advances inside stage scopes, a parent's duration equals the sum of its
/// children's durations *by construction* — the invariant pinned by
/// `tests/obs_invariants.rs`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Span name ("epoch", "batch", or a `StageKind` name).
    pub name: Cow<'static, str>,
    /// Category, used as the Chrome-trace `cat` field ("pipeline"/"stage").
    pub cat: &'static str,
    /// Start timestamp (sim clock, ns).
    pub start_ns: u64,
    /// Duration (sim clock, ns).
    pub dur_ns: u64,
    /// Nesting depth at open time (epoch = 0, batch = 1, stage = 2;
    /// queue-stall stages sit directly under the epoch at depth 1).
    pub depth: u32,
    /// Exact integer annotations exported as Chrome-trace `args`.
    pub args: Vec<(&'static str, u64)>,
}

/// Records spans via a begin/end stack.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<(Cow<'static, str>, &'static str, u64)>,
}

impl Tracer {
    /// New tracer with no spans.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Open a span at `now_ns`.
    pub(crate) fn begin(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        cat: &'static str,
        now_ns: u64,
    ) {
        self.open.push((name.into(), cat, now_ns));
    }

    /// Close the innermost open span at `now_ns`.
    pub(crate) fn end(&mut self, now_ns: u64) {
        self.end_with(now_ns, Vec::new());
    }

    /// Close the innermost open span at `now_ns`, attaching `args`.
    pub(crate) fn end_with(&mut self, now_ns: u64, args: Vec<(&'static str, u64)>) {
        let (name, cat, start_ns) = self.open.pop().expect("end without matching begin");
        self.spans.push(Span {
            name,
            cat,
            start_ns,
            dur_ns: now_ns.saturating_sub(start_ns),
            depth: self.open.len() as u32,
            args,
        });
    }

    /// All closed spans, in close order (children before parents).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// True when every `begin` has been matched by an `end`.
    pub fn is_balanced(&self) -> bool {
        self.open.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_records_depth_and_close_order() {
        let mut t = Tracer::new();
        t.begin("epoch", "pipeline", 0);
        t.begin("batch", "pipeline", 0);
        t.begin("load", "stage", 0);
        t.end(10);
        t.end(10);
        t.end_with(10, vec![("batches", 1)]);
        assert!(t.is_balanced());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].name.as_ref(), s[0].depth, s[0].dur_ns),
            ("load", 2, 10)
        );
        assert_eq!((s[1].name.as_ref(), s[1].depth), ("batch", 1));
        assert_eq!((s[2].name.as_ref(), s[2].depth), ("epoch", 0));
        assert_eq!(s[2].args, vec![("batches", 1)]);
    }

    #[test]
    #[should_panic(expected = "end without matching begin")]
    fn unbalanced_end_panics() {
        Tracer::new().end(0);
    }
}
