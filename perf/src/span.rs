//! The benchmark's own span recorder.
//!
//! Spans are recorded from the harness, around the calls into each layer:
//! name, start, end, parent and workload. They stay in memory and are
//! written as a Chrome trace when the run ends. Only the traced run records
//! them; on the untraced run every method is a no-op.
//!
//! Two kinds of span exist. *Measured* spans are opened and closed around a
//! call. *Ledger* spans are the stage totals a pass's own ledger reports
//! (`EpochStats.timings`), attached under that pass end to end from its
//! start: their lengths are exact, their positions are not, because a pass
//! interleaves its stages per batch.

use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder was made.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.function` or a run-structure name (`run`, `setup`, `pass[2]`).
    pub name: String,
    /// Start.
    pub start_ns: u64,
    /// End; equals `start_ns` until the span is closed.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Handle of an open span (meaningless on a disabled recorder).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// In-memory span store of one run.
pub struct Spans {
    enabled: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder for `workload`; records nothing unless `enabled`.
    pub fn new(workload: &'static str, enabled: bool) -> Spans {
        Spans {
            enabled,
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: impl Into<String>) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id.0), "spans closed out of order");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Attach ledger spans of `parts` seconds under the closed span `parent`,
    /// end to end from its start. Parts of zero length are skipped.
    pub fn attach_ledger(&mut self, parent: SpanId, parts: &[(&str, f64)]) {
        if !self.enabled {
            return;
        }
        let mut at = self.spans[parent.0].start_ns;
        for &(name, secs) in parts {
            let dur = (secs * 1e9).round() as u64;
            if dur == 0 {
                continue;
            }
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: at,
                end_ns: at + dur,
                parent: Some(parent.0),
            });
            at += dur;
        }
    }

    /// All spans, in the order they were opened or attached.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed seconds of every closed span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto) of the run.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                crate::report::json_string(&s.name),
                crate::report::json_string(self.workload),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self_ns(&self.spans, i) as f64 / 1e3,
            ));
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Self time of span `i`: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_ns(spans: &[Span], i: usize) -> u64 {
    let me = &spans[i];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(i))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| a < b)
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = vec![
            span("pass", 100, 1100, None),
            span("a", 100, 400, Some(0)),
            span("b", 300, 600, Some(0)),  // overlaps a by 100
            span("c", 900, 1300, Some(0)), // sticks out by 200
            span("a.inner", 150, 250, Some(1)),
            span("elsewhere", 0, 5000, None),
        ];
        // Children cover [100,600) and [900,1100): 700 of 1000.
        assert_eq!(self_ns(&spans, 0), 300);
        assert_eq!(self_ns(&spans, 1), 200);
        assert_eq!(self_ns(&spans, 4), 100);
        assert_eq!(self_ns(&spans, 5), 5000);
    }

    #[test]
    fn ledger_children_tile_from_the_parent_start() {
        let mut s = Spans::new("w", true);
        let run = s.open("run");
        let pass = s.open("pass[0]");
        s.close(pass);
        s.attach_ledger(pass, &[("x", 2e-6), ("skipped", 0.0), ("y", 1e-6)]);
        s.close(run);
        let p = &s.spans()[1];
        let kids: Vec<_> = s.spans().iter().filter(|k| k.parent == Some(1)).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(kids[0].start_ns, p.start_ns);
        assert_eq!(kids[0].end_ns - kids[0].start_ns, 2000);
        assert_eq!(kids[1].start_ns, kids[0].end_ns);
        assert_eq!(s.spans()[1].parent, Some(0));
        assert!((s.total_s("x") - 2e-6).abs() < 1e-12);
        assert!(s.chrome_trace().contains("\"name\":\"pass[0]\""));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new("w", false);
        let got = s.scope("a", |s| s.scope("b", |_| 7));
        assert_eq!(got, 7);
        assert!(s.spans().is_empty());
        assert_eq!(s.total_s("a"), 0.0);
    }
}
