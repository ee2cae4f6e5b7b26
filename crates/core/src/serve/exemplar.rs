//! The exemplar request log: what the serving engine keeps of each traced
//! request. A traced request is one fixed-size `Copy` record, not the seven
//! [`Span`]s (each with its own `args` vector) an eager tracer would hold;
//! the spans are rebuilt one at a time when the log is read (DESIGN.md §12).

use super::admission::ShedReason;
use super::trace::Priority;
use crate::cache::policy::Verdict;
use crate::obs::Span;
use fgnn_graph::NodeId;
use std::borrow::Cow;

/// A traced request that was served, and the batch that served it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Served {
    pub(crate) id: u64,
    pub(crate) node: NodeId,
    pub(crate) priority: Priority,
    /// Arrival, batch start, ends of assembly, lookup, recompute; completion.
    pub(crate) bounds: [u64; 6],
    pub(crate) degraded: bool,
    /// `Some(age_ms)` on a cache hit.
    pub(crate) age: Option<u32>,
    /// A miss's admission verdict, when the store gave one.
    pub(crate) verdict: Option<Verdict>,
    pub(crate) batch_size: u64,
    pub(crate) batch_misses: u64,
    pub(crate) wire_bytes: u64,
}

/// One traced request: served (a seven-span tree) or shed (one marker).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Exemplar {
    Served(Served),
    Shed {
        id: u64,
        at_ns: u64,
        reason: ShedReason,
    },
}

impl Exemplar {
    fn span_count(&self) -> usize {
        match self {
            Exemplar::Served(_) => 7,
            Exemplar::Shed { .. } => 1,
        }
    }

    /// Span `k` of this record's tree in close order: a served request's six
    /// children, which tile `[arrival, completion]`, then its `request`
    /// parent; a shed's zero-duration marker.
    fn span(&self, k: usize) -> Span {
        let span = |name, start_ns, end_ns: u64, depth, args| Span {
            name: Cow::Borrowed(name),
            cat: "serve_req",
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
            depth,
            args,
        };
        let (r, hit) = match *self {
            Exemplar::Served(r) => (r, ("hit", r.age.is_some() as u64)),
            Exemplar::Shed { id, at_ns, reason } => {
                let args = vec![("id", id), ("reason", reason.code())];
                return span("shed", at_ns, at_ns, 0, args);
            }
        };
        let b = r.bounds;
        let (name, args) = match k {
            0 => ("admission", Vec::new()),
            1 => ("queue_wait", Vec::new()),
            2 => ("batch_assembly", vec![("size", r.batch_size)]),
            3 => match (r.age, r.verdict) {
                (Some(a), _) => ("embed_lookup", vec![hit, ("age_ms", a as u64)]),
                (None, Some(v)) => ("embed_lookup", vec![hit, ("verdict", v.code())]),
                (None, None) => ("embed_lookup", vec![hit]),
            },
            4 => {
                let args = vec![
                    ("wire_bytes", r.wire_bytes),
                    ("batch_misses", r.batch_misses),
                ];
                ("recompute", args)
            }
            5 => ("respond", Vec::new()),
            _ => {
                let args = vec![
                    ("id", r.id),
                    ("node", r.node as u64),
                    ("priority", r.priority.code()),
                    ("degraded", r.degraded as u64),
                    hit,
                    ("latency_ns", b[5] - b[0]),
                ];
                return span("request", b[0], b[5], 0, args);
            }
        };
        span(name, b[k.saturating_sub(1)], b[k], 1, args)
    }
}

/// The append-only exemplar log, in emission order. A shared reference is
/// the read-only view the `fgnn-serve-trace-v1` export reads.
#[derive(Clone, Debug, Default)]
pub struct ExemplarLog {
    records: Vec<Exemplar>,
    spans: usize,
}

impl ExemplarLog {
    pub(crate) fn push(&mut self, e: Exemplar) {
        self.spans += e.span_count();
        self.records.push(e);
    }

    /// Traced requests, served and shed.
    pub(crate) fn count(&self) -> usize {
        self.records.len()
    }

    /// The spans the log stands for, in close order (children before
    /// parents), built one at a time; `len()` is O(1).
    pub fn spans(&self) -> ExemplarSpans<'_> {
        ExemplarSpans {
            records: &self.records,
            k: 0,
            left: self.spans,
        }
    }
}

/// Iterator over an [`ExemplarLog`]'s spans. A named type, not `impl
/// Iterator`: it holds no drop glue, so its borrow of the log ends with its
/// last use even as a temporary.
#[derive(Clone, Debug)]
pub struct ExemplarSpans<'a> {
    records: &'a [Exemplar],
    /// Index of the next span within `records[0]`'s tree.
    k: usize,
    left: usize,
}

impl Iterator for ExemplarSpans<'_> {
    type Item = Span;

    fn next(&mut self) -> Option<Span> {
        let (e, rest) = self.records.split_first()?;
        let span = e.span(self.k);
        self.k += 1;
        if self.k == e.span_count() {
            (self.records, self.k) = (rest, 0);
        }
        self.left -= 1;
        Some(span)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for ExemplarSpans<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Tracer;
    use fgnn_tensor::Rng;

    /// The eager emission the log replaced, verbatim: begin/end pairs on a
    /// span tracer.
    fn eager(t: &mut Tracer, e: &Exemplar) {
        let r = match *e {
            Exemplar::Served(r) => r,
            Exemplar::Shed { id, at_ns, reason } => {
                t.begin("shed", "serve_req", at_ns);
                t.end_with(at_ns, vec![("id", id), ("reason", reason.code())]);
                return;
            }
        };
        let Served {
            id,
            node,
            priority,
            degraded,
            age,
            verdict,
            ..
        } = r;
        let [arrival_ns, start_ns, b1, b2, b3, completion_ns] = r.bounds;
        t.begin("request", "serve_req", arrival_ns);
        t.begin("admission", "serve_req", arrival_ns);
        t.end(arrival_ns);
        t.begin("queue_wait", "serve_req", arrival_ns);
        t.end(start_ns);
        t.begin("batch_assembly", "serve_req", start_ns);
        t.end_with(b1, vec![("size", r.batch_size)]);
        t.begin("embed_lookup", "serve_req", b1);
        let mut lookup_args = vec![("hit", age.is_some() as u64)];
        match (age, verdict) {
            (Some(a), _) => lookup_args.push(("age_ms", a as u64)),
            (None, Some(v)) => lookup_args.push(("verdict", v.code())),
            (None, None) => {}
        }
        t.end_with(b2, lookup_args);
        t.begin("recompute", "serve_req", b2);
        t.end_with(
            b3,
            vec![
                ("wire_bytes", r.wire_bytes),
                ("batch_misses", r.batch_misses),
            ],
        );
        t.begin("respond", "serve_req", b3);
        t.end(completion_ns);
        t.end_with(
            completion_ns,
            vec![
                ("id", id),
                ("node", node as u64),
                ("priority", priority.code()),
                ("degraded", degraded as u64),
                ("hit", age.is_some() as u64),
                ("latency_ns", completion_ns - arrival_ns),
            ],
        );
    }

    fn random_exemplar(rng: &mut Rng) -> Exemplar {
        let mut draw = |n: u64| rng.next_u64() % n;
        if draw(4) == 0 {
            let reasons = [
                ShedReason::RateLimited,
                ShedReason::QueueFull,
                ShedReason::DeadlineExpired,
            ];
            return Exemplar::Shed {
                id: draw(1 << 40),
                at_ns: draw(1 << 40),
                reason: reasons[draw(3) as usize],
            };
        }
        let mut bounds = [0u64; 6];
        bounds[0] = draw(1 << 40);
        for i in 1..6 {
            // Zero-length stages included: a batch without misses.
            bounds[i] = bounds[i - 1] + draw(3) * draw(1 << 20);
        }
        let verdicts = [Verdict::Admit, Verdict::Keep, Verdict::Evict, Verdict::Skip];
        let hit = draw(2) == 0;
        Exemplar::Served(Served {
            id: draw(1 << 40),
            node: draw(1 << 20) as NodeId,
            priority: [Priority::Low, Priority::Normal, Priority::High][draw(3) as usize],
            bounds,
            degraded: draw(2) == 0,
            age: hit.then(|| draw(1 << 16) as u32),
            verdict: (draw(3) != 0).then(|| verdicts[draw(4) as usize]),
            batch_size: 1 + draw(64),
            batch_misses: draw(64),
            wire_bytes: draw(1 << 30),
        })
    }

    #[test]
    fn expansion_matches_the_eager_tracer_span_for_span() {
        let mut rng = Rng::new(0x5EED);
        let (mut log, mut tracer) = (ExemplarLog::default(), Tracer::default());
        assert_eq!(log.spans().len(), 0);
        for _ in 0..500 {
            let e = random_exemplar(&mut rng);
            log.push(e);
            eager(&mut tracer, &e);
        }
        assert!(tracer.is_balanced());
        assert_eq!(log.count(), 500);
        let mut spans = log.spans();
        assert_eq!(spans.len(), tracer.spans().len());
        for (i, want) in tracer.spans().iter().enumerate() {
            assert_eq!(
                spans.len(),
                tracer.spans().len() - i,
                "len() counts what is left"
            );
            assert_eq!(spans.next().as_ref(), Some(want), "span {i}");
        }
        assert_eq!((spans.len(), spans.next()), (0, None));
    }

    #[test]
    fn a_record_is_a_fixed_size_value_under_100_bytes() {
        assert!(std::mem::size_of::<Exemplar>() <= 96);
    }
}
