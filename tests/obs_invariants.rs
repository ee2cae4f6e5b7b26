//! Invariant suite locking down the observability layer (DESIGN.md §8).
//!
//! The span model makes three guarantees *by construction* — the sim
//! clock only advances inside stage scopes, scopes nest strictly, and
//! exact stage time is the only thing that advances it — so:
//!
//! 1. the tracer is balanced after every epoch;
//! 2. per-stage span durations sum exactly (integer nanoseconds) to the
//!    epoch spans' total duration, which equals the sim clock's position;
//! 3. every pipeline stage that left evidence in [`StageTimings`] has a
//!    matching span, and the `pipeline.stage.*.sim_ns` metrics agree with
//!    the spans they summarize;
//! 4. the historical cache's metrics reconcile:
//!    `hits + misses == lookups`, and the hit-age histogram has one
//!    observation per hit.
//!
//! Checked against the FreshGNN sync trainer over both workloads, GAS,
//! ClusterGCN (every trainer runs through the same `pipeline::Engine`) and
//! the async FreshGNN path.

mod common;

use common::for_cases;
use freshgnn_repro::core::baselines::{ClusterGcnTrainer, GasConfig, GasTrainer};
use freshgnn_repro::core::driver::{Driver, Workload};
use freshgnn_repro::core::hetero_trainer::HeteroTrainer;
use freshgnn_repro::core::obs::Span;
use freshgnn_repro::core::serve::{
    generate_trace, serve_trace_jsonl, ServeConfig, ServeEngine, ServeReport,
};
use freshgnn_repro::core::{FreshGnnConfig, Obs, Trainer};
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::hetero::mag_hetero;
use freshgnn_repro::graph::Dataset;
use freshgnn_repro::memsim::presets::Machine;
use freshgnn_repro::memsim::stage::{StageKind, StageTimings};
use freshgnn_repro::nn::model::Arch;
use freshgnn_repro::nn::Adam;

/// The structural span/metric invariants every trainer must satisfy.
fn check_span_invariants(obs: &Obs, timings: &StageTimings) {
    assert!(obs.tracer.is_balanced(), "unclosed spans after epoch");
    let spans = obs.tracer.spans();
    assert!(!spans.is_empty(), "training must emit spans");

    let epoch_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "epoch")
        .map(|s| s.dur_ns)
        .sum();
    let batch_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "batch")
        .map(|s| s.dur_ns)
        .sum();
    let stage_ns: u64 = spans
        .iter()
        .filter(|s| s.cat == "stage")
        .map(|s| s.dur_ns)
        .sum();

    // The clock advances only inside stage scopes, so stage spans tile
    // their batch, batches tile their epoch, and the epochs tile the
    // clock — exactly, in integer nanoseconds.
    assert_eq!(stage_ns, epoch_ns, "stage spans must tile the epochs");
    assert_eq!(batch_ns, epoch_ns, "batch spans must tile the epochs");
    assert_eq!(
        epoch_ns,
        obs.clock.now_ns(),
        "epoch spans must account for every clock tick"
    );

    // Epoch spans are top-level; stages always sit under a batch.
    for s in spans {
        match &*s.name {
            "epoch" => assert_eq!(s.depth, 0),
            "batch" => assert_eq!(s.depth, 1),
            _ => {
                assert_eq!(s.cat, "stage", "unexpected span {:?}", s.name);
                assert_eq!(s.depth, 2, "stage spans nest under a batch");
            }
        }
    }

    // Every stage that left evidence in the per-stage ledger has spans,
    // and the flushed sim_ns metric equals the sum of those spans.
    for kind in StageKind::ALL {
        let name = kind.name();
        let span_ns: u64 = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns)
            .sum();
        let evidence = timings.measured_seconds(kind) > 0.0 || timings.wire_bytes(kind) > 0;
        if evidence {
            assert!(
                spans.iter().any(|s| s.name == name),
                "stage {name} recorded timings but emitted no span"
            );
        }
        let metric = obs
            .metrics
            .counter(&format!("pipeline.stage.{name}.sim_ns"))
            .unwrap_or(0);
        assert_eq!(metric, span_ns, "sim_ns metric vs spans for {name}");
    }
}

/// The historical-cache metric reconciliation (FreshGNN trainers only).
fn check_cache_metrics<W: Workload>(t: &Driver<W>) {
    let m = &t.obs.metrics;
    let hits = m.counter("cache.hist.hits").unwrap();
    let misses = m.counter("cache.hist.misses").unwrap();
    let lookups = m.counter("cache.hist.lookups").unwrap();
    assert_eq!(hits + misses, lookups, "cache lookups must reconcile");
    let age = m.histogram("cache.hist.hit_age_iters").unwrap();
    assert_eq!(age.count(), hits, "one age observation per hit");
    let stats = t.cache.stats();
    assert_eq!(hits, stats.hits);
    assert_eq!(misses, stats.misses);
    assert_eq!(m.counter("cache.hist.admits"), Some(stats.admits));
}

#[test]
fn sync_trainer_spans_and_metrics_reconcile() {
    let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(8), 42);
    let hetero_ds = mag_hetero(400, 4, 8, 3);
    for_cases("sync_trainer_spans_and_metrics_reconcile", |rng| {
        let cfg = FreshGnnConfig {
            p_grad: 0.5 + (rng.below(50) as f32) / 100.0,
            t_stale: 20 + rng.below(80) as u32,
            fanouts: vec![3, 3],
            batch_size: 16 + rng.below(64),
            ..Default::default()
        };
        let mut t = Trainer::new(
            &ds,
            Arch::Sage,
            8,
            Machine::single_a100(),
            cfg.clone(),
            rng.next_u64(),
        );
        let mut opt = Adam::new(0.01);
        let epochs = 1 + rng.below(2);
        let mut batches = 0u64;
        for _ in 0..epochs {
            batches += t.train_epoch(&ds, &mut opt).batches as u64;
        }
        check_span_invariants(&t.obs, &t.timings);
        check_cache_metrics(&t);
        assert_eq!(
            t.obs.metrics.counter("pipeline.epochs"),
            Some(epochs as u64)
        );
        assert_eq!(t.obs.metrics.counter("pipeline.batches"), Some(batches));

        // The heterogeneous workload publishes through the same driver.
        let mut h = HeteroTrainer::new(&hetero_ds, 8, Machine::single_a100(), cfg, rng.next_u64());
        let mut opt = Adam::new(0.01);
        for _ in 0..2 {
            h.train_epoch(&hetero_ds, &mut opt);
            check_cache_metrics(&h);
        }
        check_span_invariants(&h.obs, &h.timings);
    });
}

#[test]
fn gas_trainer_spans_reconcile() {
    let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(8), 43);
    for_cases("gas_trainer_spans_reconcile", |rng| {
        let cfg = GasConfig {
            num_parts: 2 + rng.below(6),
            max_neighbors: 8 + rng.below(32),
            momentum: if rng.below(2) == 0 { None } else { Some(0.3) },
        };
        let mut t = GasTrainer::new(
            &ds,
            Arch::Sage,
            8,
            vec![3, 3],
            Machine::single_a100(),
            cfg,
            rng.next_u64(),
        );
        let mut opt = Adam::new(0.01);
        t.train_epoch(&ds, &mut opt);
        check_span_invariants(&t.obs, &t.timings);
        assert_eq!(t.obs.metrics.counter("pipeline.epochs"), Some(1));
    });
}

#[test]
fn cluster_gcn_trainer_spans_reconcile() {
    let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(8), 44);
    for_cases("cluster_gcn_trainer_spans_reconcile", |rng| {
        let num_parts = 2 + rng.below(6);
        let q = 1 + rng.below(2);
        let mut t = ClusterGcnTrainer::new(
            &ds,
            Arch::Sage,
            8,
            vec![3, 3],
            num_parts,
            q,
            Machine::single_a100(),
            rng.next_u64(),
        );
        let mut opt = Adam::new(0.01);
        t.train_epoch(&ds, &mut opt);
        check_span_invariants(&t.obs, &t.timings);
        assert_eq!(t.obs.metrics.counter("pipeline.epochs"), Some(1));
    });
}

/// The async pipeline records its queue waits as each batch's sample
/// stage and adds the sampler metrics; the span accounting must still
/// close.
#[test]
fn async_trainer_spans_and_sampler_metrics_reconcile() {
    let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(8), 45);
    let cfg = FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: vec![3, 3],
        batch_size: 32,
        ..Default::default()
    };
    let mut t = Trainer::new(&ds, Arch::Sage, 8, Machine::single_a100(), cfg, 7);
    let mut opt = Adam::new(0.01);
    let (mut batches, mut pooled) = (0u64, 0u64);
    // The last epoch samples in line: it counts its batches as a pool would.
    for workers in [2, 2, 0] {
        let n = t
            .train_epoch_async(&ds, &mut opt, workers, 4)
            .expect("no faults injected")
            .batches as u64;
        batches += n;
        if workers > 0 {
            pooled += n;
        }
    }
    check_span_invariants(&t.obs, &t.timings);
    check_cache_metrics(&t);
    let m = &t.obs.metrics;
    assert_eq!(m.counter("sampler.batches"), Some(batches));
    assert_eq!(m.counter("sampler.resample_retries"), Some(0));
    let depth = m.histogram("sampler.queue_depth").unwrap();
    assert_eq!(depth.count(), pooled, "one depth sample per delivery");
    let lat = m.histogram("sampler.task_seconds").unwrap();
    assert_eq!(lat.count(), pooled, "one timed attempt per batch");
    // Every batch waited on the queue inside its own sample stage.
    let sample_spans = t
        .obs
        .tracer
        .spans()
        .iter()
        .filter(|s| s.name == StageKind::Sample.name())
        .count();
    assert_eq!(sample_spans as u64, batches, "one sample span per batch");
}

/// Two identically-seeded runs produce byte-identical deterministic
/// telemetry: same spans, same Chrome trace, same Exact-class JSONL.
#[test]
fn telemetry_is_deterministic_across_reruns() {
    use freshgnn_repro::core::obs::export;
    let run = || {
        let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(8), 46);
        let cfg = FreshGnnConfig {
            p_grad: 0.9,
            t_stale: 50,
            fanouts: vec![3, 3],
            batch_size: 32,
            ..Default::default()
        };
        let mut t = Trainer::new(&ds, Arch::Sage, 8, Machine::single_a100(), cfg, 11);
        let mut opt = Adam::new(0.01);
        for _ in 0..2 {
            t.train_epoch(&ds, &mut opt);
        }
        (
            export::chrome_trace(&[("freshgnn", &t.obs.tracer)]),
            export::metrics_jsonl("freshgnn", &t.obs.metrics, false),
        )
    };
    let (trace_a, metrics_a) = run();
    let (trace_b, metrics_b) = run();
    assert_eq!(trace_a, trace_b, "Chrome trace must be bit-reproducible");
    assert_eq!(
        metrics_a, metrics_b,
        "Exact metrics must be bit-reproducible"
    );
    assert!(trace_a.contains(export::SCHEMA_VERSION));
}

// --- serving request-trace invariants (DESIGN.md §12) ---

/// An overloaded serving run with request tracing at `exemplar_every`;
/// returns whatever `f` extracts (the engine borrows the dataset, so
/// results must be computed inside).
fn with_serve_run<T>(
    seed: u64,
    exemplar_every: u64,
    f: impl FnOnce(&ServeEngine<'_>, &ServeReport) -> T,
) -> T {
    with_serve_run_tripped(seed, exemplar_every, false, f)
}

/// [`with_serve_run`], with the transfer breaker forced open before the run
/// when `tripped` (degraded serving: hits widen to each request's budget).
fn with_serve_run_tripped<T>(
    seed: u64,
    exemplar_every: u64,
    tripped: bool,
    f: impl FnOnce(&ServeEngine<'_>, &ServeReport) -> T,
) -> T {
    let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(16), 42); // 256 nodes
    let mut cfg = ServeConfig {
        seed,
        fanouts: vec![3, 3],
        ..ServeConfig::default()
    };
    cfg.trace.num_nodes = 256;
    cfg.trace.num_requests = 600;
    cfg.trace.rate_rps = 6000.0; // 2x the admission contract: sheds happen
    cfg.admission.rate_rps = 3000.0;
    cfg.telemetry.exemplar_every = exemplar_every;
    let trace = generate_trace(&cfg.trace, seed);
    let mut eng = ServeEngine::new(&ds, 16, Machine::single_a100(), cfg).expect("valid config");
    if tripped {
        eng.trip_breaker();
    }
    let report = eng.run(&trace).expect("overloaded run still serves");
    f(&eng, &report)
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `fgnn-serve-trace-v1` export is pinned byte for byte: its FNV-1a
/// hash and length under every request and shed traced, every 4th, every
/// 16th, and every request traced with the breaker open (degraded hits).
/// The values were recorded from the eager span-tracer implementation the
/// compact exemplar log replaced, so the log's expansion reproduces it.
/// `serve.trace.spans` counts exactly what the export expands.
#[test]
fn serve_trace_export_bytes_are_pinned() {
    let pinned: [(u64, bool, u64, usize); 4] = [
        (1, false, 0x7b2f_6d58_dd8b_20f4, 259_449),
        (4, false, 0x00e5_10d6_1a4e_481e, 69_165),
        (16, false, 0x1647_b168_fd74_c85b, 17_123),
        (1, true, 0xa76a_3387_7651_ba87, 259_449),
    ];
    for (every, tripped, hash, len) in pinned {
        with_serve_run_tripped(7, every, tripped, |eng, _| {
            let doc = serve_trace_jsonl("serve", eng.request_tracer(), eng.alerts());
            let spans = eng.request_tracer().spans().len() as u64;
            assert_eq!(eng.obs.metrics.counter("serve.trace.spans"), Some(spans));
            if tripped {
                let hits = eng.obs.metrics.counter("serve.degraded.hits");
                assert!(
                    hits.unwrap_or(0) > 0,
                    "a tripped breaker serves degraded hits"
                );
            }
            assert_eq!(
                (fnv1a(doc.as_bytes()), doc.len()),
                (hash, len),
                "exemplar_every {every}, tripped {tripped}"
            );
        });
    }
}

/// Child stages a traced request passes through, in span-emission order.
const REQUEST_STAGES: [&str; 6] = [
    "admission",
    "queue_wait",
    "batch_assembly",
    "embed_lookup",
    "recompute",
    "respond",
];

/// With every request traced, each request's child spans tile
/// `[arrival, completion]` exactly: the depth-1 durations sum to the
/// parent `request` span's duration, which equals its `latency_ns`
/// attribute — in integer nanoseconds, no slack anywhere.
#[test]
fn serve_request_spans_tile_latency_exactly() {
    with_serve_run(3, 1, |eng, report| {
        let t = eng.request_tracer();
        let mut requests = 0u64;
        let mut sheds = 0u64;
        let mut children: Vec<Span> = Vec::new();
        for span in t.spans() {
            match (span.depth, span.name.as_ref()) {
                (1, _) => children.push(span),
                (0, "request") => {
                    requests += 1;
                    let names: Vec<&str> = children.iter().map(|s| s.name.as_ref()).collect();
                    assert_eq!(names, REQUEST_STAGES, "stage order per request");
                    let tiled: u64 = children.iter().map(|s| s.dur_ns).sum();
                    assert_eq!(tiled, span.dur_ns, "children must tile the request");
                    let latency = span
                        .args
                        .iter()
                        .find(|(k, _)| *k == "latency_ns")
                        .expect("request span carries latency_ns")
                        .1;
                    assert_eq!(span.dur_ns, latency, "span duration is the latency");
                    // Children are contiguous: each starts where the
                    // previous ended, from arrival to completion.
                    assert_eq!(children[0].start_ns, span.start_ns);
                    for w in children.windows(2) {
                        assert_eq!(w[0].start_ns + w[0].dur_ns, w[1].start_ns);
                    }
                    let last = children.last().unwrap();
                    assert_eq!(last.start_ns + last.dur_ns, span.start_ns + span.dur_ns);
                    children.clear();
                }
                (0, "shed") => {
                    sheds += 1;
                    assert!(children.is_empty(), "shed spans have no children");
                    assert_eq!(span.dur_ns, 0, "shed spans are zero-duration markers");
                    assert!(span.args.iter().any(|(k, _)| *k == "reason"));
                }
                _ => panic!("unexpected request-tracer span {:?}", span.name),
            }
        }
        assert!(children.is_empty(), "request tracer left spans open");
        assert_eq!(requests, report.served, "every served request is traced");
        assert_eq!(sheds, report.shed_total(), "every shed is traced");
        assert_eq!(
            eng.obs.metrics.counter("serve.trace.exemplars"),
            Some(requests + sheds)
        );
        assert_eq!(
            eng.obs.metrics.counter("serve.trace.spans"),
            Some(t.spans().len() as u64)
        );
    });
}

/// Sampled exemplars (`exemplar_every = 16`) are a strict subset with the
/// same per-request structure, chosen deterministically.
#[test]
fn serve_exemplar_sampling_is_a_deterministic_subset() {
    let all_ids = |every| {
        with_serve_run(3, every, |eng, _| {
            eng.request_tracer()
                .spans()
                .filter(|s| s.depth == 0)
                .filter_map(|s| s.args.iter().find(|(k, _)| *k == "id").map(|&(_, v)| v))
                .collect::<Vec<u64>>()
        })
    };
    let sampled = all_ids(16);
    let sampled_again = all_ids(16);
    let full = all_ids(1);
    assert_eq!(sampled, sampled_again, "sampling is seed-deterministic");
    assert!(!sampled.is_empty(), "some exemplars at the default rate");
    assert!(sampled.len() < full.len(), "sampling actually samples");
    assert!(
        sampled.iter().all(|id| full.contains(id)),
        "exemplars are a subset of the full request set"
    );
    with_serve_run(3, 0, |eng, _| {
        assert!(
            eng.request_tracer().spans().next().is_none(),
            "0 disables tracing"
        );
    });
}

/// Per-batch `wire_bytes` span attributes reconcile with the memsim
/// traffic ledger: their sum equals the run's `serve.transfer.h2d_bytes`
/// counter (every byte a batch charged is attributed to exactly one span).
#[test]
fn serve_batch_span_wire_bytes_reconcile_with_ledger() {
    with_serve_run(5, 1, |eng, report| {
        let span_bytes: u64 = eng
            .obs
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == "batch")
            .map(|s| {
                s.args
                    .iter()
                    .find(|(k, _)| *k == "wire_bytes")
                    .expect("batch spans carry wire_bytes")
                    .1
            })
            .sum();
        let ledger = eng
            .obs
            .metrics
            .counter("serve.transfer.h2d_bytes")
            .expect("h2d ledger metric");
        assert!(report.cache_misses > 0, "run must exercise the miss path");
        assert!(ledger > 0, "misses must move bytes");
        assert_eq!(span_bytes, ledger, "span attribution covers the ledger");
    });
}

/// Same seed ⇒ byte-identical `fgnn-serve-trace-v1` documents (spans and
/// SLO alert edges both), and the overloaded run actually alerts.
#[test]
fn serve_trace_export_is_deterministic_and_alerts_under_overload() {
    let run = || {
        with_serve_run(7, 4, |eng, _| {
            (
                serve_trace_jsonl("serve", eng.request_tracer(), eng.alerts()),
                eng.alerts().to_vec(),
            )
        })
    };
    let (doc_a, alerts_a) = run();
    let (doc_b, alerts_b) = run();
    assert_eq!(doc_a, doc_b, "trace export must be byte-identical");
    assert_eq!(alerts_a, alerts_b, "alert stream must be identical");
    assert!(
        !alerts_a.is_empty(),
        "a 2x overload must trip the burn-rate monitor"
    );
    assert!(doc_a.contains("\"schemaVersion\":\"fgnn-serve-trace-v1\""));
    assert!(doc_a.contains("\"kind\":\"alert\""));
    assert!(doc_a.contains("\"name\":\"request\""));
}
