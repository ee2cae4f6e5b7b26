//! Acceptance suite for the overload-robust serving engine: same-seed
//! runs are byte-identical; a 2x overload burst sheds bounded load while
//! the p99 of served requests stays under the deadline; with the breaker
//! forced open, degraded serving completes every admitted request from
//! cache within its staleness SLA; and no served embedding ever exceeds
//! its per-request staleness budget (property-checked over random knobs).

mod common;

use freshgnn_repro::core::obs::{parse_json, JsonValue};
use freshgnn_repro::core::serve::{generate_trace, serve_jsonl, ServeConfig, ServeEngine};
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::{Dataset, NodeId};
use freshgnn_repro::memsim::fault::{BreakerPolicy, BreakerState, FaultPlan, RetryPolicy};
use freshgnn_repro::memsim::presets::Machine;

fn tiny() -> Dataset {
    Dataset::materialize(arxiv_spec(0.0).with_dim(16), 42) // 256 nodes
}

fn base_cfg(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig {
        seed,
        fanouts: vec![4, 4],
        ..ServeConfig::default()
    };
    cfg.trace.num_nodes = 256;
    cfg.trace.num_requests = 800;
    cfg.trace.rate_rps = 4000.0;
    cfg.admission.rate_rps = 3000.0;
    cfg
}

fn engine<'a>(ds: &'a Dataset, cfg: &ServeConfig) -> ServeEngine<'a> {
    ServeEngine::new(ds, 16, Machine::single_a100(), cfg.clone()).expect("valid config")
}

/// Same seed, same everything: the trace, the report (shed ledger
/// included) and the full `fgnn-serve-v1` JSONL export are byte-identical
/// across reruns — under overload, faults and an armed breaker.
#[test]
fn same_seed_overload_runs_are_byte_identical() {
    let ds = tiny();
    let cfg = base_cfg(7);
    let run = || {
        let trace = generate_trace(&cfg.trace, cfg.seed);
        let mut eng = engine(&ds, &cfg);
        eng.inject_faults(
            FaultPlan::new(cfg.seed ^ 0xFA).with_fail_prob(0.3),
            RetryPolicy {
                max_retries: 2,
                ..Default::default()
            },
        );
        eng.enable_breaker(BreakerPolicy::default());
        let report = eng.run(&trace).expect("run serves");
        let jsonl = serve_jsonl("serve", &report, &eng.obs);
        (trace, report, jsonl)
    };
    let (trace_a, report_a, jsonl_a) = run();
    let (trace_b, report_b, jsonl_b) = run();
    assert_eq!(trace_a, trace_b, "traces are seed-pure");
    assert_eq!(report_a, report_b, "reports (incl. shed log) match");
    assert_eq!(jsonl_a, jsonl_b, "JSONL exports are byte-identical");
    assert!(report_a.shed_total() > 0, "overload actually shed");
    assert!(
        jsonl_a.contains("\"schemaVersion\":\"fgnn-serve-v1\""),
        "export carries the schema tag"
    );
}

/// Under a 2x overload burst the engine sheds bounded load — the queue
/// never exceeds its cap, shedding is substantial but not total, and the
/// p99 latency of the requests it *does* serve stays under the deadline.
#[test]
fn overload_burst_sheds_bounded_load_and_keeps_p99_under_deadline() {
    let ds = tiny();
    let mut cfg = base_cfg(11);
    cfg.trace.rate_rps = 2.0 * cfg.admission.rate_rps;
    cfg.trace.burst_factor = 2.0;
    let trace = generate_trace(&cfg.trace, cfg.seed);
    let mut eng = engine(&ds, &cfg);
    let report = eng.run(&trace).expect("overloaded run still serves");

    assert!(report.shed_total() > 0, "2x overload must shed");
    assert!(report.served > 0, "shedding is partial, not collapse");
    assert!(
        report.max_queue_depth <= cfg.admission.queue_cap,
        "queue depth {} exceeded cap {}",
        report.max_queue_depth,
        cfg.admission.queue_cap
    );
    assert_eq!(
        report.offered,
        report.served + report.shed_total(),
        "every request is either served or accountably shed"
    );
    let deadline_ms = cfg.trace.deadline_ms as f64;
    assert!(
        report.p99_ms <= deadline_ms,
        "p99 {}ms blew the {}ms deadline",
        report.p99_ms,
        deadline_ms
    );
    assert_eq!(
        report.deadline_misses, 0,
        "lookahead shed kept all serves on time"
    );
}

/// With the transfer breaker forced open over a fully warmed cache,
/// degraded serving completes every admitted request from cache within
/// its staleness SLA: zero misses, zero violations, and the degraded
/// counters are exported as `Exact` metrics.
#[test]
fn breaker_open_degraded_serving_completes_from_cache_within_sla() {
    let ds = tiny();
    let mut cfg = base_cfg(13);
    cfg.admission.rate_rps = 1e6; // no rate shedding: isolate the read path
    cfg.admission.burst = 1e6;
    cfg.admission.queue_cap = 1024;
    cfg.freshness.cache_capacity = 256;
    cfg.trace.budget_ms = (600, 900); // run lasts ~200ms: budgets cover it
    let trace = generate_trace(&cfg.trace, cfg.seed);
    let mut eng = engine(&ds, &cfg);
    let nodes: Vec<NodeId> = (0..256).collect();
    eng.warm(&nodes);
    // An active fault plan keeps the breaker consulted; every attempt
    // fails, so a half-open probe could never close it.
    eng.inject_faults(
        FaultPlan::new(99).with_fail_prob(1.0),
        RetryPolicy::default(),
    );
    eng.trip_breaker();
    assert_eq!(eng.breaker_state(), Some(BreakerState::Open));

    let report = eng.run(&trace).expect("degraded run serves");
    assert_eq!(
        report.offered, report.served,
        "every admitted request completed"
    );
    assert_eq!(
        report.cache_misses, 0,
        "all reads came from the warmed cache"
    );
    assert_eq!(
        report.degraded_served, report.served,
        "whole run was degraded"
    );
    assert_eq!(
        report.sla_violations, 0,
        "no served embedding exceeded its budget"
    );
    assert_eq!(
        eng.breaker_state(),
        Some(BreakerState::Open),
        "no transfers happened, so the breaker never ticked toward half-open"
    );
    let m = &eng.obs.metrics;
    assert_eq!(m.counter("serve.degraded.served"), Some(report.served));
    assert!(m.counter("serve.degraded.hits").unwrap() > 0);
    assert_eq!(m.counter("serve.sla.violations"), Some(0));
}

/// The `fgnn-serve-v1` export round-trips: parsing the JSONL back with
/// the in-tree parser recovers the report field for field (latency floats
/// to the bit) and every `Exact` counter line matches the live registry.
#[test]
fn serve_jsonl_round_trips_field_for_field() {
    let ds = tiny();
    let cfg = base_cfg(17);
    let trace = generate_trace(&cfg.trace, cfg.seed);
    let mut eng = engine(&ds, &cfg);
    let report = eng.run(&trace).expect("run serves");
    let doc = serve_jsonl("serve", &report, &eng.obs);
    let lines: Vec<JsonValue> = doc
        .lines()
        .map(|l| parse_json(l).expect("every line parses"))
        .collect();

    let kind = |l: &JsonValue| l.get("kind").and_then(|v| v.as_str()).map(str::to_string);
    assert_eq!(
        lines[0].get("schemaVersion").and_then(|v| v.as_str()),
        Some("fgnn-serve-v1")
    );

    let summary = lines
        .iter()
        .find(|l| kind(l).as_deref() == Some("summary"))
        .expect("summary line");
    let u = |k: &str| {
        summary
            .get(k)
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("summary lacks {k}"))
    };
    let f = |k: &str| {
        summary
            .get(k)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("summary lacks {k}"))
    };
    assert_eq!(u("offered"), report.offered);
    assert_eq!(u("admitted"), report.admitted);
    assert_eq!(u("served"), report.served);
    assert_eq!(u("shedRateLimited"), report.shed_rate_limited);
    assert_eq!(u("shedQueueFull"), report.shed_queue_full);
    assert_eq!(u("shedDeadline"), report.shed_deadline);
    assert_eq!(u("degradedServed"), report.degraded_served);
    assert_eq!(u("cacheHits"), report.cache_hits);
    assert_eq!(u("cacheMisses"), report.cache_misses);
    assert_eq!(u("slaViolations"), report.sla_violations);
    assert_eq!(u("deadlineMisses"), report.deadline_misses);
    assert_eq!(u("maxQueueDepth"), report.max_queue_depth as u64);
    // Shortest-roundtrip formatting + exact parsing: floats come back
    // bit-identical, not merely close.
    assert_eq!(f("p50Ms").to_bits(), report.p50_ms.to_bits());
    assert_eq!(f("p95Ms").to_bits(), report.p95_ms.to_bits());
    assert_eq!(f("p99Ms").to_bits(), report.p99_ms.to_bits());
    assert_eq!(f("durationSecs").to_bits(), report.duration_secs.to_bits());
    assert_eq!(
        f("throughputRps").to_bits(),
        report.throughput_rps.to_bits()
    );
    assert_eq!(f("shedFraction").to_bits(), report.shed_fraction.to_bits());

    let shed = lines
        .iter()
        .find(|l| kind(l).as_deref() == Some("shed_log"))
        .expect("shed_log line");
    let decisions = shed
        .get("decisions")
        .and_then(|v| v.as_array())
        .expect("decisions array");
    assert_eq!(decisions.len(), report.shed_log.len());
    for (d, (id, reason)) in decisions.iter().zip(&report.shed_log) {
        assert_eq!(d.get("id").and_then(|v| v.as_u64()), Some(*id));
        assert_eq!(
            d.get("reason").and_then(|v| v.as_str()),
            Some(reason.name())
        );
    }

    // Every exported counter line equals the live registry value.
    let mut counters = 0usize;
    for l in &lines {
        if l.get("type").and_then(|v| v.as_str()) == Some("counter") {
            let name = l.get("name").and_then(|v| v.as_str()).expect("name");
            let value = l.get("value").and_then(|v| v.as_u64()).expect("value");
            assert_eq!(
                eng.obs.metrics.counter(name),
                Some(value),
                "counter {name} drifted through the export"
            );
            counters += 1;
        }
    }
    assert!(counters > 10, "the serve export carries the Exact counters");
}

/// The three histograms a run accumulates locally are *merged* into the
/// registry: a second run on one engine adds to what the first left, a
/// caller that took `obs` between runs starts from empty, and a name
/// nothing was observed into is not created.
#[test]
fn run_histograms_accumulate_across_runs_and_restart_with_a_taken_obs() {
    const NAMES: [&str; 3] = [
        "serve.queue.depth",
        "serve.latency_ns",
        "serve.served_age_ms",
    ];
    let ds = tiny();
    let cfg = base_cfg(19);
    let first = generate_trace(&cfg.trace, cfg.seed);
    // The SLO monitor's clock does not run backwards: the second replay
    // arrives after the first has drained.
    let second: Vec<_> = first
        .iter()
        .map(|r| {
            let mut r = *r;
            r.arrival_ns += 1_000_000_000;
            r.deadline_ns += 1_000_000_000;
            r
        })
        .collect();
    let parts = |obs: &freshgnn_repro::core::Obs| {
        NAMES.map(|name| {
            let h = obs.metrics.histogram(name).expect(name);
            (h.counts().to_vec(), h.sum())
        })
    };

    let mut twice = engine(&ds, &cfg);
    twice.run(&first).expect("first run serves");
    let after_one = parts(&twice.obs);
    twice.run(&second).expect("second run serves");

    let mut taken = engine(&ds, &cfg);
    taken.run(&first).expect("first run serves");
    let run_one = parts(&std::mem::take(&mut taken.obs));
    taken.run(&second).expect("second run serves");
    let run_two = parts(&taken.obs);

    assert_eq!(run_one, after_one, "same seed, same first run");
    assert_ne!(run_two, run_one, "the second run meets a warm cache");
    let both = parts(&twice.obs);
    for (i, name) in NAMES.iter().enumerate() {
        let (one, two) = (&run_one[i], &run_two[i]);
        let summed: Vec<u64> = one.0.iter().zip(&two.0).map(|(a, b)| a + b).collect();
        assert_eq!(both[i].0, summed, "{name}: bucket counts add up");
        assert_eq!(both[i].1, one.1 + two.1, "{name}: sums add up");
    }

    let mut idle = engine(&ds, &cfg);
    let report = idle.run(&[]).expect("nothing offered, nothing shed");
    assert_eq!((report.offered, report.served), (0, 0));
    assert_eq!(idle.obs.metrics.counter("serve.requests.offered"), Some(0));
    for name in NAMES {
        assert!(idle.obs.metrics.histogram(name).is_none(), "{name} exists");
    }
}

/// Property: over random trace/admission/batcher/freshness knobs, the
/// engine never serves an embedding past its staleness budget, accounts
/// for every offered request, and respects the queue bound.
#[test]
fn serving_invariants_hold_over_random_knobs() {
    let ds = tiny();
    common::for_cases("serving_invariants_hold_over_random_knobs", |rng| {
        let mut cfg = ServeConfig {
            seed: rng.next_u64(),
            fanouts: vec![3, 3],
            ..ServeConfig::default()
        };
        cfg.trace.num_nodes = 32 + rng.below(225); // 32..=256
        cfg.trace.num_requests = 100 + rng.below(200);
        cfg.trace.rate_rps = 1000.0 + rng.below(7000) as f64;
        cfg.trace.burst_factor = 1.0 + rng.below(3) as f64;
        cfg.trace.deadline_ms = 20 + rng.below(100) as u32;
        cfg.trace.budget_ms = (50 + rng.below(100) as u32, 300 + rng.below(300) as u32);
        cfg.admission.rate_rps = 500.0 + rng.below(7000) as f64;
        cfg.admission.queue_cap = 4 + rng.below(60);
        cfg.admission.burst = 1.0 + rng.below(64) as f64;
        cfg.batcher.max_batch = 1 + rng.below(32);
        cfg.batcher.max_delay_ns = 1 + rng.next_u64() % 5_000_000;
        cfg.freshness.cache_capacity = 1 + rng.below(64);
        cfg.freshness.t_sla_ms = 10 + rng.below(200) as u32;
        cfg.freshness.admit_top_frac = rng.below(11) as f32 / 10.0;

        let trace = generate_trace(&cfg.trace, cfg.seed);
        let mut eng = engine(&ds, &cfg);
        if rng.below(2) == 1 {
            eng.inject_faults(
                FaultPlan::new(cfg.seed ^ 0xC4A05).with_fail_prob(rng.below(10) as f64 / 10.0),
                RetryPolicy {
                    max_retries: rng.below(3) as u32,
                    ..Default::default()
                },
            );
            eng.enable_breaker(BreakerPolicy::default());
        }
        match eng.run(&trace) {
            Ok(report) => {
                assert_eq!(
                    report.offered,
                    report.served + report.shed_total(),
                    "request conservation"
                );
                assert_eq!(report.sla_violations, 0, "staleness budget is inviolable");
                assert!(report.max_queue_depth <= cfg.admission.queue_cap);
                assert_eq!(report.shed_log.len() as u64, report.shed_total());
                // One latency and one age observation per served request (a
                // recompute is served at age 0 to *every* request that
                // missed on the node), one depth observation per offer.
                let count = |name| eng.obs.metrics.histogram(name).map_or(0, |h| h.count());
                assert_eq!(count("serve.served_age_ms"), report.served);
                assert_eq!(count("serve.latency_ns"), report.served);
                assert_eq!(count("serve.queue.depth"), report.offered);
            }
            Err(freshgnn_repro::core::FgnnError::Overload(_)) => {
                // Legal outcome: the knobs starved admission completely.
            }
            Err(e) => panic!("unexpected serving error: {e}"),
        }
    });
}
