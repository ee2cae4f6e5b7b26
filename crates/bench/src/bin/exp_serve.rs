//! Overload-robust serving demo: sweep offered load × cache size × fault
//! plan over the deterministic inference engine.
//!
//! Each cell generates a seeded bursty Zipf request trace, serves it
//! through admission control + batching + the freshness-SLA cache read
//! path, and reports exact latency percentiles, throughput and the shed
//! breakdown. Fault modes: `none` (clean interconnect), `lossy` (seeded
//! fault plan with bounded retry/backoff) and `breaker` (circuit breaker
//! forced open — degraded serving entirely from the warmed cache).
//! Everything is seeded: two runs with the same `--seed` print identical
//! tables and export byte-identical `fgnn-serve-v1` JSONL
//! (`--serve-out <path>`) and `fgnn-serve-trace-v1` request-trace JSONL
//! (`--trace-out <path>`: exemplar span trees + SLO alert edges).
//! `--bench-json <path>` writes the document `scripts/bench_trajectory.sh`
//! commits as `BENCH_serve.json` (the sweep itself lives in
//! [`fgnn_bench::trajectory`], shared with the `exp_report` gate).

use fgnn_bench::trajectory::{serve_dataset, serve_sweep, ServeSuite, ServeSweepConfig};
use fgnn_bench::{banner, row, table, Args};
use freshgnn::serve::{serve_jsonl, serve_trace_jsonl};

fn main() {
    let args = Args::parse();
    let serve_out: Option<String> = args.get_opt("serve-out");
    let trace_out: Option<String> = args.get_opt("trace-out");
    let bench_out: Option<String> = args.get_opt("bench-json");
    let sw = ServeSweepConfig {
        seed: args.get("seed", 42),
        scale: args.get("scale", 0.002),
        requests: args.get("requests", 2000),
        base_rate: args.get("rate", 4000.0),
        fail: args.get("fail", 0.3),
        exemplar_every: args.get("exemplar-every", ServeSweepConfig::default().exemplar_every),
    };

    banner(
        "Serve",
        "Overload-robust online inference: load x cache x faults",
    );
    let ds = serve_dataset(&sw);
    println!(
        "dataset: {} nodes, {} edges; contract {} rps; {} requests/cell\n",
        ds.num_nodes(),
        ds.graph.num_edges(),
        sw.base_rate,
        sw.requests,
    );

    let widths = [24usize, 8, 8, 8, 8, 8, 9, 10, 7, 7];
    row(
        &[
            &"cell", &"served", &"shed%", &"hit%", &"p50ms", &"p95ms", &"p99ms", &"thruRps",
            &"degr", &"slaViol",
        ],
        &widths,
    );

    // The exports are rendered per cell, while its engine is alive, and only
    // when a flag asked for the bytes.
    let (mut serve_doc, mut trace_doc) = (String::new(), String::new());
    let cells = serve_sweep(&ds, &sw, |cell, eng| {
        let report = &cell.report;
        if serve_out.is_some() {
            serve_doc.push_str(&serve_jsonl(&cell.label, report, &eng.obs));
        }
        if trace_out.is_some() {
            let (tracer, alerts) = (eng.request_tracer(), eng.alerts());
            trace_doc.push_str(&serve_trace_jsonl(&cell.label, tracer, alerts));
        }
        let hit_pct = if report.served > 0 {
            100.0 * report.cache_hits as f64 / report.served as f64
        } else {
            0.0
        };
        row(
            &[
                &cell.label,
                &report.served,
                &format!("{:.1}", report.shed_fraction * 100.0),
                &format!("{hit_pct:.1}"),
                &format!("{:.2}", report.p50_ms),
                &format!("{:.2}", report.p95_ms),
                &format!("{:.2}", report.p99_ms),
                &format!("{:.0}", report.throughput_rps),
                &report.degraded_served,
                &report.sla_violations,
            ],
            &widths,
        );
    });

    println!("\nshed breakdown is exported per cell; sla violations must be 0 in every mode");
    if let Some(path) = serve_out {
        std::fs::write(&path, serve_doc).expect("write --serve-out");
        eprintln!("wrote serve JSONL to {path}");
    }
    if let Some(path) = trace_out {
        std::fs::write(&path, trace_doc).expect("write --trace-out");
        eprintln!("wrote request-trace JSONL to {path}");
    }
    if let Some(path) = bench_out {
        std::fs::write(&path, table::write::<ServeSuite>(sw.seed, &cells))
            .expect("write --bench-json");
        eprintln!("wrote bench JSON to {path}");
    }
}
