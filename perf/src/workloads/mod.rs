//! The run shape every workload shares: set-up, one warm-up pass, timed
//! passes, quality, checks and — on the traced run — per-layer metrics.
//!
//! All measurement is from outside the program: the harness times calls into
//! the layers' public functions and reads the public ledgers those calls
//! return. Nothing in `crates/` knows it is being benchmarked.

pub mod cluster;
pub mod serve;
pub mod train;

use crate::alloc;
use crate::metrics::{Metrics, PER_LAYER};
use crate::probes::Prober;
use crate::report::{Check, Fingerprint, RunRecord};
use crate::span::{SpanId, Spans};
use crate::stats::Summary;
use fgnn_memsim::stage::{StageKind, StageTimings, NUM_STAGES};
use fgnn_memsim::TrafficCounters;
use std::hint::black_box;
use std::time::Instant;

/// Timed passes never drop below this, whatever `--seconds` says.
pub const MIN_PASSES: usize = 3;
/// Timed passes of a `--smoke` run.
pub const SMOKE_PASSES: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Test nodes `test_acc` is evaluated on, at most.
pub const EVAL_NODES: usize = 2000;

/// What `run.sh` passes for one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of timed work asked for.
    pub seconds: u32,
    /// Span recorder and counting allocator on.
    pub traced: bool,
    /// 1/10-size inputs, 1 + 2 passes.
    pub smoke: bool,
    /// `rustc -V` and git commit, from the environment `run.sh` sets.
    pub rustc: String,
    /// See `rustc`.
    pub commit: String,
}

/// The ledger of one pass, as the program reported it, plus its wall time.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall seconds of the call(s) into the program that make the pass.
    pub wall_s: f64,
    /// Seeds trained or requests offered.
    pub items: u64,
    /// Batches (training) or requests (serving) attempted.
    pub attempted: u64,
    /// Of those, how many went wrong: batches without a finite loss or with a
    /// transfer that fell back; requests dropped by a full queue or an
    /// unreachable deadline, served staler than contracted, or served late.
    pub failed: u64,
    /// Requests the admission controller turned away because they arrived
    /// above the contracted rate. The open-loop trace over-offers on purpose,
    /// so these are the program working, not failing; they lower `ok_frac`
    /// and are not counted in `failed`.
    pub refused: u64,
    /// Bytes that crossed a simulated wire.
    pub wire_bytes: u64,
    /// Mean loss of the pass (training workloads).
    pub loss: Option<f64>,
    /// Iterations (batches, rounds × hosts, or serve batches).
    pub iters: u64,
    /// Measured seconds per pipeline stage, from the program's stage ledger.
    pub stage_s: [f64; NUM_STAGES],
    /// Traffic ledger of the pass.
    pub counters: TrafficCounters,
    /// Exact quantities a rerun of the same seed must reproduce bit for bit.
    pub exact: Vec<u64>,
}

/// Quality thresholds of a workload at a size.
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Last-pass loss must be below this share of the warm-up pass's loss.
    pub loss_ratio: f64,
    /// Least acceptable `test_acc`.
    pub min_test_acc: f64,
}

impl Thresholds {
    /// Full size: the loss halves and the model is accurate.
    pub const FULL: Thresholds = Thresholds {
        loss_ratio: 0.5,
        min_test_acc: 0.80,
    };
    /// Smoke size, a few dozen optimizer steps: the loss must fall and the
    /// model must beat chance by a wide margin, no more.
    pub const SMOKE: Thresholds = Thresholds {
        loss_ratio: 1.0,
        min_test_acc: 0.10,
    };

    /// The thresholds of a size.
    pub fn of(smoke: bool) -> Thresholds {
        if smoke {
            Thresholds::SMOKE
        } else {
            Thresholds::FULL
        }
    }
}

/// One benchmark workload: inputs, the program objects under test, and the
/// glue that turns their ledgers into metrics.
pub trait Workload: Sized {
    /// Sizes and hyper-parameters.
    type Cfg;

    /// Build the inputs and the program objects: everything before the
    /// warm-up pass. Timed as `setup_s`.
    fn setup(cfg: &Self::Cfg, seed: u64, spans: &mut Spans) -> Self;

    /// Timed passes for `seconds` of work at this size.
    fn passes_for(cfg: &Self::Cfg, seconds: u32) -> usize;

    /// Program worker threads used, beside the driver thread.
    fn workers(&self) -> usize {
        0
    }

    /// Run one pass under a span named `label`.
    fn pass(&mut self, spans: &mut Spans, label: &str) -> Pass;

    /// Accuracy after the last pass.
    fn test_acc(&mut self) -> f64;

    /// Loss and accuracy thresholds; `None` for a workload without a loss.
    fn thresholds(&self) -> Option<Thresholds>;

    /// Checks on the program's own ledgers beyond the generic ones.
    fn checks(&self, out: &mut Vec<Check>);

    /// Ledger metrics and probes of the layers this workload exercises.
    /// `passes` are the timed ones. Runs last: probes may disturb state.
    fn layer_metrics(&mut self, passes: &[Pass], p: &mut Prober);
}

/// Time `f` under a span named `label`.
pub fn timed<R>(spans: &mut Spans, label: &str, f: impl FnOnce() -> R) -> (R, f64, SpanId) {
    let id = spans.open(label);
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_secs_f64();
    spans.close(id);
    (out, wall, id)
}

/// Span name of each pipeline stage, in `StageKind::index` order; the stage's
/// metric is the name plus `_s`.
const STAGE_NAMES: [&str; NUM_STAGES] = [
    "pipeline.sample",
    "pipeline.prune",
    "pipeline.load",
    "pipeline.forward",
    "pipeline.backward",
    "pipeline.cache_update",
    "pipeline.optim",
];

/// Measured seconds per stage of a stage ledger.
pub fn stage_seconds(timings: &StageTimings) -> [f64; NUM_STAGES] {
    StageKind::ALL.map(|kind| timings.measured_seconds(kind))
}

/// The stage ledger of a pass as `(span name, seconds)` parts.
pub fn stage_parts(stage_s: &[f64; NUM_STAGES]) -> Vec<(&'static str, f64)> {
    STAGE_NAMES.iter().copied().zip(*stage_s).collect()
}

/// A fixed scalar loop plus a 64 MB copy: the same work on every machine and
/// commit, so two reports can be read as ratios to it.
pub fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..40_000_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(i | 1);
    }
    black_box(x);
    let src = vec![1u8; 64 << 20];
    let mut dst = vec![0u8; 64 << 20];
    dst.copy_from_slice(black_box(&src));
    black_box(&dst);
    t.elapsed().as_secs_f64()
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |m| m.trim().to_string())
}

/// Run workload `W` named `name` once and return its record.
pub fn run<W: Workload>(name: &'static str, cfg: &W::Cfg, args: &RunArgs) -> RunRecord {
    if !alloc::pin_malloc_policy() {
        eprintln!("fgnn-perf: malloc policy not pinned here; timings depend on allocation history");
    }
    let mut spans = Spans::new(name, args.traced);
    let run_span = spans.open("run");

    // Set-up. The untraced run repeats it and reports the median, dropping
    // each build before the next so the peak stays that of one.
    let repeats = if args.traced || args.smoke {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut built: Option<W> = None;
    for _ in 0..repeats {
        drop(built.take());
        let t = Instant::now();
        let w = spans.scope("setup", |s| W::setup(cfg, args.seed, s));
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some(w);
    }
    let mut w = built.expect("at least one set-up");

    let passes_n = if args.smoke {
        SMOKE_PASSES
    } else {
        W::passes_for(cfg, args.seconds).max(MIN_PASSES)
    };
    let warmup = w.pass(&mut spans, "warmup");
    let alloc_before = alloc::counted();
    alloc::set_counting(args.traced);
    let passes: Vec<Pass> = (0..passes_n)
        .map(|i| w.pass(&mut spans, &format!("pass[{i}]")))
        .collect();
    alloc::set_counting(false);
    let alloc_after = alloc::counted();

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut metrics = Metrics::default();
    let mut test_acc = None;
    if !args.traced {
        let acc = w.test_acc();
        test_acc = Some(acc);
        end_to_end(&passes, &setup_s, acc, &mut metrics);
    }
    let mut checks = quality_checks(w.thresholds(), &warmup, &passes, test_acc);
    w.checks(&mut checks);
    if args.traced {
        let counted = (
            alloc_after.0 - alloc_before.0,
            alloc_after.1 - alloc_before.1,
        );
        ledger_metrics(&warmup, &passes, counted, &mut metrics);
        metrics.set("graph.materialize_s", spans.total_s("graph.materialize"));
        match untraced_pass_s(name, args, passes_n) {
            Some(untraced) => metrics.set(
                "perf.trace_overhead_frac",
                median_wall(&passes) / untraced - 1.0,
            ),
            None => eprintln!(
                "fgnn-perf: no untraced record of {name} at this seed and size in {}; \
                 perf.trace_overhead_frac reads 0",
                crate::out_dir()
            ),
        }
        let reps = if args.smoke { 5 } else { 30 };
        let mut prober = Prober::new(&mut spans, &mut metrics, reps);
        w.layer_metrics(&passes, &mut prober);
    }
    let workers = w.workers();
    drop(w);
    // Last, so that its 128 MB of buffers are not in `peak_rss_mb`.
    let calib_s = spans.scope("perf.calibrate", |_| calibrate());
    if args.traced {
        metrics.set("perf.calib_s", calib_s);
    }
    spans.close(run_span);

    let finite = metrics.iter().all(|(_, s)| s.median.is_finite());
    checks.push(Check::new(
        "metrics-finite",
        finite,
        "every reported value is a finite number".into(),
    ));
    if args.traced {
        // The driver asks every traced run for every per-layer metric; a
        // layer this workload does not exercise reads 0.
        metrics.fill_missing(&PER_LAYER);
        let path = format!("{}/{name}.trace.json", crate::out_dir());
        if let Err(e) = std::fs::write(&path, spans.chrome_trace()) {
            eprintln!("fgnn-perf: cannot write {path}: {e}");
        }
    }

    RunRecord {
        workload: name.to_string(),
        traced: args.traced,
        smoke: args.smoke,
        seconds: args.seconds,
        passes: passes_n,
        fingerprint: Fingerprint {
            nproc: crate::nproc(),
            cpu: cpu_model(),
            rustc: args.rustc.clone(),
            commit: args.commit.clone(),
            seed: args.seed,
            workers,
            calib_s,
        },
        attempted,
        failed,
        checks,
        metrics,
        exact: std::iter::once(&warmup)
            .chain(&passes)
            .flat_map(|p| p.exact.iter().copied())
            .collect(),
    }
}

fn median_wall(passes: &[Pass]) -> f64 {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    Summary::of(&walls).median
}

/// The end-to-end metrics of the timed passes (untraced run).
fn end_to_end(passes: &[Pass], setup_s: &[f64], test_acc: f64, metrics: &mut Metrics) {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let sum = |f: &dyn Fn(&Pass) -> u64| -> f64 { passes.iter().map(f).sum::<u64>() as f64 };
    let walls = per_pass(&|p| p.wall_s);
    metrics.set_samples("setup_s", setup_s);
    metrics.set_samples("pass_s", &walls);
    metrics.set("items_per_s", sum(&|p| p.items) / walls.iter().sum::<f64>());
    // Per pass, and a median of an odd count: one pass's exact value.
    metrics.set_samples("wire_mb", &per_pass(&|p| p.wire_bytes as f64 / 1e6));
    metrics.set("test_acc", test_acc);
    metrics.set(
        "ok_frac",
        1.0 - sum(&|p| p.failed + p.refused) / sum(&|p| p.attempted),
    );
    metrics.set("peak_rss_mb", peak_rss_mb());
}

/// The checks every workload shares: the loss behaves, the model learned,
/// nothing failed.
fn quality_checks(
    thresholds: Option<Thresholds>,
    warmup: &Pass,
    passes: &[Pass],
    test_acc: Option<f64>,
) -> Vec<Check> {
    let mut checks = Vec::new();
    if let Some(t) = thresholds {
        let losses: Vec<f64> = std::iter::once(warmup)
            .chain(passes)
            .filter_map(|p| p.loss)
            .collect();
        checks.push(Check::new(
            "loss-finite",
            losses.iter().all(|l| l.is_finite()),
            format!("{losses:?}"),
        ));
        let (first, last) = (losses[0], losses[losses.len() - 1]);
        checks.push(Check::new(
            "loss-falls",
            last < t.loss_ratio * first,
            format!("last {last} < {} x warm-up {first}", t.loss_ratio),
        ));
        if let Some(acc) = test_acc {
            checks.push(Check::new(
                "test-acc",
                acc >= t.min_test_acc,
                format!("{acc} >= {}", t.min_test_acc),
            ));
        }
    }
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    checks.push(Check::new(
        "no-failed-operations",
        failed == 0,
        format!("{failed} of {attempted}"),
    ));
    checks
}

/// The per-layer metrics every workload's pass ledger carries (traced run).
/// `counted` is the allocator's `(calls, bytes)` over the timed passes.
fn ledger_metrics(warmup: &Pass, passes: &[Pass], counted: (u64, u64), metrics: &mut Metrics) {
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    for (i, name) in STAGE_NAMES.iter().enumerate() {
        metrics.set_samples(&format!("{name}_s"), &per_pass(&|p| p.stage_s[i]));
    }
    // Self time of a pass: its span minus what the stage ledger covers.
    metrics.set_samples(
        "pipeline.self_s",
        &per_pass(&|p| (p.wall_s - p.stage_s.iter().sum::<f64>()).max(0.0)),
    );
    metrics.set_samples("pipeline.iters_per_pass", &per_pass(&|p| p.iters as f64));
    metrics.set("pipeline.warmup_pass_s", warmup.wall_s);
    metrics.set_samples(
        "memsim.transfer_sim_s_per_pass",
        &per_pass(&|p| p.counters.transfer_seconds + p.counters.nic_seconds),
    );
    let saved: u64 = passes.iter().map(|p| p.counters.cache_hit_bytes).sum();
    let moved: u64 = passes.iter().map(|p| p.counters.host_to_gpu_bytes).sum();
    if saved + moved > 0 {
        metrics.set(
            "loader.io_saved_frac",
            saved as f64 / (saved + moved) as f64,
        );
    }
    let items: u64 = passes.iter().map(|p| p.items).sum();
    metrics.set("alloc.count_per_item", counted.0 as f64 / items as f64);
    metrics.set("alloc.kb_per_item", counted.1 as f64 / 1e3 / items as f64);
}

/// `pass_s` of the untraced run of the same workload, seed and size, if its
/// record is in the output directory. Tracing overhead is the difference
/// between two runs, so the traced run needs the other one's number.
fn untraced_pass_s(name: &str, args: &RunArgs, passes: usize) -> Option<f64> {
    let text = std::fs::read_to_string(crate::record_path(name, false)).ok()?;
    let r = RunRecord::from_json(&text).ok()?;
    let same = r.fingerprint.seed == args.seed
        && r.smoke == args.smoke
        && r.seconds == args.seconds
        && r.passes == passes;
    same.then(|| r.metrics.value("pass_s")).filter(|&v| v > 0.0)
}
