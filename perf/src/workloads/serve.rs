//! `serve`: one replay of a request trace on a fresh `ServeEngine` a pass.
//!
//! The trace is open loop and offers more than the admission controller's
//! contracted rate in its bursts, so about 4 % of requests are turned away
//! by the token bucket. That is the overload path doing its job: those
//! requests lower `ok_frac` and `serve.shed_frac` but are not `failed`.

use super::{timed, Pass, Thresholds, Workload};
use crate::probes::{layer_probes, LayerInputs, Prober};
use crate::report::Check;
use crate::span::Spans;
use fgnn_graph::datasets::{arxiv_spec, DatasetSpec};
use fgnn_graph::{Dataset, NodeId};
use fgnn_memsim::presets::Machine;
use fgnn_memsim::TrafficCounters;
use fgnn_nn::model::Arch;
use fgnn_nn::{Adam, Model};
use fgnn_tensor::Rng;
use freshgnn::obs::export::chrome_trace;
use freshgnn::serve::{generate_trace, Request};
use freshgnn::{FreshGnnConfig, Obs, ServeConfig, ServeEngine, ServeReport, Trainer};

/// Sizes and knobs of the serving workload.
#[derive(Clone, Debug)]
pub struct ServeCfg {
    /// Dataset to materialise.
    pub spec: DatasetSpec,
    /// Hidden width of the served model.
    pub hidden: usize,
    /// Engine configuration; its `seed` is replaced by the run's.
    pub serve: ServeConfig,
    /// Epochs the served model is trained for in set-up, so that what the
    /// cache serves can be scored against labels.
    pub train_epochs: usize,
    /// Requests of the hit-path and miss-path probe replays.
    pub probe_requests: usize,
}

const NOMINAL_PASS_S: f64 = 3.5;
/// Staleness bound no probe request ever reaches.
const LONG_MS: u32 = 1 << 30;

/// The `serve` workload at full or smoke size.
pub fn cfg(smoke: bool) -> ServeCfg {
    let mut serve = ServeConfig::default();
    serve.trace.num_requests = if smoke { 100_000 } else { 2_000_000 };
    serve.trace.num_nodes = 2048;
    serve.trace.zipf_exponent = 1.2;
    serve.trace.rate_rps = 4000.0;
    serve.trace.budget_ms = (2000, 8000);
    serve.admission.rate_rps = 6000.0;
    serve.freshness.cache_capacity = 4096;
    serve.freshness.admit_top_frac = 1.0;
    serve.freshness.t_sla_ms = 2000;
    serve.fanouts = vec![5, 5];
    ServeCfg {
        spec: arxiv_spec(0.02).with_dim(32),
        hidden: 32,
        serve,
        train_epochs: 2,
        probe_requests: if smoke { 30_000 } else { 300_000 },
    }
}

/// What is kept of a pass's engine once it is dropped.
struct Kept {
    /// The engine's observability state (moved out, not copied).
    obs: Obs,
    /// Spans of its request tracer.
    request_spans: usize,
    /// Ring-cache lookups, hits, stale evictions and bytes.
    ring: (u64, u64, u64, usize),
    /// Share of the trace universe's cached rows whose arg-max is the label.
    served_acc: f64,
}

/// The serving workload: dataset, trace, trained parameters, and one
/// `ServeReport` per pass.
pub struct ServeWl {
    cfg: ServeCfg,
    serve: ServeConfig,
    ds: Dataset,
    trace: Vec<Request>,
    params: Vec<f32>,
    reports: Vec<ServeReport>,
    kept: Option<Kept>,
}

impl ServeWl {
    fn engine(&self, serve: ServeConfig) -> ServeEngine<'_> {
        let mut eng = ServeEngine::new(&self.ds, self.cfg.hidden, Machine::single_a100(), serve)
            .expect("the workload's configuration is valid");
        eng.model_mut().import_parameters(&self.params);
        eng
    }
}

/// Accuracy of what the engine's cache holds for the trace universe: the
/// embeddings it would serve on a hit.
fn served_accuracy(eng: &ServeEngine, ds: &Dataset, universe: usize) -> f64 {
    let ring = eng.store().cache().snapshot();
    let mut cached = 0usize;
    let mut right = 0usize;
    for node in 0..universe {
        let slot = ring.slot_of[node];
        if slot == u32::MAX {
            continue;
        }
        let row = ring.table.row(slot as usize);
        let best = (0..row.len())
            .max_by(|&a, &b| row[a].total_cmp(&row[b]))
            .expect("rows are not empty");
        cached += 1;
        right += (best == ds.labels[node] as usize) as usize;
    }
    right as f64 / cached.max(1) as f64
}

impl Workload for ServeWl {
    type Cfg = ServeCfg;

    fn setup(cfg: &ServeCfg, seed: u64, spans: &mut Spans) -> ServeWl {
        let ds = spans.scope("graph.materialize", |_| {
            Dataset::materialize(cfg.spec.clone(), seed)
        });
        let serve = ServeConfig {
            seed,
            ..cfg.serve.clone()
        };
        let params = spans.scope("serve.model_train", |_| {
            let train = FreshGnnConfig::neighbor_sampling(serve.fanouts.clone(), 256);
            let machine = Machine::single_a100();
            let mut t = Trainer::new(&ds, Arch::Sage, cfg.hidden, machine, train, seed);
            let mut opt = Adam::new(0.01);
            for _ in 0..cfg.train_epochs {
                t.train_epoch(&ds, &mut opt);
            }
            t.model.export_parameters()
        });
        let trace = spans.scope("serve.trace_gen", |_| generate_trace(&serve.trace, seed));
        let wl = ServeWl {
            cfg: cfg.clone(),
            serve,
            ds,
            trace,
            params,
            reports: Vec::new(),
            kept: None,
        };
        spans.scope("serve.new", |_| drop(wl.engine(wl.serve.clone())));
        wl
    }

    fn passes_for(_: &ServeCfg, seconds: u32) -> usize {
        (seconds as f64 / NOMINAL_PASS_S) as usize
    }

    fn pass(&mut self, spans: &mut Spans, label: &str) -> Pass {
        // Drop the last pass's telemetry before this pass allocates its own.
        self.kept = None;
        let mut eng = self.engine(self.serve.clone());
        let (report, wall_s, _) = timed(spans, label, || {
            eng.run(&self.trace)
                .expect("the trace is valid and not wholly shed")
        });
        let m = &eng.obs.metrics;
        let h2d = m.counter("serve.transfer.h2d_bytes").unwrap_or(0);
        let counters = TrafficCounters {
            host_to_gpu_bytes: h2d,
            transfer_seconds: m.gauge("serve.transfer.seconds").unwrap_or(0.0),
            failed_transfers: m.counter("serve.transfer.failed").unwrap_or(0),
            ..TrafficCounters::new()
        };
        let pass = Pass {
            wall_s,
            items: report.offered,
            attempted: report.offered,
            failed: report.shed_queue_full
                + report.shed_deadline
                + report.sla_violations
                + report.deadline_misses
                + counters.failed_transfers,
            refused: report.shed_rate_limited,
            wire_bytes: h2d,
            loss: None,
            iters: m.counter("serve.batches").unwrap_or(0),
            stage_s: Default::default(),
            counters,
            exact: vec![
                report.served,
                report.cache_hits,
                report.cache_misses,
                report.shed_total(),
                report.p50_ms.to_bits(),
                report.p99_ms.to_bits(),
                h2d,
            ],
        };
        let ring = eng.store().cache();
        let kept = Kept {
            request_spans: eng.request_tracer().spans().len(),
            ring: (ring.lookups, ring.hits, ring.stale_evictions, ring.bytes()),
            served_acc: served_accuracy(&eng, &self.ds, self.serve.trace.num_nodes),
            obs: std::mem::take(&mut eng.obs),
        };
        drop(eng);
        self.kept = Some(kept);
        self.reports.push(report);
        pass
    }

    fn test_acc(&mut self) -> f64 {
        self.kept.as_ref().map_or(0.0, |k| k.served_acc)
    }

    fn thresholds(&self) -> Option<Thresholds> {
        None
    }

    fn checks(&self, out: &mut Vec<Check>) {
        let last = self.reports.last().expect("at least one pass ran");
        out.push(Check::new(
            "served-plus-shed-is-offered",
            last.served + last.shed_total() == last.offered,
            format!(
                "{} + {} vs {}",
                last.served,
                last.shed_total(),
                last.offered
            ),
        ));
        out.push(Check::new(
            "sla-violations-zero",
            last.sla_violations == 0,
            format!("{} violations", last.sla_violations),
        ));
        out.push(Check::new(
            "serve-reports-equal",
            self.reports.iter().all(|r| r == last),
            format!("{} replays of one trace", self.reports.len()),
        ));
    }

    fn layer_metrics(&mut self, passes: &[Pass], p: &mut Prober) {
        let last = self.reports.last().expect("at least one pass ran");
        let m = &mut *p.metrics;
        m.set(
            "serve.hit_rate",
            last.cache_hits as f64 / last.served.max(1) as f64,
        );
        m.set("serve.shed_frac", last.shed_fraction);
        m.set("serve.sim_p50_ms", last.p50_ms);
        m.set("serve.sim_p99_ms", last.p99_ms);
        m.set("serve.max_queue_depth", last.max_queue_depth as f64);
        m.set("serve.trace_gen_s", p.spans.total_s("serve.trace_gen"));

        let kept = self.kept.take().expect("at least one pass ran");
        let (lookups, hits, stale, bytes) = kept.ring;
        m.set("cache.hit_rate", hits as f64 / lookups.max(1) as f64);
        m.set("cache.stale_evictions_per_pass", stale as f64);
        m.set("cache.bytes_mb", bytes as f64 / 1e6);
        m.set(
            "cache.admits_per_iter",
            last.cache_misses as f64 / passes[0].iters.max(1) as f64,
        );
        m.set(
            "obs.spans_per_pass",
            (kept.obs.tracer.spans().len() + kept.request_spans) as f64,
        );
        let t = p.time("probe.obs.chrome_trace", 1, |sw| {
            sw.run(|| chrome_trace(&[("serve", &kept.obs.tracer)]).len());
        });
        p.metrics.set("obs.export_ms", t.median * 1e3);
        drop(kept);

        // Read path and miss path apart: replays on a 64-node universe that
        // is wholly warm with an unreachable staleness bound, then with a
        // bound of zero so that every request recomputes.
        let mut probe = self.serve.clone();
        probe.trace.num_requests = self.cfg.probe_requests;
        probe.trace.num_nodes = 64;
        probe.trace.budget_ms = (LONG_MS, LONG_MS);
        probe.admission.rate_rps = 1e9;
        probe.admission.burst = 1e9;
        let trace = generate_trace(&probe.trace, probe.seed);
        let universe: Vec<NodeId> = (0..64).collect();
        for (metric, span, t_sla_ms) in [
            ("serve.hit_path_us", "probe.serve.hit_path", LONG_MS),
            ("serve.miss_path_us", "probe.serve.miss_path", 0),
        ] {
            probe.freshness.t_sla_ms = t_sla_ms;
            let mut served = 0u64;
            let t = p.time(span, 3, |sw| {
                let mut eng = self.engine(probe.clone());
                eng.warm(&universe);
                let report = sw.run(|| eng.run(&trace).expect("probe trace is valid"));
                served = report.served;
            });
            p.put_scaled(metric, t, |s| s * 1e6 / served as f64);
        }

        // The shared layer probes, on miss batches of the batcher's size.
        let batch = self.serve.batcher.max_batch;
        let batches: Vec<Vec<NodeId>> = (0..self.serve.trace.num_nodes as NodeId)
            .collect::<Vec<_>>()
            .chunks(batch)
            .take(crate::probes::CAPTURED_BATCHES)
            .map(<[NodeId]>::to_vec)
            .collect();
        let dims = [
            self.ds.spec.feature_dim,
            self.cfg.hidden,
            self.ds.spec.num_classes,
        ];
        let mut model = Model::new(Arch::Sage, &dims, &mut Rng::new(self.serve.seed));
        model.import_parameters(&self.params);
        layer_probes(
            LayerInputs {
                ds: &self.ds,
                model: &mut model,
                fanouts: &self.serve.fanouts,
                batches: &batches,
                ring_dim: self.ds.spec.num_classes,
                ring_capacity: self.serve.freshness.cache_capacity,
                t_stale: self.serve.freshness.t_sla_ms,
                seed: self.serve.seed,
            },
            p,
        );
    }
}
