//! `train_fresh`, `train_ns` and `train_sampling`: one `Trainer` epoch a pass.

use super::{stage_parts, stage_seconds, timed, Pass, Thresholds, Workload, EVAL_NODES};
use crate::probes::{layer_probes, trainer_probes, LayerInputs, Prober, CAPTURED_BATCHES};
use crate::report::Check;
use crate::span::Spans;
use fgnn_graph::datasets::{papers100m_spec, products_spec, DatasetSpec};
use fgnn_graph::Dataset;
use fgnn_memsim::presets::Machine;
use fgnn_memsim::stage::StageKind;
use fgnn_nn::model::Arch;
use fgnn_nn::Adam;
use freshgnn::cache::CacheStats;
use freshgnn::obs::export::chrome_trace;
use freshgnn::{FreshGnnConfig, Trainer};

/// Sizes and hyper-parameters of a training workload.
#[derive(Clone, Debug)]
pub struct TrainCfg {
    /// Dataset to materialise.
    pub spec: DatasetSpec,
    /// Hidden width.
    pub hidden: usize,
    /// Trainer configuration (fanouts, batch size, cache thresholds).
    pub train: FreshGnnConfig,
    /// `Some(queue capacity)`: the traced run ends with one overlapped epoch,
    /// `train_epoch_async` with sampler workers, for the `sampler` and
    /// `runtime` ledgers. The timed passes are synchronous on every workload:
    /// a pass that needs two cores at once takes half as long again whenever
    /// a neighbour on the shared box holds one, and no bound survives that.
    pub overlap_probe: Option<usize>,
    /// Seconds a pass takes on the reference box; `--seconds` ÷ this is the
    /// pass count, so the count is the same on every machine.
    pub nominal_pass_s: f64,
    /// Quality thresholds at this size.
    pub thresholds: Thresholds,
}

const LR: f32 = 0.003;
/// `train_fresh`: the paper's configuration in miniature.
pub fn fresh(smoke: bool) -> TrainCfg {
    let train = FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 20,
        fanouts: if smoke {
            vec![5, 5, 3]
        } else {
            vec![10, 10, 5]
        },
        batch_size: if smoke { 64 } else { 128 },
        ..FreshGnnConfig::default()
    };
    TrainCfg {
        spec: papers100m_spec(if smoke { 0.0005 } else { 0.002 }),
        hidden: if smoke { 64 } else { 128 },
        train,
        overlap_probe: None,
        nominal_pass_s: 3.7,
        thresholds: Thresholds::of(smoke),
    }
}

/// `train_ns`: the same dataset, model and fanouts with the cache off.
pub fn ns(smoke: bool) -> TrainCfg {
    let mut cfg = fresh(smoke);
    cfg.train = FreshGnnConfig::neighbor_sampling(cfg.train.fanouts, cfg.train.batch_size);
    cfg.nominal_pass_s = 4.3;
    cfg
}

/// `train_sampling`: a narrow model on a dense graph, where sampling is two
/// fifths of the epoch.
pub fn sampling(smoke: bool) -> TrainCfg {
    let train = FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 40,
        fanouts: if smoke {
            vec![10, 8, 5]
        } else {
            vec![20, 15, 10]
        },
        batch_size: if smoke { 128 } else { 256 },
        ..FreshGnnConfig::default()
    };
    TrainCfg {
        spec: products_spec(if smoke { 0.02 } else { 0.08 }).with_dim(32),
        hidden: 16,
        train,
        overlap_probe: Some(8),
        nominal_pass_s: 3.3,
        thresholds: Thresholds::of(smoke),
    }
}

/// A training workload: dataset, trainer, optimizer, and the cumulative
/// ledgers read after every pass.
pub struct TrainWl {
    cfg: TrainCfg,
    seed: u64,
    ds: Dataset,
    trainer: Trainer,
    opt: Adam,
    /// `cache.stats()` and `obs.tracer` span count after each pass so far
    /// (index 0: after the warm-up pass).
    after: Vec<(CacheStats, usize)>,
    /// Sampler workers the overlapped probe pass ran with (0: it did not run).
    workers: usize,
}

impl Workload for TrainWl {
    type Cfg = TrainCfg;

    fn setup(cfg: &TrainCfg, seed: u64, spans: &mut Spans) -> TrainWl {
        let ds = spans.scope("graph.materialize", |_| {
            Dataset::materialize(cfg.spec.clone(), seed)
        });
        let trainer = spans.scope("pipeline.new", |_| {
            Trainer::new(
                &ds,
                Arch::Sage,
                cfg.hidden,
                Machine::single_a100(),
                cfg.train.clone(),
                seed,
            )
        });
        TrainWl {
            cfg: cfg.clone(),
            seed,
            ds,
            trainer,
            opt: Adam::new(LR),
            after: Vec::new(),
            workers: 0,
        }
    }

    fn passes_for(cfg: &TrainCfg, seconds: u32) -> usize {
        (seconds as f64 / cfg.nominal_pass_s) as usize
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn pass(&mut self, spans: &mut Spans, label: &str) -> Pass {
        let (ds, trainer, opt) = (&self.ds, &mut self.trainer, &mut self.opt);
        let (stats, wall_s, id) = timed(spans, label, || trainer.train_epoch(ds, opt));
        let stage_s = stage_seconds(&stats.timings);
        spans.attach_ledger(id, &stage_parts(&stage_s));
        self.after
            .push((trainer.cache.stats(), trainer.obs.tracer.spans().len()));

        let planned = ds.train_nodes.len().div_ceil(self.cfg.train.batch_size) as u64;
        let finite = stats.mean_loss.is_finite();
        let lost = planned - stats.batches as u64;
        let failed = if finite {
            (lost + stats.counters.failed_transfers).min(planned)
        } else {
            planned
        };
        Pass {
            wall_s,
            items: ds.train_nodes.len() as u64,
            attempted: planned,
            failed,
            refused: 0,
            wire_bytes: stats.counters.wire_bytes(),
            loss: Some(stats.mean_loss),
            iters: stats.batches as u64,
            stage_s,
            exact: vec![stats.mean_loss.to_bits(), stats.counters.wire_bytes()],
            counters: stats.counters,
        }
    }

    fn test_acc(&mut self) -> f64 {
        let n = self.ds.test_nodes.len().min(EVAL_NODES);
        self.trainer
            .evaluate(&self.ds, &self.ds.test_nodes[..n], 256)
    }

    fn thresholds(&self) -> Option<Thresholds> {
        Some(self.cfg.thresholds)
    }

    fn checks(&self, out: &mut Vec<Check>) {
        out.push(hit_age_check(&self.trainer));
        if !self.cfg.train.cache_enabled() {
            let lookups = self.trainer.cache.lookups();
            out.push(Check::new(
                "ns-zero-cache-lookups",
                lookups == 0,
                format!("{lookups} lookups"),
            ));
        }
    }

    fn layer_metrics(&mut self, passes: &[Pass], p: &mut Prober) {
        cache_ledger(&self.after, passes, self.trainer.cache.bytes(), p);
        p.metrics.set(
            "cache.max_hit_age_iters",
            max_hit_age(&self.trainer).unwrap_or(0.0),
        );
        obs_metrics(&self.after, &self.trainer, p);
        if let Some(queue) = self.cfg.overlap_probe {
            self.overlapped_pass(queue, p);
        }

        let batches = self.trainer.plan_epoch_batches(&self.ds);
        let batches = &batches[..batches.len().min(CAPTURED_BATCHES)];
        trainer_probes(
            &mut self.trainer,
            Some(&self.opt),
            &self.ds,
            batches,
            self.seed,
            p,
        );
        let ring = ring_geometry(&self.trainer, self.cfg.hidden);
        layer_probes(
            LayerInputs {
                ds: &self.ds,
                fanouts: &self.cfg.train.fanouts,
                batches,
                ring_dim: ring.0,
                ring_capacity: ring.1,
                t_stale: self.cfg.train.t_stale.max(1),
                seed: self.seed,
                model: &mut self.trainer.model,
            },
            p,
        );
    }
}

impl TrainWl {
    /// One more epoch through `train_epoch_async`: the same pipeline with
    /// sampling overlapped instead of serial. Its wall time and the ledgers
    /// of `sampler` and `runtime::Pool`, which only this epoch writes.
    fn overlapped_pass(&mut self, queue: usize, p: &mut Prober) {
        self.workers = crate::pool_workers();
        let (ds, trainer, opt, workers) =
            (&self.ds, &mut self.trainer, &mut self.opt, self.workers);
        let (stats, wall_s, id) = timed(p.spans, "probe.sampler.overlapped_pass", || {
            trainer
                .train_epoch_async(ds, opt, workers, queue)
                .expect("fault-free sampling delivers every batch")
        });
        let stage_s = stage_seconds(&stats.timings);
        p.spans.attach_ledger(id, &stage_parts(&stage_s));
        p.metrics.set("sampler.overlapped_pass_s", wall_s);
        p.metrics.set(
            "sampler.stall_s_per_pass",
            stage_s[StageKind::Sample.index()],
        );
        let m = &trainer.obs.metrics;
        if let Some(h) = m.histogram("sampler.queue_depth") {
            p.metrics.set(
                "sampler.queue_depth_mean",
                h.sum() / h.count().max(1) as f64,
            );
        }
        let counter = |name: &str| m.counter(name).unwrap_or(0) as f64;
        p.metrics
            .set("runtime.steals_per_pass", counter("sampler.steals"));
        p.metrics
            .set("runtime.parks_per_pass", counter("sampler.parks"));
    }
}

/// Conservative largest hit age: the upper edge of the highest non-empty
/// bucket of the cache's hit-age histogram (twice the last edge for the
/// overflow bucket). `None` when nothing was ever hit.
pub fn max_hit_age(trainer: &Trainer) -> Option<f64> {
    trainer.cache.hit_age_histogram().percentile(1.0)
}

/// `t_stale` is never exceeded on a read. The public ledger is a bucketed
/// histogram, so the check is as sharp as its edges: every bucket that lies
/// wholly beyond `t_stale` must be empty.
pub fn hit_age_check(trainer: &Trainer) -> Check {
    let t_stale = trainer.cfg.t_stale as f64;
    let h = trainer.cache.hit_age_histogram();
    let mut beyond = 0u64;
    let mut lower = 0.0;
    for (i, &count) in h.counts().iter().enumerate() {
        if lower >= t_stale {
            beyond += count;
        }
        lower = h.bounds().get(i).copied().unwrap_or(lower);
    }
    Check::new(
        "hit-age-within-t_stale",
        beyond == 0,
        format!("{beyond} hits in buckets wholly beyond t_stale {t_stale}"),
    )
}

/// `cache.*` ledger metrics over the timed passes, from cumulative snapshots
/// (`after[0]` is the state after the warm-up pass).
pub fn cache_ledger(after: &[(CacheStats, usize)], passes: &[Pass], bytes: usize, p: &mut Prober) {
    let (first, last) = (&after[0].0, &after[after.len() - 1].0);
    let n = passes.len() as f64;
    let iters: u64 = passes.iter().map(|p| p.iters).sum();
    let hits = last.hits - first.hits;
    let misses = last.misses - first.misses;
    if hits + misses > 0 {
        p.metrics
            .set("cache.hit_rate", hits as f64 / (hits + misses) as f64);
    }
    p.metrics.set(
        "cache.admits_per_iter",
        (last.admits - first.admits) as f64 / iters.max(1) as f64,
    );
    p.metrics.set(
        "cache.stale_evictions_per_pass",
        (last.stale_evictions - first.stale_evictions) as f64 / n,
    );
    p.metrics.set(
        "cache.grad_evictions_per_pass",
        (last.grad_evictions - first.grad_evictions) as f64 / n,
    );
    p.metrics.set("cache.bytes_mb", bytes as f64 / 1e6);
}

/// `obs.*`: spans the program's own tracer recorded per timed pass, and the
/// time to export them, per pass.
pub fn obs_metrics(after: &[(CacheStats, usize)], trainer: &Trainer, p: &mut Prober) {
    let timed_passes = (after.len() - 1) as f64;
    let spans = after[after.len() - 1].1 - after[0].1;
    p.metrics
        .set("obs.spans_per_pass", spans as f64 / timed_passes);
    let t = p.time("probe.obs.chrome_trace", 3, |sw| {
        sw.run(|| chrome_trace(&[("train", &trainer.obs.tracer)]).len());
    });
    p.metrics
        .set("obs.export_ms", t.median * 1e3 / after.len() as f64);
}

/// `(row width, rows)` of the trainer's first cached level, or a ring of one
/// batch of `hidden`-wide rows when the cache is off.
pub fn ring_geometry(trainer: &Trainer, hidden: usize) -> (usize, usize) {
    trainer
        .cache
        .snapshot()
        .levels
        .iter()
        .flatten()
        .next()
        .map_or((hidden, trainer.cfg.batch_size), |ring| {
            (ring.table.cols(), ring.table.rows())
        })
}
