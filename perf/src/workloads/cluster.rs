//! `cluster`: one `ClusterTrainer::train(2)` call a pass, 4 hosts, fault-free.

use super::train::{cache_ledger, hit_age_check, max_hit_age, ring_geometry};
use super::{stage_parts, stage_seconds, timed, Pass, Thresholds, Workload, EVAL_NODES};
use crate::probes::{layer_probes, trainer_probes, LayerInputs, Prober, CAPTURED_BATCHES};
use crate::report::Check;
use crate::span::Spans;
use fgnn_graph::datasets::{products_spec, DatasetSpec};
use fgnn_graph::partition::partition_ldg;
use fgnn_graph::Dataset;
use fgnn_memsim::cluster::ClusterFaultPlan;
use fgnn_memsim::stage::NUM_STAGES;
use fgnn_memsim::TrafficCounters;
use fgnn_tensor::Rng;
use freshgnn::cache::CacheStats;
use freshgnn::obs::export::chrome_trace;
use freshgnn::{ClusterConfig, ClusterTrainer, EvalHarness, FreshGnnConfig};

/// Sizes and hyper-parameters of the cluster workload.
#[derive(Clone, Debug)]
pub struct ClusterCfg {
    /// Dataset to materialise and shard.
    pub spec: DatasetSpec,
    /// Cluster shape, model and per-host trainer configuration.
    pub cluster: ClusterConfig,
    /// Quality thresholds at this size.
    pub thresholds: Thresholds,
}

/// Epochs of one `train` call.
const EPOCHS_PER_PASS: u32 = 2;
const NOMINAL_PASS_S: f64 = 3.2;

/// The `cluster` workload at full or smoke size.
pub fn cfg(smoke: bool) -> ClusterCfg {
    let train = FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 40,
        fanouts: if smoke { vec![5, 5] } else { vec![10, 10] },
        batch_size: if smoke { 64 } else { 128 },
        ..FreshGnnConfig::default()
    };
    ClusterCfg {
        spec: products_spec(if smoke { 0.01 } else { 0.1 }),
        cluster: ClusterConfig {
            num_hosts: 4,
            gpus_per_host: 1,
            hidden: if smoke { 32 } else { 64 },
            train,
            ..ClusterConfig::default()
        },
        thresholds: Thresholds::of(smoke),
    }
}

/// Cumulative ledgers of the cluster, read between passes.
#[derive(Clone, Default)]
struct Cumulative {
    rounds: u64,
    losses: usize,
    degraded_reads: u64,
    /// Host trainers' ledgers plus the cluster's comms ledger.
    counters: TrafficCounters,
    stage_s: [f64; NUM_STAGES],
    batches: u64,
    cache: CacheStats,
    spans: usize,
}

/// The cluster workload: the trainer, and its cumulative ledgers after each
/// pass so far.
pub struct ClusterWl {
    cfg: ClusterCfg,
    seed: u64,
    ct: ClusterTrainer,
    after: Vec<Cumulative>,
    /// Wall seconds of the first pass of this fresh trainer.
    first_pass_s: f64,
}

fn hosts(ct: &ClusterTrainer, n: usize) -> impl Iterator<Item = &freshgnn::Trainer> {
    (0..n).map(|h| ct.trainer(h))
}

fn cumulative(ct: &ClusterTrainer, n: usize) -> Cumulative {
    let report = ct.report();
    let mut c = Cumulative {
        rounds: report.rounds,
        losses: report.epoch_losses.len(),
        degraded_reads: report.ledger.degraded_reads,
        counters: report.comms,
        spans: ct.obs().tracer.spans().len(),
        ..Cumulative::default()
    };
    for t in hosts(ct, n) {
        c.counters.merge(&t.counters);
        for (sum, s) in c.stage_s.iter_mut().zip(stage_seconds(&t.timings)) {
            *sum += s;
        }
        c.batches += t.obs.metrics.counter("pipeline.batches").unwrap_or(0);
        let s = t.cache.stats();
        c.cache.hits += s.hits;
        c.cache.misses += s.misses;
        c.cache.admits += s.admits;
        c.cache.stale_evictions += s.stale_evictions;
        c.cache.grad_evictions += s.grad_evictions;
        c.spans += t.obs.tracer.spans().len();
    }
    c
}

impl ClusterWl {
    fn num_hosts(&self) -> usize {
        self.cfg.cluster.num_hosts
    }

    fn new_trainer(cfg: &ClusterCfg, ds: &Dataset, seed: u64) -> ClusterTrainer {
        ClusterTrainer::new(ds, cfg.cluster.clone(), seed)
            .expect("the workload's configuration is valid")
    }
}

impl Workload for ClusterWl {
    type Cfg = ClusterCfg;

    fn setup(cfg: &ClusterCfg, seed: u64, spans: &mut Spans) -> ClusterWl {
        let ds = spans.scope("graph.materialize", |_| {
            Dataset::materialize(cfg.spec.clone(), seed)
        });
        // Partitioning happens inside `ClusterTrainer::new`; it is probed on
        // its own in the traced run (`graph.partition_s`). The trainer keeps
        // its own copy of the graph, so the dataset is dropped here.
        let ct = spans.scope("cluster.new", |_| ClusterWl::new_trainer(cfg, &ds, seed));
        let after = vec![cumulative(&ct, cfg.cluster.num_hosts)];
        ClusterWl {
            cfg: cfg.clone(),
            seed,
            ct,
            after,
            first_pass_s: 0.0,
        }
    }

    fn passes_for(_: &ClusterCfg, seconds: u32) -> usize {
        (seconds as f64 / NOMINAL_PASS_S) as usize
    }

    fn pass(&mut self, spans: &mut Spans, label: &str) -> Pass {
        let n = self.num_hosts();
        let ct = &mut self.ct;
        let (report, wall_s, id) = timed(spans, label, || {
            ct.train(EPOCHS_PER_PASS)
                .expect("a fault-free cluster finishes every epoch")
        });
        let now = cumulative(ct, n);
        let before = self.after.last().expect("set-up took the first reading");
        let mut counters = now.counters.clone();
        counters.subtract(&before.counters);
        let mut stage_s = now.stage_s;
        for (s, b) in stage_s.iter_mut().zip(before.stage_s) {
            *s -= b;
        }
        // Host stages run one after another on the driver thread, so their
        // summed ledger fits inside the pass span.
        spans.attach_ledger(id, &stage_parts(&stage_s));

        let batch = self.cfg.cluster.train.batch_size;
        let (mut planned, mut items) = (0u64, 0u64);
        for h in 0..n {
            let seeds = ct.shard_dataset(h).train_nodes.len();
            planned += seeds.div_ceil(batch) as u64 * EPOCHS_PER_PASS as u64;
            items += seeds as u64 * EPOCHS_PER_PASS as u64;
        }
        let done = now.batches - before.batches;
        let loss = report.epoch_losses.last().copied();
        let finite = loss.is_some_and(f64::is_finite)
            && report.epoch_losses.len() == before.losses + EPOCHS_PER_PASS as usize;
        let failed = if finite {
            (planned.saturating_sub(done) + counters.failed_transfers).min(planned)
        } else {
            planned
        };
        let wire_bytes = counters.wire_bytes();
        if self.after.len() == 1 {
            self.first_pass_s = wall_s;
        }
        let pass = Pass {
            wall_s,
            items,
            attempted: planned,
            failed,
            refused: 0,
            wire_bytes,
            loss,
            iters: now.rounds - before.rounds,
            stage_s,
            counters,
            exact: vec![loss.unwrap_or(f64::NAN).to_bits(), wire_bytes],
        };
        self.after.push(now);
        pass
    }

    fn test_acc(&mut self) -> f64 {
        // Hosts train their own replicas on their own shards; host 0's
        // replica on host 0's test nodes stands for the cluster.
        let shard = self.ct.shard_dataset(0);
        let n = shard.test_nodes.len().min(EVAL_NODES);
        EvalHarness::accuracy(
            &self.ct.trainer(0).model,
            shard,
            &shard.test_nodes[..n],
            &self.cfg.cluster.train.fanouts,
            256,
            &mut Rng::new(self.seed),
        )
    }

    fn thresholds(&self) -> Option<Thresholds> {
        Some(self.cfg.thresholds)
    }

    fn checks(&self, out: &mut Vec<Check>) {
        let worst = hosts(&self.ct, self.num_hosts())
            .map(hit_age_check)
            .find(|c| !c.ok);
        out.push(worst.unwrap_or_else(|| hit_age_check(self.ct.trainer(0))));
    }

    fn layer_metrics(&mut self, passes: &[Pass], p: &mut Prober) {
        let n = self.num_hosts();
        let mb = |bytes: u64| bytes as f64 / 1e6;
        let per_pass = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
        p.metrics.set_samples(
            "cluster.round_ms",
            &per_pass(&|x| x.wall_s * 1e3 / x.iters.max(1) as f64),
        );
        p.metrics
            .set_samples("cluster.rounds_per_pass", &per_pass(&|x| x.iters as f64));
        p.metrics.set_samples(
            "cluster.nic_mb_per_pass",
            &per_pass(&|x| mb(x.counters.nic_bytes)),
        );
        p.metrics.set_samples(
            "cluster.h2d_mb_per_pass",
            &per_pass(&|x| mb(x.counters.host_to_gpu_bytes)),
        );
        let (first, last) = (&self.after[1], &self.after[self.after.len() - 1]);
        p.metrics.set(
            "cluster.degraded_reads",
            (last.degraded_reads - first.degraded_reads) as f64,
        );
        p.metrics
            .set("cluster.new_s", p.spans.total_s("cluster.new"));

        let snapshots: Vec<(CacheStats, usize)> =
            self.after[1..].iter().map(|c| (c.cache, c.spans)).collect();
        let bytes = hosts(&self.ct, n).map(|t| t.cache.bytes()).sum();
        cache_ledger(&snapshots, passes, bytes, p);
        let oldest = hosts(&self.ct, n)
            .filter_map(max_hit_age)
            .fold(0.0, f64::max);
        p.metrics.set("cache.max_hit_age_iters", oldest);
        p.metrics.set(
            "obs.spans_per_pass",
            (last.spans - first.spans) as f64 / passes.len() as f64,
        );
        let ct = &self.ct;
        let t = p.time("probe.obs.chrome_trace", 3, |sw| {
            sw.run(|| {
                let host0 = &ct.trainer(0).obs.tracer;
                chrome_trace(&[("cluster", &ct.obs().tracer), ("host0", host0)]).len()
            });
        });
        p.metrics
            .set("obs.export_ms", t.median * 1e3 / (passes.len() + 1) as f64);

        // Probes on host 0: its shard, its warmed cache, its replica.
        let shard = self.ct.shard_dataset(0).clone();
        let trainer = self.ct.trainer_mut(0);
        let batches = trainer.plan_epoch_batches(&shard);
        let batches = &batches[..batches.len().min(CAPTURED_BATCHES)];
        trainer_probes(trainer, None, &shard, batches, self.seed, p);
        let ring = ring_geometry(trainer, self.cfg.cluster.hidden);
        layer_probes(
            LayerInputs {
                ds: &shard,
                fanouts: &self.cfg.cluster.train.fanouts,
                batches,
                ring_dim: ring.0,
                ring_capacity: ring.1,
                t_stale: self.cfg.cluster.train.t_stale,
                seed: self.seed,
                model: &mut trainer.model,
            },
            p,
        );
        drop(shard);

        // The set-up steps the trainer hides, and the cost of a crash: a
        // fresh cluster on the same inputs loses host 3 at round 2 and gets
        // it back at round 6, and its first pass is set against this run's.
        let ds = Dataset::materialize(self.cfg.spec.clone(), self.seed);
        let partition_seed = self.cfg.cluster.partition_seed;
        let t = p.time("probe.graph.partition_ldg", 3, |sw| {
            sw.run(|| partition_ldg(&ds.graph, n, &mut Rng::new(partition_seed)));
        });
        p.metrics.put("graph.partition_s", t);
        let mut crashed = ClusterWl::new_trainer(&self.cfg, &ds, self.seed);
        drop(ds);
        crashed
            .inject_cluster_faults(ClusterFaultPlan::none().with_crash(2, 3).with_restart(6, 3))
            .expect("the schedule names an existing host");
        let (_, wall_s, _) = timed(p.spans, "probe.cluster.train_with_crash", || {
            crashed
                .train(EPOCHS_PER_PASS)
                .expect("the crashed host restarts and catches up")
        });
        p.metrics.set(
            "cluster.recovery_overhead_frac",
            wall_s / self.first_pass_s - 1.0,
        );
    }
}
