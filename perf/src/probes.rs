//! Probes: after the timed passes, the harness times a layer's public
//! function directly, on inputs captured from the workload (its first planned
//! batches, its model shapes, its cache geometry), and reports the median.
//!
//! Bytes and FLOPs in the rates below are computed from shapes, not counted
//! by hardware: rows × columns × 4 bytes moved once, 2·n·k·m FLOPs a product.

use crate::metrics::Metrics;
use crate::span::Spans;
use crate::stats::Summary;
use fgnn_graph::block::MiniBatch;
use fgnn_graph::sample::NeighborSampler;
use fgnn_graph::{Dataset, NodeId};
use fgnn_memsim::alltoall::multi_round_alltoall;
use fgnn_memsim::presets::Machine;
use fgnn_memsim::topology::Node;
use fgnn_memsim::{TrafficCounters, TransferEngine};
use fgnn_nn::loss::softmax_cross_entropy;
use fgnn_nn::{Adam, Model, Optimizer};
use fgnn_tensor::{ops, Matrix, Rng};
use freshgnn::cache::{RingCache, StaticFeatureCache};
use freshgnn::config::LoadMode;
use freshgnn::loader::FeatureLoader;
use freshgnn::prune::prune_with_cache_policy;
use freshgnn::runtime::{Pool, RuntimeConfig};
use freshgnn::{Checkpoint, Trainer};
use std::hint::black_box;
use std::time::Instant;

/// Batches captured from a workload for its probes, at most.
pub const CAPTURED_BATCHES: usize = 16;
/// Rows the dense-kernel probes run on, at most: the rate does not depend on
/// the row count, and a full layer-1 matrix would take a second a call.
const KERNEL_ROWS: usize = 2048;

/// Runs probes and records their metrics and spans.
pub struct Prober<'a> {
    /// The run's span recorder: one `probe.<layer>.<fn>` span per call.
    pub spans: &'a mut Spans,
    /// The run's metrics.
    pub metrics: &'a mut Metrics,
    /// Repetitions of a cheap probe (heavier ones take a share of it).
    pub reps: usize,
}

/// Times the measured part of one probe repetition.
pub struct Stopwatch<'a> {
    spans: &'a mut Spans,
    name: &'a str,
    secs: f64,
}

impl Stopwatch<'_> {
    /// Run and time `f`; what surrounds the call in the probe body (cloning
    /// inputs, resetting state) is not timed.
    pub fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let id = self.spans.open(self.name);
        let t = Instant::now();
        let out = black_box(f());
        self.secs += t.elapsed().as_secs_f64();
        self.spans.close(id);
        out
    }
}

impl<'a> Prober<'a> {
    /// A prober over the run's recorder and metrics.
    pub fn new(spans: &'a mut Spans, metrics: &'a mut Metrics, reps: usize) -> Prober<'a> {
        Prober {
            spans,
            metrics,
            reps,
        }
    }

    /// Repeat `body` `reps` times; each repetition's sample is the seconds
    /// its [`Stopwatch::run`] calls took.
    pub fn time(
        &mut self,
        name: &str,
        reps: usize,
        mut body: impl FnMut(&mut Stopwatch),
    ) -> Summary {
        let samples: Vec<f64> = (0..reps.max(1))
            .map(|_| {
                let mut sw = Stopwatch {
                    spans: self.spans,
                    name,
                    secs: 0.0,
                };
                body(&mut sw);
                sw.secs
            })
            .collect();
        Summary::of(&samples)
    }

    /// Record `name` as `f` of the median seconds, with min and max mapped the
    /// same way (so a rate's min is its slowest repetition).
    pub fn put_scaled(&mut self, name: &str, s: Summary, f: impl Fn(f64) -> f64) {
        let (a, b) = (f(s.min), f(s.max));
        self.metrics.put(
            name,
            Summary {
                median: f(s.median),
                min: a.min(b),
                max: a.max(b),
                n: s.n,
            },
        );
    }
}

/// What the layer probes shared by every workload run on.
pub struct LayerInputs<'a> {
    /// The workload's dataset (a host's shard on `cluster`).
    pub ds: &'a Dataset,
    /// The workload's model; the optimizer probe steps it.
    pub model: &'a mut Model,
    /// Fanouts the workload samples with.
    pub fanouts: &'a [usize],
    /// The workload's first planned seed batches.
    pub batches: &'a [Vec<NodeId>],
    /// Row width of the workload's ring cache.
    pub ring_dim: usize,
    /// Rows of the workload's ring cache.
    pub ring_capacity: usize,
    /// `t_stale` the ring is used with.
    pub t_stale: u32,
    /// Seed of the probe's own RNG streams.
    pub seed: u64,
}

/// `tensor`, `nn`, `graph`, `cache::ring`, `loader`, `memsim` and `runtime`
/// probes.
pub fn layer_probes(inp: LayerInputs, p: &mut Prober) {
    let LayerInputs {
        ds,
        model,
        fanouts,
        batches,
        ring_dim,
        ring_capacity,
        t_stale,
        seed,
    } = inp;
    assert!(
        !batches.is_empty(),
        "a workload captures at least one batch"
    );
    let reps = p.reps;
    let heavy = (reps / 3).max(3);
    let mut rng = Rng::new(seed ^ 0x9E0B_E5A1);

    // graph: neighbour sampling over the captured seed batches.
    let mut sampler = NeighborSampler::new(ds.num_nodes());
    let mut call = 0usize;
    let mut edges_per_seed = Vec::new();
    let sample = p.time("probe.graph.sample", reps.max(batches.len()), |sw| {
        let seeds = &batches[call % batches.len()];
        call += 1;
        let mb = sw.run(|| sampler.sample(&ds.graph, seeds, fanouts, &mut rng));
        edges_per_seed.push(mb.total_edges() as f64 / seeds.len() as f64);
        sw.secs /= seeds.len() as f64;
    });
    p.put_scaled("graph.sample_us_per_seed", sample, |s| s * 1e6);
    p.metrics
        .set_samples("graph.sampled_edges_per_seed", &edges_per_seed);

    let seeds = &batches[0];
    let mb = sampler.sample(&ds.graph, seeds, fanouts, &mut rng);

    // graph: CSR2 prune of every row of the first block.
    let original = mb.blocks[0].adj.clone();
    let mut adj = original.clone();
    let rows = adj.num_nodes();
    let prune = p.time("probe.graph.csr2_prune", reps, |sw| {
        adj.restore_from(&original);
        sw.run(|| (0..rows).map(|i| adj.prune(i)).sum::<usize>());
    });
    p.put_scaled("graph.csr2_prune_ns", prune, |s| s * 1e9 / rows as f64);

    // tensor: the three products of a layer-1 SAGE transform and its
    // backward, at the workload's inner dimensions.
    let in_dim = ds.spec.feature_dim;
    let out_dim = model.layers[0].out_dim();
    let n = mb.blocks[0].num_dst().min(KERNEL_ROWS);
    let cat = rng.normal_matrix(n, 2 * in_dim, 1.0);
    let weight = rng.glorot_matrix(2 * in_dim, out_dim);
    let dz = rng.normal_matrix(n, out_dim, 1.0);
    let gflop = 2.0 * n as f64 * (2 * in_dim) as f64 * out_dim as f64 / 1e9;
    let t = p.time("probe.tensor.matmul", reps, |sw| {
        sw.run(|| ops::matmul(&cat, &weight).expect("shapes agree"));
    });
    p.put_scaled("tensor.matmul_gflops", t, |s| gflop / s);
    let t = p.time("probe.tensor.matmul_at_b", reps, |sw| {
        sw.run(|| ops::matmul_at_b(&cat, &dz).expect("shapes agree"));
    });
    p.put_scaled("tensor.matmul_at_b_gflops", t, |s| gflop / s);
    let t = p.time("probe.tensor.matmul_a_bt", reps, |sw| {
        sw.run(|| ops::matmul_a_bt(&dz, &weight).expect("shapes agree"));
    });
    p.put_scaled("tensor.matmul_a_bt_gflops", t, |s| gflop / s);

    // tensor: gather the batch's input rows; scatter them back many-to-one.
    let ids: Vec<usize> = mb.input_nodes().iter().map(|&g| g as usize).collect();
    let gb = (ids.len() * in_dim * 4) as f64 / 1e9;
    let t = p.time("probe.tensor.gather_rows", reps, |sw| {
        sw.run(|| ds.features.gather_rows(&ids));
    });
    p.put_scaled("tensor.gather_rows_gbps", t, |s| gb / s);
    let h0 = ds.features.gather_rows(&ids);
    let n_dst = mb.blocks[0].num_dst();
    let onto: Vec<usize> = (0..ids.len()).map(|i| i % n_dst).collect();
    let mut acc = Matrix::zeros(n_dst, in_dim);
    let t = p.time("probe.tensor.scatter_add_rows", reps, |sw| {
        sw.run(|| acc.scatter_add_rows(&onto, &h0));
    });
    p.put_scaled("tensor.scatter_add_rows_gbps", t, |s| gb / s);

    // loader: the same rows through `FeatureLoader::load` and the transfer
    // ledger.
    let topo = Machine::single_a100().topology;
    let loader = FeatureLoader::new(
        &ds.features,
        ds.spec.feature_row_bytes(),
        StaticFeatureCache::disabled(ds.num_nodes()),
        LoadMode::OneSided,
    );
    let mut engine = TransferEngine::new(&topo);
    let mut ledger = TrafficCounters::new();
    let t = p.time("probe.loader.load", reps, |sw| {
        sw.run(|| {
            loader.load(
                mb.input_nodes(),
                None,
                &mut engine,
                Node::Host,
                Node::Gpu(0),
                &mut ledger,
            )
        });
    });
    p.put_scaled("loader.load_ns_per_row", t, |s| s * 1e9 / ids.len() as f64);

    // memsim: one-sided reads, and planning an 8-GPU all-to-all.
    const READS: usize = 10_000;
    let t = p.time("probe.memsim.one_sided_read", reps, |sw| {
        sw.run(|| {
            (0..READS)
                .map(|_| engine.one_sided_read(Node::Host, Node::Gpu(0), 64 << 10, &mut ledger))
                .sum::<f64>()
        });
    });
    p.put_scaled("memsim.one_sided_read_ns", t, |s| s * 1e9 / READS as f64);
    let topo8 = Machine::pcie_v100(8).topology;
    let demand: Vec<Vec<u64>> = (0..8)
        .map(|i| {
            (0..8)
                .map(|j| {
                    if i == j {
                        0
                    } else {
                        (1 + rng.below(64) as u64) << 20
                    }
                })
                .collect()
        })
        .collect();
    let t = p.time("probe.memsim.multi_round_alltoall", reps, |sw| {
        sw.run(|| multi_round_alltoall(&topo8, &demand));
    });
    p.put_scaled("memsim.alltoall_plan_us", t, |s| s * 1e6);

    // cache::ring: admit then look up the destination nodes of the captured
    // batch, in a ring of the workload's geometry.
    let keys = &mb.blocks[0].dst_global;
    let row = vec![0.5f32; ring_dim];
    let mut ring = RingCache::new(ds.num_nodes(), ring_capacity, ring_dim);
    let mut now = 0u32;
    let t = p.time("probe.cache.ring_admit", reps, |sw| {
        now += 1;
        sw.run(|| keys.iter().for_each(|&k| ring.admit(k, &row, now, t_stale)));
    });
    p.put_scaled("cache.ring_admit_ns", t, |s| s * 1e9 / keys.len() as f64);
    let t = p.time("probe.cache.ring_lookup", reps, |sw| {
        sw.run(|| {
            keys.iter()
                .filter_map(|&k| ring.lookup(k, now, t_stale))
                .count()
        });
    });
    p.put_scaled("cache.ring_lookup_ns", t, |s| s * 1e9 / keys.len() as f64);

    // runtime: spawn a pool over no-op tasks and drain it.
    const TASKS: usize = 4096;
    let cfg = RuntimeConfig {
        workers: crate::pool_workers(),
        queue_capacity: 64,
        ..RuntimeConfig::default()
    };
    let mut spawn_s = Vec::new();
    let t = p.time("probe.runtime.pool_roundtrip", heavy, |sw| {
        sw.run(|| {
            let t0 = Instant::now();
            let pool: Pool<usize> = Pool::spawn(&cfg, vec![0u8; TASKS], || (), |_, i, _, _| i);
            spawn_s.push(t0.elapsed().as_secs_f64());
            // Idle workers park rather than exit, so count results instead of
            // waiting for the channel to close; dropping the pool joins them.
            for _ in 0..TASKS {
                let (_, result) = pool.recv().expect("workers outlive their tasks");
                result.expect("a no-op task cannot panic");
            }
        });
    });
    p.put_scaled("runtime.task_roundtrip_us", t, |s| s * 1e6 / TASKS as f64);
    p.put_scaled("runtime.spawn_us", Summary::of(&spawn_s), |s| s * 1e6);

    // nn: forward and backward of the captured batch, then one Adam step.
    let labels: Vec<u16> = seeds.iter().map(|&s| ds.labels[s as usize]).collect();
    let fwd = p.time("probe.nn.forward", heavy, |sw| {
        let input = h0.clone();
        sw.run(|| model.forward(&mb, input));
    });
    let trace = model.forward(&mb, h0);
    let (_, d_top) = softmax_cross_entropy(trace.h.last().expect("a layer"), &labels);
    let bwd = p.time("probe.nn.backward", heavy, |sw| {
        let d = d_top.clone();
        model.zero_grad();
        sw.run(|| model.backward(&mb, &trace, d));
    });
    p.put_scaled("nn.forward_ms_per_batch", fwd, |s| s * 1e3);
    p.put_scaled("nn.backward_ms_per_batch", bwd, |s| s * 1e3);
    p.metrics.set("nn.bwd_fwd_ratio", bwd.median / fwd.median);
    let mut opt = Adam::new(0.003);
    opt.step(&mut model.params_mut()); // first step allocates the moments
    let t = p.time("probe.nn.optim_step", reps, |sw| {
        sw.run(|| opt.step(&mut model.params_mut()));
    });
    p.put_scaled("nn.optim_step_us", t, |s| s * 1e6);
}

/// `prune` against the trainer's warmed cache, and `checkpoint` of the warmed
/// trainer when its optimizer is at hand. Call before [`layer_probes`], which
/// steps the model.
pub fn trainer_probes(
    trainer: &mut Trainer,
    opt: Option<&dyn Optimizer>,
    ds: &Dataset,
    batches: &[Vec<NodeId>],
    seed: u64,
    p: &mut Prober,
) {
    let reps = p.reps;
    if let Some(opt) = opt {
        let mut bytes = Vec::new();
        let t = p.time("probe.checkpoint.encode", (reps / 3).max(3), |sw| {
            bytes = sw.run(|| trainer.checkpoint(opt).to_bytes());
        });
        p.put_scaled("checkpoint.encode_ms", t, |s| s * 1e3);
        let t = p.time("probe.checkpoint.decode", (reps / 3).max(3), |sw| {
            sw.run(|| Checkpoint::from_bytes(&bytes).expect("own checkpoint decodes"));
        });
        p.put_scaled("checkpoint.decode_ms", t, |s| s * 1e3);
        p.metrics.set("checkpoint.mb", bytes.len() as f64 / 1e6);
    }

    let policy = trainer.cfg.build_policy();
    let fanouts = trainer.cfg.fanouts.clone();
    let now = trainer.iterations();
    let mut sampler = NeighborSampler::new(ds.num_nodes());
    let mut rng = Rng::new(seed ^ 0x5A3B_1E77);
    let sampled: Vec<MiniBatch> = batches
        .iter()
        .map(|seeds| sampler.sample(&ds.graph, seeds, &fanouts, &mut rng))
        .collect();
    let mut call = 0usize;
    let mut kept = Vec::new();
    let t = p.time(
        "probe.prune.prune_with_cache_policy",
        reps.max(sampled.len()),
        |sw| {
            let mut mb = sampled[call % sampled.len()].clone();
            call += 1;
            let outcome =
                sw.run(|| prune_with_cache_policy(&mut mb, &mut trainer.cache, now, &*policy));
            kept.push(outcome.num_inputs_needed() as f64 / mb.input_nodes().len() as f64);
        },
    );
    p.put_scaled("prune.batch_us", t, |s| s * 1e6);
    p.metrics.set_samples("prune.inputs_kept_frac", &kept);
}
