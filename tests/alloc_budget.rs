//! "The step allocates nothing" as a gate, not a benchmark remark.
//!
//! A counting allocator local to this test binary: after a warm-up epoch has
//! grown the driver's step workspace to the largest batch, a further epoch
//! may allocate only a small, stated number of times per batch, and the
//! sampler a stated constant per block, on a homogeneous and on a
//! heterogeneous trainer. The bounds sit beside the values measured when
//! they were written; they are counts, so they repeat exactly on one
//! toolchain and have room for another's `Vec` growth policy, not for a
//! per-node or per-layer-matrix allocation coming back (the parent of this
//! test made ≈ 17 000 a batch on `train_fresh`).
//!
//! The serving engine is held to the same kind of budget: a replay that only
//! hits the cache allocates per batch and nothing per request, and a batch
//! that recomputes allocates what its sampled blocks take, in calls and in
//! bytes, however many nodes the graph has.

use freshgnn_repro::core::hetero_trainer::HeteroTrainer;
use freshgnn_repro::core::serve::generate_trace;
use freshgnn_repro::core::{FreshGnnConfig, ServeConfig, ServeEngine, Trainer};
use freshgnn_repro::graph::datasets::arxiv_spec;
use freshgnn_repro::graph::hetero::{mag_hetero, HeteroSampler};
use freshgnn_repro::graph::sample::{split_batches, NeighborSampler};
use freshgnn_repro::graph::Dataset;
use freshgnn_repro::memsim::presets::Machine;
use freshgnn_repro::nn::model::Arch;
use freshgnn_repro::nn::Adam;
use freshgnn_repro::tensor::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised: first use allocates nothing, so the allocator may
    // touch it. Per thread, so tests running side by side do not see each
    // other (a synchronous epoch runs on the calling thread).
    static CALLS: Cell<u64> = const { Cell::new(0) };
    // Bytes asked for by those calls (a `realloc` counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting allocation calls per thread.
struct Counting;

fn note(bytes: usize) {
    // An allocation made while the thread's locals are torn down goes
    // uncounted.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are `System`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, i.e. from
        // `System`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocation calls this thread makes while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

const FANOUTS: [usize; 3] = [5, 5, 5];
const BATCH: usize = 64;

/// Allocations of one sampled block: its two node lists and its adjacency's
/// three arrays, whatever the node count. Measured: 5.
const PER_BLOCK: u64 = 5;
/// On top of the blocks, per sampled batch: the block list and the seed
/// list. Measured: 2.
const PER_SAMPLE: u64 = 2;

/// Prune → load → forward → backward → cache update → optimizer step of one
/// homogeneous batch after warm-up, with the batch's share of the epoch's own
/// allocations (its seed list in the shuffled schedule, the epoch's stats).
/// Measured: 53 — the prune outcome's masks and hit lists, one verdict list
/// per cached level, the engine's per-stage span records, the optimizer's
/// parameter list; none of them grows with the batch's node count.
const STEP_HOMOGENEOUS: u64 = 80;
/// The same on the heterogeneous trainer, whose masks are per node type.
/// Measured: 77.
const STEP_HETEROGENEOUS: u64 = 115;

fn config() -> FreshGnnConfig {
    FreshGnnConfig {
        p_grad: 0.9,
        t_stale: 50,
        fanouts: FANOUTS.to_vec(),
        batch_size: BATCH,
        ..Default::default()
    }
}

#[test]
fn neighbor_sampler_allocates_a_constant_per_block() {
    let ds = Dataset::materialize(arxiv_spec(0.001).with_dim(16), 7);
    let mut sampler = NeighborSampler::new(ds.num_nodes());
    let mut rng = Rng::new(1);
    let batches = split_batches(&ds.train_nodes, BATCH, Some(&mut rng));
    assert!(batches.len() >= 4);
    // The first sweep grows the sampler's own scratch (its node mapper's
    // insertion list, one destination's picks) to the largest block.
    for sweep in 0..2 {
        let mut rng = Rng::new(2);
        for seeds in &batches {
            let (count, mb) = allocations(|| sampler.sample(&ds.graph, seeds, &FANOUTS, &mut rng));
            assert!(mb.total_edges() > 4 * seeds.len(), "a real neighborhood");
            if sweep == 1 {
                assert_eq!(count, PER_BLOCK * FANOUTS.len() as u64 + PER_SAMPLE);
            }
        }
    }
}

#[test]
fn a_homogeneous_step_allocates_a_small_constant_after_warm_up() {
    let ds = Dataset::materialize(arxiv_spec(0.001).with_dim(16), 7);
    let mut trainer = Trainer::new(&ds, Arch::Sage, 32, Machine::single_a100(), config(), 3);
    let mut opt = Adam::new(0.01);
    // Two epochs: the first grows the workspace (and the optimizer's
    // moments), the second fills the cache so the third prunes against it.
    let mut epoch = || trainer.train_epoch_async(&ds, &mut opt, 0, 0).unwrap();
    epoch();
    epoch();
    let (count, stats) = allocations(epoch);
    assert!(stats.cache_reads > 0, "the measured epoch reads the cache");
    let batches = stats.batches as u64;
    assert!(batches >= 4);
    let sampling = PER_BLOCK * FANOUTS.len() as u64 + PER_SAMPLE;
    let per_batch = count / batches;
    assert!(
        per_batch <= STEP_HOMOGENEOUS + sampling,
        "{count} allocations over {batches} batches = {per_batch} a batch"
    );
}

/// What a default epoch's calling thread allocates, once per epoch, for the
/// pool its sampling moved to: thread spawn, channel, shared state and the
/// flush of the pool's `sampler.*` metrics. Measured: 35 (1 368 calls
/// against 1 758 in line over 25 batches, less sampling's 17 a batch), on
/// two cores and pinned to one alike.
const POOL_EPOCH: u64 = 48;

/// The per-thread counter above sees only the calling thread, so the step
/// tests pin sampling there (`train_epoch_async(.., 0, 0)`); this holds the
/// default `train_epoch`, whose sampling runs on a pool worker, to the
/// in-line count less sampling's share plus the pool's per-epoch constant.
#[test]
fn a_default_epoch_allocates_the_in_line_epoch_less_sampling_and_a_constant() {
    let ds = Dataset::materialize(arxiv_spec(0.001).with_dim(16), 7);
    let new = || Trainer::new(&ds, Arch::Sage, 32, Machine::single_a100(), config(), 3);
    let (mut in_line, mut default) = (new(), new());
    let (mut opt_a, mut opt_b) = (Adam::new(0.01), Adam::new(0.01));
    for _ in 0..2 {
        in_line.train_epoch_async(&ds, &mut opt_a, 0, 0).unwrap();
        default.train_epoch(&ds, &mut opt_b);
    }
    let (expected, a) = allocations(|| in_line.train_epoch_async(&ds, &mut opt_a, 0, 0).unwrap());
    let (count, b) = allocations(|| default.train_epoch(&ds, &mut opt_b));
    assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
    let sampling = (PER_BLOCK * FANOUTS.len() as u64 + PER_SAMPLE) * b.batches as u64;
    assert!(
        count + sampling <= expected + POOL_EPOCH,
        "default {count} vs in line {expected} less {sampling} sampling over {} batches",
        b.batches
    );
}

#[test]
fn a_heterogeneous_step_allocates_a_small_constant_after_warm_up() {
    let ds = mag_hetero(4000, 4, 8, 3);
    let n_types = ds.graph.node_counts.len() as u64;
    let n_rels = ds.graph.relations.len() as u64;

    // The typed sampler: per block one adjacency (3 arrays) per relation, a
    // src and a dst node list per type, and the three lists holding them; an
    // empty list allocates nothing. Measured: 62 of the 76 this allows.
    let mut sampler = HeteroSampler::new(&ds.graph);
    let seeds = &ds.train_nodes[..BATCH];
    let mut sample = || {
        let mut rng = Rng::new(1);
        allocations(|| sampler.sample(&ds.graph, ds.target_type, seeds, &FANOUTS, &mut rng)).0
    };
    sample(); // grows the sampler's scratch
    let count = sample();
    let per_block = 3 * n_rels + 2 * n_types + 3;
    let sampling = per_block * FANOUTS.len() as u64 + 2 + PER_SAMPLE;
    assert!(count <= sampling, "{count} > {sampling}");

    let mut trainer = HeteroTrainer::new(&ds, 16, Machine::single_a100(), config(), 5);
    let mut opt = Adam::new(0.01);
    let mut epoch = || trainer.train_epoch_async(&ds, &mut opt, 0, 0).unwrap();
    epoch();
    epoch();
    let (count, stats) = allocations(epoch);
    let batches = stats.batches as u64;
    assert!(batches >= 4);
    let per_batch = count / batches;
    assert!(
        per_batch <= STEP_HETEROGENEOUS + sampling,
        "{count} allocations over {batches} batches = {per_batch} a batch"
    );
}

/// A serving configuration that turns nobody away and traces no exemplar
/// (an exemplar's span tree is paid for per traced request, by design).
fn serve_config(requests: usize, universe: usize) -> ServeConfig {
    let mut cfg = ServeConfig {
        fanouts: vec![5, 5],
        ..Default::default()
    };
    cfg.trace.num_requests = requests;
    cfg.trace.num_nodes = universe;
    cfg.admission.rate_rps = 1e9;
    cfg.admission.burst = 1e9;
    cfg.telemetry.exemplar_every = 0;
    cfg
}

/// Allocation calls and bytes of one `run` of `cfg`'s trace on a fresh
/// engine over `ds`, whose cache is first warmed with the trace universe
/// when `warm` is set, with the batches and cache misses it served.
fn serve_run(ds: &Dataset, cfg: &ServeConfig, warm: bool) -> (u64, u64, u64, u64) {
    let trace = generate_trace(&cfg.trace, cfg.seed);
    let mut eng = ServeEngine::new(ds, 32, Machine::single_a100(), cfg.clone()).unwrap();
    if warm {
        eng.warm(&(0..cfg.trace.num_nodes as u32).collect::<Vec<_>>());
    }
    let bytes_before = BYTES.with(Cell::get);
    let (calls, report) = allocations(|| eng.run(&trace).unwrap());
    assert_eq!(report.served, trace.len() as u64, "nobody is turned away");
    let batches = eng.obs.metrics.counter("serve.batches").unwrap();
    let bytes = BYTES.with(Cell::get) - bytes_before;
    (calls, bytes, batches, report.cache_misses)
}

/// A batch that only hits: its span's argument list, and its share of what
/// grows with the run (span list, monitor windows, one latency-sketch slice
/// per 12.5 simulated ms) and of the run's fixed cost (controller, transfer
/// engine, the flush's ≈ 30 metric names). Measured: 505 calls over 188
/// batches of 63 requests = 2.7 a batch (the parent of this test: 60 884,
/// five a request).
const SERVE_HIT_BATCH: u64 = 4;
/// A batch that recomputes: the sampled blocks (`PER_BLOCK`, `PER_SAMPLE`),
/// the admission policy's input, ranking and verdict lists, the span
/// arguments. Measured: 24.1 calls a batch on both graphs, 4.2 kB on the
/// 2 900-node one and 4.3 kB on the 23 200-node one (the parent of this
/// test: 81.6 calls and 53.6 kB on the small graph — an 8-byte-a-node
/// sampler mapping, a forward trace and a verdict map built per batch).
const SERVE_MISS_BATCH: u64 = 32;
const SERVE_MISS_BATCH_BYTES: u64 = 8_000;

#[test]
fn an_all_hit_replay_allocates_per_batch_and_nothing_per_request() {
    let ds = Dataset::materialize(arxiv_spec(0.001).with_dim(16), 7);
    let mut cfg = serve_config(12_000, 64);
    cfg.freshness.cache_capacity = 64;
    cfg.freshness.t_sla_ms = 1 << 30;
    cfg.trace.budget_ms = (1 << 30, 1 << 30);
    // Fifty arrivals inside one batching delay: every batch fills.
    cfg.trace.rate_rps = 100_000.0;
    cfg.batcher.max_batch = 64;
    let (calls, _, batches, misses) = serve_run(&ds, &cfg, true);
    assert_eq!(misses, 0, "the warmed universe never misses");
    let per_batch = cfg.trace.num_requests as u64 / batches;
    assert!(per_batch >= 8 * SERVE_HIT_BATCH, "{batches} batches");
    assert!(
        calls <= SERVE_HIT_BATCH * batches,
        "{calls} allocations over {batches} batches of {per_batch} requests"
    );
}

#[test]
fn a_miss_batch_allocates_a_constant_whatever_the_graph_size() {
    for scale in [0.001, 0.008] {
        let ds = Dataset::materialize(arxiv_spec(scale).with_dim(16), 7);
        let mut cfg = serve_config(4_000, 256);
        // Nothing cached is ever fresh enough: every batch recomputes.
        cfg.freshness.t_sla_ms = 0;
        cfg.freshness.cache_capacity = 16;
        cfg.batcher.max_batch = 16;
        let (calls, bytes, batches, misses) = serve_run(&ds, &cfg, false);
        assert!(batches >= 200 && misses >= 3_000, "{batches} {misses}");
        assert!(
            calls <= SERVE_MISS_BATCH * batches && bytes <= SERVE_MISS_BATCH_BYTES * batches,
            "{} nodes: {calls} allocations, {bytes} bytes over {batches} batches",
            ds.num_nodes()
        );
    }
}
