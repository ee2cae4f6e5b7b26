#![warn(missing_docs)]
//! # freshgnn
//!
//! Reproduction of **FreshGNN / ReFresh** (VLDB 2024): mini-batch GNN
//! training that reduces memory access by selectively caching and reusing
//! *stable* historical node embeddings.
//!
//! The system follows the paper's architecture (Fig 5):
//!
//! * [`cache`] — the historical embedding cache (§4): a GPU-resident ring
//!   buffer per layer with an O(|V|) node→slot mapping array, a
//!   gradient-based admission/eviction criterion (`p_grad`) and a staleness
//!   bound (`t_stale`), backfilled with a raw-feature cache of high-degree
//!   nodes;
//! * [`runtime`] — the task pool under overlapped training: worker
//!   threads claim a fixed task vector in index order from one atomic
//!   cursor and execute sampling for different batches in parallel, while
//!   in-order consumption keeps every `Exact` output byte-identical at any
//!   worker count;
//! * [`sampler`] — how asynchronous multi-threaded CPU graph sampling (§5)
//!   on the [`runtime`] pool fails: batch-level errors, never a short
//!   epoch, and the fault-injection hook;
//! * [`prune`] — cache-aware subgraph pruning over CSR2 blocks: a cached
//!   destination's aggregation is removed in O(1) and its multi-hop
//!   subtree never gets computed or loaded (§5);
//! * [`loader`] — feature loading charged against the `fgnn-memsim`
//!   interconnect model: one-sided (UVA) or two-sided reads, a static
//!   feature cache, and multi-GPU feature partitions (§6);
//! * [`pipeline`] — the staged execution engine (sample → prune → load →
//!   forward → backward → cache-update → optim-step) every training loop
//!   runs through, with per-stage time/traffic attribution and the shared
//!   evaluation harness;
//! * [`obs`] — deterministic observability: a sim-clock span tracer plus
//!   a metrics registry, fed by the pipeline, caches, sampler and
//!   transfer engine, exported as JSONL / Chrome-trace JSON;
//! * [`driver`] — the one epoch driver around Algorithm 1's per-batch
//!   step: training state, fault/breaker/NaN/chaos knobs, checkpoint and
//!   restore, the (optionally guarded) epoch loop and the rollback state
//!   machine, generic over a homogeneous or heterogeneous `Workload`;
//! * [`trainer`] — Algorithm 1 on a homogeneous graph: the driver's
//!   homogeneous workload, expressed as the full pipeline stage set;
//! * [`baselines`] — neighbor sampling (DGL/PyG/PyTorch-Direct traffic
//!   configurations), GAS, ClusterGCN, GraphFM;
//! * [`multi_gpu`] — data-parallel training over simulated GPU topologies
//!   (Fig 11);
//! * [`hetero_trainer`] — the §7.6 R-GraphSAGE extension: the driver's
//!   heterogeneous workload;
//! * [`serve`] — overload-robust online inference serving: seeded request
//!   traces, admission control with load shedding, batching, and a
//!   freshness-SLA degraded read path over the embedding cache;
//! * [`sgc`] — the Appendix B SGC model with a random-selector bounded-
//!   staleness history (Proposition 4.1);
//! * [`probes`] — estimation-error and embedding-stability measurements
//!   (Figs 1 and 3);
//! * [`resilience`] — the self-healing layer: numeric-health guard,
//!   `Healthy → Degraded → Recovering` supervisor state machine, and
//!   rollback-on-divergence bookkeeping;
//! * [`cluster`] — multi-host partitioned training with failure domains:
//!   LDG graph shards, BSP lock-step rounds with batched active-message
//!   halo reads, a deterministic heartbeat failure detector, and
//!   checkpoint-based shard recovery under seeded crash/restart/NIC
//!   fault schedules;
//! * [`error`] — the unified [`FgnnError`] the runtime's fallible paths
//!   funnel into.

pub mod baselines;
pub mod cache;
pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod driver;
pub mod error;
pub mod hetero_trainer;
pub mod loader;
pub mod multi_gpu;
pub mod obs;
pub mod pipeline;
pub mod probes;
pub mod prune;
pub mod resilience;
pub mod runtime;
pub mod sampler;
pub mod serve;
pub mod sgc;
pub mod trainer;

pub use cache::HistoricalCache;
pub use checkpoint::{Checkpoint, CheckpointError};
pub use cluster::{ClusterConfig, ClusterReport, ClusterTrainer, StalenessLedger};
pub use config::FreshGnnConfig;
pub use error::FgnnError;
pub use obs::Obs;
pub use pipeline::{BatchOutput, Engine, EpochStats, EvalHarness, PipelineCtx};
pub use resilience::{HealthState, Supervisor, SupervisorConfig};
pub use runtime::{ChaosPolicy, InOrder, Pool, RuntimeConfig};
pub use sampler::SampleError;
pub use serve::{ServeConfig, ServeEngine, ServeReport};
pub use trainer::Trainer;
