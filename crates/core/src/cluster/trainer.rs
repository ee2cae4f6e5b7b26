//! The partitioned BSP cluster trainer (DESIGN.md §14).
//!
//! Hosts advance in lock-step **rounds**. Fault events
//! ([`ClusterFaultPlan`]) fire at absolute rounds *before* the round's
//! work and the heartbeat detector ticks right after, so routing uses the
//! view the schedule deterministically produces. Then, host by host, each
//! live host fetches the remote halo of its next mini-batch (one batched
//! active message per destination); last, the live hosts train that batch
//! at once, one per core, each through its trainer's guarded epoch loop.
//!
//! **Recovery invariant:** each host's [`Supervisor`] holds its epoch-start
//! baseline, and every restore of it goes through the host's driver. A
//! restarted host restores the baseline (rewinding RNG/model/optimizer and
//! evicting cache entries newer than the recovery point) and re-executes
//! its epoch one batch per round. A guard trip — a NaN armed with
//! [`crate::Trainer::inject_nan_at`], or a loss spike — takes the driver's
//! rollback arm to the same baseline, then replays the already-completed
//! prefix *inside* the round without re-charging comms (the halo bytes were
//! already paid for). Either way the committed training quantities —
//! losses, parameters, H2D bytes, cache hit counters — end bit-identical to
//! the fault-free run; only the cluster comms/retry ledger records what the
//! faults cost.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::resume_unwind;
use std::sync::{Mutex, PoisonError};

use super::membership::{FailureDetector, HostStatus, MembershipTransition, MembershipView};
use super::ClusterConfig;
use crate::checkpoint::Checkpoint;
use crate::error::FgnnError;
use crate::obs::{MetricClass, Obs};
use crate::resilience::{HealthState, NumericFault, Supervisor, SupervisorConfig};
use crate::trainer::Trainer;
use fgnn_graph::datasets::Dataset;
use fgnn_graph::partition::{induced_subgraph, partition_ldg};
use fgnn_graph::NodeId;
use fgnn_memsim::cluster::{AmBatcher, AmTransfer, ClusterEventKind, ClusterTopology};
use fgnn_memsim::fault::LinkHealth;
use fgnn_memsim::presets::{GpuSpec, Machine};
use fgnn_memsim::transfer::FALLBACK_PENALTY;
use fgnn_memsim::{ClusterFaultPlan, RetryPolicy, TrafficCounters};
use fgnn_nn::Adam;
use fgnn_tensor::Rng;

/// Golden-ratio host salt: host 0 keeps the user seed bit-for-bit so a
/// 1-host cluster matches the single-host [`Trainer`] exactly.
fn host_seed(seed: u64, host: usize) -> u64 {
    seed ^ (host as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Ledger of how remote reads were served, and how stale the degraded
/// ones were allowed to get.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StalenessLedger {
    /// Staleness budget (rounds) for degraded serving = `t_stale`.
    pub budget: u64,
    /// Halo entries served by their live owner host.
    pub remote_reads: u64,
    /// Halo entries served stale by a surviving peer for a dead owner.
    pub degraded_reads: u64,
    /// Halo entries past the staleness budget, re-fetched as raw
    /// features at [`FALLBACK_PENALTY`].
    pub fallback_reads: u64,
    /// Retry attempts burned on crashed-but-not-yet-declared hosts.
    pub retries: u64,
    /// Worst staleness (rounds) any degraded read was served at.
    pub max_staleness: u64,
}

/// One host: its shard, its trainer replica, and its round-loop state.
struct HostShard {
    ds: Dataset,
    /// Local → global node ID map for the shard.
    global_ids: Vec<NodeId>,
    trainer: Trainer,
    opt: Adam,
    /// Numeric guard, rollback budget and the epoch-start baseline that
    /// crash and NaN recovery restore.
    sup: Supervisor,
    /// Current epoch's batch schedule (local IDs).
    batches: Vec<Vec<NodeId>>,
    /// Next batch index within `batches`.
    cursor: usize,
    /// Per-batch losses of the current epoch, in execution order.
    losses: Vec<f64>,
    /// Mean loss of every completed epoch, in order.
    epoch_means: Vec<f64>,
    /// 1-based epoch this plan belongs to (0 = not yet begun).
    epoch_id: u32,
    /// Ground truth — the fault plan flips this; the *view* may lag.
    alive: bool,
    /// This host's NIC health (Down exactly while crashed).
    nic: LinkHealth,
    /// Round the baseline was taken — staleness zero-point for peers
    /// serving this host's shard while it is dead.
    baseline_round: u64,
}

impl HostShard {
    /// Whether the host has trained every batch of epoch `target`.
    fn done(&self, target: u32) -> bool {
        self.epoch_id >= target && self.cursor >= self.batches.len()
    }

    /// Host `h`'s share of `round` that touches its shard alone, so a
    /// round's hosts run it at once: train the cursor's batch under the
    /// host's guard, and roll back on a trip.
    fn train_round(&mut self, h: usize, round: u64) -> Result<(), FgnnError> {
        let batch = self.batches[self.cursor..=self.cursor].to_vec();
        let (stats, fault) =
            self.trainer
                .train_guarded(&self.ds, batch, &mut self.opt, &mut self.sup);
        if let Some(fault) = fault {
            return self.roll_back(h, round, fault);
        }
        self.losses.push(stats.mean_loss);
        self.cursor += 1;
        Ok(())
    }

    /// Guard-trip recovery: the driver's rollback arm restores the epoch
    /// baseline, then the completed prefix *plus* the faulted batch replay
    /// inside this round, unguarded. The replay is local — comms for those
    /// batches were already charged — so only training compute is redone.
    fn roll_back(&mut self, h: usize, round: u64, fault: NumericFault) -> Result<(), FgnnError> {
        self.trainer
            .roll_back(&mut self.opt, &mut self.sup, fault)
            .map_err(|e| match e {
                FgnnError::Numeric(why) => {
                    FgnnError::Numeric(format!("host {h} at round {round}: {why}"))
                }
                e => e,
            })?;
        self.batches = self.trainer.plan_epoch_batches(&self.ds);
        self.losses.clear();
        for i in 0..=self.cursor {
            let stats =
                self.trainer
                    .train_on_batches(&self.ds, &self.batches[i..=i], &mut self.opt);
            self.losses.push(stats.mean_loss);
        }
        self.cursor += 1;
        Ok(())
    }
}

/// Train one round's `ready` hosts at once on the calling thread and up to
/// `threads - 1` scoped helpers. Each thread starts on its own contiguous
/// share, so a host keeps its core, then takes any host still untaken: a
/// thread the machine stalls trains fewer hosts instead of holding up the
/// round. Hosts share no mutable state, so no bit depends on which thread
/// trained which. Every ready host trains; the first error in host order
/// is returned, and a helper's panic reaches the caller.
fn train_hosts(
    shards: &mut [HostShard],
    ready: &[bool],
    round: u64,
    threads: usize,
) -> Result<(), FgnnError> {
    let hosts = shards.iter_mut().enumerate().filter(|(h, _)| ready[*h]);
    let own: Vec<_> = hosts.map(|host| Mutex::new(Some(host))).collect();
    let (n, threads) = (own.len(), threads.clamp(1, own.len().max(1)));
    let take = |i: usize| own[i].lock().unwrap_or_else(PoisonError::into_inner).take();
    let work = |t: usize| -> Vec<_> {
        let order = (0..n).map(|i| (t * n / threads + i) % n);
        let train = |(h, s): (usize, &mut HostShard)| (h, s.train_round(h, round));
        order.filter_map(take).map(train).collect()
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads).map(|t| scope.spawn(move || work(t))).collect();
        let mut done: BTreeMap<_, _> = work(0).into_iter().collect();
        for t in spawned {
            done.extend(t.join().unwrap_or_else(|p| resume_unwind(p)));
        }
        done.into_values().try_for_each(|r| r)
    })
}

/// Outcome of a whole cluster run ([`ClusterTrainer::train`]).
#[derive(Clone, Debug)]
pub struct ClusterReport {
    /// Epochs trained.
    pub epochs: u32,
    /// Lock-step rounds the cluster executed.
    pub rounds: u64,
    /// Per-epoch cluster loss: unweighted mean over hosts of each host's
    /// epoch-mean loss (host order, so bit-stable).
    pub epoch_losses: Vec<f64>,
    /// Per-host per-epoch mean losses.
    pub per_host_losses: Vec<Vec<f64>>,
    /// Total host-to-GPU feature bytes across hosts (committed quantity —
    /// equals the fault-free run).
    pub h2d_bytes: u64,
    /// Cluster comms ledger: NIC bytes/seconds, retries, failed
    /// transfers. Differs from the fault-free run under faults, but is
    /// byte-identical across same-seed reruns.
    pub comms: TrafficCounters,
    /// How remote reads were served.
    pub ledger: StalenessLedger,
    /// Host crashes applied.
    pub crashes: u64,
    /// Host restarts applied.
    pub restarts: u64,
    /// Final membership-view version (= total status transitions).
    pub membership_version: u64,
    /// Simulated seconds the AM batcher saved vs. one message per halo
    /// entry (latency amortization).
    pub am_saving_seconds: f64,
    /// Exact simulated seconds: slowest host's deterministic pipeline
    /// stream plus the cluster's NIC and retry time.
    pub sim_seconds: f64,
}

/// Partitioned multi-host BSP trainer with failure domains.
pub struct ClusterTrainer {
    cfg: ClusterConfig,
    topo: ClusterTopology,
    /// Full-graph adjacency for halo discovery (in a real deployment this
    /// is the immutable partition book every host holds).
    full: Dataset,
    /// Global node → owning host.
    assignment: Vec<u32>,
    shards: Vec<HostShard>,
    detector: FailureDetector,
    plan: ClusterFaultPlan,
    next_event: usize,
    retry: RetryPolicy,
    round: u64,
    comms: TrafficCounters,
    ledger: StalenessLedger,
    batcher: AmBatcher,
    am_saving_seconds: f64,
    crashes: u64,
    restarts: u64,
    epochs_done: u32,
    obs: Obs,
}

impl ClusterTrainer {
    /// Build a cluster over `ds` on the A100 topology `cfg` shapes.
    pub fn new(ds: &Dataset, cfg: ClusterConfig, seed: u64) -> Result<Self, FgnnError> {
        cfg.validate().map_err(FgnnError::Config)?;
        let topo = ClusterTopology::a100_cluster(cfg.num_hosts, cfg.gpus_per_host);
        let h = cfg.num_hosts;
        let n = ds.num_nodes();
        let (host_nodes, assignment): (Vec<Vec<NodeId>>, Vec<u32>) = if h == 1 {
            (vec![(0..n as NodeId).collect()], vec![0; n])
        } else {
            let p = partition_ldg(&ds.graph, h, &mut Rng::new(cfg.partition_seed));
            (p.clusters(), p.assignment)
        };

        let mut shards = Vec::with_capacity(h);
        for (host, nodes) in host_nodes.iter().enumerate() {
            let (shard_ds, global_ids) = if h == 1 {
                (ds.clone(), nodes.clone())
            } else {
                (shard_dataset(ds, nodes), nodes.clone())
            };
            let machine = Machine {
                name: "cluster-host",
                gpu: GpuSpec::a100_40gb(),
                topology: topo.host.clone(),
            };
            let trainer = Trainer::new(
                &shard_ds,
                cfg.arch,
                cfg.hidden,
                machine,
                cfg.train.clone(),
                host_seed(seed, host),
            );
            shards.push(HostShard {
                ds: shard_ds,
                global_ids,
                trainer,
                opt: Adam::new(cfg.lr),
                sup: Supervisor::new(SupervisorConfig {
                    max_rollbacks: cfg.max_rollbacks,
                }),
                batches: Vec::new(),
                cursor: 0,
                losses: Vec::new(),
                epoch_means: Vec::new(),
                epoch_id: 0,
                alive: true,
                nic: LinkHealth::Up,
                baseline_round: 0,
            });
        }
        let detector =
            FailureDetector::new(h, cfg.heartbeat_every, cfg.suspect_after, cfg.dead_after);
        let ledger = StalenessLedger {
            budget: cfg.train.t_stale as u64,
            ..StalenessLedger::default()
        };
        Ok(ClusterTrainer {
            cfg,
            topo,
            full: ds.clone(),
            assignment,
            batcher: AmBatcher::new(h),
            shards,
            detector,
            plan: ClusterFaultPlan::none(),
            next_event: 0,
            retry: RetryPolicy::default(),
            round: 0,
            comms: TrafficCounters::new(),
            ledger,
            am_saving_seconds: 0.0,
            crashes: 0,
            restarts: 0,
            epochs_done: 0,
            obs: Obs::new(),
        })
    }

    /// Arm a validated cluster fault schedule. Must be called before
    /// [`ClusterTrainer::train`]; events at rounds already executed are
    /// rejected.
    pub fn inject_cluster_faults(&mut self, plan: ClusterFaultPlan) -> Result<(), FgnnError> {
        plan.validate(self.cfg.num_hosts)
            .map_err(|e| FgnnError::Config(e.to_string()))?;
        // Any event still fires on a fresh cluster (the loop starts at
        // round 1 and applies events `<= round`).
        let first = plan.events().first();
        if let Some(ev) = first.filter(|ev| self.round > 0 && ev.round <= self.round) {
            return Err(FgnnError::Config(format!(
                "fault plan starts at round {} but the cluster is already at round {}",
                ev.round, self.round
            )));
        }
        self.plan = plan;
        self.next_event = 0;
        Ok(())
    }

    /// Borrow host `h`'s trainer (tests compare against single-host runs).
    pub fn trainer(&self, h: usize) -> &Trainer {
        &self.shards[h].trainer
    }

    /// Mutably borrow host `h`'s trainer (per-host fault and NaN
    /// injection).
    pub fn trainer_mut(&mut self, h: usize) -> &mut Trainer {
        &mut self.shards[h].trainer
    }

    /// Checkpoint host `h`'s trainer + optimizer state (tests compare
    /// final cluster states against fault-free references with this).
    pub fn checkpoint_host(&mut self, h: usize) -> Checkpoint {
        let s = &mut self.shards[h];
        s.trainer.checkpoint(&s.opt)
    }

    /// Host `h`'s shard dataset.
    pub fn shard_dataset(&self, h: usize) -> &Dataset {
        &self.shards[h].ds
    }

    /// The detector's current membership view.
    pub fn membership(&self) -> &MembershipView {
        self.detector.view()
    }

    /// Every membership transition so far, in round order.
    pub fn membership_log(&self) -> &[MembershipTransition] {
        self.detector.log()
    }

    /// The cluster comms ledger (NIC traffic, retries).
    pub fn comms(&self) -> &TrafficCounters {
        &self.comms
    }

    /// Cluster-level observability (spans + Exact metrics).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Train `epochs` epochs across the cluster and report.
    ///
    /// Every host must finish every epoch: a crashed host freezes at its
    /// cursor and the loop keeps spinning rounds (survivors idle once
    /// done) until its scheduled restart lets it recover and catch up.
    /// Errors if the schedule wedges the cluster (a host is down with no
    /// restart left in the plan — [`ClusterFaultPlan::validate`] makes
    /// that unreachable for validated plans — or one so late that a host
    /// still has batches left at round `u64::MAX`).
    ///
    /// Each round's hosts train at once, one per core. A host error is
    /// returned in host order, as from one host after another, but every
    /// other ready host of that round has trained its batch by then.
    pub fn train(&mut self, epochs: u32) -> Result<ClusterReport, FgnnError> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.train_on(epochs, threads)
    }

    /// [`ClusterTrainer::train`] on at most `threads` threads per round.
    fn train_on(&mut self, epochs: u32, threads: usize) -> Result<ClusterReport, FgnnError> {
        if epochs == 0 {
            return Ok(self.report());
        }
        let target = self.epochs_done + epochs;
        let now = self.obs.clock.now_ns();
        self.obs.tracer.begin("cluster-train", "cluster", now);

        for h in 0..self.shards.len() {
            if self.shards[h].epoch_id == 0 {
                self.begin_host_epoch(h);
            }
        }

        let max_batches = self
            .shards
            .iter()
            .map(|s| s.batches.len().max(1))
            .max()
            .unwrap_or(1) as u64;
        let last_event = self.plan.events().last().map_or(0, |e| e.round);
        // Worst case: every epoch fully re-executed once per rollback, plus
        // the tail of the fault schedule (as late as `u64::MAX`), plus slack.
        let work = (target as u64 * max_batches).saturating_mul(2 + self.cfg.max_rollbacks as u64);
        let round_cap = [work, last_event, 64]
            .into_iter()
            .fold(self.round, u64::saturating_add);

        while !self.all_done(target) {
            self.skip_idle_rounds(target);
            let Some(round) = self.round.checked_add(1).filter(|&r| r <= round_cap) else {
                return Err(FgnnError::Config(format!(
                    "cluster wedged: round cap {round_cap} exceeded (a host cannot finish \
                     epoch {target} under the injected schedule)"
                )));
            };
            self.round = round;
            self.apply_fault_events()?;
            let alive: Vec<bool> = self.shards.iter().map(|s| s.alive).collect();
            self.detector.tick(self.round, &alive);
            let nic_before = self.comms.nic_seconds + self.comms.retry_seconds;
            let ready: Vec<bool> = (0..self.shards.len())
                .map(|h| self.prepare_host(h, target))
                .collect();
            train_hosts(&mut self.shards, &ready, self.round, threads)?;
            let nic_after = self.comms.nic_seconds + self.comms.retry_seconds;
            self.obs.clock.advance_secs(nic_after - nic_before);
        }
        self.epochs_done = target;
        for h in 0..self.shards.len() {
            self.complete_host_epoch(h);
        }

        let end = self.obs.clock.now_ns();
        self.obs.tracer.end_with(
            end,
            vec![
                ("rounds", self.round),
                ("crashes", self.crashes),
                ("restarts", self.restarts),
                ("view_version", self.detector.view().version),
            ],
        );
        self.sync_obs_metrics();
        Ok(self.report())
    }

    fn all_done(&self, target: u32) -> bool {
        self.shards.iter().all(|s| s.alive && s.done(target))
    }

    /// Fire every scheduled fault event at or before the current round.
    fn apply_fault_events(&mut self) -> Result<(), FgnnError> {
        while self.next_event < self.plan.events().len() {
            let ev = self.plan.events()[self.next_event];
            if ev.round > self.round {
                break;
            }
            self.next_event += 1;
            let s = &mut self.shards[ev.host];
            match ev.kind {
                ClusterEventKind::HostCrash => {
                    if s.alive {
                        s.alive = false;
                        s.nic = LinkHealth::Down;
                        self.crashes += 1;
                        self.obs
                            .metrics
                            .counter_add("cluster.crashes", MetricClass::Exact, 1);
                    }
                }
                ClusterEventKind::HostRestart => {
                    if !s.alive {
                        s.alive = true;
                        s.nic = LinkHealth::Up;
                        self.restarts += 1;
                        self.obs
                            .metrics
                            .counter_add("cluster.restarts", MetricClass::Exact, 1);
                        self.restart_host(ev.host)?;
                    }
                }
                ClusterEventKind::NicDegrade(factor) => {
                    if s.alive {
                        s.nic = LinkHealth::Degraded(factor);
                    }
                }
                ClusterEventKind::NicRestore => {
                    if s.alive {
                        s.nic = LinkHealth::Up;
                    }
                }
            }
        }
        Ok(())
    }

    /// Shard recovery: restore the epoch-start baseline through the driver
    /// (rewinds RNG / model / optimizer, evicts cache entries newer than
    /// the recovery point) and restart the epoch plan from batch 0.
    /// Re-executed rounds re-charge comms — recovery cost is visible in the
    /// NIC ledger while the committed training quantities stay
    /// fault-free-identical.
    fn restart_host(&mut self, h: usize) -> Result<(), FgnnError> {
        let s = &mut self.shards[h];
        let iter = s.trainer.restore_baseline(&mut s.opt, &s.sup)?;
        s.batches = s.trainer.plan_epoch_batches(&s.ds);
        s.cursor = 0;
        s.losses.clear();
        s.sup.guard.reset();
        s.sup.transition(
            HealthState::Recovering,
            iter,
            s.epoch_id,
            "host-restart",
            &mut s.trainer.obs,
        );
        Ok(())
    }

    /// Jump to just before the next fault event while no live host has a
    /// batch left and the view is settled: those rounds would only move
    /// heartbeats, so a far-off restart costs no spinning.
    fn skip_idle_rounds(&mut self, target: u32) {
        let Some(next) = self.plan.events().get(self.next_event) else {
            return;
        };
        let to = next.round.saturating_sub(1);
        let idle = self.shards.iter().all(|s| !s.alive || s.done(target));
        let alive: Vec<bool> = self.shards.iter().map(|s| s.alive).collect();
        if idle && to > self.round && self.detector.skip_settled(self.round, to, &alive) {
            self.round = to;
        }
    }

    /// Host `h`'s share of a round that runs in host order, before any
    /// host trains: epoch bookkeeping, then the halo of its next batch.
    /// False when the host is down, or done and idling.
    fn prepare_host(&mut self, h: usize, target: u32) -> bool {
        let s = &self.shards[h];
        if !s.alive || s.done(target) {
            return false;
        }
        if s.cursor >= s.batches.len() {
            self.complete_host_epoch(h);
            self.begin_host_epoch(h);
        }
        self.exchange_halo(h);
        true
    }

    /// Close out host `h`'s finished epoch plan. Idempotent per epoch —
    /// the round loop flushes lazily (when the next epoch begins) and
    /// [`ClusterTrainer::train`] sweeps the final epoch after the loop.
    fn complete_host_epoch(&mut self, h: usize) {
        let s = &mut self.shards[h];
        if s.epoch_means.len() >= s.epoch_id as usize {
            return; // already flushed
        }
        let mean = if s.losses.is_empty() {
            0.0
        } else {
            s.losses.iter().sum::<f64>() / s.losses.len() as f64
        };
        s.epoch_means.push(mean);
        s.sup.transition(
            HealthState::Healthy,
            s.trainer.iterations(),
            s.epoch_id,
            "epoch-complete",
            &mut s.trainer.obs,
        );
    }

    /// Start host `h`'s next epoch: checkpoint the recovery baseline and
    /// plan the batch schedule.
    fn begin_host_epoch(&mut self, h: usize) {
        let round = self.round;
        let s = &mut self.shards[h];
        s.epoch_id += 1;
        s.sup.set_baseline(s.trainer.checkpoint(&s.opt));
        s.baseline_round = round;
        s.batches = s.trainer.plan_epoch_batches(&s.ds);
        s.cursor = 0;
        s.losses.clear();
    }

    /// Fetch the remote halo of host `h`'s next batch: the deduplicated
    /// out-of-shard 1-hop neighbors of the batch seeds in the full graph,
    /// batched into one active message per owning host.
    fn exchange_halo(&mut self, h: usize) {
        let embed_bytes = (self.cfg.hidden * 4) as u64;
        let transfers: Vec<AmTransfer> = {
            let s = &self.shards[h];
            let batch = &s.batches[s.cursor];
            let mut remote: BTreeSet<NodeId> = BTreeSet::new();
            for &local in batch {
                let g = s.global_ids[local as usize];
                for &u in self.full.graph.neighbors(g) {
                    if self.assignment[u as usize] as usize != h {
                        remote.insert(u);
                    }
                }
            }
            if remote.is_empty() {
                return;
            }
            for &u in &remote {
                self.batcher
                    .enqueue(self.assignment[u as usize] as usize, embed_bytes);
            }
            self.batcher.flush()
        };
        for t in transfers {
            self.serve_remote_fetch(h, t);
        }
    }

    /// Route one batched active message from reader `h` to owner `t.dst`.
    fn serve_remote_fetch(&mut self, h: usize, t: AmTransfer) {
        let dst = t.dst;
        let reader_nic = self.shards[h].nic;
        if self.shards[dst].alive {
            // Healthy path: one one-sided RDMA read per destination per
            // round — the AM batcher amortizes the NIC latency over every
            // halo entry headed there.
            let health = combine_health(reader_nic, self.shards[dst].nic);
            let batched = self
                .topo
                .one_sided_read_seconds(t.bytes, health)
                .expect("alive host's NIC cannot be Down");
            let naive = self
                .topo
                .naive_read_seconds(t.bytes, t.messages, health)
                .expect("alive host's NIC cannot be Down");
            self.am_saving_seconds += naive - batched;
            self.comms.nic_bytes += t.bytes;
            self.comms.nic_seconds += batched;
            self.comms.num_transfers += 1;
            self.ledger.remote_reads += t.messages;
            return;
        }
        if self.detector.view().status[dst] != HostStatus::Dead {
            // Crashed but not yet declared: burn the retry ladder first.
            // Latency + exponential backoff per attempt, no jitter — the
            // ladder must replay bit-identically.
            let attempts = 1 + self.retry.max_retries;
            let mut waste = 0.0;
            for k in 0..attempts {
                waste += self.topo.nic.latency
                    + fgnn_memsim::fault::BASE_BACKOFF
                        * fgnn_memsim::fault::BACKOFF_MULTIPLIER.powi(k as i32);
            }
            self.comms.retries += attempts as u64;
            self.comms.retry_seconds += waste;
            self.comms.failed_transfers += 1;
            self.ledger.retries += attempts as u64;
        }
        self.degraded_serve(h, t)
    }

    /// Serve a dead owner's shard from a surviving peer: stale within the
    /// `t_stale` budget, raw-feature fallback past it.
    fn degraded_serve(&mut self, h: usize, t: AmTransfer) {
        let dst = t.dst;
        let num_hosts = self.shards.len();
        // The dead host's shard state is reconstructable from its
        // epoch-start baseline, which every peer can re-derive — model the
        // replica as the next live host in ring order (the reader at latest).
        let replica = (1..num_hosts)
            .map(|d| (dst + d) % num_hosts)
            .find(|&r| self.shards[r].alive)
            .expect("the reading host is a live replica");
        let staleness = self.round.saturating_sub(self.shards[dst].baseline_round);
        let reader_nic = self.shards[h].nic;
        if self.ledger.budget > 0 && staleness <= self.ledger.budget {
            // Stale-within-budget: embeddings as of the dead host's
            // baseline. t_stale still bounds what training consumes.
            self.ledger.degraded_reads += t.messages;
            self.ledger.max_staleness = self.ledger.max_staleness.max(staleness);
            if replica != h {
                let health = combine_health(reader_nic, self.shards[replica].nic);
                let secs = self
                    .topo
                    .one_sided_read_seconds(t.bytes, health)
                    .expect("live replica's NIC cannot be Down");
                self.comms.nic_bytes += t.bytes;
                self.comms.nic_seconds += secs;
                self.comms.num_transfers += 1;
            }
        } else {
            // Budget exceeded (or cache disabled): re-fetch raw features
            // at the fallback penalty. Staleness served is zero, so the
            // t_stale invariant holds by construction.
            let raw_bytes = t.messages * self.full.spec.feature_row_bytes() as u64;
            self.ledger.fallback_reads += t.messages;
            if replica != h {
                let health = combine_health(reader_nic, self.shards[replica].nic);
                let secs = self
                    .topo
                    .one_sided_read_seconds(raw_bytes, health)
                    .expect("live replica's NIC cannot be Down")
                    * FALLBACK_PENALTY;
                self.comms.nic_bytes += raw_bytes;
                self.comms.nic_seconds += secs;
                self.comms.num_transfers += 1;
            }
        }
    }

    fn sync_obs_metrics(&mut self) {
        let exact = [
            ("cluster.rounds", self.round),
            ("cluster.nic.bytes", self.comms.nic_bytes),
            ("cluster.retries", self.comms.retries),
            ("cluster.reads.remote", self.ledger.remote_reads),
            ("cluster.reads.degraded", self.ledger.degraded_reads),
            ("cluster.reads.fallback", self.ledger.fallback_reads),
            ("cluster.staleness.max", self.ledger.max_staleness),
        ];
        let m = &mut self.obs.metrics;
        for (name, value) in exact {
            m.counter_set(name, MetricClass::Exact, value);
        }
        let version = self.detector.view().version as f64;
        m.gauge_set("cluster.membership.version", MetricClass::Exact, version);
    }

    /// Snapshot the run into a [`ClusterReport`].
    pub fn report(&self) -> ClusterReport {
        let per_host_losses: Vec<Vec<f64>> =
            self.shards.iter().map(|s| s.epoch_means.clone()).collect();
        let epochs = per_host_losses.iter().map(|l| l.len()).min().unwrap_or(0);
        let mut epoch_losses = Vec::with_capacity(epochs);
        for e in 0..epochs {
            let sum: f64 = per_host_losses.iter().map(|l| l[e]).sum();
            epoch_losses.push(sum / per_host_losses.len() as f64);
        }
        let h2d_bytes = self
            .shards
            .iter()
            .map(|s| s.trainer.counters.host_to_gpu_bytes)
            .sum();
        // Exact-only per-host stream (transfer + retry + compute): the
        // measured sample/prune walls are excluded so the number is
        // byte-stable across reruns.
        let host_stream = self
            .shards
            .iter()
            .map(|s| {
                let c = &s.trainer.counters;
                c.transfer_seconds + c.retry_seconds + c.compute_seconds
            })
            .fold(0.0_f64, f64::max);
        ClusterReport {
            epochs: self.epochs_done,
            rounds: self.round,
            epoch_losses,
            per_host_losses,
            h2d_bytes,
            comms: self.comms.clone(),
            ledger: self.ledger,
            crashes: self.crashes,
            restarts: self.restarts,
            membership_version: self.detector.view().version,
            am_saving_seconds: self.am_saving_seconds,
            sim_seconds: host_stream + self.comms.nic_seconds + self.comms.retry_seconds,
        }
    }
}

/// Effective link health of a read crossing both endpoints' NICs:
/// degradation factors compose multiplicatively; a Down endpoint wins.
fn combine_health(a: LinkHealth, b: LinkHealth) -> LinkHealth {
    match (a, b) {
        (LinkHealth::Down, _) | (_, LinkHealth::Down) => LinkHealth::Down,
        (LinkHealth::Degraded(x), LinkHealth::Degraded(y)) => LinkHealth::Degraded(x * y),
        (LinkHealth::Degraded(x), LinkHealth::Up) | (LinkHealth::Up, LinkHealth::Degraded(x)) => {
            LinkHealth::Degraded(x)
        }
        (LinkHealth::Up, LinkHealth::Up) => LinkHealth::Up,
    }
}

/// Build host-local [`Dataset`] for the shard `nodes` (ascending global
/// IDs): induced subgraph, gathered feature rows, remapped labels and
/// splits.
fn shard_dataset(ds: &Dataset, nodes: &[NodeId]) -> Dataset {
    let (graph, global_ids) = induced_subgraph(&ds.graph, nodes);
    let rows: Vec<usize> = global_ids.iter().map(|&g| g as usize).collect();
    let features = ds.features.gather_rows(&rows);
    let labels: Vec<u16> = rows.iter().map(|&g| ds.labels[g]).collect();

    // Role map over global IDs → remapped local split lists. The local
    // lists inherit the shard's ascending-ID order, which is fine: the
    // per-epoch shuffle owns batch order.
    const TRAIN: u8 = 1;
    const VAL: u8 = 2;
    const TEST: u8 = 3;
    let mut role = vec![0u8; ds.num_nodes()];
    for &v in &ds.train_nodes {
        role[v as usize] = TRAIN;
    }
    for &v in &ds.val_nodes {
        role[v as usize] = VAL;
    }
    for &v in &ds.test_nodes {
        role[v as usize] = TEST;
    }
    let mut train_nodes = Vec::new();
    let mut val_nodes = Vec::new();
    let mut test_nodes = Vec::new();
    for (local, &g) in global_ids.iter().enumerate() {
        match role[g as usize] {
            TRAIN => train_nodes.push(local as NodeId),
            VAL => val_nodes.push(local as NodeId),
            TEST => test_nodes.push(local as NodeId),
            _ => {}
        }
    }
    let mut spec = ds.spec.clone();
    spec.num_nodes = global_ids.len();
    Dataset {
        spec,
        graph: std::sync::Arc::new(graph),
        features,
        labels,
        train_nodes,
        val_nodes,
        test_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::export::metrics_jsonl;
    use crate::FreshGnnConfig;
    use fgnn_graph::datasets::arxiv_spec;

    /// Four hosts over 256 nodes, four or five batches per host epoch.
    fn four_hosts(max_rollbacks: u32, seed: u64) -> ClusterTrainer {
        let ds = Dataset::materialize(arxiv_spec(0.0).with_dim(16), 42);
        let train = FreshGnnConfig {
            p_grad: 0.9,
            t_stale: 50,
            fanouts: vec![4, 4],
            batch_size: 8,
            ..Default::default()
        };
        let cfg = ClusterConfig {
            num_hosts: 4,
            max_rollbacks,
            train,
            ..Default::default()
        };
        ClusterTrainer::new(&ds, cfg, seed).unwrap()
    }

    /// What a finished run committed or recorded, as bytes: the report
    /// (its Debug form prints every float round-trip exact), the
    /// membership log, the cluster's Exact metrics, and per host the
    /// checkpoint and the Exact metrics.
    fn fingerprint(ct: &mut ClusterTrainer) -> Vec<Vec<u8>> {
        let mut parts = vec![
            format!("{:?}", ct.report()).into_bytes(),
            format!("{:?}", ct.membership_log()).into_bytes(),
            metrics_jsonl("cluster", &ct.obs.metrics, false).into_bytes(),
        ];
        for h in 0..ct.shards.len() {
            let mut ckpt = ct.checkpoint_host(h);
            // Sampling and pruning wall times are measured, not committed.
            ckpt.counters.sample_seconds = 0.0;
            ckpt.counters.prune_seconds = 0.0;
            parts.push(ckpt.to_bytes());
            parts.push(metrics_jsonl("host", &ct.trainer(h).obs.metrics, false).into_bytes());
        }
        parts
    }

    /// A round's hosts train on 1, 2 or 4 threads (0, 1 or 3 helpers)
    /// through a crash and restart, a NaN rollback and a degraded NIC, and
    /// every committed and recorded bit is the same.
    #[test]
    fn the_helper_count_changes_no_bit() {
        let run = |threads: usize| {
            let mut ct = four_hosts(3, 19);
            let plan = ClusterFaultPlan::none()
                .with_crash(2, 1)
                .with_restart(5, 1)
                .with_nic_degradation(1, 3, 4.0)
                .with_nic_restore(4, 3);
            ct.inject_cluster_faults(plan).unwrap();
            ct.trainer_mut(2).inject_nan_at([2]);
            let report = ct.train_on(2, threads).unwrap();
            assert_eq!((report.crashes, report.restarts), (1, 1));
            let rollbacks = ct.trainer(2).obs.metrics.counter("resilience.rollbacks");
            assert_eq!(rollbacks, Some(1));
            fingerprint(&mut ct)
        };
        let serial = run(1);
        for threads in [2, 4] {
            let parts = run(threads);
            assert_eq!(parts.len(), serial.len());
            for (i, (got, want)) in parts.iter().zip(&serial).enumerate() {
                assert!(got == want, "{threads} threads: part {i} diverged");
            }
        }
    }

    /// Hosts 0 and 2 exhaust their rollback budget in the same round; the
    /// error is host 0's at any helper count, as the serial loop's was,
    /// and the failed round leaves every host in the same state.
    #[test]
    fn same_round_errors_come_back_in_host_order() {
        let fail = |nan_hosts: &[usize], threads: usize| {
            let mut ct = four_hosts(1, 41);
            for &h in nan_hosts {
                ct.trainer_mut(h).inject_nan_at([1, 2]);
            }
            match ct.train_on(1, threads) {
                Err(FgnnError::Numeric(why)) => (why, fingerprint(&mut ct)),
                other => panic!("expected a numeric error, got {other:?}"),
            }
        };
        let (_, serial) = fail(&[0, 2], 1);
        for threads in [1, 2, 4] {
            // Alone, each host fails at round 3.
            assert!(fail(&[2], threads).0.starts_with("host 2 at round 3: "));
            let (why, parts) = fail(&[0, 2], threads);
            assert!(why.starts_with("host 0 at round 3: "), "{threads}: {why}");
            assert!(why.contains("rollback budget exhausted"), "{why}");
            assert!(
                parts == serial,
                "{threads} threads: the failed round diverged"
            );
        }
    }
}
