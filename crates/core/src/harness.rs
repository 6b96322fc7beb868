//! Cluster harness: builds a geo-replicated cluster of any protocol and
//! any number of replica groups, attaches closed-loop clients per
//! region, runs a measured interval with warm-up/cool-down trimming, and
//! reports the paper's metrics (throughput; p50/p90/p99 latency split
//! into leader-region and follower-region clients, read vs write).

use paxraft_sim::net::{NetConfig, Region};
use paxraft_sim::sim::{Actor, ActorId, Simulation};
use paxraft_sim::time::{SimDuration, SimTime};
use paxraft_workload::generator::{Generator, OpKind, WorkloadConfig};
use paxraft_workload::linearize::OpRecord;
use paxraft_workload::metrics::{LatencyRecorder, LatencyTriple};

use crate::client::{ClientRouting, WorkloadClient};
use crate::config::{DurabilityConfig, LeaseConfig, ReadMode, ReplicaConfig};
use crate::costs::CostModel;
use crate::engine::{DurabilityStats, PipelineStats, ProtocolRules, ReplicaEngine};
use crate::kv::{CmdId, Command, Key, KvStore, Op, Reply};
use crate::mencius::{MenciusReplica, MenciusRules};
use crate::msg::{ClientMsg, Msg};
use crate::multipaxos::{MultiPaxosReplica, PaxosRules};
use crate::raft::{RaftReplica, RaftRules};
use crate::raftstar::{RaftStarReplica, RaftStarRules};
use crate::shard::{
    AutoBalanceConfig, AutoBalancePolicy, GroupStats, RebalanceConfig, RebalanceCoordinator,
    ShardConfig, ShardMembership, ShardRouter,
};
use crate::snapshot::{SnapshotConfig, SnapshotStats};
use crate::telemetry::{
    HistogramSeries, LatencyHistogram, MetricRegistry, MetricSample, SpanAssembler, SpanReport,
    TelemetryConfig, TimeSeries,
};
use crate::types::{NodeId, Slot};

/// Which protocol the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// MultiPaxos (Figure 1).
    MultiPaxos,
    /// Standard Raft.
    Raft,
    /// Raft* with log reads.
    RaftStar,
    /// Raft* + ported Paxos Quorum Lease.
    RaftStarPql,
    /// Raft* + Leader Lease baseline.
    LeaderLease,
    /// Raft*-Mencius (multi-leader).
    RaftStarMencius,
}

impl ProtocolKind {
    /// Display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::MultiPaxos => "MultiPaxos",
            ProtocolKind::Raft => "Raft",
            ProtocolKind::RaftStar => "Raft*",
            ProtocolKind::RaftStarPql => "Raft*-PQL",
            ProtocolKind::LeaderLease => "Raft*-LL",
            ProtocolKind::RaftStarMencius => "Raft*-Mencius",
        }
    }
}

/// Builder for [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    pub(crate) protocol: ProtocolKind,
    pub(crate) replicas: usize,
    pub(crate) regions: Vec<Region>,
    pub(crate) leader: NodeId,
    pub(crate) clients_per_region: usize,
    pub(crate) workload: WorkloadConfig,
    pub(crate) seed: u64,
    pub(crate) costs: CostModel,
    pub(crate) net: NetConfig,
    pub(crate) record_history_key: Option<Key>,
    pub(crate) batch_delay: SimDuration,
    pub(crate) batch_max: usize,
    pub(crate) lease: LeaseConfig,
    pub(crate) snapshot: SnapshotConfig,
    pub(crate) pipeline_depth: usize,
    pub(crate) shard: ShardConfig,
    pub(crate) rebalance: RebalanceConfig,
    pub(crate) autobalance: AutoBalanceConfig,
    pub(crate) telemetry: TelemetryConfig,
    pub(crate) durability: DurabilityConfig,
}

impl ClusterBuilder {
    /// Number of replicas (default 5, one per region).
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// Region placement (length must equal `replicas`).
    pub fn regions(mut self, regions: Vec<Region>) -> Self {
        self.regions = regions;
        self
    }

    /// Which node is bootstrapped as leader (default node 0 = Oregon;
    /// ignored by Mencius).
    pub fn leader(mut self, node: NodeId) -> Self {
        self.leader = node;
        self
    }

    /// Closed-loop clients per region (default 0; use
    /// [`Cluster::submit_and_wait`] for scripted ops).
    pub fn clients_per_region(mut self, c: usize) -> Self {
        self.clients_per_region = c;
        self
    }

    /// Workload parameters.
    pub fn workload(mut self, w: WorkloadConfig) -> Self {
        self.workload = w;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// CPU cost model.
    pub fn costs(mut self, c: CostModel) -> Self {
        self.costs = c;
        self
    }

    /// Network configuration.
    pub fn net(mut self, n: NetConfig) -> Self {
        self.net = n;
        self
    }

    /// Record linearizability histories for `key` at every client.
    pub fn record_history_for(mut self, key: Key) -> Self {
        self.record_history_key = Some(key);
        self
    }

    /// Leader batching window.
    pub fn batch_delay(mut self, d: SimDuration) -> Self {
        self.batch_delay = d;
        self
    }

    /// Batch-size cap: a pending batch flushes immediately once this
    /// many commands accumulate (default 64).
    pub fn batch_max(mut self, max: usize) -> Self {
        self.batch_max = max;
        self
    }

    /// Sharding parameters: how many replica groups to run and where
    /// their leaders bootstrap (default: one group, which is the
    /// unsharded cluster).
    pub fn shard_config(mut self, shard: ShardConfig) -> Self {
        self.shard = shard;
        self
    }

    /// Scripted live rebalancing: key-range migrations the coordinator
    /// runs at the given virtual times. An empty plan (the default)
    /// creates no coordinator actor, keeping the cluster bit-for-bit the
    /// non-rebalancing cluster.
    pub fn rebalance_config(mut self, rebalance: RebalanceConfig) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// Closed-loop auto-rebalancing: a policy engine that watches live
    /// per-group telemetry and issues migrations itself. The disabled
    /// default creates no policy (and no coordinator actor unless a
    /// scripted plan asks for one), keeping the cluster bit-for-bit
    /// the plain sharded cluster. Enabling it requires telemetry
    /// sampling and more than one group.
    pub fn autobalance_config(mut self, autobalance: AutoBalanceConfig) -> Self {
        self.autobalance = autobalance;
        self
    }

    /// Lease parameters (PQL / LL modes).
    pub fn lease_config(mut self, lease: LeaseConfig) -> Self {
        self.lease = lease;
        self
    }

    /// Snapshot / log-compaction parameters for every replica
    /// (default: disabled).
    pub fn snapshot_config(mut self, snapshot: SnapshotConfig) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// Maximum in-flight replication rounds per peer for every replica
    /// (default 8; must be positive).
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// Telemetry: the flight recorder and the virtual-time metric
    /// sampler (default: both off). Sampling and tracing are pure
    /// observation — enabling them never changes the event schedule or
    /// the RNG stream, so reports stay bit-for-bit identical either
    /// way (pinned by the conformance suite).
    pub fn telemetry_config(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Durable-storage model for every replica (default: disabled — the
    /// zero-cost disk, acks never wait for fsync, runs bit-for-bit
    /// identical to a build without the disk model). Enabling it
    /// provisions one simulated disk per node (sharded clusters
    /// co-locate all of a node's group replicas on that node's disk)
    /// and makes every durability-attesting ack wait for its covering
    /// fsync per the configured [`crate::config::FsyncPolicy`].
    pub fn durability_config(mut self, durability: DurabilityConfig) -> Self {
        self.durability = durability;
        self
    }

    /// Constructs the cluster: `shard.groups` independent replica groups
    /// (one unless [`ClusterBuilder::shard_config`] asks for more) over
    /// the same `n` simulated nodes — a distinct actor per
    /// `(node, group)`, one shared network/clock/fault injector — plus
    /// one closed-loop client fleet per region.
    ///
    /// Actor layout: replicas first, group-major (group `g`'s node `i`
    /// is `ActorId(g * n + i)`), then the clients, then the rebalance
    /// coordinator when one is configured. A single group carries no
    /// membership, so no routing header travels on the wire and no
    /// redirect check runs.
    ///
    /// # Panics
    ///
    /// Panics if region placement does not match the replica count.
    pub fn build(self) -> Cluster {
        assert_eq!(self.regions.len(), self.replicas, "one region per replica");
        let groups = self.shard.groups.max(1);
        let n = self.replicas;
        let (new_replica, view) = replica_kind(self.protocol);
        let mut sim = Simulation::new(self.net.clone(), self.seed);
        if self.telemetry.trace_capacity > 0 {
            sim.enable_trace(self.telemetry.trace_capacity);
        }
        if self.telemetry.trace_spans {
            sim.enable_spans();
        }
        // Provision the disks: one per *node*, shared by all of that
        // node's group replicas — co-located groups contend for the same
        // device the way co-located flows contend for one NIC.
        let disk = self.durability.disk_config();
        let provision_disks = !disk.is_zero_cost();
        if provision_disks {
            sim.set_disk_config(disk);
        }
        let router = ShardRouter::from_workload(&self.workload, groups);
        let client_base = groups * n;
        let mut replicas = Vec::with_capacity(client_base);
        let mut leaders = Vec::with_capacity(groups);
        for g in 0..groups {
            let peers: Vec<ActorId> = (g * n..(g + 1) * n).map(ActorId).collect();
            let leader = self.shard.placement.leader_of(self.leader, g, n);
            leaders.push(leader);
            let membership = (groups > 1).then(|| ShardMembership {
                group: g as u32,
                router: router.clone(),
            });
            for i in 0..n {
                let mut cfg = self.replica_config(
                    NodeId(i as u32),
                    peers.clone(),
                    client_base,
                    membership.clone(),
                );
                cfg.initial_leader = Some(leader);
                let actor = sim.add_actor(self.regions[i], new_replica(cfg));
                if provision_disks {
                    // Disk id = node index: every group's replica on
                    // node `i` shares node `i`'s device.
                    sim.map_disk(actor, i);
                }
                replicas.push(actor);
            }
        }
        // One workload client fleet per region, targeting that region's
        // replica; with several groups each client routes per key over
        // its region's member of every group.
        let mut clients = Vec::new();
        let mut rng = paxraft_sim::rng::SimRng::new(self.seed ^ 0xC11E57);
        let mut workload = self.workload.clone();
        workload.partitions = self.regions.len();
        for (ri, &region) in self.regions.iter().enumerate() {
            for _ in 0..self.clients_per_region {
                let cid = clients.len() as u32;
                let gen = Generator::new(workload.clone(), ri, rng.fork(cid as u64));
                let mut wc = WorkloadClient::new(cid, replicas[ri], gen);
                wc.history_key = self.record_history_key;
                if groups > 1 {
                    wc.shard = Some(ClientRouting {
                        router: router.clone(),
                        targets: (0..groups).map(|g| replicas[g * n + ri]).collect(),
                    });
                }
                clients.push(sim.add_actor(region, Box::new(wc)));
            }
        }
        // The rebalance coordinator rides at the next client id — but
        // only when migrations are scripted or the auto-balance policy
        // is on, so a non-rebalancing cluster keeps the exact actor set
        // (and RNG schedule) it had before live rebalancing existed.
        let autobalance_on = self.autobalance.enabled();
        if autobalance_on {
            assert!(
                self.telemetry.sampling_enabled(),
                "auto-rebalancing reads the sampled load sketch; enable telemetry sampling"
            );
            assert!(groups > 1, "auto-rebalancing needs more than one group");
        }
        let coordinator = (self.rebalance.enabled() || autobalance_on).then(|| {
            let coord = RebalanceCoordinator::new(
                clients.len() as u32,
                router.clone(),
                self.rebalance.migrations.clone(),
                replicas.chunks(n).map(<[ActorId]>::to_vec).collect(),
                clients.clone(),
                self.rebalance
                    .concurrency()
                    .max(self.autobalance.max_concurrent),
            );
            // Place the coordinator in the base leader's region (a real
            // deployment runs it near the config service).
            sim.add_actor(self.regions[self.leader.0 as usize], Box::new(coord))
        });
        let policy = autobalance_on.then(|| AutoBalancePolicy::new(self.autobalance.clone()));
        Cluster {
            sim,
            protocol: self.protocol,
            view,
            replicas,
            clients,
            regions: self.regions,
            leaders,
            router,
            coordinator,
            policy,
            probe: None,
            probe_seq: 0,
            last_probe_cmd: None,
            metrics: MetricRegistry::new(&self.telemetry),
            per_replica: self.telemetry.per_replica,
        }
    }

    /// One replica's configuration under this builder's knobs, given its
    /// group's peer table and membership.
    fn replica_config(
        &self,
        id: NodeId,
        peers: Vec<ActorId>,
        client_base: usize,
        shard: Option<ShardMembership>,
    ) -> ReplicaConfig {
        let mut cfg = ReplicaConfig::wan_default(id, self.replicas);
        cfg.peers = peers;
        cfg.client_base = client_base;
        cfg.costs = self.costs.clone();
        cfg.batch_delay = self.batch_delay;
        cfg.batch_max = self.batch_max;
        cfg.lease = self.lease.clone();
        cfg.snapshot = self.snapshot.clone();
        cfg.pipeline_depth = self.pipeline_depth;
        cfg.durability = self.durability.clone();
        cfg.shard = shard;
        cfg.read_mode = match self.protocol {
            ProtocolKind::RaftStarPql => ReadMode::QuorumLease,
            ProtocolKind::LeaderLease => ReadMode::LeaderLease,
            _ => ReadMode::LogRead,
        };
        cfg
    }
}

/// A replica's observable state, whatever its protocol: what the harness
/// samples and tests assert on. Implemented once, for every
/// [`ReplicaEngine`], by forwarding to its inherent accessors.
pub trait ReplicaView {
    /// Whether the replica currently claims leadership (always under
    /// Mencius, where every replica leads its own slots).
    fn is_leader(&self) -> bool;
    /// Read-only state machine access.
    fn kv(&self) -> &KvStore;
    /// The applied prefix (Raft `lastApplied` / Paxos executed index).
    fn applied_index(&self) -> Slot;
    /// Compaction / snapshot-transfer counters, peaks included.
    fn snap_stats(&self) -> SnapshotStats;
    /// Pipeline occupancy and adaptive-batching counters.
    fn pipeline_stats(&self) -> PipelineStats;
    /// Fsync / deferred-ack counters.
    fn durability_stats(&self) -> DurabilityStats;
    /// The registered metric sample (named counters and gauges) — the
    /// single source the sampler and the per-group aggregates read.
    fn metric_sample(&self) -> MetricSample;
}

impl<P: ProtocolRules> ReplicaView for ReplicaEngine<P> {
    fn is_leader(&self) -> bool {
        ReplicaEngine::is_leader(self)
    }
    fn kv(&self) -> &KvStore {
        ReplicaEngine::kv(self)
    }
    fn applied_index(&self) -> Slot {
        ReplicaEngine::applied_index(self)
    }
    fn snap_stats(&self) -> SnapshotStats {
        ReplicaEngine::snap_stats(self)
    }
    fn pipeline_stats(&self) -> PipelineStats {
        ReplicaEngine::pipeline_stats(self)
    }
    fn durability_stats(&self) -> DurabilityStats {
        ReplicaEngine::durability_stats(self)
    }
    fn metric_sample(&self) -> MetricSample {
        ReplicaEngine::metric_sample(self)
    }
}

/// Reads replica actor `id` of a cluster's protocol as a [`ReplicaView`].
type ViewFn = fn(&Simulation<Msg>, ActorId) -> &dyn ReplicaView;

/// Builds one replica actor of a cluster's protocol.
type NewReplica = fn(ReplicaConfig) -> Box<dyn Actor<Msg>>;

fn view_of<P: ProtocolRules>(sim: &Simulation<Msg>, id: ActorId) -> &dyn ReplicaView {
    sim.actor::<ReplicaEngine<P>>(id)
}

/// The one place the harness dispatches on the protocol: which rules
/// type backs the replicas, as a constructor plus a view accessor.
fn replica_kind(protocol: ProtocolKind) -> (NewReplica, ViewFn) {
    match protocol {
        ProtocolKind::MultiPaxos => (
            |cfg| Box::new(MultiPaxosReplica::new(cfg)),
            view_of::<PaxosRules>,
        ),
        ProtocolKind::Raft => (|cfg| Box::new(RaftReplica::new(cfg)), view_of::<RaftRules>),
        ProtocolKind::RaftStar | ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease => (
            |cfg| Box::new(RaftStarReplica::new(cfg)),
            view_of::<RaftStarRules>,
        ),
        ProtocolKind::RaftStarMencius => (
            |cfg| Box::new(MenciusReplica::new(cfg)),
            view_of::<MenciusRules>,
        ),
    }
}

/// One sampling tick's group-level registry entries: the group's summed
/// replica sample plus the harness-observed NIC backlog. The cumulative
/// `responses` counter becomes the `throughput_ops` rate series;
/// everything else records as a gauge of the instantaneous (queue
/// depths) or cumulative (migration/redirect counts) value.
fn record_group_sample(
    registry: &mut MetricRegistry,
    at: paxraft_sim::time::SimTime,
    group: u32,
    sample: &MetricSample,
    nic_backlog_ms: f64,
    disk_backlog_ms: f64,
) {
    let name = |metric: &str| format!("group{group}/{metric}");
    registry.counter_rate(at, &name("throughput_ops"), sample.get("responses"));
    registry.counter_rate(at, &name("fsync_rate"), sample.get("fsyncs"));
    registry.gauge(at, &name("pending_depth"), sample.get("pending_depth"));
    registry.gauge(
        at,
        &name("pipeline_occupancy"),
        sample.get("pipeline_occupancy"),
    );
    registry.gauge(at, &name("nic_backlog_ms"), nic_backlog_ms);
    registry.gauge(at, &name("disk_backlog_ms"), disk_backlog_ms);
    registry.gauge(at, &name("forwarded"), sample.get("forwarded"));
    registry.gauge(at, &name("redirects"), sample.get("redirects"));
    registry.gauge(at, &name("range_exports"), sample.get("range_exports"));
    registry.gauge(at, &name("range_installs"), sample.get("range_installs"));
}

/// One sampling tick's **per-replica** registry entries (behind
/// [`TelemetryConfig::per_replica`]): each live replica's own response
/// rate, fsync rate, queue depth and disk backlog, keyed by actor id so
/// names stay unique across groups. This is the straggler-debugging
/// view: a slow disk shows up as one replica's `disk_backlog_ms` series
/// diverging while its group's aggregate only sags. Crashed replicas
/// record no point (a visible series gap).
fn record_replica_samples(
    registry: &mut MetricRegistry,
    sim: &Simulation<Msg>,
    view: ViewFn,
    at: paxraft_sim::time::SimTime,
    actors: &[ActorId],
) {
    for &r in actors {
        if sim.is_crashed(r) {
            continue;
        }
        let sample = view(sim, r).metric_sample();
        let name = |metric: &str| format!("replica{}/{metric}", r.0);
        registry.counter_rate(at, &name("throughput_ops"), sample.get("responses"));
        registry.counter_rate(at, &name("fsync_rate"), sample.get("fsyncs"));
        registry.gauge(at, &name("pending_depth"), sample.get("pending_depth"));
        registry.gauge(
            at,
            &name("disk_backlog_ms"),
            sim.disk_backlog_at(r).as_millis_f64(),
        );
    }
}

/// Sums the live replicas' metric samples and NIC backlog for one group
/// of actors at the current instant.
fn group_sample_now(
    sim: &Simulation<Msg>,
    view: ViewFn,
    actors: &[ActorId],
) -> (MetricSample, f64, f64) {
    let now = sim.now();
    let mut sample = MetricSample::default();
    let mut nic_backlog_ms = 0.0;
    let mut disk_backlog_ms = 0.0;
    for &r in actors {
        if sim.is_crashed(r) {
            continue;
        }
        sample.merge_sum(&view(sim, r).metric_sample());
        let nic_free = sim.network().nic_free_at(r.0);
        if nic_free > now {
            nic_backlog_ms += (nic_free - now).as_millis_f64();
        }
        disk_backlog_ms += sim.disk_backlog_at(r).as_millis_f64();
    }
    (sample, nic_backlog_ms, disk_backlog_ms)
}

/// Throughput/latency measurements from one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Completed operations inside the measurement window, per second.
    pub throughput_ops: f64,
    /// Read latency for clients co-located with the leader.
    pub leader_reads: Option<LatencyTriple>,
    /// Read latency for all other clients.
    pub follower_reads: Option<LatencyTriple>,
    /// Write latency for leader-region clients.
    pub leader_writes: Option<LatencyTriple>,
    /// Write latency for follower-region clients.
    pub follower_writes: Option<LatencyTriple>,
    /// Linearizability histories (when recording was enabled).
    pub histories: Vec<OpRecord>,
    /// Snapshot / compaction counters summed across replicas; the peak
    /// log-size fields take the cluster-wide maximum, so a bounded
    /// `peak_log_entries` certifies that compaction kept every replica's
    /// in-memory log bounded for the whole run.
    pub snapshots: SnapshotStats,
    /// Pipeline occupancy and adaptive-batching counters summed across
    /// replicas (`peak_in_flight` takes the cluster-wide maximum, i.e.
    /// the deepest any peer window got during the run).
    pub pipeline: PipelineStats,
    /// Fsync / deferred-ack counters summed across replicas
    /// (`last_batch_len` takes the cluster-wide maximum). All zero
    /// unless [`ClusterBuilder::durability_config`] enabled the
    /// durability model; under group commit,
    /// `durability.mean_batch_len()` is the amortization factor the
    /// fsync-bound bench sweeps report.
    pub durability: DurabilityStats,
    /// Sampled metric time-series collected so far (empty unless
    /// [`ClusterBuilder::telemetry_config`] enabled the sampler).
    pub telemetry: Vec<TimeSeries>,
    /// Sampled cumulative latency-histogram series, one per group
    /// (empty unless the sampler is enabled). Windowing two snapshots
    /// localizes a latency regression — a migration window's p99, say —
    /// to one group and one phase of the run.
    pub latency_hists: Vec<HistogramSeries>,
    /// Per-command latency breakdowns assembled from the span log
    /// (`None` unless [`TelemetryConfig::trace_spans`] enabled causal
    /// tracing).
    pub spans: Option<SpanReport>,
}

/// A built cluster ready to run: `groups × n` replica actors over `n`
/// simulated nodes (one group unless sharding was configured), plus
/// per-region clients that route by key.
pub struct Cluster {
    /// The underlying simulation (exposed for fault injection).
    pub sim: Simulation<Msg>,
    protocol: ProtocolKind,
    view: ViewFn,
    /// Replica actors, group-major: group `g`'s node `i` is
    /// `replicas[g * n + i]`.
    replicas: Vec<ActorId>,
    clients: Vec<ActorId>,
    regions: Vec<Region>,
    leaders: Vec<NodeId>,
    pub(crate) router: ShardRouter,
    pub(crate) coordinator: Option<ActorId>,
    /// The closed-loop auto-balance policy (None unless enabled). Lives
    /// harness-side like the telemetry sampler: it observes between sim
    /// steps and injects its decisions into the coordinator, so runs
    /// stay deterministic per seed.
    pub(crate) policy: Option<AutoBalancePolicy>,
    probe: Option<ActorId>,
    probe_seq: u64,
    last_probe_cmd: Option<Command>,
    metrics: MetricRegistry,
    per_replica: bool,
}

impl Cluster {
    /// Starts a builder.
    pub fn builder(protocol: ProtocolKind) -> ClusterBuilder {
        ClusterBuilder {
            protocol,
            replicas: 5,
            regions: Region::ALL.to_vec(),
            leader: NodeId(0),
            clients_per_region: 0,
            workload: WorkloadConfig::default(),
            seed: 42,
            costs: CostModel::default(),
            net: NetConfig::default(),
            record_history_key: None,
            batch_delay: SimDuration::from_millis(2),
            batch_max: 64,
            lease: LeaseConfig::default(),
            snapshot: SnapshotConfig::default(),
            pipeline_depth: 8,
            shard: ShardConfig::default(),
            rebalance: RebalanceConfig::default(),
            autobalance: AutoBalanceConfig::default(),
            telemetry: TelemetryConfig::default(),
            durability: DurabilityConfig::default(),
        }
    }

    /// The protocol under test.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// Every replica actor id, group-major.
    pub fn replicas(&self) -> &[ActorId] {
        &self.replicas
    }

    /// Number of replica groups.
    pub fn num_groups(&self) -> usize {
        self.leaders.len()
    }

    /// Group `g`'s replica actors, indexed by node.
    pub fn group_replicas(&self, g: usize) -> &[ActorId] {
        let n = self.regions.len();
        &self.replicas[g * n..(g + 1) * n]
    }

    /// The actor serving group `g` on node `node`.
    pub fn replica(&self, g: usize, node: NodeId) -> ActorId {
        self.group_replicas(g)[node.0 as usize]
    }

    /// The group a replica actor belongs to (`None` for other actors).
    pub fn group_of_replica(&self, a: ActorId) -> Option<u32> {
        (a.0 < self.replicas.len()).then(|| (a.0 / self.regions.len()) as u32)
    }

    /// Replica actor `id` read through the protocol-independent view.
    pub fn replica_view(&self, id: ActorId) -> &dyn ReplicaView {
        (self.view)(&self.sim, id)
    }

    /// Client actor ids.
    pub fn clients(&self) -> &[ActorId] {
        &self.clients
    }

    /// Each group's bootstrap leader node.
    pub fn leaders(&self) -> &[NodeId] {
        &self.leaders
    }

    /// Whether some replica of group `g` currently claims leadership.
    pub fn group_has_leader(&self, g: usize) -> bool {
        self.group_replicas(g)
            .iter()
            .any(|&r| self.replica_view(r).is_leader())
    }

    /// Runs until every group has elected a leader (and leases, if any,
    /// are live).
    pub fn elect_leader(&mut self) {
        let elected = |c: &Cluster| (0..c.num_groups()).all(|g| c.group_has_leader(g));
        let deadline = self.sim.now() + SimDuration::from_secs(30);
        while !elected(self) && self.sim.now() < deadline {
            self.sim.run_for(SimDuration::from_millis(50));
        }
        assert!(elected(self), "no leader elected within 30s");
        if matches!(
            self.protocol,
            ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease
        ) {
            // Let the first grant round complete.
            self.sim.run_for(SimDuration::from_millis(700));
        }
    }

    /// Per-group commit/snapshot/pipeline counters, read from the same
    /// named [`MetricSample`]s the virtual-time sampler folds into
    /// time-series (one source of truth for aggregates and series).
    pub fn per_group_stats(&self) -> Vec<GroupStats> {
        (0..self.num_groups())
            .map(|g| {
                let mut snapshots = SnapshotStats::default();
                let mut pipeline = PipelineStats::default();
                let mut durability = DurabilityStats::default();
                let mut sample = MetricSample::default();
                for &r in self.group_replicas(g) {
                    let v = self.replica_view(r);
                    snapshots.absorb(&v.snap_stats());
                    pipeline.absorb(&v.pipeline_stats());
                    durability.absorb(&v.durability_stats());
                    sample.merge_sum(&v.metric_sample());
                }
                GroupStats {
                    group: g as u32,
                    leader: self.leaders[g],
                    responses: sample.get("responses") as u64,
                    snapshots,
                    pipeline,
                    durability,
                    range_exports: sample.get("range_exports") as u64,
                    range_installs: sample.get("range_installs") as u64,
                }
            })
            .collect()
    }

    /// The first live replica of group `g`, preferring its configured
    /// leader (a follower's forwarding finds the actual leader).
    fn live_replica(&self, g: usize) -> ActorId {
        let preferred = self.replica(g, self.leaders[g]);
        if !self.sim.is_crashed(preferred) {
            return preferred;
        }
        *self
            .group_replicas(g)
            .iter()
            .find(|&&r| !self.sim.is_crashed(r))
            .expect("at least one live replica in the group")
    }

    /// Submits one operation through an internal probe client, routed to
    /// the leader of the group owning the operation's key, and waits for
    /// its reply (for examples and tests, not measurement).
    ///
    /// # Errors
    ///
    /// Returns `Err` if no reply arrives within 30 virtual seconds.
    pub fn submit_and_wait(&mut self, op: Op) -> Result<Reply, String> {
        use crate::probe::ProbeClient;
        self.sim.start();
        let pid = match self.probe {
            Some(pid) => pid,
            None => {
                let region = self.regions[self.leaders[0].0 as usize];
                let pid = self.sim.add_actor(region, Box::new(ProbeClient::default()));
                self.probe = Some(pid);
                pid
            }
        };
        // Replicas route replies to `client_base + id.client`; the probe's
        // actor index encodes the matching client id.
        let client_index = (pid.0 - self.replicas.len()) as u32;
        self.probe_seq += 1;
        let id = CmdId {
            client: client_index,
            seq: self.probe_seq,
        };
        let cmd = Command { id, op };
        self.last_probe_cmd = Some(cmd.clone());
        // Route by the *current* map (migrations move ranges while
        // probes run); a raced move is reconciled by the probe's
        // WrongGroup handling, which needs one live replica per group.
        let g = cmd
            .op
            .key()
            .map_or(0, |k| self.current_router().group_of(k)) as usize;
        let target = self.live_replica(g);
        let group_targets = (0..self.num_groups())
            .map(|g| self.live_replica(g))
            .collect();
        {
            let p = self.sim.actor_mut::<ProbeClient>(pid);
            p.waiting = Some(id);
            p.reply = None;
            p.group_targets = group_targets;
            p.outbox = Some((target, Msg::Client(ClientMsg::Request { cmd })));
        }
        let deadline = self.sim.now() + SimDuration::from_secs(30);
        while self.sim.now() < deadline {
            self.sim.run_for(SimDuration::from_millis(20));
            if let Some(r) = self.sim.actor::<ProbeClient>(pid).reply.clone() {
                return Ok(r);
            }
        }
        Err("probe timed out".into())
    }

    /// The last command [`Cluster::submit_and_wait`] sent — tests
    /// re-inject it verbatim to model a client retransmission (same
    /// `CmdId`), e.g. a retry that crosses a range migration.
    pub fn last_probe_command(&self) -> Option<Command> {
        self.last_probe_cmd.clone()
    }

    /// Advances virtual time by `d`, pausing at each due sampling
    /// instant to fold every group's replica state into the metric
    /// registry (`group{g}/…` series) and to step the auto-balance
    /// policy.
    ///
    /// Determinism: stepping `run_until` in chunks processes the
    /// identical event order as a single call (events are heap-ordered
    /// by `(time, seq)`, and setting the clock between chunks is inert)
    /// and sampling is read-only, so enabling the sampler never changes
    /// the run.
    pub fn advance(&mut self, d: SimDuration) {
        let target = self.sim.now() + d;
        if !self.metrics.enabled() {
            self.sim.run_until(target);
            return;
        }
        self.metrics.fast_forward(self.sim.now());
        while self.metrics.next_due() <= target {
            self.sim.run_until(self.metrics.next_due());
            let now = self.sim.now();
            let mut cluster_sample = MetricSample::default();
            let n = self.regions.len();
            for (g, actors) in self.replicas.chunks(n).enumerate() {
                let (sample, nic, disk) = group_sample_now(&self.sim, self.view, actors);
                record_group_sample(&mut self.metrics, now, g as u32, &sample, nic, disk);
                if self.per_replica {
                    record_replica_samples(&mut self.metrics, &self.sim, self.view, now, actors);
                }
                cluster_sample.merge_sum(&sample);
            }
            self.sample_latency_histograms(now);
            self.tick_policy(now, &cluster_sample);
            self.metrics.advance();
        }
        self.sim.run_until(target);
    }

    /// Folds every client's per-group completion-latency histogram into
    /// one `group{g}/latency` snapshot per group. Cumulative snapshots:
    /// [`HistogramSeries::window`] recovers any phase by subtraction.
    fn sample_latency_histograms(&mut self, now: SimTime) {
        let mut hists = vec![LatencyHistogram::default(); self.num_groups()];
        for &c in &self.clients {
            let client = self.sim.actor::<WorkloadClient>(c);
            for (h, ch) in hists.iter_mut().zip(&client.group_latency) {
                h.merge(ch);
            }
        }
        for (g, h) in hists.into_iter().enumerate() {
            self.metrics.histogram(now, &format!("group{g}/latency"), h);
        }
    }

    /// The sampled per-group metric time-series collected so far (empty
    /// unless telemetry sampling is enabled).
    pub fn telemetry_series(&self) -> Vec<TimeSeries> {
        self.metrics.snapshot()
    }

    /// Assembles the span log recorded so far into per-command latency
    /// breakdowns (`None` unless span tracing is enabled). The
    /// migration story reads directly off the per-command fields:
    /// redirect cost is the `redirects` bounces' network share,
    /// freeze-bounce cost is `stalls` × the stall queueing time, and
    /// destination queueing is the queueing/batching booked at the
    /// group that finally served the command
    /// ([`crate::telemetry::CommandBreakdown::served_by`] →
    /// [`Cluster::group_of_replica`]).
    pub fn span_report(&self) -> Option<SpanReport> {
        self.sim
            .trace()
            .spans_enabled()
            .then(|| SpanAssembler::assemble(self.sim.trace().spans()))
    }

    /// Runs `warmup + measure + cooldown`, counting only completions
    /// inside the measurement window (Section 5: 50 s trials with 10 s
    /// warm-up and cool-down; benches use scaled-down windows). The
    /// "leader region" latency split is anchored at group 0's leader;
    /// snapshot/pipeline/durability counters sum over every group.
    pub fn run_measurement(
        &mut self,
        warmup: SimDuration,
        measure: SimDuration,
        cooldown: SimDuration,
    ) -> RunReport {
        self.advance(warmup);
        let w_start = self.sim.now().as_nanos();
        self.advance(measure);
        let w_end = self.sim.now().as_nanos();
        self.advance(cooldown);

        let leader_region = self.regions[self.leaders[0].0 as usize];
        let mut leader_reads = LatencyRecorder::new();
        let mut follower_reads = LatencyRecorder::new();
        let mut leader_writes = LatencyRecorder::new();
        let mut follower_writes = LatencyRecorder::new();
        let mut completed: u64 = 0;
        let mut histories = Vec::new();
        for &c in &self.clients {
            let region = self.sim.region_of(c);
            let is_leader_group = region == leader_region;
            let client = self.sim.actor::<WorkloadClient>(c);
            for comp in &client.completions {
                if !(w_start..w_end).contains(&comp.at_ns) {
                    continue;
                }
                completed += 1;
                match (comp.kind, is_leader_group) {
                    (OpKind::Read, true) => leader_reads.record_ns(comp.latency_ns),
                    (OpKind::Read, false) => follower_reads.record_ns(comp.latency_ns),
                    (OpKind::Write, true) => leader_writes.record_ns(comp.latency_ns),
                    (OpKind::Write, false) => follower_writes.record_ns(comp.latency_ns),
                }
            }
            histories.extend(client.history_records());
        }
        let mut snapshots = SnapshotStats::default();
        let mut pipeline = PipelineStats::default();
        let mut durability = DurabilityStats::default();
        for gs in &self.per_group_stats() {
            snapshots.absorb(&gs.snapshots);
            pipeline.absorb(&gs.pipeline);
            durability.absorb(&gs.durability);
        }
        RunReport {
            throughput_ops: completed as f64 / measure.as_secs_f64(),
            leader_reads: leader_reads.paper_triple_ms(),
            follower_reads: follower_reads.paper_triple_ms(),
            leader_writes: leader_writes.paper_triple_ms(),
            follower_writes: follower_writes.paper_triple_ms(),
            histories,
            snapshots,
            pipeline,
            durability,
            telemetry: self.metrics.snapshot(),
            latency_hists: self.metrics.hist_snapshot(),
            spans: self.span_report(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_elects_every_protocol() {
        for p in [
            ProtocolKind::MultiPaxos,
            ProtocolKind::Raft,
            ProtocolKind::RaftStar,
            ProtocolKind::RaftStarPql,
            ProtocolKind::LeaderLease,
            ProtocolKind::RaftStarMencius,
        ] {
            let mut cluster = Cluster::builder(p).build();
            cluster.elect_leader();
            assert!(cluster.group_has_leader(0), "{} has a leader", p.name());
        }
    }

    #[test]
    fn submit_and_wait_round_trips() {
        let mut cluster = Cluster::builder(ProtocolKind::RaftStar).build();
        cluster.elect_leader();
        let r = cluster
            .submit_and_wait(Op::Put {
                key: 1,
                value: vec![7; 16],
            })
            .expect("put succeeds");
        assert_eq!(r, Reply::Done);
        let r = cluster
            .submit_and_wait(Op::Get { key: 1 })
            .expect("get succeeds");
        assert!(matches!(r, Reply::Value(Some(_))));
    }

    #[test]
    fn measurement_produces_throughput_and_latency() {
        let w = WorkloadConfig {
            read_fraction: 0.5,
            conflict_rate: 0.0,
            ..Default::default()
        };
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .clients_per_region(2)
            .workload(w)
            .build();
        cluster.elect_leader();
        let report = cluster.run_measurement(
            SimDuration::from_secs(2),
            SimDuration::from_secs(5),
            SimDuration::from_secs(1),
        );
        assert!(report.throughput_ops > 1.0, "got {}", report.throughput_ops);
        assert!(report.leader_reads.is_some());
        assert!(report.follower_writes.is_some());
    }

    /// The per-replica series satellite's demo: degrade exactly one
    /// replica's disk and find the straggler *from the metric series
    /// alone* — the `replica{i}/disk_backlog_ms` gauge of the slow
    /// device dominates every healthy one, and no group-level series
    /// could have said which node it was.
    #[test]
    fn per_replica_series_expose_an_injected_slow_disk_straggler() {
        use paxraft_sim::disk::DiskConfig;
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .clients_per_region(1)
            .durability_config(DurabilityConfig::group_commit(
                SimDuration::from_millis(1),
                8,
                SimDuration::from_millis(2),
            ))
            .telemetry_config(TelemetryConfig::sampled().with_per_replica())
            .seed(17)
            .build();
        // Node 2 (a follower) gets a device an order of magnitude
        // slower than the fleet default.
        let straggler = cluster.replicas()[2];
        cluster.sim.set_disk_config_for(
            straggler,
            DiskConfig {
                write_bandwidth_bps: 100_000.0,
                fsync_latency: SimDuration::from_millis(25),
            },
        );
        cluster.elect_leader();
        let report = cluster.run_measurement(
            SimDuration::from_secs(1),
            SimDuration::from_secs(3),
            SimDuration::from_secs(1),
        );
        let mut worst: Option<(&str, f64)> = None;
        let mut healthy_max = 0.0f64;
        for s in &report.telemetry {
            let Some(node) = s
                .name
                .strip_prefix("replica")
                .and_then(|rest| rest.strip_suffix("/disk_backlog_ms"))
            else {
                continue;
            };
            assert!(!s.is_empty(), "{} has samples", s.name);
            let mean = s.points.iter().map(|p| p.1).sum::<f64>() / s.len() as f64;
            if worst.is_none_or(|(_, w)| mean > w) {
                if let Some((prev, w)) = worst {
                    let _ = prev;
                    healthy_max = healthy_max.max(w);
                }
                worst = Some((node, mean));
            } else {
                healthy_max = healthy_max.max(mean);
            }
        }
        let (node, backlog) = worst.expect("per-replica backlog series collected");
        assert_eq!(
            node,
            straggler.0.to_string(),
            "the series alone identify the degraded device"
        );
        assert!(
            backlog > 2.0 * healthy_max.max(0.01),
            "straggler backlog ({backlog:.2} ms) dominates healthy peers ({healthy_max:.2} ms)"
        );
    }
}
