//! Sharding configuration and the [`Cluster`] accessors for key-range
//! routing and live rebalancing. Every cluster is `groups` replica groups
//! over the same simulated nodes ([`ClusterBuilder::build`]); one group is
//! the unsharded cluster.
//!
//! [`ClusterBuilder::build`]: crate::harness::ClusterBuilder::build

use paxraft_sim::sim::ActorId;
use paxraft_sim::time::{SimDuration, SimTime};

use crate::engine::{DurabilityStats, PipelineStats};
use crate::harness::Cluster;
use crate::snapshot::SnapshotStats;
use crate::telemetry::MetricSample;
use crate::types::NodeId;

use super::autobalance::SKETCH_NAMES;
use super::{AutoBalancePolicy, BalanceDecision, MigrationSpec, RebalanceCoordinator, ShardRouter};

/// Where each group's leader bootstraps — the knob the Paxos/Raft
/// leader-flexibility comparison turns on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaderPlacement {
    /// Every group's leader starts on the builder's configured leader
    /// node: one region absorbs all proposer traffic (each group is
    /// still its own actor with its own CPU — the concentration is
    /// geographic, not computational).
    AllOnOne,
    /// Group `g`'s leader starts on node `(leader + g) mod n`, spreading
    /// proposers across regions so no single region is every client's
    /// far endpoint.
    RoundRobin,
}

impl LeaderPlacement {
    /// The bootstrap leader of group `g` given the builder's base leader.
    pub fn leader_of(self, base: NodeId, g: usize, n: usize) -> NodeId {
        match self {
            LeaderPlacement::AllOnOne => base,
            LeaderPlacement::RoundRobin => NodeId((base.0 + g as u32) % n as u32),
        }
    }

    /// Name used in benchmark row keys.
    pub fn name(self) -> &'static str {
        match self {
            LeaderPlacement::AllOnOne => "allonone",
            LeaderPlacement::RoundRobin => "roundrobin",
        }
    }
}

/// Sharding parameters for [`crate::harness::ClusterBuilder::shard_config`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of replica groups (1 = unsharded behavior).
    pub groups: usize,
    /// Per-group leader bootstrap placement.
    pub placement: LeaderPlacement,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            groups: 1,
            placement: LeaderPlacement::AllOnOne,
        }
    }
}

impl ShardConfig {
    /// `groups` groups with the default placement.
    pub fn groups(groups: usize) -> Self {
        ShardConfig {
            groups,
            ..ShardConfig::default()
        }
    }

    /// This configuration with the given leader placement.
    pub fn placement(mut self, placement: LeaderPlacement) -> Self {
        self.placement = placement;
        self
    }
}

/// Per-group counters from one run.
#[derive(Debug, Clone)]
pub struct GroupStats {
    /// Group id.
    pub group: u32,
    /// The group's bootstrap leader node.
    pub leader: NodeId,
    /// Client responses the group's replicas sent (commit-visible work;
    /// a crashed group shows up as a flat count here).
    pub responses: u64,
    /// Snapshot/compaction counters summed over the group's replicas.
    pub snapshots: SnapshotStats,
    /// Pipeline counters summed over the group's replicas.
    pub pipeline: PipelineStats,
    /// Fsync / deferred-ack counters summed over the group's replicas.
    pub durability: DurabilityStats,
    /// Range exports shipped by the group's replicas (live rebalancing).
    pub range_exports: u64,
    /// Range installs absorbed by the group's replicas.
    pub range_installs: u64,
}

impl Cluster {
    /// The build-time key-range partition map (version 0). Live
    /// rebalancing does not edit this copy; see
    /// [`Cluster::current_router`].
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The current authoritative partition map: the rebalance
    /// coordinator's copy when one exists (it applies every completed
    /// migration), the build-time map otherwise.
    pub fn current_router(&self) -> ShardRouter {
        match self.coordinator {
            Some(c) => self.sim.actor::<RebalanceCoordinator>(c).router().clone(),
            None => self.router.clone(),
        }
    }

    /// The rebalance coordinator actor, when migrations are scripted.
    pub fn coordinator(&self) -> Option<ActorId> {
        self.coordinator
    }

    /// The auto-balance policy (None unless enabled at build time).
    pub fn policy(&self) -> Option<&AutoBalancePolicy> {
        self.policy.as_ref()
    }

    /// Every migration the auto-balance policy decided on, in decision
    /// order with virtual timestamps — the determinism pin: two runs of
    /// the same seed must produce identical logs.
    pub fn policy_decisions(&self) -> Vec<(SimTime, BalanceDecision)> {
        self.policy
            .as_ref()
            .map_or_else(Vec::new, |p| p.decisions.clone())
    }

    /// Total migrations the coordinator has started (scripted plus
    /// policy-enqueued); 0 without a coordinator.
    pub fn migrations_started(&self) -> usize {
        self.coordinator.map_or(0, |c| {
            self.sim
                .actor::<RebalanceCoordinator>(c)
                .migrations_started()
        })
    }

    /// High-water mark of concurrently in-flight migrations.
    pub fn peak_inflight_migrations(&self) -> usize {
        self.coordinator.map_or(0, |c| {
            self.sim.actor::<RebalanceCoordinator>(c).peak_inflight
        })
    }

    /// Versions of migrations whose release completed (empty without a
    /// coordinator).
    pub fn migrations_completed(&self) -> Vec<u64> {
        match self.coordinator {
            Some(c) => self.sim.actor::<RebalanceCoordinator>(c).completed.clone(),
            None => Vec::new(),
        }
    }

    /// Runs the simulation until every scripted migration has completed
    /// (released), or panics after `limit`.
    pub fn run_until_rebalanced(&mut self, limit: SimDuration) {
        let deadline = self.sim.now() + limit;
        loop {
            let done = match self.coordinator {
                Some(c) => self.sim.actor::<RebalanceCoordinator>(c).done(),
                None => true,
            };
            if done {
                return;
            }
            assert!(
                self.sim.now() < deadline,
                "migrations did not complete within {limit}"
            );
            self.sim.run_for(SimDuration::from_millis(100));
        }
    }

    /// One closed-loop control step: hand the policy the cluster-wide
    /// load sketch plus the coordinator's in-flight picture, and enqueue
    /// whatever migrations it decides. Runs between sim steps at the
    /// sampling cadence, so decisions are a pure function of the run so
    /// far — two identical seeds produce identical decision logs.
    pub(crate) fn tick_policy(&mut self, now: SimTime, cluster_sample: &MetricSample) {
        let (Some(policy), Some(coord)) = (self.policy.as_mut(), self.coordinator) else {
            return;
        };
        let counts: Vec<f64> = SKETCH_NAMES.iter().map(|n| cluster_sample.get(n)).collect();
        let (planned, inflight, ranges) = {
            let c = self.sim.actor::<RebalanceCoordinator>(coord);
            (
                c.planned_router().clone(),
                c.inflight(),
                c.inflight_ranges(),
            )
        };
        let decisions = policy.observe(now, &counts, &planned, inflight, &ranges);
        if decisions.is_empty() {
            return;
        }
        let c = self.sim.actor_mut::<RebalanceCoordinator>(coord);
        for d in decisions {
            c.enqueue(MigrationSpec {
                at: SimDuration::from_nanos(now.as_nanos()),
                lo: d.lo,
                hi: d.hi,
                to_group: d.to_group,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::WorkloadClient;
    use crate::harness::ProtocolKind;
    use crate::kv::{CmdId, Command, Op, Reply};
    use crate::msg::Msg;
    use crate::snapshot::SnapshotConfig;
    use crate::testutil::run_fingerprint;
    use paxraft_sim::net::Region;
    use paxraft_workload::generator::WorkloadConfig;

    fn parity_workload() -> WorkloadConfig {
        WorkloadConfig {
            read_fraction: 0.5,
            conflict_rate: 0.2,
            ..Default::default()
        }
    }

    /// Telemetry parity in the sharded harness: enabling the sampler
    /// and the flight recorder on a 2-group run *with a scripted
    /// migration racing the measurement window* changes nothing in the
    /// [`RunReport`] — and the enabled run collects one series set per
    /// group.
    #[test]
    fn sharded_telemetry_on_and_off_runs_are_bit_for_bit() {
        use crate::shard::{MigrationSpec, RebalanceConfig};
        use crate::telemetry::TelemetryConfig;
        let run = |telemetry: TelemetryConfig| {
            let mut cluster = Cluster::builder(ProtocolKind::Raft)
                .shard_config(ShardConfig::groups(2))
                .clients_per_region(2)
                .rebalance_config(RebalanceConfig::default().migrate(MigrationSpec {
                    at: SimDuration::from_secs(3),
                    lo: 0,
                    hi: 1,
                    to_group: 1,
                }))
                .workload(parity_workload())
                .telemetry_config(telemetry)
                .seed(31)
                .build();
            cluster.elect_leader();
            let r = cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(4),
                SimDuration::from_secs(1),
            );
            let fp = run_fingerprint(&r, cluster.sim.now());
            (fp, r.telemetry)
        };
        let (off, series_off) = run(TelemetryConfig::default());
        let (on, series_on) = run(TelemetryConfig::sampled());
        assert_eq!(off, on, "telemetry never perturbs the sharded run");
        assert!(series_off.is_empty(), "off-run collects nothing");
        for g in 0..2 {
            for metric in ["throughput_ops", "pending_depth", "range_exports"] {
                let name = format!("group{g}/{metric}");
                let s = series_on
                    .iter()
                    .find(|s| s.name == name)
                    .unwrap_or_else(|| panic!("series {name} collected"));
                assert!(!s.is_empty(), "{name} has samples");
            }
        }
    }

    /// Span tracing plus per-replica series in the sharded harness:
    /// enabling both on a 2-group run with a scripted migration racing
    /// the measurement window is bit-for-bit invisible in the
    /// [`RunReport`] — and the enabled run yields per-command
    /// breakdowns that (a) obey the accounting identity, (b) include
    /// migration-path traffic (`WrongGroup` redirect bounces show up as
    /// redirect/stall counts on the affected commands), and (c) come
    /// with one metric-series set per *replica*, not just per group.
    #[test]
    fn sharded_span_tracing_and_per_replica_series_are_bit_for_bit() {
        use crate::shard::{MigrationSpec, RebalanceConfig};
        use crate::telemetry::{Stage, TelemetryConfig};
        let run = |telemetry: TelemetryConfig| {
            let mut cluster = Cluster::builder(ProtocolKind::Raft)
                .shard_config(ShardConfig::groups(2))
                .clients_per_region(2)
                .rebalance_config(RebalanceConfig::default().migrate(MigrationSpec {
                    at: SimDuration::from_secs(3),
                    lo: 0,
                    hi: 1,
                    to_group: 1,
                }))
                .workload(parity_workload())
                .telemetry_config(telemetry)
                .seed(31)
                .build();
            cluster.elect_leader();
            let r = cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(4),
                SimDuration::from_secs(1),
            );
            let fp = run_fingerprint(&r, cluster.sim.now());
            let replicas: Vec<_> = (0..2)
                .flat_map(|g| cluster.group_replicas(g).to_vec())
                .collect();
            (fp, r.spans, r.telemetry, replicas)
        };
        let (off, spans_off, series_off, _) = run(TelemetryConfig::default());
        let (on, spans_on, series_on, replicas) =
            run(TelemetryConfig::sampled().with_spans().with_per_replica());
        assert_eq!(off, on, "span tracing never perturbs the sharded run");
        assert!(spans_off.is_none(), "off-run assembles nothing");
        assert!(series_off.is_empty(), "off-run collects nothing");
        let spans = spans_on.expect("spans enabled");
        assert!(!spans.commands.is_empty(), "commands traced");
        for b in &spans.commands {
            let sum = Stage::ALL
                .iter()
                .fold(SimDuration::ZERO, |acc, &s| acc + b.stage(s));
            assert_eq!(
                sum,
                b.total(),
                "accounting identity for client {} seq {}",
                b.client,
                b.seq
            );
        }
        assert!(
            spans
                .commands
                .iter()
                .any(|b| b.redirects > 0 || b.stalls > 0),
            "the migration window produced redirect/stall spans"
        );
        for r in &replicas {
            let name = format!("replica{}/throughput_ops", r.0);
            let s = series_on
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("series {name} collected"));
            assert!(!s.is_empty(), "{name} has samples");
        }
    }

    /// Groups fail independently: crashing group 0's leader must not
    /// disturb group 1's commits, and group 0 itself recovers by
    /// re-election inside the group.
    #[test]
    fn leader_crash_in_one_group_does_not_disturb_the_other() {
        for p in [
            ProtocolKind::Raft,
            ProtocolKind::RaftStar,
            ProtocolKind::MultiPaxos,
            ProtocolKind::RaftStarMencius,
        ] {
            let mut cluster = Cluster::builder(p)
                .shard_config(ShardConfig::groups(2))
                .seed(11)
                .build();
            cluster.elect_leader();
            let (g0_lo, _) = cluster.router().range(0);
            let (g1_lo, _) = cluster.router().range(1);
            // Both groups serve before the fault.
            for key in [g0_lo, g1_lo] {
                cluster
                    .submit_and_wait(Op::Put {
                        key,
                        value: vec![0; 8],
                    })
                    .unwrap_or_else(|e| panic!("{}: pre-crash put({key}): {e}", p.name()));
            }
            // Crash group 0's leader *actor*; the same node's group-1
            // actor keeps running (independent failure domains per
            // group even on one machine).
            let victim = cluster.replica(0, cluster.leaders()[0]);
            cluster
                .sim
                .crash_at(victim, cluster.sim.now() + SimDuration::from_millis(1));
            cluster.sim.run_for(SimDuration::from_millis(10));
            let before = cluster.sim.now();
            let r = cluster
                .submit_and_wait(Op::Get { key: g1_lo })
                .unwrap_or_else(|e| {
                    panic!("{}: group 1 read during group 0 outage: {e}", p.name())
                });
            assert!(
                matches!(r, Reply::Value(Some(_))),
                "{}: group 1 still serves its committed state",
                p.name()
            );
            let group1_latency = cluster.sim.now().since(before);
            assert!(
                group1_latency < SimDuration::from_secs(1),
                "{}: group 1 commit undisturbed by group 0's election ({group1_latency})",
                p.name()
            );
            // Group 0 recovers on its own (re-election or revocation).
            cluster
                .submit_and_wait(Op::Put {
                    key: g0_lo,
                    value: vec![1; 8],
                })
                .unwrap_or_else(|e| panic!("{}: group 0 post-crash put: {e}", p.name()));
        }
    }

    /// A client whose partition map is stale (it believes everything
    /// lives in group 0) is redirected by the replicas' map and still
    /// completes every operation.
    #[test]
    fn stale_client_router_is_corrected_by_wrong_group_redirects() {
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .shard_config(ShardConfig::groups(2))
            .clients_per_region(1)
            .workload(WorkloadConfig {
                read_fraction: 0.0,
                conflict_rate: 0.0,
                ..Default::default()
            })
            .seed(3)
            .build();
        cluster.elect_leader();
        // Swap every client's router for a stale single-group map:
        // all keys resolve to group 0, so half the traffic (group 1
        // keys) is misrouted and must be redirected.
        let stale = ShardRouter::new(WorkloadConfig::default().records, 1);
        for &c in &cluster.clients().to_vec() {
            let wc = cluster.sim.actor_mut::<WorkloadClient>(c);
            let routing = wc.shard.as_mut().expect("sharded client has routing");
            routing.router = stale.clone();
        }
        cluster.sim.run_for(SimDuration::from_secs(5));
        let mut redirects = 0;
        let mut completions = 0;
        for &c in cluster.clients() {
            let wc = cluster.sim.actor::<WorkloadClient>(c);
            redirects += wc.redirects;
            completions += wc.completions.len();
        }
        assert!(
            redirects > 0,
            "misrouted commands were redirected ({redirects})"
        );
        // Redirects are counted apart from commit-visible responses:
        // every group-0 replica answered misroutes without inflating its
        // response counter by them.
        let mut replica_redirects = 0;
        for node in 0..5u32 {
            let rep = cluster
                .sim
                .actor::<crate::raft::RaftReplica>(cluster.replica(0, NodeId(node)));
            replica_redirects += rep.core.redirects_sent;
        }
        assert_eq!(
            replica_redirects, redirects,
            "replica redirect counters match the clients' view"
        );
        assert!(
            completions > 10,
            "clients completed operations despite the stale map ({completions})"
        );
        // The redirect happened *before* replication: no group ever
        // applied a foreign key.
        for g in 0..2 {
            let (lo, hi) = cluster.router().range(g);
            for node in 0..5u32 {
                let kv = cluster.replica_view(cluster.replica(g, NodeId(node))).kv();
                for (k, _) in kv.snapshot().table.iter() {
                    assert!(
                        (lo..hi).contains(k),
                        "group {g} applied only its own keys (found {k})"
                    );
                }
            }
        }
    }

    /// Snapshot catch-up stays inside one group of a sharded cluster: a
    /// lagging replica of group 0 is healed by a group-0 snapshot while
    /// the co-located group-1 actor never sees a transfer.
    #[test]
    fn snapshot_catch_up_is_group_local() {
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .replicas(3)
            .regions(vec![Region::Oregon, Region::Ohio, Region::Ireland])
            .shard_config(ShardConfig::groups(2))
            .snapshot_config(SnapshotConfig::every(16))
            .seed(5)
            .build();
        cluster.elect_leader();
        let (g0_lo, _) = cluster.router().range(0);
        let (g1_lo, _) = cluster.router().range(1);
        // Warm-up commit (also materializes the probe actor, so the
        // partition vector below covers every actor in the sim).
        cluster
            .submit_and_wait(Op::Put {
                key: g0_lo,
                value: vec![0; 8],
            })
            .expect("warm-up put");
        // Cut off group 0's replica on node 2 only; node 2's group-1
        // actor, the other replicas and the probe stay connected
        // (partition groups are per *actor*).
        let victim = cluster.replica(0, NodeId(2));
        let mut partition = vec![0u32; cluster.sim.len()];
        partition[victim.0] = 1;
        cluster
            .sim
            .partition_at(partition, cluster.sim.now() + SimDuration::from_millis(1));
        // Commit far past the compaction threshold in BOTH groups.
        for i in 0..40 {
            for key in [g0_lo + i, g1_lo + i] {
                cluster
                    .submit_and_wait(Op::Put {
                        key,
                        value: vec![0; 8],
                    })
                    .expect("puts commit under the single-actor partition");
            }
        }
        cluster
            .sim
            .heal_at(cluster.sim.now() + SimDuration::from_millis(1));
        cluster.sim.run_for(SimDuration::from_secs(20));
        let stats = cluster.per_group_stats();
        assert!(
            stats[0].snapshots.compactions >= 1,
            "group 0 compacted ({:?})",
            stats[0].snapshots
        );
        assert!(
            stats[0].snapshots.snapshots_installed >= 1,
            "lagging group-0 replica caught up via snapshot ({:?})",
            stats[0].snapshots
        );
        assert_eq!(
            stats[1].snapshots.snapshots_installed, 0,
            "group 1 never needed (or saw) a transfer ({:?})",
            stats[1].snapshots
        );
        let applied = cluster.replica_view(victim).applied_index();
        assert!(
            applied.0 + 16 >= 40,
            "rejoined replica converged ({applied})"
        );
    }

    /// The group id stamped on engine-level traffic is a hard isolation
    /// guard: a Forward carrying another group's id is dropped before it
    /// can enter the pending batch.
    #[test]
    fn cross_group_forward_is_dropped() {
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .shard_config(ShardConfig::groups(2))
            .seed(9)
            .build();
        cluster.elect_leader();
        let target = cluster.replica(0, cluster.leaders()[0]);
        let cmd = Command::put(CmdId { client: 0, seq: 1 }, 1, vec![0; 8]);
        cluster.sim.send_external(
            target,
            Msg::Engine(crate::msg::EngineMsg::Forward {
                group: 1,
                header_bytes: 12,
                cmds: vec![cmd],
            }),
            SimDuration::ZERO,
        );
        cluster.sim.run_for(SimDuration::from_millis(50));
        let rep = cluster.sim.actor::<crate::raft::RaftReplica>(target);
        assert_eq!(rep.core.cross_group_dropped, 1, "foreign Forward dropped");
        assert!(rep.core.pending.is_empty(), "nothing buffered from it");
    }

    /// Closed-loop end to end: a sustained hotspot inside group 0's
    /// range makes the policy migrate the hot buckets to group 1 — with
    /// disjoint ranges in flight *concurrently* — and the post-move
    /// ownership actually changed.
    #[test]
    fn autobalance_policy_moves_a_sustained_hotspot_off_the_loaded_group() {
        use crate::shard::AutoBalanceConfig;
        use crate::telemetry::TelemetryConfig;
        use paxraft_workload::scenario::{Drift, Hotspot, ScenarioConfig};
        let mut cluster = Cluster::builder(ProtocolKind::Raft)
            .shard_config(ShardConfig::groups(2))
            .clients_per_region(2)
            .workload(WorkloadConfig {
                read_fraction: 0.5,
                scenario: Some(ScenarioConfig {
                    hotspot: Some(Hotspot {
                        weight: 0.9,
                        center: 12_500,
                        width: 12_000,
                        drift: Drift::Fixed,
                    }),
                    ..ScenarioConfig::default()
                }),
                ..Default::default()
            })
            .telemetry_config(TelemetryConfig::sampled())
            .autobalance_config(AutoBalanceConfig::standard())
            .seed(23)
            .build();
        cluster.elect_leader();
        cluster.run_measurement(
            SimDuration::from_secs(2),
            SimDuration::from_secs(10),
            SimDuration::from_secs(2),
        );
        let decisions = cluster.policy_decisions();
        assert!(
            decisions.len() >= 2,
            "policy split the hot range into several moves ({decisions:?})"
        );
        for (_, d) in &decisions {
            assert_eq!(d.from_group, 0, "the loaded group donates ({d:?})");
            assert_eq!(d.to_group, 1, "the idle group receives ({d:?})");
            assert!(
                d.lo >= 6_500 - 3_125 && d.hi <= 18_500 + 3_125,
                "moves target the hotspot window ({d:?})"
            );
        }
        assert!(
            cluster.peak_inflight_migrations() >= 2,
            "disjoint hot ranges migrated concurrently (peak {})",
            cluster.peak_inflight_migrations()
        );
        let current = cluster.current_router();
        assert!(
            current.version() > 0 && current.group_of(decisions[0].1.lo) == 1,
            "the published map reflects the moves"
        );
        // The cluster still serves the moved range after rebalancing.
        let r = cluster
            .submit_and_wait(Op::Get {
                key: decisions[0].1.lo,
            })
            .expect("read from the migrated range");
        assert!(matches!(r, Reply::Value(_)));
    }

    /// Anti-livelock regression: an adversarial hotspot oscillating
    /// between the two groups faster than the control loop converges
    /// must produce a *bounded* migration count (cooldown caps batches,
    /// dwell bans just-moved buckets) — and the decision log must be a
    /// pure function of the seed.
    #[test]
    fn oscillating_hotspot_yields_bounded_and_deterministic_migrations() {
        use crate::shard::AutoBalanceConfig;
        use crate::telemetry::TelemetryConfig;
        use paxraft_workload::scenario::ScenarioConfig;
        let run = || {
            let mut cluster = Cluster::builder(ProtocolKind::Raft)
                .shard_config(ShardConfig::groups(2))
                .clients_per_region(2)
                .workload(WorkloadConfig {
                    read_fraction: 0.5,
                    scenario: Some(ScenarioConfig::oscillating_hotspot(
                        0.8,
                        12_500,
                        62_500,
                        12_000,
                        SimDuration::from_secs(3),
                    )),
                    ..Default::default()
                })
                .telemetry_config(TelemetryConfig::sampled())
                .autobalance_config(AutoBalanceConfig::standard())
                .seed(29)
                .build();
            cluster.elect_leader();
            cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(12),
                SimDuration::from_secs(1),
            );
            (cluster.migrations_started(), cluster.policy_decisions())
        };
        let (started, decisions) = run();
        // Cooldown admits one batch of ≤ max_per_tick moves per 2 s of
        // the 15 s run: the count is bounded no matter how fast the
        // hotspot jumps.
        let cfg = AutoBalanceConfig::standard();
        let bound = cfg.max_per_tick * (15 / 2 + 1);
        assert!(
            started <= bound,
            "migration count bounded under oscillation ({started} <= {bound})"
        );
        assert!(
            !decisions.is_empty(),
            "the policy did chase the hotspot (it must act, just boundedly)"
        );
        let (started2, decisions2) = run();
        assert_eq!(started, started2, "fixed seed: identical migration count");
        assert_eq!(decisions, decisions2, "fixed seed: identical decision log");
    }

    /// The empty [`AutoBalanceConfig`] creates no controller: no
    /// coordinator actor, no policy, and the run is bit-for-bit the
    /// plain sharded cluster.
    #[test]
    fn empty_autobalance_config_is_bit_for_bit_the_plain_sharded_cluster() {
        use crate::shard::AutoBalanceConfig;
        use crate::telemetry::TelemetryConfig;
        let run = |autobalance: Option<AutoBalanceConfig>| {
            let mut b = Cluster::builder(ProtocolKind::Raft)
                .shard_config(ShardConfig::groups(2))
                .clients_per_region(2)
                .workload(parity_workload())
                .telemetry_config(TelemetryConfig::sampled())
                .seed(17);
            if let Some(cfg) = autobalance {
                b = b.autobalance_config(cfg);
            }
            let mut cluster = b.build();
            cluster.elect_leader();
            let r = cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(4),
                SimDuration::from_secs(1),
            );
            assert!(cluster.coordinator().is_none(), "no controller actor");
            assert!(cluster.policy().is_none(), "no policy state");
            run_fingerprint(&r, cluster.sim.now())
        };
        assert_eq!(
            run(None),
            run(Some(AutoBalanceConfig::default())),
            "disabled auto-balance changes nothing"
        );
    }
}
