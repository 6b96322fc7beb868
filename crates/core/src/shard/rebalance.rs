//! The rebalance coordinator: drives range migrations through the
//! groups' logs and publishes the bumped partition map.
//!
//! The coordinator is deliberately an ordinary **client** of both
//! groups: every step it takes is a replicated command ([`Op::FreezeRange`]
//! at the source, the destination's `InstallRange` response, and
//! [`Op::ReleaseRange`] back at the source), so a crashed leader in
//! either group is survived by plain client-style retransmission to
//! another replica. Exactly-once apply of its commands comes from the
//! state machine's per-version idempotency guards (see
//! [`crate::shard::migration`]), not from session dedup — which is what
//! lets the coordinator run **disjoint-range migrations concurrently**:
//! each in-flight migration is an independent [`Flight`] state machine,
//! and only three orderings are enforced globally:
//!
//! 1. a migration starts only when its range is disjoint from every
//!    in-flight range (same-range moves still serialize),
//! 2. versions are assigned in start order against the `planned` map,
//!    so the freeze's source group is always well-defined, and
//! 3. router *publishes* happen strictly in version order
//!    ([`ShardRouter::apply_move`] drops out-of-order versions
//!    forever) — an install that finishes early waits in
//!    `pending_moves` until the gap below it fills.
//!
//! The only non-client machinery is in the replicas themselves — the
//! source leader's export pump and the destination's chunk absorption
//! (see [`crate::shard::migration`] and the engine hooks).

use std::collections::BTreeMap;

use paxraft_sim::impl_actor_any;
use paxraft_sim::sim::{Actor, ActorId, Ctx};
use paxraft_sim::time::{SimDuration, SimTime};

use crate::kv::{CmdId, Command, Key, Op, Reply};
use crate::msg::{ClientMsg, Msg};
use crate::shard::migration::{
    freeze_cmd_id, install_cmd_id, release_cmd_id, version_of_cmd, MigrationSpec, RouterVersion,
};
use crate::shard::ShardRouter;

/// Scripted rebalancing for a sharded cluster
/// ([`crate::harness::ClusterBuilder::rebalance_config`]). Empty by
/// default: no coordinator actor is created and the cluster is
/// bit-for-bit the non-rebalancing cluster.
#[derive(Debug, Clone, Default)]
pub struct RebalanceConfig {
    /// Migrations to run. Entries whose ranges overlap run serialized
    /// in plan order; disjoint due entries run concurrently up to
    /// [`RebalanceConfig::concurrency`].
    pub migrations: Vec<MigrationSpec>,
    /// Maximum simultaneously in-flight migrations; `0` means the
    /// default of 4.
    pub max_concurrent: usize,
}

impl RebalanceConfig {
    /// Whether any migration is scripted.
    pub fn enabled(&self) -> bool {
        !self.migrations.is_empty()
    }

    /// This configuration plus one scripted migration.
    pub fn migrate(mut self, spec: MigrationSpec) -> Self {
        self.migrations.push(spec);
        self
    }

    /// The resolved in-flight cap.
    pub fn concurrency(&self) -> usize {
        if self.max_concurrent == 0 {
            4
        } else {
            self.max_concurrent
        }
    }
}

/// Which step a migration flight is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// `FreezeRange` sent to the source group, awaiting its response.
    Freeze,
    /// Freeze committed; awaiting the destination's `InstallRange`
    /// response (the transfer itself is replica-driven).
    Install,
    /// `ReleaseRange` sent to the source group, awaiting its response.
    Release,
}

/// The command a flight is currently retrying.
#[derive(Debug, Clone)]
struct Outstanding {
    cmd: Command,
    /// The group the command addresses.
    group: u32,
    /// Rotation index into the group's replicas (a crashed or
    /// partitioned replica is routed around on retry).
    rotation: usize,
    sent: SimTime,
}

/// One in-flight migration's state machine.
#[derive(Debug, Clone)]
struct Flight {
    version: RouterVersion,
    lo: Key,
    hi: Key,
    to_group: u32,
    phase: Phase,
    outstanding: Outstanding,
}

/// The coordinator actor. One per sharded cluster with a non-empty
/// [`RebalanceConfig`] or an enabled
/// [`crate::shard::AutoBalanceConfig`]; lives at a client actor id so
/// replica responses route to it like to any client.
pub struct RebalanceCoordinator {
    client_id: u32,
    /// Published ownership: moves applied strictly in version order as
    /// installs complete; this is what `RouterUpdate` ships to clients.
    router: ShardRouter,
    /// Planned ownership: every *started* migration's move applied at
    /// start time. Source-group resolution and the auto-balance policy
    /// read this map — it already accounts for in-flight hand-offs.
    planned: ShardRouter,
    plan: Vec<MigrationSpec>,
    /// Parallel to `plan`: whether the entry has been started.
    started: Vec<bool>,
    /// Next version to assign (migrations are versioned in start order).
    next_version: RouterVersion,
    /// `targets[g]` are group `g`'s replica actors (node order).
    targets: Vec<Vec<ActorId>>,
    /// Workload clients to publish router updates to.
    clients: Vec<ActorId>,
    flights: Vec<Flight>,
    /// Installs whose publish waits for a lower version to install
    /// first: `version → (lo, hi, to_group)`.
    pending_moves: BTreeMap<RouterVersion, (Key, Key, u32)>,
    max_concurrent: usize,
    /// Versions of completed (released) migrations, in completion order.
    pub completed: Vec<RouterVersion>,
    /// Versions whose install committed, in commit order (out-of-order
    /// under concurrency); superset of `completed`.
    pub installed: Vec<RouterVersion>,
    /// Versions in publish order — strictly increasing by construction;
    /// the router-version monotonicity pin.
    pub published: Vec<RouterVersion>,
    /// High-water mark of simultaneously in-flight migrations.
    pub peak_inflight: usize,
}

impl RebalanceCoordinator {
    /// A coordinator for the given plan over a built cluster's actors.
    pub fn new(
        client_id: u32,
        router: ShardRouter,
        plan: Vec<MigrationSpec>,
        targets: Vec<Vec<ActorId>>,
        clients: Vec<ActorId>,
        max_concurrent: usize,
    ) -> Self {
        let started = vec![false; plan.len()];
        RebalanceCoordinator {
            client_id,
            planned: router.clone(),
            router,
            plan,
            started,
            next_version: 1,
            targets,
            clients,
            flights: Vec::new(),
            pending_moves: BTreeMap::new(),
            max_concurrent: max_concurrent.max(1),
            completed: Vec::new(),
            installed: Vec::new(),
            published: Vec::new(),
            peak_inflight: 0,
        }
    }

    /// The coordinator's current **published** partition map.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// The planned map: published moves plus every in-flight move,
    /// applied at start time.
    pub fn planned_router(&self) -> &ShardRouter {
        &self.planned
    }

    /// Whether every planned migration has completed.
    pub fn done(&self) -> bool {
        self.completed.len() == self.plan.len()
    }

    /// Number of migrations currently in flight.
    pub fn inflight(&self) -> usize {
        self.flights.len()
    }

    /// The key ranges currently migrating.
    pub fn inflight_ranges(&self) -> Vec<(Key, Key)> {
        self.flights.iter().map(|f| (f.lo, f.hi)).collect()
    }

    /// Number of migrations started so far (the auto-balance livelock
    /// bound counts these, not completions).
    pub fn migrations_started(&self) -> usize {
        self.started.iter().filter(|s| **s).count()
    }

    /// Appends a migration decided at runtime (the auto-balance
    /// policy). It starts at the coordinator's next tick, subject to
    /// the same disjointness and concurrency gates as scripted entries.
    pub fn enqueue(&mut self, spec: MigrationSpec) {
        self.plan.push(spec);
        self.started.push(false);
    }

    fn send_flight(&mut self, ctx: &mut Ctx<Msg>, i: usize) {
        let f = &mut self.flights[i];
        let replicas = &self.targets[f.outstanding.group as usize];
        let target = replicas[f.outstanding.rotation % replicas.len()];
        f.outstanding.sent = ctx.now();
        let cmd = f.outstanding.cmd.clone();
        ctx.send(target, Msg::Client(ClientMsg::Request { cmd }));
    }

    /// Starts every due plan entry whose range is disjoint from all
    /// in-flight ranges, up to the concurrency cap. Entries overlapping
    /// an in-flight range wait for it to finish — same-range moves
    /// (merge then split back) serialize exactly as before.
    fn start_due(&mut self, ctx: &mut Ctx<Msg>, now: SimTime) {
        for idx in 0..self.plan.len() {
            if self.flights.len() >= self.max_concurrent {
                break;
            }
            if self.started[idx] {
                continue;
            }
            let spec = self.plan[idx].clone();
            if now.as_nanos() < spec.at.as_nanos() {
                continue;
            }
            let overlaps = self
                .flights
                .iter()
                .any(|f| f.lo < spec.hi && spec.lo < f.hi);
            if overlaps {
                continue;
            }
            assert!(
                (spec.to_group as usize) < self.targets.len(),
                "unknown destination group"
            );
            let from_group = self.planned.group_of(spec.lo);
            debug_assert_eq!(
                from_group,
                self.planned.group_of(spec.hi - 1),
                "a migration's range must have a single planned owner"
            );
            assert_ne!(from_group, spec.to_group, "range already at destination");
            self.started[idx] = true;
            let version = self.next_version;
            self.next_version += 1;
            // Record the move in the planned map immediately: versions
            // are assigned in start order, so this apply never hits the
            // stale-version guard.
            self.planned
                .apply_move(spec.lo, spec.hi, spec.to_group, version);
            let cmd = Command {
                id: freeze_cmd_id(self.client_id, version),
                op: Op::FreezeRange {
                    lo: spec.lo,
                    hi: spec.hi,
                    to_group: spec.to_group,
                    version,
                    coord: self.client_id,
                },
            };
            self.flights.push(Flight {
                version,
                lo: spec.lo,
                hi: spec.hi,
                to_group: spec.to_group,
                phase: Phase::Freeze,
                outstanding: Outstanding {
                    cmd,
                    group: from_group,
                    rotation: 0,
                    sent: now,
                },
            });
            self.peak_inflight = self.peak_inflight.max(self.flights.len());
            self.send_flight(ctx, self.flights.len() - 1);
        }
    }

    /// Applies and broadcasts every pending move whose version is next
    /// in line. Publishing in version order is what keeps every
    /// client's `apply_move` applicable — a skipped version would be
    /// dropped by the stale-version guard and lost forever.
    fn publish_ready(&mut self, ctx: &mut Ctx<Msg>) {
        while let Some((&version, &(lo, hi, to_group))) = self.pending_moves.first_key_value() {
            if version != self.router.version() + 1 {
                break;
            }
            self.pending_moves.remove(&version);
            self.router.apply_move(lo, hi, to_group, version);
            self.published.push(version);
            for &c in &self.clients.clone() {
                ctx.send(
                    c,
                    Msg::Client(ClientMsg::RouterUpdate {
                        router: self.router.clone(),
                    }),
                );
            }
        }
    }

    fn on_response(&mut self, ctx: &mut Ctx<Msg>, id: CmdId, reply: Reply) {
        if id.client != self.client_id {
            return;
        }
        debug_assert!(
            !matches!(reply, Reply::WrongGroup { .. }),
            "migration commands are keyless and never misrouted"
        );
        let version = version_of_cmd(id);
        let Some(i) = self.flights.iter().position(|f| f.version == version) else {
            return; // late duplicate of a finished migration
        };
        let flight = self.flights[i].clone();
        match flight.phase {
            Phase::Freeze if id == freeze_cmd_id(self.client_id, version) => {
                // The cutover is committed; the source leader's export
                // pump takes it from here. Keep the freeze command as
                // the retried probe: re-freezing is a version-dedup
                // no-op that forces a fresh export, which makes the
                // destination re-announce a lost install response.
                self.flights[i].phase = Phase::Install;
                self.flights[i].outstanding.sent = ctx.now();
            }
            Phase::Install if id == install_cmd_id(self.client_id, version) => {
                // The destination group committed the range: queue the
                // map publish (in version order), then release the
                // source's copy.
                self.installed.push(version);
                self.pending_moves
                    .insert(version, (flight.lo, flight.hi, flight.to_group));
                self.publish_ready(ctx);
                let src = flight.outstanding.group;
                self.flights[i].phase = Phase::Release;
                self.flights[i].outstanding = Outstanding {
                    cmd: Command {
                        id: release_cmd_id(self.client_id, version),
                        op: Op::ReleaseRange { version },
                    },
                    group: src,
                    rotation: 0,
                    sent: ctx.now(),
                };
                self.send_flight(ctx, i);
            }
            Phase::Release if id == release_cmd_id(self.client_id, version) => {
                self.completed.push(version);
                self.flights.remove(i);
            }
            _ => {}
        }
    }
}

impl Actor<Msg> for RebalanceCoordinator {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        ctx.set_timer(SimDuration::from_millis(50), 1);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, _from: ActorId, msg: Msg) {
        if let Msg::Client(ClientMsg::Response { id, reply }) = msg {
            self.on_response(ctx, id, reply);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, _token: u64) {
        let now = ctx.now();
        self.start_due(ctx, now);
        // Client-style retransmission per flight: rotate to another
        // replica of the addressed group (the previous one may have
        // crashed; forwarding finds the leader from any of them). The
        // install wait retries the freeze probe on a longer fuse — the
        // transfer legitimately takes a while.
        for i in 0..self.flights.len() {
            let fuse = match self.flights[i].phase {
                Phase::Install => SimDuration::from_millis(2_500),
                _ => SimDuration::from_millis(1_000),
            };
            let sent = self.flights[i].outstanding.sent;
            if now.since(sent.min(now)) >= fuse {
                self.flights[i].outstanding.rotation += 1;
                self.send_flight(ctx, i);
            }
        }
        ctx.set_timer(SimDuration::from_millis(50), 1);
    }

    impl_actor_any!();
}

#[cfg(test)]
mod tests {
    use paxraft_sim::time::SimDuration;
    use paxraft_workload::generator::WorkloadConfig;
    use paxraft_workload::linearize::check_history;

    use crate::harness::{Cluster, ProtocolKind};
    use crate::kv::{Key, Op, Reply};
    use crate::msg::{ClientMsg, Msg};
    use crate::shard::{MigrationSpec, RebalanceConfig, ShardConfig};
    use crate::testutil::run_fingerprint;
    use crate::types::NodeId;

    /// The six protocols the migration safety suite must cover — the
    /// two lease modes exercise the freeze-vs-local-read window (a
    /// lease holder must not serve a range that is already migrating).
    const PROTOCOLS: [ProtocolKind; 6] = [
        ProtocolKind::Raft,
        ProtocolKind::RaftStar,
        ProtocolKind::MultiPaxos,
        ProtocolKind::RaftStarMencius,
        ProtocolKind::RaftStarPql,
        ProtocolKind::LeaderLease,
    ];

    /// Two groups, one scripted migration of the upper half of group
    /// 0's range to group 1 at `at`. The tiny chunk size forces the
    /// export through a genuinely multi-chunk transfer.
    fn build(p: ProtocolKind, seed: u64, at: SimDuration) -> (Cluster, Key, Key) {
        let router = crate::shard::ShardRouter::new(WorkloadConfig::default().records, 2);
        let (lo0, hi0) = router.range(0);
        let mid = (lo0 + hi0) / 2;
        let cluster = Cluster::builder(p)
            .shard_config(ShardConfig::groups(2))
            .snapshot_config(crate::snapshot::SnapshotConfig {
                chunk_bytes: 128,
                ..crate::snapshot::SnapshotConfig::default()
            })
            .rebalance_config(RebalanceConfig::default().migrate(MigrationSpec {
                at,
                lo: mid,
                hi: hi0,
                to_group: 1,
            }))
            .seed(seed)
            .build();
        (cluster, mid, hi0)
    }

    /// Writes one marker key on each side of the future split boundary
    /// and returns them.
    fn seed_keys(cluster: &mut Cluster, mid: Key) -> (Key, Key) {
        let staying = mid - 1;
        let moving = mid + 1;
        for key in [staying, moving] {
            let r = cluster
                .submit_and_wait(Op::Put {
                    key,
                    value: vec![7; 16],
                })
                .expect("pre-migration put");
            assert_eq!(r, Reply::Done);
        }
        (staying, moving)
    }

    /// The post-migration invariant: the moved key is served (with its
    /// value) by the new owner, writes to it commit, and **no group's
    /// replicas hold a key the map says belongs elsewhere** — nothing
    /// lost, nothing duplicated, nothing applied in two groups.
    fn assert_migrated(
        cluster: &mut Cluster,
        p: ProtocolKind,
        staying: Key,
        moving: Key,
        _mid: Key,
        _hi: Key,
    ) {
        let name = p.name();
        let router = cluster.current_router();
        assert_eq!(router.version(), 1, "{name}: map version bumped");
        assert_eq!(router.group_of(moving), 1, "{name}: moved key rerouted");
        assert_eq!(router.group_of(staying), 0, "{name}: boundary untouched");
        // Values survived the move and both sides still serve.
        for key in [staying, moving] {
            let r = cluster
                .submit_and_wait(Op::Get { key })
                .unwrap_or_else(|e| panic!("{name}: post-migration get({key}): {e}"));
            assert!(
                matches!(r, Reply::Value(Some(_))),
                "{name}: key {key} kept its value across the migration ({r:?})"
            );
        }
        let r = cluster
            .submit_and_wait(Op::Put {
                key: moving,
                value: vec![9; 16],
            })
            .expect("post-migration put to the moved range");
        assert_eq!(r, Reply::Done, "{name}: moved range accepts writes");
        // Let the final apply spread to every replica.
        cluster.sim.run_for(SimDuration::from_secs(2));
        // Exclusivity: live group-0 replicas dropped the moved range,
        // live group-1 replicas hold it.
        for node in 0..5u32 {
            for g in 0..2usize {
                let actor = cluster.replica(g, NodeId(node));
                if cluster.sim.is_crashed(actor) {
                    continue;
                }
                let kv = cluster.replica_view(actor).kv();
                let snap = kv.snapshot();
                for (k, _) in snap.table.iter() {
                    let owner = router.group_of(*k);
                    assert_eq!(
                        owner, g as u32,
                        "{name}: key {k} present in group {g} but owned by {owner} \
                         (applied in two groups or not released)"
                    );
                }
                if g == 1 {
                    assert!(
                        snap.table.contains_key(&moving),
                        "{name}: group 1 node {node} holds the moved key"
                    );
                }
            }
        }
    }

    #[test]
    fn scripted_range_move_is_exactly_once_for_every_protocol() {
        for p in PROTOCOLS {
            let (mut cluster, mid, hi) = build(p, 13, SimDuration::from_secs(4));
            cluster.elect_leader();
            let (staying, moving) = seed_keys(&mut cluster, mid);
            cluster.run_until_rebalanced(SimDuration::from_secs(60));
            assert_eq!(cluster.migrations_completed(), vec![1]);
            assert_migrated(&mut cluster, p, staying, moving, mid, hi);
            // The transfer actually went over the chunked path.
            let stats = cluster.per_group_stats();
            assert!(
                stats[0].range_exports >= 1,
                "{}: source exported ({:?})",
                p.name(),
                stats[0].range_exports
            );
            assert!(
                stats[1].range_installs >= 1,
                "{}: destination installed on every live replica",
                p.name()
            );
        }
    }

    /// The model checker's retry-across-the-move schedule
    /// (`specs::shardkv` in `paxraft-spec`: apply at the source, freeze,
    /// export, install, then the client retries the same session
    /// sequence number against the new owner), replayed against the
    /// engine. The retransmitted command carries its original `CmdId`,
    /// so the migrated session table must answer it from cache — the
    /// destination replicas' applied-op counts must not move.
    #[test]
    fn model_checked_retry_across_the_move_is_deduplicated() {
        for p in PROTOCOLS {
            let name = p.name();
            let (mut cluster, mid, hi) = build(p, 29, SimDuration::from_secs(4));
            cluster.elect_leader();
            let (staying, moving) = seed_keys(&mut cluster, mid);
            // The moving-key put is the probe's last pre-migration
            // command; keep it for retransmission after the move.
            let dup = cluster
                .last_probe_command()
                .expect("seed_keys submitted probes");
            cluster.run_until_rebalanced(SimDuration::from_secs(60));
            assert_eq!(cluster.migrations_completed(), vec![1], "{name}");
            // Let every group-1 replica finish installing the range.
            cluster.sim.run_for(SimDuration::from_secs(2));
            let applied_on_dest = |cluster: &Cluster| -> Vec<(u32, u64)> {
                (0..5u32)
                    .filter_map(|node| {
                        let actor = cluster.replica(1, NodeId(node));
                        if cluster.sim.is_crashed(actor) {
                            None
                        } else {
                            Some((node, cluster.replica_view(actor).kv().applied_ops()))
                        }
                    })
                    .collect()
            };
            let before = applied_on_dest(&cluster);
            // Re-inject the identical command at the new owner's
            // leader: a client retransmission that crossed the move.
            let target = cluster.replica(1, cluster.leaders()[1]);
            cluster.sim.send_external(
                target,
                Msg::Client(ClientMsg::Request { cmd: dup }),
                SimDuration::ZERO,
            );
            cluster.sim.run_for(SimDuration::from_secs(2));
            let after = applied_on_dest(&cluster);
            assert_eq!(
                before, after,
                "{name}: retransmitted command was re-applied after the move \
                 (session table did not migrate with the range)"
            );
            assert_migrated(&mut cluster, p, staying, moving, mid, hi);
        }
    }

    #[test]
    fn source_leader_crash_mid_export_does_not_lose_the_range() {
        for p in PROTOCOLS {
            let (mut cluster, mid, hi) = build(p, 17, SimDuration::from_secs(4));
            cluster.elect_leader();
            let (staying, moving) = seed_keys(&mut cluster, mid);
            // Crash the source group's leader right around the freeze
            // commit / first export; a successor must pick the transfer
            // up from the replicated frozen state.
            let victim = cluster.replica(0, cluster.leaders()[0]);
            cluster
                .sim
                .crash_at(victim, paxraft_sim::time::SimTime::from_millis(4_150));
            cluster.run_until_rebalanced(SimDuration::from_secs(120));
            assert_migrated(&mut cluster, p, staying, moving, mid, hi);
        }
    }

    #[test]
    fn dest_leader_crash_before_install_recovers() {
        for p in PROTOCOLS {
            let (mut cluster, mid, hi) = build(p, 19, SimDuration::from_secs(4));
            cluster.elect_leader();
            let (staying, moving) = seed_keys(&mut cluster, mid);
            // Crash the destination group's leader before the install
            // can commit; the export retries into the re-elected group.
            let victim = cluster.replica(1, cluster.leaders()[1]);
            cluster
                .sim
                .crash_at(victim, paxraft_sim::time::SimTime::from_millis(4_000));
            cluster.run_until_rebalanced(SimDuration::from_secs(120));
            assert_migrated(&mut cluster, p, staying, moving, mid, hi);
        }
    }

    #[test]
    fn chunk_loss_during_transfer_is_retried_to_completion() {
        for p in PROTOCOLS {
            let (mut cluster, mid, hi) = build(p, 23, SimDuration::from_secs(4));
            cluster.elect_leader();
            let (staying, moving) = seed_keys(&mut cluster, mid);
            // 15% uniform loss across the whole migration window: the
            // reassembler drops gapped transfers and the export pump's
            // retry interval re-ships until the install is confirmed.
            cluster
                .sim
                .set_drop_rate_at(0.15, paxraft_sim::time::SimTime::from_millis(3_900));
            cluster.sim.run_for(SimDuration::from_secs(8));
            cluster
                .sim
                .set_drop_rate_at(0.0, cluster.sim.now() + SimDuration::from_millis(1));
            cluster.run_until_rebalanced(SimDuration::from_secs(180));
            assert_migrated(&mut cluster, p, staying, moving, mid, hi);
        }
    }

    /// A client fleet hammering the hot key while it migrates between
    /// groups: every operation completes, the per-key history stays
    /// linearizable across the hand-off, and the key ends up applied in
    /// exactly one group.
    #[test]
    fn clients_racing_a_version_bump_stay_linearizable() {
        for p in [ProtocolKind::Raft, ProtocolKind::MultiPaxos] {
            let workload = WorkloadConfig {
                read_fraction: 0.6,
                conflict_rate: 0.5,
                ..Default::default()
            };
            let mut cluster = Cluster::builder(p)
                .shard_config(ShardConfig::groups(2))
                .rebalance_config(RebalanceConfig::default().migrate(MigrationSpec {
                    // The hot-range move: key 0 changes groups mid-run.
                    at: SimDuration::from_secs(5),
                    lo: 0,
                    hi: 1,
                    to_group: 1,
                }))
                .clients_per_region(2)
                .workload(workload)
                .record_history_for(0)
                .seed(29)
                .build();
            cluster.elect_leader();
            let report = cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(6),
                SimDuration::from_secs(1),
            );
            cluster.run_until_rebalanced(SimDuration::from_secs(60));
            assert!(
                report.throughput_ops > 1.0,
                "{}: clients kept completing through the migration",
                p.name()
            );
            assert!(
                report.histories.len() > 20,
                "{}: enough contended hot-key ops recorded ({})",
                p.name(),
                report.histories.len()
            );
            check_history(&report.histories, 1 << 22).unwrap_or_else(|e| {
                panic!(
                    "{}: hot-key history linearizable across the migration: {e:?}",
                    p.name()
                )
            });
            // The hot key lives in exactly one group afterwards.
            cluster.sim.run_for(SimDuration::from_secs(2));
            for node in 0..5u32 {
                let g0 = cluster.replica_view(cluster.replica(0, NodeId(node))).kv();
                let g1 = cluster.replica_view(cluster.replica(1, NodeId(node))).kv();
                assert!(
                    !g0.snapshot().table.contains_key(&0),
                    "{}: group 0 node {node} released the hot key",
                    p.name()
                );
                assert!(
                    g1.snapshot().table.contains_key(&0),
                    "{}: group 1 node {node} serves the hot key",
                    p.name()
                );
            }
            // Some client observed a redirect or router update — the
            // race actually happened.
            let mut redirects = 0;
            let mut updates = 0;
            for &c in cluster.clients() {
                let wc = cluster.sim.actor::<crate::client::WorkloadClient>(c);
                redirects += wc.redirects + wc.stale_redirects;
                updates += wc.router_updates;
            }
            assert!(
                updates > 0,
                "{}: coordinator published the bumped map to clients",
                p.name()
            );
            let _ = redirects;
        }
    }

    /// The lease-read-vs-migration window: a lease holder must not
    /// serve a key from its local copy while an in-log `FreezeRange`
    /// covering it is unapplied — from the freeze on, writes to the
    /// range commit in the destination group without consulting this
    /// replica's lease, so the local copy goes stale the moment the
    /// freeze is proposed. Hammers the hot key through the hand-off
    /// under both ported lease modes and checks the full per-key
    /// history for linearizability.
    #[test]
    fn lease_local_reads_stay_linearizable_across_a_migration() {
        for p in [ProtocolKind::RaftStarPql, ProtocolKind::LeaderLease] {
            let workload = WorkloadConfig {
                read_fraction: 0.6,
                conflict_rate: 0.5,
                ..Default::default()
            };
            let mut cluster = Cluster::builder(p)
                .shard_config(ShardConfig::groups(2))
                .rebalance_config(RebalanceConfig::default().migrate(MigrationSpec {
                    at: SimDuration::from_secs(5),
                    lo: 0,
                    hi: 1,
                    to_group: 1,
                }))
                .clients_per_region(2)
                .workload(workload)
                .record_history_for(0)
                .seed(29)
                .build();
            cluster.elect_leader();
            let report = cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(6),
                SimDuration::from_secs(1),
            );
            cluster.run_until_rebalanced(SimDuration::from_secs(60));
            assert!(
                report.histories.len() > 20,
                "{}: enough contended hot-key ops recorded ({})",
                p.name(),
                report.histories.len()
            );
            check_history(&report.histories, 1 << 22).unwrap_or_else(|e| {
                panic!(
                    "{}: lease-local reads linearizable across the migration: {e:?}",
                    p.name()
                )
            });
            // The lease read path was actually exercised: some replica
            // served reads locally during the run.
            let local_reads: u64 = (0..2)
                .flat_map(|g| cluster.group_replicas(g).to_vec())
                .map(|r| {
                    cluster
                        .sim
                        .actor::<crate::raftstar::RaftStarReplica>(r)
                        .local_reads_served()
                })
                .sum();
            assert!(
                local_reads > 0,
                "{}: lease-local reads were served during the run",
                p.name()
            );
        }
    }

    /// Satellite conformance row: **two disjoint-range migrations race
    /// a source-leader crash** on all four base rule sets. Pins
    /// exactly-once apply (values survive, nothing served by two
    /// groups) and router-version monotonicity (publishes strictly
    /// increasing even when installs complete out of order), plus that
    /// the two flights genuinely overlapped in time.
    #[test]
    fn concurrent_disjoint_migrations_survive_source_leader_crash() {
        for p in [
            ProtocolKind::Raft,
            ProtocolKind::RaftStar,
            ProtocolKind::MultiPaxos,
            ProtocolKind::RaftStarMencius,
        ] {
            let name = p.name();
            let router = crate::shard::ShardRouter::new(WorkloadConfig::default().records, 2);
            let (lo0, hi0) = router.range(0);
            let quarter = lo0 + (hi0 - lo0) / 4;
            let mid = (lo0 + hi0) / 2;
            let at = SimDuration::from_secs(4);
            let mut cluster = Cluster::builder(p)
                .shard_config(ShardConfig::groups(2))
                .snapshot_config(crate::snapshot::SnapshotConfig {
                    chunk_bytes: 128,
                    ..crate::snapshot::SnapshotConfig::default()
                })
                .rebalance_config(
                    RebalanceConfig::default()
                        .migrate(MigrationSpec {
                            at,
                            lo: quarter,
                            hi: mid,
                            to_group: 1,
                        })
                        .migrate(MigrationSpec {
                            at,
                            lo: mid,
                            hi: hi0,
                            to_group: 1,
                        }),
                )
                .seed(37)
                .build();
            cluster.elect_leader();
            // One marker key in each moving range and one that stays.
            let keys = [quarter - 1, quarter + 1, mid + 1];
            for key in keys {
                let r = cluster
                    .submit_and_wait(Op::Put {
                        key,
                        value: vec![7; 16],
                    })
                    .expect("pre-migration put");
                assert_eq!(r, Reply::Done, "{name}");
            }
            // Crash the shared source group's leader while both
            // transfers are in flight.
            let victim = cluster.replica(0, cluster.leaders()[0]);
            cluster
                .sim
                .crash_at(victim, paxraft_sim::time::SimTime::from_millis(4_150));
            cluster.run_until_rebalanced(SimDuration::from_secs(120));
            let coord = cluster.coordinator().expect("coordinator exists");
            let c = cluster
                .sim
                .actor::<crate::shard::RebalanceCoordinator>(coord);
            let mut completed = c.completed.clone();
            completed.sort_unstable();
            assert_eq!(completed, vec![1, 2], "{name}: both migrations completed");
            assert!(
                c.published.windows(2).all(|w| w[0] < w[1]),
                "{name}: publishes are version-monotone ({:?})",
                c.published
            );
            assert_eq!(c.published, vec![1, 2], "{name}: every version published");
            assert_eq!(
                c.peak_inflight, 2,
                "{name}: the disjoint migrations actually overlapped"
            );
            let router = cluster.current_router();
            assert_eq!(router.version(), 2, "{name}: map at final version");
            assert_eq!(router.group_of(quarter - 1), 0, "{name}");
            assert_eq!(router.group_of(quarter + 1), 1, "{name}");
            assert_eq!(router.group_of(mid + 1), 1, "{name}");
            // Values survived both moves; exclusivity holds everywhere.
            for key in keys {
                let r = cluster
                    .submit_and_wait(Op::Get { key })
                    .unwrap_or_else(|e| panic!("{name}: get({key}): {e}"));
                assert!(
                    matches!(r, Reply::Value(Some(_))),
                    "{name}: key {key} kept its value ({r:?})"
                );
            }
            cluster.sim.run_for(SimDuration::from_secs(2));
            for node in 0..5u32 {
                for g in 0..2usize {
                    let actor = cluster.replica(g, NodeId(node));
                    if cluster.sim.is_crashed(actor) {
                        continue;
                    }
                    let kv = cluster.replica_view(actor).kv();
                    for (k, _) in kv.snapshot().table.iter() {
                        let owner = router.group_of(*k);
                        assert_eq!(
                            owner, g as u32,
                            "{name}: key {k} in group {g} but owned by {owner}"
                        );
                    }
                }
            }
        }
    }

    /// Two concurrent migrations **into the same destination group**
    /// from different sources: the installs carry non-monotone
    /// coordinator sequence numbers, so this pins the version-keyed
    /// dedup (a session max-seq gate would swallow whichever install
    /// commits second).
    #[test]
    fn concurrent_migrations_into_one_destination_commit_exactly_once() {
        let p = ProtocolKind::Raft;
        let mut cluster = Cluster::builder(p)
            .shard_config(ShardConfig::groups(3))
            .rebalance_config(
                RebalanceConfig::default()
                    .migrate(MigrationSpec {
                        at: SimDuration::from_secs(4),
                        lo: 20_000,
                        hi: 30_000,
                        to_group: 2,
                    })
                    .migrate(MigrationSpec {
                        at: SimDuration::from_secs(4),
                        lo: 40_000,
                        hi: 50_000,
                        to_group: 2,
                    }),
            )
            .seed(41)
            .build();
        cluster.elect_leader();
        for key in [25_000u64, 45_000] {
            let r = cluster
                .submit_and_wait(Op::Put {
                    key,
                    value: vec![3; 16],
                })
                .expect("pre-migration put");
            assert_eq!(r, Reply::Done);
        }
        cluster.run_until_rebalanced(SimDuration::from_secs(120));
        let coord = cluster.coordinator().expect("coordinator exists");
        let c = cluster
            .sim
            .actor::<crate::shard::RebalanceCoordinator>(coord);
        let mut completed = c.completed.clone();
        completed.sort_unstable();
        assert_eq!(completed, vec![1, 2]);
        assert_eq!(c.published, vec![1, 2], "publishes in version order");
        assert_eq!(c.peak_inflight, 2, "flights overlapped");
        let router = cluster.current_router();
        assert_eq!(router.group_of(25_000), 2);
        assert_eq!(router.group_of(45_000), 2);
        for key in [25_000u64, 45_000] {
            let r = cluster
                .submit_and_wait(Op::Get { key })
                .expect("post-migration get");
            assert!(matches!(r, Reply::Value(Some(_))), "key {key}: {r:?}");
        }
        cluster.sim.run_for(SimDuration::from_secs(2));
        for node in 0..5u32 {
            for g in 0..3usize {
                let actor = cluster.replica(g, NodeId(node));
                if cluster.sim.is_crashed(actor) {
                    continue;
                }
                let kv = cluster.replica_view(actor).kv();
                for (k, _) in kv.snapshot().table.iter() {
                    let owner = router.group_of(*k);
                    assert_eq!(owner, g as u32, "key {k} in group {g}, owner {owner}");
                }
            }
        }
    }

    /// A sharded run with an *empty* rebalance plan creates no
    /// coordinator actor and is bit-for-bit the plain sharded cluster —
    /// the "no migration, no behavior change" guarantee.
    #[test]
    fn empty_rebalance_plan_is_bit_for_bit_the_plain_sharded_cluster() {
        let fingerprint = |with_empty_config: bool| {
            let mut b = Cluster::builder(ProtocolKind::Raft)
                .shard_config(ShardConfig::groups(2))
                .clients_per_region(2)
                .seed(31);
            if with_empty_config {
                b = b.rebalance_config(RebalanceConfig::default());
            }
            let mut cluster = b.build();
            assert_eq!(cluster.coordinator(), None, "no coordinator actor");
            cluster.elect_leader();
            let r = cluster.run_measurement(
                SimDuration::from_secs(2),
                SimDuration::from_secs(4),
                SimDuration::from_secs(1),
            );
            run_fingerprint(&r, cluster.sim.now())
        };
        assert_eq!(fingerprint(false), fingerprint(true));
    }
}
