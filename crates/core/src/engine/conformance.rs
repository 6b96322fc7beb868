//! Cross-protocol conformance suite: one parameterized harness run over
//! all four [`ProtocolRules`] implementations.
//!
//! These scenarios used to exist as four near-identical test clusters,
//! one per protocol file; the engine refactor makes them a single
//! generic suite. Each scenario runs against Raft, Raft*, MultiPaxos and
//! Mencius and asserts engine-level guarantees: elect-and-commit, leader
//! crash failover, partition heal via snapshot transfer,
//! duplicate-request dedup, batch-timer discipline, pipelined
//! replication under loss and leader crash, forwarding discipline, and
//! seed-for-seed determinism of the full measurement harness.

use paxraft_sim::sim::{Actor, ActorId, Simulation};
use paxraft_sim::time::{SimDuration, SimTime};

use crate::config::{DurabilityConfig, ReplicaConfig};
use crate::engine::{PipelineConfig, ProtocolRules, ReplicaEngine};
use crate::harness::{Cluster, ProtocolKind};
use crate::mencius::MenciusReplica;
use crate::msg::{ClientMsg, EngineMsg, Msg};
use crate::multipaxos::MultiPaxosReplica;
use crate::raft::RaftReplica;
use crate::raftstar::RaftStarReplica;
use crate::snapshot::SnapshotConfig;
use crate::telemetry::TelemetryConfig;
use crate::testutil::{cluster_with, drive_until, run_fingerprint, with_trace_dump, TestClient};
use crate::types::NodeId;

/// Builds an `n`-replica cluster of one protocol plus a scripted client
/// targeting replica 0. Mencius ignores `initial_leader`; the shortened
/// revocation timeout keeps its failover scenarios inside the deadlines.
fn conformance_cluster<P: ProtocolRules>(
    n: usize,
    snapshot: Option<SnapshotConfig>,
    make: impl Fn(ReplicaConfig) -> ReplicaEngine<P>,
) -> (Simulation<Msg>, Vec<ActorId>, ActorId) {
    cluster_with(n, |mut cfg| {
        cfg.initial_leader = Some(NodeId(0));
        cfg.mencius.revoke_timeout = SimDuration::from_secs(2);
        if let Some(s) = &snapshot {
            cfg.snapshot = s.clone();
        }
        Box::new(make(cfg))
    })
}

/// Runs `scenario` once per protocol, labeled for failure messages.
macro_rules! for_all_protocols {
    ($scenario:ident) => {
        $scenario("Raft", RaftReplica::new);
        $scenario("Raft*", RaftStarReplica::new);
        $scenario("MultiPaxos", MultiPaxosReplica::new);
        $scenario("Mencius", MenciusReplica::new);
    };
}

#[test]
fn every_protocol_elects_commits_and_reads_back() {
    fn scenario<P: ProtocolRules>(name: &str, make: fn(ReplicaConfig) -> ReplicaEngine<P>) {
        let (mut sim, replicas, client) = conformance_cluster(3, None, make);
        sim.actor_mut::<TestClient>(client).enqueue_put(42);
        sim.actor_mut::<TestClient>(client).enqueue_get(42);
        assert!(
            drive_until(&mut sim, SimTime::from_secs(5), |sim| {
                sim.actor::<TestClient>(client).replies.len() == 2
            }),
            "{name}: both ops answered"
        );
        let c = sim.actor::<TestClient>(client);
        assert!(
            c.replies[1].1.value_id().is_some(),
            "{name}: read observes the write"
        );
        assert!(
            replicas
                .iter()
                .any(|&r| sim.actor::<ReplicaEngine<P>>(r).is_leader()),
            "{name}: some replica leads"
        );
    }
    for_all_protocols!(scenario);
}

#[test]
fn every_protocol_survives_crash_of_the_serving_replica() {
    fn scenario<P: ProtocolRules>(name: &str, make: fn(ReplicaConfig) -> ReplicaEngine<P>) {
        let (mut sim, replicas, client) = conformance_cluster(3, None, make);
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        assert!(
            drive_until(&mut sim, SimTime::from_secs(5), |sim| {
                sim.actor::<TestClient>(client).replies.len() == 1
            }),
            "{name}: first write committed"
        );
        // Crash the replica serving the client (the leader where there is
        // one); the client fails over to a survivor, which must finish
        // the remaining work — by re-election or, for Mencius, by
        // revoking the dead owner's slots.
        sim.crash_at(replicas[0], sim.now() + SimDuration::from_millis(1));
        sim.actor_mut::<TestClient>(client).target = replicas[1];
        sim.actor_mut::<TestClient>(client).enqueue_put(2);
        sim.actor_mut::<TestClient>(client).enqueue_get(2);
        assert!(
            drive_until(&mut sim, SimTime::from_secs(60), |sim| {
                sim.actor::<TestClient>(client).replies.len() == 3
            }),
            "{name}: survivor served the remaining ops"
        );
        let c = sim.actor::<TestClient>(client);
        assert!(
            c.replies[2].1.value_id().is_some(),
            "{name}: committed write survived the crash"
        );
    }
    for_all_protocols!(scenario);
}

#[test]
fn every_protocol_heals_a_partitioned_replica_via_snapshot() {
    fn scenario<P: ProtocolRules>(name: &str, make: fn(ReplicaConfig) -> ReplicaEngine<P>) {
        let (mut sim, replicas, client) =
            conformance_cluster(3, Some(SnapshotConfig::every(16)), make);
        // Cut replica 2 off, then commit far more than the compaction
        // threshold so the survivors discard the prefix it still needs.
        sim.partition_at(vec![0, 0, 1, 0], SimTime::from_millis(1));
        for k in 0..45 {
            sim.actor_mut::<TestClient>(client).enqueue_put(k);
        }
        assert!(
            drive_until(&mut sim, SimTime::from_secs(280), |sim| {
                sim.actor::<TestClient>(client).replies.len() == 45
            }),
            "{name}: majority side kept committing under the partition"
        );
        let survivor_applied = sim.actor::<ReplicaEngine<P>>(replicas[0]).applied_index();
        assert!(
            sim.actor::<ReplicaEngine<P>>(replicas[0])
                .snap_stats()
                .compactions
                >= 1,
            "{name}: survivors compacted past the lagger"
        );
        sim.heal_at(sim.now() + SimDuration::from_millis(1));
        sim.run_for(SimDuration::from_secs(20));
        let lagger = sim.actor::<ReplicaEngine<P>>(replicas[2]);
        assert!(
            lagger.snap_stats().snapshots_installed >= 1,
            "{name}: rejoined replica installed a snapshot ({:?})",
            lagger.snap_stats()
        );
        assert!(
            lagger.applied_index().0 + 64 >= survivor_applied.0,
            "{name}: rejoined replica converged ({} vs {})",
            lagger.applied_index(),
            survivor_applied
        );
    }
    for_all_protocols!(scenario);
}

#[test]
fn requests_sent_to_a_follower_are_forwarded_and_answered() {
    fn scenario<P: ProtocolRules>(name: &str, make: fn(ReplicaConfig) -> ReplicaEngine<P>) {
        let (mut sim, replicas, _client) = conformance_cluster(3, None, make);
        // Let replica 0 take leadership, then drive a fresh client at a
        // *follower*: the engine's forward path (or Mencius's local
        // proposal) must still answer it.
        assert!(
            drive_until(&mut sim, SimTime::from_secs(5), |sim| {
                sim.actor::<ReplicaEngine<P>>(replicas[0]).is_leader()
            }),
            "{name}: replica 0 leads"
        );
        let mut follower_client = TestClient::new(1, replicas[1]);
        follower_client.enqueue_put(9);
        follower_client.enqueue_get(9);
        let fc = sim.add_actor(paxraft_sim::net::Region::Ohio, Box::new(follower_client));
        assert!(
            drive_until(&mut sim, SimTime::from_secs(10), |sim| {
                sim.actor::<TestClient>(fc).replies.len() == 2
            }),
            "{name}: follower-targeted ops were forwarded and answered"
        );
        assert!(
            sim.actor::<TestClient>(fc).replies[1]
                .1
                .value_id()
                .is_some(),
            "{name}: read through the follower observes the write"
        );
    }
    for_all_protocols!(scenario);
}

#[test]
fn every_protocol_dedups_duplicate_requests() {
    fn scenario<P: ProtocolRules>(name: &str, make: fn(ReplicaConfig) -> ReplicaEngine<P>) {
        let (mut sim, replicas, client) = conformance_cluster(3, None, make);
        sim.actor_mut::<TestClient>(client).enqueue_put(5);
        assert!(
            drive_until(&mut sim, SimTime::from_secs(5), |sim| {
                sim.actor::<TestClient>(client).replies.len() == 1
            }),
            "{name}: write committed"
        );
        sim.run_for(SimDuration::from_secs(1)); // let the apply settle
        let before = sim
            .actor::<ReplicaEngine<P>>(replicas[0])
            .kv()
            .applied_ops();
        // Resend the same command; the session table must return the
        // cached reply rather than double-apply.
        let cmd = sim.actor::<TestClient>(client).sent[0].clone();
        let target = sim.actor::<TestClient>(client).target;
        sim.send_external(
            target,
            Msg::Client(ClientMsg::Request { cmd }),
            SimDuration::ZERO,
        );
        sim.run_for(SimDuration::from_secs(2));
        let after = sim
            .actor::<ReplicaEngine<P>>(replicas[0])
            .kv()
            .applied_ops();
        assert_eq!(
            before, after,
            "{name}: duplicate request did not re-apply (was {before}, now {after})"
        );
    }
    for_all_protocols!(scenario);
}

#[test]
fn burst_of_requests_arms_one_batch_timer_and_one_flush() {
    // Pins the legacy (pipeline-disabled) batching discipline: with no
    // eager cutting, a burst under `batch_max` arms exactly one timer
    // and produces exactly one flush.
    fn scenario<P: ProtocolRules>(name: &str, make: fn(ReplicaConfig) -> ReplicaEngine<P>) {
        let (mut sim, replicas, _client) = conformance_cluster(3, None, move |mut cfg| {
            cfg.pipeline = PipelineConfig::disabled();
            make(cfg)
        });
        // Let the cluster elect and go quiet.
        assert!(
            drive_until(&mut sim, SimTime::from_secs(5), |sim| {
                sim.actor::<ReplicaEngine<P>>(replicas[0]).is_leader()
            }),
            "{name}: replica 0 leads"
        );
        sim.run_for(SimDuration::from_secs(1));
        let (armed0, flushed0) = sim.actor::<ReplicaEngine<P>>(replicas[0]).batching_stats();
        // A burst of N requests lands within one batch window (N well
        // under batch_max, so only the timer can flush it).
        let n_burst = 8u64;
        for seq in 1..=n_burst {
            let cmd = crate::kv::Command::put(crate::kv::CmdId { client: 0, seq }, seq, vec![0; 8]);
            sim.send_external(
                replicas[0],
                Msg::Client(ClientMsg::Request { cmd }),
                SimDuration::ZERO,
            );
        }
        sim.run_for(SimDuration::from_secs(1));
        let (armed1, flushed1) = sim.actor::<ReplicaEngine<P>>(replicas[0]).batching_stats();
        assert_eq!(
            armed1 - armed0,
            1,
            "{name}: a burst of {n_burst} requests arms exactly one batch timer"
        );
        assert_eq!(
            flushed1 - flushed0,
            1,
            "{name}: and produces exactly one flush"
        );
    }
    for_all_protocols!(scenario);
}

/// Seed-for-seed determinism of the full measurement harness: two runs
/// with identical seeds must produce identical [`RunReport`]s (committed
/// ops, latency percentiles, compaction counters, peak log size) for
/// every protocol.
///
/// [`RunReport`]: crate::harness::RunReport
#[test]
fn fixed_seed_runs_are_deterministic_for_every_protocol() {
    fn fingerprint(p: ProtocolKind, seed: u64) -> String {
        let mut cluster = Cluster::builder(p)
            .clients_per_region(1)
            .seed(seed)
            .snapshot_config(SnapshotConfig::every(64))
            .build();
        cluster.elect_leader();
        let r = cluster.run_measurement(
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
        );
        run_fingerprint(&r, cluster.sim.now())
    }
    for p in [
        ProtocolKind::Raft,
        ProtocolKind::RaftStar,
        ProtocolKind::MultiPaxos,
        ProtocolKind::RaftStarMencius,
    ] {
        let a = fingerprint(p, 9);
        let b = fingerprint(p, 9);
        assert_eq!(a, b, "{}: same seed, same RunReport", p.name());
    }
}

/// Telemetry is observation-only: a run with the flight recorder AND
/// the virtual-time sampler enabled must produce a bit-for-bit
/// identical [`RunReport`] (same throughput, same latency percentiles,
/// same counters, same final clock) as the default telemetry-off run —
/// the recorder never draws from the RNG and the sampler only reads
/// state between simulation steps. This is what keeps the pinned
/// `PARITY_pr5.txt` fingerprints valid regardless of observability
/// settings.
///
/// [`RunReport`]: crate::harness::RunReport
#[test]
fn telemetry_enabled_runs_are_bit_for_bit_identical_to_disabled() {
    fn fingerprint(p: ProtocolKind, telemetry: TelemetryConfig) -> (String, usize, u64) {
        let mut cluster = Cluster::builder(p)
            .clients_per_region(1)
            .seed(9)
            .snapshot_config(SnapshotConfig::every(64))
            .telemetry_config(telemetry)
            .build();
        cluster.elect_leader();
        let r = cluster.run_measurement(
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
        );
        let fp = run_fingerprint(&r, cluster.sim.now());
        (fp, r.telemetry.len(), cluster.sim.trace().recorded())
    }
    for p in [
        ProtocolKind::Raft,
        ProtocolKind::RaftStar,
        ProtocolKind::MultiPaxos,
        ProtocolKind::RaftStarMencius,
    ] {
        let (off, series_off, traced_off) = fingerprint(p, TelemetryConfig::default());
        let (on, series_on, traced_on) = fingerprint(p, TelemetryConfig::sampled());
        assert_eq!(off, on, "{}: telemetry never perturbs the run", p.name());
        assert_eq!(series_off, 0, "{}: off-run collects nothing", p.name());
        assert!(
            series_on > 0,
            "{}: enabled run collected time-series",
            p.name()
        );
        assert_eq!(traced_off, 0, "{}: off-run records no events", p.name());
        assert!(
            traced_on > 0,
            "{}: enabled run recorded trace events",
            p.name()
        );
    }
}

/// Span tracing is observation-only, protocol by protocol: a run with
/// per-command span recording enabled must produce a bit-for-bit
/// identical [`RunReport`] (throughput, percentiles, counters, final
/// clock) as the default spans-off run for all four rule sets. The
/// instrumentation sits on the hot path of every send/enqueue/commit,
/// so this is the test that pins "one branch when disabled, no RNG
/// draws" — and what keeps `PARITY_pr5.txt` valid at the default
/// configuration.
///
/// [`RunReport`]: crate::harness::RunReport
#[test]
fn span_tracing_on_and_off_runs_are_bit_for_bit_identical() {
    fn fingerprint(p: ProtocolKind, telemetry: TelemetryConfig) -> (String, Option<usize>) {
        let mut cluster = Cluster::builder(p)
            .clients_per_region(1)
            .seed(9)
            .snapshot_config(SnapshotConfig::every(64))
            .telemetry_config(telemetry)
            .build();
        cluster.elect_leader();
        let r = cluster.run_measurement(
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
        );
        let fp = run_fingerprint(&r, cluster.sim.now());
        (fp, r.spans.map(|s| s.commands.len()))
    }
    for p in [
        ProtocolKind::Raft,
        ProtocolKind::RaftStar,
        ProtocolKind::MultiPaxos,
        ProtocolKind::RaftStarMencius,
    ] {
        let (off, spans_off) = fingerprint(p, TelemetryConfig::default());
        let (on, spans_on) = fingerprint(p, TelemetryConfig::default().with_spans());
        assert_eq!(off, on, "{}: span tracing never perturbs the run", p.name());
        assert_eq!(spans_off, None, "{}: off-run assembles nothing", p.name());
        assert!(
            spans_on.is_some_and(|n| n > 0),
            "{}: enabled run assembled command breakdowns",
            p.name()
        );
    }
}

/// The accounting identity under adversity: in a run with 10% message
/// loss and a replica crash/restart racing the measurement window, every
/// traced command's stage components must sum *exactly* to its observed
/// end-to-end latency — retries, duplicate deliveries and re-sends
/// included. Runs over all four rule sets.
#[test]
fn span_breakdowns_sum_exactly_under_loss_and_crash() {
    use crate::telemetry::Stage;
    for p in [
        ProtocolKind::Raft,
        ProtocolKind::RaftStar,
        ProtocolKind::MultiPaxos,
        ProtocolKind::RaftStarMencius,
    ] {
        let mut cluster = Cluster::builder(p)
            .clients_per_region(1)
            .seed(13)
            .telemetry_config(TelemetryConfig::default().with_spans())
            .build();
        cluster.elect_leader();
        // Lossy network for the whole run, plus a non-serving replica
        // bouncing inside the measurement window.
        let now = cluster.sim.now();
        cluster.sim.set_drop_rate_at(0.10, now);
        let n = cluster.replicas().len();
        let victim = cluster.replicas()[(cluster.leaders()[0].0 as usize + 1) % n];
        cluster
            .sim
            .crash_at(victim, now + SimDuration::from_millis(1500));
        cluster
            .sim
            .restart_at(victim, now + SimDuration::from_millis(2200));
        let r = cluster.run_measurement(
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
        );
        let spans = r.spans.expect("spans enabled");
        assert!(
            !spans.commands.is_empty(),
            "{}: traced commands under loss+crash",
            p.name()
        );
        for b in &spans.commands {
            let sum = Stage::ALL
                .iter()
                .fold(SimDuration::ZERO, |acc, &s| acc + b.stage(s));
            assert_eq!(
                sum,
                b.total(),
                "{}: accounting identity for client {} seq {} ({:?})",
                p.name(),
                b.client,
                b.seq,
                b.stages
            );
        }
    }
}

/// A burst injected at a proposer overlaps replication rounds: the
/// adaptive cutter flushes eagerly while the window has room, so several
/// rounds are in flight at once — and for the window-gated protocols the
/// per-peer depth bound is respected.
#[test]
fn pipelined_burst_overlaps_rounds_within_the_depth_bound() {
    fn scenario<P: ProtocolRules>(
        name: &str,
        gated: bool,
        make: fn(ReplicaConfig) -> ReplicaEngine<P>,
    ) {
        let depth = 4usize;
        let (mut sim, replicas, _client) = conformance_cluster(3, None, move |mut cfg| {
            cfg.pipeline = PipelineConfig::depth(depth);
            make(cfg)
        });
        assert!(
            drive_until(&mut sim, SimTime::from_secs(5), |sim| {
                sim.actor::<ReplicaEngine<P>>(replicas[0]).is_leader()
            }),
            "{name}: replica 0 leads"
        );
        sim.run_for(SimDuration::from_secs(1));
        let before = sim
            .actor::<ReplicaEngine<P>>(replicas[0])
            .kv()
            .applied_ops();
        let n_burst = 10u64;
        for seq in 1..=n_burst {
            let cmd = crate::kv::Command::put(crate::kv::CmdId { client: 0, seq }, seq, vec![0; 8]);
            sim.send_external(
                replicas[0],
                Msg::Client(ClientMsg::Request { cmd }),
                SimDuration::ZERO,
            );
        }
        sim.run_for(SimDuration::from_secs(3));
        let rep = sim.actor::<ReplicaEngine<P>>(replicas[0]);
        assert_eq!(
            rep.kv().applied_ops() - before,
            n_burst,
            "{name}: every burst command committed and applied"
        );
        let stats = rep.pipeline_stats();
        assert!(
            stats.peak_in_flight >= 2,
            "{name}: rounds overlapped in flight ({stats:?})"
        );
        assert!(
            stats.eager_flushes >= 1,
            "{name}: the cutter flushed eagerly ({stats:?})"
        );
        if gated {
            assert!(
                stats.peak_in_flight <= depth as u64,
                "{name}: per-peer window bound respected ({stats:?})"
            );
        }
    }
    scenario("Raft", true, RaftReplica::new);
    scenario("Raft*", true, RaftStarReplica::new);
    scenario("MultiPaxos", true, MultiPaxosReplica::new);
    // Mencius suggestions always reach every peer (watermark safety), so
    // its window paces the cutter but does not gate sends.
    scenario("Mencius", false, MenciusReplica::new);
}

/// Pipelined replication under message loss: rounds are dropped and
/// acknowledged out of order, retransmission regresses the window, and
/// every protocol still commits every command exactly once — with the
/// same final replicated state across all four protocols.
#[test]
fn every_protocol_converges_under_loss_with_pipelining() {
    fn scenario<P: ProtocolRules>(
        name: &str,
        make: fn(ReplicaConfig) -> ReplicaEngine<P>,
    ) -> Vec<(u64, Option<u64>)> {
        let (mut sim, replicas, client) = conformance_cluster(3, None, move |mut cfg| {
            cfg.pipeline = PipelineConfig::depth(4);
            make(cfg)
        });
        sim.set_drop_rate_at(0.10, SimTime::from_millis(1));
        for k in 0..20 {
            sim.actor_mut::<TestClient>(client).enqueue_put(k);
        }
        assert!(
            drive_until(&mut sim, SimTime::from_secs(120), |sim| {
                sim.actor::<TestClient>(client).replies.len() == 20
            }),
            "{name}: all writes committed despite 10% loss"
        );
        sim.set_drop_rate_at(0.0, sim.now() + SimDuration::from_millis(1));
        sim.run_for(SimDuration::from_secs(5));
        // Every replica converges to the same state machine. A
        // divergence here dumps the flight-recorder tail (who sent,
        // dropped, applied what, when) alongside the assertion.
        with_trace_dump(&mut sim, |sim| {
            let digest: Vec<(u64, Option<u64>)> = (0..20)
                .map(|k| {
                    (
                        k,
                        sim.actor::<ReplicaEngine<P>>(replicas[0])
                            .kv()
                            .read_local(k)
                            .value_id(),
                    )
                })
                .collect();
            for &r in &replicas {
                let rep = sim.actor::<ReplicaEngine<P>>(r);
                assert_eq!(
                    rep.kv().applied_ops(),
                    sim.actor::<ReplicaEngine<P>>(replicas[0])
                        .kv()
                        .applied_ops(),
                    "{name}: duplicate retransmissions were deduplicated everywhere"
                );
                for &(k, v) in &digest {
                    assert_eq!(
                        rep.kv().read_local(k).value_id(),
                        v,
                        "{name}: replica {r:?} agrees at key {k}"
                    );
                }
            }
            digest
        })
    }
    let raft = scenario("Raft", RaftReplica::new);
    let raftstar = scenario("Raft*", RaftStarReplica::new);
    let paxos = scenario("MultiPaxos", MultiPaxosReplica::new);
    let mencius = scenario("Mencius", MenciusReplica::new);
    // Same client script, same committed state — in all four protocols.
    assert_eq!(raft, raftstar, "Raft vs Raft* final state");
    assert_eq!(raft, paxos, "Raft vs MultiPaxos final state");
    assert_eq!(raft, mencius, "Raft vs Mencius final state");
}

/// Leader crash with a full pipeline in flight: the client's pending
/// burst survives the failover (commands are retried, deduplicated and
/// committed exactly once by the successor).
#[test]
fn every_protocol_survives_leader_crash_mid_pipeline() {
    fn scenario<P: ProtocolRules>(name: &str, make: fn(ReplicaConfig) -> ReplicaEngine<P>) {
        let (mut sim, replicas, client) = conformance_cluster(3, None, move |mut cfg| {
            cfg.pipeline = PipelineConfig::depth(4);
            make(cfg)
        });
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        assert!(
            drive_until(&mut sim, SimTime::from_secs(5), |sim| {
                sim.actor::<TestClient>(client).replies.len() == 1
            }),
            "{name}: first write committed"
        );
        // Fill the serving replica's pipeline with a burst (from a second
        // client actor, so its responses have somewhere to go), then
        // crash the replica before the rounds can be acknowledged.
        let sink = sim.add_actor(
            paxraft_sim::net::Region::Oregon,
            Box::new(TestClient::new(1, replicas[0])),
        );
        let sink_client = (sink.0 - replicas.len()) as u32;
        for seq in 100..110u64 {
            let cmd = crate::kv::Command::put(
                crate::kv::CmdId {
                    client: sink_client,
                    seq,
                },
                seq,
                vec![0; 8],
            );
            sim.send_external(
                replicas[0],
                Msg::Client(ClientMsg::Request { cmd }),
                SimDuration::ZERO,
            );
        }
        sim.crash_at(replicas[0], sim.now() + SimDuration::from_millis(2));
        sim.actor_mut::<TestClient>(client).target = replicas[1];
        sim.actor_mut::<TestClient>(client).enqueue_put(2);
        sim.actor_mut::<TestClient>(client).enqueue_get(2);
        assert!(
            drive_until(&mut sim, SimTime::from_secs(60), |sim| {
                sim.actor::<TestClient>(client).replies.len() == 3
            }),
            "{name}: survivor served the remaining ops"
        );
        assert!(
            sim.actor::<TestClient>(client).replies[2]
                .1
                .value_id()
                .is_some(),
            "{name}: committed write survived the mid-pipeline crash"
        );
    }
    for_all_protocols!(scenario);
}

/// PR 2 drift regression: a full forwarded batch arriving at a
/// *non-leader* replica must be forwarded onward immediately, not parked
/// until the batch timer.
#[test]
fn full_forwarded_batch_is_flushed_immediately_regardless_of_leadership() {
    fn scenario<P: ProtocolRules>(
        name: &str,
        proposes_locally: bool,
        make: fn(ReplicaConfig) -> ReplicaEngine<P>,
    ) {
        let (mut sim, replicas, _client) = conformance_cluster(3, None, make);
        assert!(
            drive_until(&mut sim, SimTime::from_secs(5), |sim| {
                sim.actor::<ReplicaEngine<P>>(replicas[0]).is_leader()
            }),
            "{name}: replica 0 leads"
        );
        // Let heartbeats teach replica 1 who leads.
        sim.run_for(SimDuration::from_secs(1));
        let sink = sim.add_actor(
            paxraft_sim::net::Region::Ohio,
            Box::new(TestClient::new(1, replicas[1])),
        );
        let sink_client = (sink.0 - replicas.len()) as u32;
        let batch_max = sim
            .actor::<ReplicaEngine<P>>(replicas[1])
            .core
            .cfg
            .batch_max;
        let cmds: Vec<crate::kv::Command> = (1..=batch_max as u64)
            .map(|seq| {
                crate::kv::Command::put(
                    crate::kv::CmdId {
                        client: sink_client,
                        seq,
                    },
                    seq,
                    vec![0; 8],
                )
            })
            .collect();
        sim.send_external(
            replicas[1],
            Msg::Engine(EngineMsg::Forward {
                group: 0,
                header_bytes: 8,
                cmds,
            }),
            SimDuration::ZERO,
        );
        // Well under batch_delay (2 ms): only an immediate flush can have
        // emptied the buffer.
        sim.run_for(SimDuration::from_millis(1));
        let rep = sim.actor::<ReplicaEngine<P>>(replicas[1]);
        assert!(
            rep.core.pending.is_empty(),
            "{name}: full batch did not wait for the batch timer"
        );
        if !proposes_locally {
            assert_eq!(
                rep.forwarded_cmds(),
                batch_max as u64,
                "{name}: non-leader forwarded the full batch at once"
            );
        }
    }
    scenario("Raft", false, RaftReplica::new);
    scenario("Raft*", false, RaftStarReplica::new);
    scenario("MultiPaxos", false, MultiPaxosReplica::new);
    // Mencius proposes into its own slots instead of forwarding, but the
    // batch-full flush must be just as immediate.
    scenario("Mencius", true, MenciusReplica::new);
}

/// Follower-side adaptive forwarding: with `follower_hints` on, a
/// command arriving at a follower while the leader's piggybacked
/// occupancy hint shows window room is forwarded immediately — it never
/// waits for the batch timer. (With hints off, the non-full-batch
/// follower path always waits; `burst_of_requests_arms_one_batch_timer`
/// pins that discipline.)
#[test]
fn follower_hints_cut_forward_batches_before_the_timer() {
    fn scenario<P: ProtocolRules>(name: &str, make: fn(ReplicaConfig) -> ReplicaEngine<P>) {
        let (mut sim, replicas, _client) = conformance_cluster(3, None, move |mut cfg| {
            cfg.pipeline = PipelineConfig::default().with_follower_hints();
            make(cfg)
        });
        assert!(
            drive_until(&mut sim, SimTime::from_secs(5), |sim| {
                sim.actor::<ReplicaEngine<P>>(replicas[0]).is_leader()
            }),
            "{name}: replica 0 leads"
        );
        // Let a heartbeat round deliver the occupancy hint to followers.
        sim.run_for(SimDuration::from_secs(1));
        let sink = sim.add_actor(
            paxraft_sim::net::Region::Ohio,
            Box::new(TestClient::new(1, replicas[1])),
        );
        let sink_client = (sink.0 - replicas.len()) as u32;
        let cmd = crate::kv::Command::put(
            crate::kv::CmdId {
                client: sink_client,
                seq: 1,
            },
            3,
            vec![0; 8],
        );
        sim.send_external(
            replicas[1],
            Msg::Client(ClientMsg::Request { cmd }),
            SimDuration::ZERO,
        );
        // Well under batch_delay (2 ms): only the hint path can have
        // forwarded it already.
        sim.run_for(SimDuration::from_millis(1));
        let rep = sim.actor::<ReplicaEngine<P>>(replicas[1]);
        assert!(
            rep.core.pending.is_empty(),
            "{name}: single command did not wait for the batch timer"
        );
        assert_eq!(
            rep.forwarded_cmds(),
            1,
            "{name}: command forwarded immediately on the hint"
        );
        assert!(
            rep.pipeline_stats().hint_flushes >= 1,
            "{name}: the hint path was what cut the batch ({:?})",
            rep.pipeline_stats()
        );
        // End to end: the forwarded command still commits and applies.
        assert!(
            drive_until(&mut sim, SimTime::from_secs(5), |sim| {
                sim.actor::<ReplicaEngine<P>>(replicas[0])
                    .kv()
                    .read_local(3)
                    .value_id()
                    .is_some()
            }),
            "{name}: hint-forwarded command committed"
        );
    }
    // Mencius proposes locally (never forwards), so the hint path is
    // exercised by the two forwarding families only.
    scenario("Raft", RaftReplica::new);
    scenario("Raft*", RaftStarReplica::new);
    scenario("MultiPaxos", MultiPaxosReplica::new);
}

/// PR 2 drift regression: `forward_pending` with no known leader keeps
/// retrying on the batch timer, terminates once a leader appears, and
/// the buffered command is forwarded exactly once — neither dropped nor
/// duplicated across the transition.
#[test]
fn forward_pending_retries_until_a_leader_appears_without_loss_or_duplication() {
    fn scenario<P: ProtocolRules>(
        name: &str,
        expected_forwards: u64,
        make: fn(ReplicaConfig) -> ReplicaEngine<P>,
    ) {
        let (mut sim, replicas, _client) = conformance_cluster(3, None, make);
        // Inject at a follower at t=0, before any replica has ever led:
        // the engine must buffer and retry until the election finishes
        // and the leader hint propagates.
        let cmd = crate::kv::Command::put(crate::kv::CmdId { client: 0, seq: 1 }, 5, vec![0; 8]);
        sim.send_external(
            replicas[1],
            Msg::Client(ClientMsg::Request { cmd }),
            SimDuration::ZERO,
        );
        sim.run_for(SimDuration::from_millis(1));
        {
            let rep = sim.actor::<ReplicaEngine<P>>(replicas[1]);
            if expected_forwards > 0 {
                assert_eq!(
                    rep.core.pending.len(),
                    1,
                    "{name}: command buffered while no leader is known"
                );
                assert_eq!(rep.forwarded_cmds(), 0, "{name}: nothing forwarded yet");
            }
        }
        sim.run_for(SimDuration::from_secs(3));
        let rep = sim.actor::<ReplicaEngine<P>>(replicas[1]);
        assert!(
            rep.core.pending.is_empty(),
            "{name}: retry loop terminated once a leader appeared"
        );
        assert_eq!(
            rep.forwarded_cmds(),
            expected_forwards,
            "{name}: buffered command forwarded exactly once"
        );
        // The command took effect.
        assert_eq!(
            sim.actor::<ReplicaEngine<P>>(replicas[0])
                .kv()
                .read_local(5)
                .value_id(),
            Some(crate::kv::CmdId { client: 0, seq: 1 }.as_value_id()),
            "{name}: buffered write committed after the transition"
        );
    }
    scenario("Raft", 1, RaftReplica::new);
    scenario("Raft*", 1, RaftStarReplica::new);
    scenario("MultiPaxos", 1, MultiPaxosReplica::new);
    // Mencius owns its slots: it proposes locally and never forwards.
    scenario("Mencius", 0, MenciusReplica::new);
}

/// PR 2 drift regression: a crash retires *every* engine timer
/// generation, so no pre-crash in-flight timer token can match
/// post-restart state even if the runtime redelivers it.
#[test]
fn crash_bumps_every_engine_timer_generation() {
    fn scenario<P: ProtocolRules>(name: &str, make: fn(ReplicaConfig) -> ReplicaEngine<P>) {
        let mut cfg = ReplicaConfig::wan_default(NodeId(0), 3);
        cfg.peers = (0..3).map(ActorId).collect();
        let mut rep = make(cfg);
        // Simulate armed timers whose tokens are still in flight.
        rep.core.batch_armed = true;
        rep.core.batch_gen = 5;
        rep.core.election_gen = 7;
        rep.core.heartbeat_gen = 9;
        Actor::on_crash(&mut rep);
        assert!(!rep.core.batch_armed, "{name}: batch timer disarmed");
        assert!(
            rep.core.batch_gen > 5,
            "{name}: pre-crash batch token retired"
        );
        assert!(
            rep.core.election_gen > 7,
            "{name}: pre-crash election token retired"
        );
        assert!(
            rep.core.heartbeat_gen > 9,
            "{name}: pre-crash heartbeat token retired"
        );
    }
    for_all_protocols!(scenario);
}

/// Behavioral face of the same drift: crash a replica while its batch
/// timer is armed with a buffered command; after restart the replica
/// serves new work with a clean batching state.
#[test]
fn crash_while_batch_timer_armed_recovers_cleanly() {
    fn scenario<P: ProtocolRules>(name: &str, make: fn(ReplicaConfig) -> ReplicaEngine<P>) {
        let (mut sim, replicas, client) = conformance_cluster(3, None, make);
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        assert!(
            drive_until(&mut sim, SimTime::from_secs(5), |sim| {
                sim.actor::<TestClient>(client).replies.len() == 1
            }),
            "{name}: warm-up write committed"
        );
        // Arm replica 1's batch timer with a buffered command (from a
        // second client actor so its response has somewhere to go), then
        // crash before the 2 ms timer can fire.
        let sink = sim.add_actor(
            paxraft_sim::net::Region::Ohio,
            Box::new(TestClient::new(1, replicas[1])),
        );
        let sink_client = (sink.0 - replicas.len()) as u32;
        let cmd = crate::kv::Command::put(
            crate::kv::CmdId {
                client: sink_client,
                seq: 1,
            },
            9,
            vec![0; 8],
        );
        sim.send_external(
            replicas[1],
            Msg::Client(ClientMsg::Request { cmd }),
            SimDuration::ZERO,
        );
        sim.run_for(SimDuration::from_micros(100));
        sim.crash_at(replicas[1], sim.now() + SimDuration::from_micros(100));
        sim.restart_at(replicas[1], sim.now() + SimDuration::from_millis(50));
        sim.run_for(SimDuration::from_millis(200));
        // Post-restart the replica accepts and completes new work.
        sim.actor_mut::<TestClient>(client).target = replicas[1];
        sim.actor_mut::<TestClient>(client).enqueue_put(2);
        assert!(
            drive_until(&mut sim, SimTime::from_secs(30), |sim| {
                sim.actor::<TestClient>(client).replies.len() == 2
            }),
            "{name}: restarted replica serves new requests"
        );
        let rep = sim.actor::<ReplicaEngine<P>>(replicas[1]);
        assert!(
            rep.core.pending.is_empty(),
            "{name}: no resurrected pre-crash batch state"
        );
    }
    for_all_protocols!(scenario);
}

/// Group-commit durability for the conformance scenarios: a 1 ms fsync
/// device with batched flushes, slow enough that a crash injected right
/// after an append reliably lands inside the fsync window.
fn conformance_durability() -> DurabilityConfig {
    DurabilityConfig::group_commit(SimDuration::from_millis(1), 8, SimDuration::from_millis(2))
}

/// The new failure mode durability introduces: crash a replica holding
/// an appended-but-unsynced suffix, restart it, and require that (a) it
/// recovered to the last fsynced prefix — the unsynced entries simply
/// never happened on that replica, (b) no *acknowledged* write is lost
/// (under group commit an ack only ever follows the batched fsync that
/// covers it, so an acked entry is durable on the quorum that committed
/// it), (c) dedup is still exactly-once through the crash, and (d) the
/// cluster reconverges to a single state. Runs against all four rule
/// sets — the truncate-and-recover path is engine code, but each
/// protocol's recovery differs (Raft re-replicates from the leader,
/// Mencius self-revokes its lost slots).
#[test]
fn crash_with_unsynced_suffix_recovers_to_fsynced_prefix() {
    fn scenario<P: ProtocolRules>(name: &str, make: fn(ReplicaConfig) -> ReplicaEngine<P>) {
        let (mut sim, replicas, client) = conformance_cluster(3, None, move |mut cfg| {
            cfg.durability = conformance_durability();
            make(cfg)
        });
        // Warm-up write; its reply is an end-to-end ack, which under
        // group commit implies the entry is fsynced on a quorum.
        sim.actor_mut::<TestClient>(client).enqueue_put(1);
        assert!(
            drive_until(&mut sim, SimTime::from_secs(5), |sim| {
                sim.actor::<TestClient>(client).replies.len() == 1
            }),
            "{name}: acked warm-up write"
        );
        // Inject a full batch at the serving replica — batch-full cuts
        // flush immediately, so the entries are appended and their
        // durability write issued right away — then crash it well inside
        // the 1 ms fsync window, while the suffix is still unsynced.
        let sink = sim.add_actor(
            paxraft_sim::net::Region::Oregon,
            Box::new(TestClient::new(1, replicas[0])),
        );
        let sink_client = (sink.0 - replicas.len()) as u32;
        let batch_max = sim
            .actor::<ReplicaEngine<P>>(replicas[0])
            .core
            .cfg
            .batch_max;
        for seq in 1..=batch_max as u64 {
            let cmd = crate::kv::Command::put(
                crate::kv::CmdId {
                    client: sink_client,
                    seq,
                },
                100 + seq,
                vec![0; 8],
            );
            sim.send_external(
                replicas[0],
                Msg::Client(ClientMsg::Request { cmd }),
                SimDuration::ZERO,
            );
        }
        sim.run_for(SimDuration::from_micros(100));
        {
            let dur = &sim.actor::<ReplicaEngine<P>>(replicas[0]).core.dur;
            assert!(
                dur.write_seq() > dur.synced_seq(),
                "{name}: crash is aimed at a genuinely unsynced suffix \
                 (write_seq {} vs synced_seq {})",
                dur.write_seq(),
                dur.synced_seq()
            );
        }
        sim.crash_at(replicas[0], sim.now() + SimDuration::from_micros(10));
        sim.restart_at(replicas[0], sim.now() + SimDuration::from_millis(50));
        sim.run_for(SimDuration::from_millis(100));
        {
            let dur = &sim.actor::<ReplicaEngine<P>>(replicas[0]).core.dur;
            assert_eq!(
                dur.write_seq(),
                dur.synced_seq(),
                "{name}: restart rewound the write sequence to the fsynced prefix"
            );
        }
        // Fail over and finish: new work commits, and the acked warm-up
        // write is still readable.
        sim.actor_mut::<TestClient>(client).target = replicas[1];
        sim.actor_mut::<TestClient>(client).enqueue_put(2);
        sim.actor_mut::<TestClient>(client).enqueue_get(2);
        sim.actor_mut::<TestClient>(client).enqueue_get(1);
        assert!(
            drive_until(&mut sim, SimTime::from_secs(60), |sim| {
                sim.actor::<TestClient>(client).replies.len() == 4
            }),
            "{name}: survivor served the remaining ops"
        );
        let c = sim.actor::<TestClient>(client);
        assert!(
            c.replies[2].1.value_id().is_some(),
            "{name}: post-crash write committed"
        );
        assert!(
            c.replies[3].1.value_id().is_some(),
            "{name}: acked pre-crash write survived the unsynced-suffix crash"
        );
        // Dedup across the crash: resend the warm-up command; the
        // session table must answer from cache, not re-apply.
        sim.run_for(SimDuration::from_secs(1));
        let before = sim
            .actor::<ReplicaEngine<P>>(replicas[1])
            .kv()
            .applied_ops();
        let cmd = sim.actor::<TestClient>(client).sent[0].clone();
        sim.send_external(
            replicas[1],
            Msg::Client(ClientMsg::Request { cmd }),
            SimDuration::ZERO,
        );
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(
            sim.actor::<ReplicaEngine<P>>(replicas[1])
                .kv()
                .applied_ops(),
            before,
            "{name}: duplicate of an acked pre-crash write did not re-apply"
        );
        // Reconvergence: the restarted replica catches back up and every
        // replica agrees on the acked keys.
        let converge_by = sim.now() + SimDuration::from_secs(60);
        assert!(
            drive_until(&mut sim, converge_by, |sim| {
                let lead = sim
                    .actor::<ReplicaEngine<P>>(replicas[1])
                    .kv()
                    .applied_ops();
                replicas
                    .iter()
                    .all(|&r| sim.actor::<ReplicaEngine<P>>(r).kv().applied_ops() == lead)
            }),
            "{name}: restarted replica reconverged"
        );
        with_trace_dump(&mut sim, |sim| {
            for &r in &replicas {
                let rep = sim.actor::<ReplicaEngine<P>>(r);
                for k in [1u64, 2] {
                    assert_eq!(
                        rep.kv().read_local(k).value_id(),
                        sim.actor::<ReplicaEngine<P>>(replicas[1])
                            .kv()
                            .read_local(k)
                            .value_id(),
                        "{name}: replica {r:?} agrees at key {k}"
                    );
                }
            }
        });
        // The scenario actually exercised the disk: survivors fsynced
        // and deferred acks behind those fsyncs.
        let stats = sim
            .actor::<ReplicaEngine<P>>(replicas[1])
            .durability_stats();
        assert!(stats.fsyncs > 0, "{name}: survivor fsynced ({stats:?})");
        assert!(
            stats.deferred_acks > 0,
            "{name}: acks were deferred behind fsyncs ({stats:?})"
        );
    }
    for_all_protocols!(scenario);
}

/// Durability is deterministic like everything else in the sim: two
/// same-seed measurement runs with group commit enabled produce
/// identical reports — including the fsync counters — for every
/// protocol.
#[test]
fn durability_enabled_fixed_seed_runs_are_deterministic() {
    fn fingerprint(p: ProtocolKind, seed: u64) -> String {
        let mut cluster = Cluster::builder(p)
            .clients_per_region(1)
            .seed(seed)
            .durability_config(conformance_durability())
            .build();
        cluster.elect_leader();
        let r = cluster.run_measurement(
            SimDuration::from_secs(1),
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
        );
        assert!(
            r.durability.fsyncs > 0,
            "{}: durability-enabled run fsynced",
            p.name()
        );
        run_fingerprint(&r, cluster.sim.now())
    }
    for p in [
        ProtocolKind::Raft,
        ProtocolKind::RaftStar,
        ProtocolKind::MultiPaxos,
        ProtocolKind::RaftStarMencius,
    ] {
        let a = fingerprint(p, 11);
        let b = fingerprint(p, 11);
        assert_eq!(a, b, "{}: same seed, same durable RunReport", p.name());
    }
}

/// The snapshot wire model stays per-protocol through the shared
/// engine envelope: Raft's InstallSnapshot spelling is costlier than
/// MultiPaxos's Checkpoint, which is costlier than Mencius's
/// ballot-free Checkpoint.
#[test]
fn snapshot_wire_overhead_is_distinct_per_protocol_family() {
    let mk_cfg = || {
        let mut cfg = ReplicaConfig::wan_default(NodeId(0), 3);
        cfg.peers = (0..3).map(ActorId).collect();
        cfg
    };
    let raft = RaftReplica::new(mk_cfg());
    let raftstar = RaftStarReplica::new(mk_cfg());
    let paxos = MultiPaxosReplica::new(mk_cfg());
    let mencius = MenciusReplica::new(mk_cfg());
    assert_eq!(raft.core.snap_wire, (48, 16), "Raft InstallSnapshot");
    assert_eq!(raftstar.core.snap_wire, (48, 16), "Raft* InstallSnapshot");
    assert_eq!(paxos.core.snap_wire, (40, 16), "MultiPaxos Checkpoint");
    assert_eq!(mencius.core.snap_wire, (32, 8), "Mencius Checkpoint");
}
