//! The fixed-seed behavioural fingerprint pinned in `PARITY_pr5.txt`:
//! one line per run, six protocol configurations × three runs (seeds 7
//! and 42 without compaction, seed 11 with it). A refactor preserves
//! behaviour bit for bit exactly when it reproduces these lines.
//! `examples/parity_fingerprint.rs` prints them; `tests/parity.rs`
//! compares them with the pinned file.

use paxraft_core::harness::{Cluster, ProtocolKind};
use paxraft_core::snapshot::SnapshotConfig;
use paxraft_sim::time::SimDuration;
use paxraft_workload::generator::WorkloadConfig;

/// Every fingerprint line, in the pinned file's order.
pub fn lines() -> impl Iterator<Item = String> {
    [
        ProtocolKind::MultiPaxos,
        ProtocolKind::Raft,
        ProtocolKind::RaftStar,
        ProtocolKind::RaftStarPql,
        ProtocolKind::LeaderLease,
        ProtocolKind::RaftStarMencius,
    ]
    .into_iter()
    .flat_map(|p| [(p, 7, false), (p, 42, false), (p, 11, true)])
    .map(|(p, seed, snapshots)| line(p, seed, snapshots))
}

/// One run's fingerprint line.
pub fn line(p: ProtocolKind, seed: u64, snapshots: bool) -> String {
    let w = WorkloadConfig {
        read_fraction: 0.5,
        conflict_rate: 0.2,
        ..Default::default()
    };
    let mut b = Cluster::builder(p)
        .clients_per_region(2)
        .workload(w)
        .seed(seed);
    if snapshots {
        b = b.snapshot_config(SnapshotConfig::every(32));
    }
    let mut cluster = b.build();
    cluster.elect_leader();
    let r = cluster.run_measurement(
        SimDuration::from_secs(2),
        SimDuration::from_secs(5),
        SimDuration::from_secs(1),
    );
    format!(
        "{} seed={} snaps={} thr={:.6} lr={:?} fr={:?} lw={:?} fw={:?} snapstats={:?} now={}",
        p.name(),
        seed,
        snapshots,
        r.throughput_ops,
        r.leader_reads,
        r.follower_reads,
        r.leader_writes,
        r.follower_writes,
        r.snapshots,
        cluster.sim.now()
    )
}
