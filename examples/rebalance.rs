//! Live rebalancing demo: versioned partition maps and replicated
//! key-range migration between groups, under load.
//!
//! Two replica groups serve a closed-loop workload on a slow CPU (costs
//! scaled 200×, so a single leader's CPU is the bottleneck). The
//! coordinator first **merges** group 1's entire range into group 0 —
//! manufacturing the classic hot-range regime where one group absorbs
//! nearly all traffic and cluster throughput collapses to one leader's
//! capacity — then **splits** the hot range back out to group 1. The
//! before/during/after throughput shows live rebalancing recovering the
//! loss without stopping the workload: every operation keeps completing
//! through both migrations, redirected and retried by the versioned
//! `WrongGroup` protocol.
//!
//! Run with: `cargo run --release --example rebalance`

use paxraft::core::costs::CostModel;
use paxraft::core::harness::{Cluster, ProtocolKind};
use paxraft::core::shard::{MigrationSpec, RebalanceConfig, ShardConfig, ShardRouter};
use paxraft::sim::time::SimDuration;
use paxraft::workload::generator::WorkloadConfig;

fn main() {
    let w = WorkloadConfig {
        read_fraction: 0.5,
        conflict_rate: 0.0,
        ..Default::default()
    };
    let router = ShardRouter::new(w.records, 2);
    let (lo1, hi1) = router.range(1);

    let mut cluster = Cluster::builder(ProtocolKind::Raft)
        .clients_per_region(25)
        .workload(w)
        .seed(42)
        .costs(CostModel::default().scaled_cpu(200))
        .shard_config(ShardConfig::groups(2))
        .rebalance_config(
            RebalanceConfig::default()
                // t=5.5s: merge group 1's range into group 0 (the whole
                // keyspace becomes one hot range on one group).
                .migrate(MigrationSpec {
                    at: SimDuration::from_millis(5_500),
                    lo: lo1,
                    hi: hi1,
                    to_group: 0,
                })
                // t=10.5s: split the hot range back out.
                .migrate(MigrationSpec {
                    at: SimDuration::from_millis(10_500),
                    lo: lo1,
                    hi: hi1,
                    to_group: 1,
                }),
        )
        .build();
    cluster.elect_leader();
    println!(
        "2 groups elected by {}; group 1 owns keys [{lo1}, {hi1})",
        cluster.sim.now()
    );

    let phases = [
        (
            "balanced (before)",
            SimDuration::from_secs(2),
            SimDuration::from_secs(3),
            SimDuration::ZERO,
        ),
        (
            "merge + hot range (during)",
            SimDuration::ZERO,
            SimDuration::from_secs(3),
            SimDuration::ZERO,
        ),
        (
            "hot range steady",
            SimDuration::ZERO,
            SimDuration::from_secs(2),
            SimDuration::from_millis(500),
        ),
        (
            "post-split (after)",
            SimDuration::from_millis(1_500),
            SimDuration::from_secs(3),
            SimDuration::ZERO,
        ),
    ];
    for (label, warmup, measure, cooldown) in phases {
        let r = cluster.run_measurement(warmup, measure, cooldown);
        println!(
            "  {label:<28} {:>8.1} ops/s  (map v{}, t={})",
            r.throughput_ops,
            cluster.current_router().version(),
            cluster.sim.now()
        );
    }

    cluster.run_until_rebalanced(SimDuration::from_secs(30));
    assert_eq!(cluster.migrations_completed(), vec![1, 2]);
    let stats = cluster.per_group_stats();
    let mut redirects = 0u64;
    let mut stale = 0u64;
    let mut updates = 0u64;
    for &c in cluster.clients() {
        let wc = cluster
            .sim
            .actor::<paxraft::core::client::WorkloadClient>(c);
        redirects += wc.redirects;
        stale += wc.stale_redirects;
        updates += wc.router_updates;
    }
    println!("\nboth migrations completed; final map version 2 (== build-time split)");
    for gs in &stats {
        println!(
            "  group {}: {} responses, {} range exports, {} installs across replicas",
            gs.group, gs.responses, gs.range_exports, gs.range_installs
        );
    }
    println!(
        "  clients: {redirects} redirects followed, {stale} stale redirects waited out, \
         {updates} router updates adopted"
    );
}
