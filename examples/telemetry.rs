//! Telemetry demo: virtual-time metric series across a live rebalance.
//!
//! Runs the same merge-then-split scenario as `examples/rebalance.rs` —
//! two groups on slow CPUs, group 1's range merged into group 0 at
//! t=5.5s (manufacturing a hot range), then split back out at t=10.5s —
//! but with the telemetry sampler on: every 100 ms of virtual time the
//! harness folds each group's replica counters into per-group
//! time-series (`group{g}/throughput_ops`, `group{g}/pending_depth`,
//! ...). Where the rebalance example prints one aggregate number per
//! phase, the series show the *shape* of the transition: group 1's
//! throughput collapsing into group 0 at the merge, the merged group's
//! pending-batch depth climbing while its one leader absorbs all
//! traffic, and both recovering after the split.
//!
//! The replicas also run on a modeled disk (group commit over a 500 µs
//! fsync device), so the sampler's durability series are live:
//! `group{g}/fsync_rate` tracks batched flushes per second and
//! `group{g}/disk_backlog_ms` the device queue — watch group 0's fsync
//! rate absorb group 1's during the merge window.
//!
//! The flight recorder is on too; the demo closes with the tail of the
//! event trace (sends, applies, migration phases) as a post-mortem
//! sample. Enabling telemetry never changes the run: the fixed-seed
//! schedule is bit-for-bit the telemetry-off schedule (pinned by the
//! conformance suite).
//!
//! Run with: `cargo run --release --example telemetry`

use paxraft::core::config::DurabilityConfig;
use paxraft::core::costs::CostModel;
use paxraft::core::harness::{Cluster, ProtocolKind};
use paxraft::core::shard::{MigrationSpec, RebalanceConfig, ShardConfig, ShardRouter};
use paxraft::core::telemetry::{TelemetryConfig, TimeSeries};
use paxraft::sim::time::{SimDuration, SimTime};
use paxraft::workload::generator::WorkloadConfig;

fn series<'a>(all: &'a [TimeSeries], name: &str) -> &'a TimeSeries {
    all.iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("series {name} was collected"))
}

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
                .migrate(MigrationSpec {
                    at: SimDuration::from_millis(5_500),
                    lo: lo1,
                    hi: hi1,
                    to_group: 0,
                })
                .migrate(MigrationSpec {
                    at: SimDuration::from_millis(10_500),
                    lo: lo1,
                    hi: hi1,
                    to_group: 1,
                }),
        )
        .durability_config(DurabilityConfig::group_commit(
            SimDuration::from_micros(500),
            8,
            SimDuration::from_millis(2),
        ))
        .telemetry_config(TelemetryConfig::sampled())
        .build();
    cluster.elect_leader();
    println!(
        "2 groups elected by {}; sampling every 100ms; merge at 5.5s, split at 10.5s\n",
        cluster.sim.now()
    );

    // One continuous measurement spanning both migrations.
    let report = cluster.run_measurement(
        SimDuration::from_secs(2),
        SimDuration::from_secs(13),
        SimDuration::from_millis(500),
    );

    let g0_thr = series(&report.telemetry, "group0/throughput_ops");
    let g1_thr = series(&report.telemetry, "group1/throughput_ops");
    let g0_pend = series(&report.telemetry, "group0/pending_depth");
    let g1_pend = series(&report.telemetry, "group1/pending_depth");

    // Render the series in 500 ms buckets: per-group throughput, a bar
    // for the total, and the merged group's queue depth.
    println!("  t(s)    g0 ops/s  g1 ops/s   total  g0 pend  g1 pend");
    let mut t = SimTime::from_millis(2_000);
    let end = SimTime::from_millis(15_500);
    while t < end {
        let to = t + SimDuration::from_millis(500);
        let v0 = g0_thr.window_mean(t, to).unwrap_or(0.0);
        let v1 = g1_thr.window_mean(t, to).unwrap_or(0.0);
        let p0 = g0_pend.window_mean(t, to).unwrap_or(0.0);
        let p1 = g1_pend.window_mean(t, to).unwrap_or(0.0);
        let total = v0 + v1;
        let bar = "#".repeat((total / 20.0).round() as usize);
        println!(
            "  {:>5.1}  {v0:>9.1} {v1:>9.1} {total:>7.1}  {p0:>7.1}  {p1:>7.1}  {bar}",
            t.as_millis_f64() / 1e3,
        );
        t = to;
    }

    // The same phase windows the rebalance example measures, now read
    // straight off the series.
    let phase = |name: &str, from_ms: u64, to_ms: u64| {
        let (from, to) = (SimTime::from_millis(from_ms), SimTime::from_millis(to_ms));
        let v0 = g0_thr.window_mean(from, to).unwrap_or(0.0);
        let v1 = g1_thr.window_mean(from, to).unwrap_or(0.0);
        println!(
            "  {name:<28} {:>8.1} ops/s  (g0 {v0:.1} + g1 {v1:.1})",
            v0 + v1
        );
        v0 + v1
    };
    // Durability series: batched-fsync rate per group and the disk
    // queue. The merge pushes group 1's flush traffic onto group 0's
    // leader (each node's disk is shared by its co-located replicas).
    let g0_fs = series(&report.telemetry, "group0/fsync_rate");
    let g1_fs = series(&report.telemetry, "group1/fsync_rate");
    let g0_dsk = series(&report.telemetry, "group0/disk_backlog_ms");
    println!("\n  t(s)   g0 fsync/s  g1 fsync/s  g0 backlog(ms)");
    let mut t = SimTime::from_millis(2_000);
    while t < end {
        let to = t + SimDuration::from_secs(1);
        let f0 = g0_fs.window_mean(t, to).unwrap_or(0.0);
        let f1 = g1_fs.window_mean(t, to).unwrap_or(0.0);
        let d0 = g0_dsk.window_mean(t, to).unwrap_or(0.0);
        println!(
            "  {:>5.1}  {f0:>10.1} {f1:>11.1} {d0:>15.3}",
            t.as_millis_f64() / 1e3,
        );
        t = to;
    }
    assert!(
        g0_fs
            .window_mean(SimTime::from_millis(2_000), end)
            .unwrap_or(0.0)
            > 0.0,
        "group 0 fsynced during the measurement"
    );

    println!("\nphase means from the series:");
    let balanced = phase("balanced (before)", 2_000, 5_000);
    let during = phase("merge + hot range (during)", 5_500, 8_500);
    let hot = phase("hot range steady", 8_500, 10_500);
    let post = phase("post-split (after)", 12_000, 15_000);

    cluster.run_until_rebalanced(SimDuration::from_secs(30));
    assert_eq!(cluster.migrations_completed(), vec![1, 2]);
    assert!(
        during < balanced,
        "migration dip visible in the series ({during:.1} < {balanced:.1})"
    );
    assert!(
        post > hot,
        "post-split recovery visible in the series ({post:.1} > {hot:.1})"
    );
    println!(
        "\nmigration dip: {balanced:.0} -> {during:.0} ops/s; split recovery: {hot:.0} -> {post:.0} ops/s"
    );

    println!();
    print!("{}", cluster.sim.trace().render_last(10));
}
