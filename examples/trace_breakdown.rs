//! Causal command tracing: where does a committed write's latency go?
//!
//! Every command's lifecycle — client send, forward hop, batch-queue
//! wait, replication rounds, fsync defer, commit, apply, reply — is
//! recorded as span events and stitched post-run into a per-command
//! latency breakdown whose six stages (queueing / batching / network /
//! replication / fsync / apply) sum *exactly* to the observed
//! end-to-end latency. This example aggregates the breakdowns into the
//! paper's Figure-10 story told causally rather than by throughput
//! deltas alone:
//!
//! 1. **Baseline attribution** per protocol: on a WAN with no disk, the
//!    network and replication stages own the latency.
//! 2. **Fsync policy** (Raft, degraded proposer device): a follower's
//!    fsync rides its ack and books to replication, but the *leader's*
//!    own flush is a commit clamp — the fsync stage is the window where
//!    a replication quorum exists and only the local device holds the
//!    commit back. With a slow proposer disk, per-entry fsync stalls
//!    every commit behind the device; group commit amortizes the
//!    barrier and moves that time out of the fsync stage.
//! 3. **Pipelining** (Raft, loaded proposer): depth 0 serializes
//!    rounds, so commands wait out prior rounds in the batch
//!    (batching + replication dominate); depth 8 overlaps them and
//!    shrinks that wait.
//!
//! Emits `BENCH_pr10.json` (override the path with `BENCH_PR10_OUT`)
//! with mean per-stage milliseconds per scenario plus each scenario's
//! dominant critical-path stage, and asserts the two distinguishing
//! claims above.
//!
//! Run with: `cargo run --release --example trace_breakdown`

use std::fmt::Write as _;

use paxraft::core::config::DurabilityConfig;
use paxraft::core::engine::PipelineConfig;
use paxraft::core::harness::{Cluster, ProtocolKind};
use paxraft::core::telemetry::{Stage, StageTotals, TelemetryConfig};
use paxraft::sim::time::SimDuration;
use paxraft::workload::generator::WorkloadConfig;

const PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Raft,
    ProtocolKind::RaftStar,
    ProtocolKind::MultiPaxos,
    ProtocolKind::RaftStarMencius,
];

/// JSON key slug per protocol.
fn slug(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::Raft => "raft",
        ProtocolKind::RaftStar => "raftstar",
        ProtocolKind::MultiPaxos => "multipaxos",
        ProtocolKind::RaftStarMencius => "mencius",
        _ => unreachable!("not part of the sweep"),
    }
}

struct Scenario {
    clients_per_region: usize,
    durability: Option<DurabilityConfig>,
    pipeline: Option<PipelineConfig>,
    /// Extra fsync latency for the proposer's device only (the PR 10
    /// per-disk override): makes the leader's durability clamp — not
    /// the follower acks — the binding constraint.
    leader_fsync: Option<SimDuration>,
}

/// Runs one traced measurement and returns the aggregate attribution.
fn run(protocol: ProtocolKind, s: &Scenario) -> StageTotals {
    let workload = WorkloadConfig {
        read_fraction: 0.0, // all writes: every op rides the full path
        conflict_rate: 0.0,
        ..Default::default()
    };
    let mut b = Cluster::builder(protocol)
        .clients_per_region(s.clients_per_region)
        .workload(workload)
        .telemetry_config(TelemetryConfig::default().with_spans())
        .seed(23);
    if let Some(d) = &s.durability {
        b = b.durability_config(d.clone());
    }
    if let Some(p) = &s.pipeline {
        b = b.pipeline_config(p.clone());
    }
    let mut cluster = b.build();
    if let Some(fsync) = s.leader_fsync {
        let leader = cluster.replicas()[cluster.leaders()[0].0 as usize];
        cluster.sim.set_disk_config_for(
            leader,
            paxraft::sim::disk::DiskConfig {
                write_bandwidth_bps: 0.0,
                fsync_latency: fsync,
            },
        );
    }
    cluster.elect_leader();
    let report = cluster.run_measurement(
        SimDuration::from_secs(2),
        SimDuration::from_secs(5),
        SimDuration::from_secs(1),
    );
    let spans = report.spans.expect("span tracing enabled");
    assert!(spans.commands.len() > 100, "enough traced commands");
    // The accounting identity, re-checked on real traffic: components
    // sum exactly to end-to-end latency for every command.
    for c in &spans.commands {
        let sum = Stage::ALL
            .iter()
            .fold(SimDuration::ZERO, |acc, &s| acc + c.stage(s));
        assert_eq!(sum, c.total(), "accounting identity");
    }
    spans.totals()
}

fn emit(json: &mut String, key: &str, t: &StageTotals) {
    for s in Stage::ALL {
        let _ = writeln!(
            json,
            "  \"trace_breakdown_{}_{}_mean_ms\": {:.3},",
            key,
            s.name(),
            t.mean_ms(s)
        );
    }
    let _ = writeln!(
        json,
        "  \"trace_breakdown_{}_total_mean_ms\": {:.3},",
        key,
        t.mean_total_ms()
    );
    let _ = writeln!(
        json,
        "  \"trace_breakdown_{}_dominant_stage\": \"{}\",",
        key,
        t.dominant_stage().name()
    );
}

fn print_row(label: &str, t: &StageTotals) {
    print!("  {label:<22}");
    for s in Stage::ALL {
        print!(" {:>7.2}", t.mean_ms(s));
    }
    println!(
        " | {:>7.2}  {}",
        t.mean_total_ms(),
        t.dominant_stage().name()
    );
}

fn header() {
    print!("  {:<22}", "");
    for s in Stage::ALL {
        print!(" {:>7}", s.name());
    }
    println!(" | {:>7}  dominant", "total");
}

fn main() {
    let mut json = String::from("{\n");

    println!("per-command latency attribution (mean ms per stage)\n");
    println!("baseline: closed-loop writes, no disk");
    header();
    for p in PROTOCOLS {
        let t = run(
            p,
            &Scenario {
                clients_per_region: 10,
                durability: None,
                pipeline: None,
                leader_fsync: None,
            },
        );
        emit(&mut json, slug(p), &t);
        print_row(slug(p), &t);
    }

    // Fsync policy on Raft: per-entry stalls between quorum and commit;
    // group commit amortizes the barrier away. (The fsync stage is
    // observable for the Raft family, which exposes the replication
    // quorum point; MultiPaxos/Mencius fold the durability wait into
    // replication.)
    println!("\nfsync policy, Raft, 10 ms proposer device (1 ms elsewhere)");
    header();
    let fsync = SimDuration::from_millis(1);
    let per_entry = run(
        ProtocolKind::Raft,
        &Scenario {
            clients_per_region: 10,
            durability: Some(DurabilityConfig::per_entry(fsync)),
            pipeline: None,
            leader_fsync: Some(SimDuration::from_millis(10)),
        },
    );
    emit(&mut json, "raft_per_entry_fsync", &per_entry);
    print_row("per-entry fsync", &per_entry);
    let group_commit = run(
        ProtocolKind::Raft,
        &Scenario {
            clients_per_region: 10,
            durability: Some(DurabilityConfig::group_commit(
                fsync,
                32,
                SimDuration::from_millis(1),
            )),
            pipeline: None,
            leader_fsync: Some(SimDuration::from_millis(10)),
        },
    );
    emit(&mut json, "raft_group_commit", &group_commit);
    print_row("group commit", &group_commit);
    assert!(
        per_entry.mean_ms(Stage::Fsync) > 0.1,
        "per-entry fsync shows up as a stall ({:.3} ms)",
        per_entry.mean_ms(Stage::Fsync)
    );
    assert!(
        group_commit.mean_ms(Stage::Fsync) < 0.5 * per_entry.mean_ms(Stage::Fsync),
        "group commit moves time out of the fsync stage ({:.3} vs {:.3} ms)",
        group_commit.mean_ms(Stage::Fsync),
        per_entry.mean_ms(Stage::Fsync)
    );

    // Pipelining on a loaded proposer. Depth 1 is true round
    // serialization: one unacked round per peer, so a cut round queues
    // behind the in-flight one for a full WAN ack — the wait books to
    // the replication stage, and depth 8 drains it by overlapping
    // rounds. Depth 0 is the pre-pipeline discipline (no window gating,
    // no eager cutting): no serialization wait, but a visibly different
    // attribution than depth 8's eager small batches.
    println!("\npipelining, Raft, 75 clients/region");
    header();
    let mut by_depth = Vec::new();
    for depth in [0usize, 1, 8] {
        let t = run(
            ProtocolKind::Raft,
            &Scenario {
                clients_per_region: 75,
                durability: None,
                pipeline: Some(PipelineConfig {
                    depth,
                    ..PipelineConfig::default()
                }),
                leader_fsync: None,
            },
        );
        emit(&mut json, &format!("raft_pipeline_depth{depth}"), &t);
        print_row(&format!("depth {depth}"), &t);
        by_depth.push(t);
    }
    let repl = |t: &StageTotals| t.mean_ms(Stage::Replication);
    let (depth0, depth1, depth8) = (&by_depth[0], &by_depth[1], &by_depth[2]);
    assert!(
        repl(depth8) < 0.75 * repl(depth1),
        "pipelining shrinks the replication wait ({:.3} vs {:.3} ms)",
        repl(depth8),
        repl(depth1)
    );
    assert!(
        (repl(depth0) - repl(depth8)).abs() > 0.5
            || (depth0.mean_total_ms() - depth8.mean_total_ms()).abs() > 0.5,
        "the attribution distinguishes the ungated depth-0 discipline from depth 8 \
         ({:.3} vs {:.3} ms replication)",
        repl(depth0),
        repl(depth8)
    );

    let json = format!("{}\n}}\n", json.trim_end().trim_end_matches(','));
    let out = std::env::var("BENCH_PR10_OUT").unwrap_or_else(|_| "BENCH_pr10.json".into());
    std::fs::write(&out, &json).expect("write bench json");
    println!("\nwrote {out}");
    println!(
        "\nThe breakdown components sum exactly to each command's end-to-end\n\
         latency, so a stage shrinking here is time actually moved, not a\n\
         sampling artifact: group commit drains the fsync stall, pipelining\n\
         drains the round-serialization wait."
    );
}
