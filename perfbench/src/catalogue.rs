//! What the benchmark runs and reports: the workloads with the reason
//! each was chosen, and every metric with its unit, direction, layer and
//! the end-to-end figure it should move. `BENCHMARK.json` at the
//! repository root mirrors this file; a test keeps the two in step.

use paxraft_core::config::DurabilityConfig;
use paxraft_core::harness::ProtocolKind;
use paxraft_sim::time::SimDuration;

use crate::sim_run::{Fault, SimWorkload};
use crate::spec_run::REFINE_BUDGET;

/// Seed used when none is given; record results against it, and recheck
/// a claimed gain on [`HELD_OUT_SEED`], which no tuning may use.
pub const DEFAULT_SEED: u64 = 42;

/// The seed kept back for rechecking gains.
pub const HELD_OUT_SEED: u64 = 7_919;

/// What a workload runs.
#[derive(Debug, Clone)]
pub enum Kind {
    /// A simulated cluster.
    Sim(SimWorkload),
    /// The spec-layer pipeline, refinements bounded to this many states.
    Spec {
        /// State budget of the refinements of the ported spec.
        budget: usize,
    },
}

/// One workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// CLI name.
    pub name: &'static str,
    /// Why the benchmark runs it.
    pub why: &'static str,
    /// What it runs.
    pub kind: Kind,
}

fn sim(
    protocol: ProtocolKind,
    read_fraction: f64,
    conflict_rate: f64,
    clients: usize,
) -> SimWorkload {
    SimWorkload {
        protocol,
        read_fraction,
        conflict_rate,
        clients_per_region: clients,
        durability: DurabilityConfig::default(),
        fault: None,
        warmup: SimDuration::from_secs(1),
        measure: SimDuration::from_secs(3),
        cooldown: SimDuration::from_millis(500),
    }
}

/// Every workload, in run order.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "pql_geo_reads",
            why: "Figure 9: Raft*-PQL at 90% reads; lease-local reads make the lease and KV read paths and the simulator core the hot layers",
            kind: Kind::Sim(sim(ProtocolKind::RaftStarPql, 0.9, 0.05, 500)),
        },
        Workload {
            name: "mencius_geo_writes",
            why: "Figure 10a: Raft*-Mencius at 100% writes from all five proposers; the Mencius rules dominate host time",
            kind: Kind::Sim(sim(ProtocolKind::RaftStarMencius, 0.0, 0.0, 1_000)),
        },
        Workload {
            name: "paxos_durable_failover",
            why: "MultiPaxos on a 1 ms-fsync group-commit disk with a leader crash and restart: the only disk, fault, election and catch-up path",
            kind: Kind::Sim(SimWorkload {
                durability: DurabilityConfig::group_commit(
                    SimDuration::from_millis(1),
                    32,
                    SimDuration::from_millis(1),
                ),
                fault: Some(Fault {
                    crash_after: SimDuration::from_secs(3),
                    down_for: SimDuration::from_secs(4),
                }),
                measure: SimDuration::from_secs(10),
                ..sim(ProtocolKind::MultiPaxos, 0.5, 0.05, 200)
            }),
        },
        Workload {
            name: "port_refine",
            why: "Section 4: model-check MultiPaxos and Raft*, port PQL onto Raft* and check both refinements; the only spec-layer workload",
            kind: Kind::Spec {
                budget: REFINE_BUDGET,
            },
        },
    ]
}

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// The module it measures (`end_to_end` for the end-to-end metrics).
    pub layer: &'static str,
    /// End-to-end metric this one should move, and on which workload.
    pub moves: &'static str,
    /// Share of the parent's median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
    /// What it is.
    pub what: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, what: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        layer: "end_to_end",
        moves: "",
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        layer,
        moves,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// Printed with `--trace 0`: measured on every workload, never zero.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("host_us_per_op", "us", 0.25, "host time per unit of work, median over the runs that fit in --seconds: per client op completed during Cluster::run_measurement, or per transition checked on port_refine"),
    e2e("setup_s", "s", 0.25, "set-up host time, median over at least seven set-ups that add up to 0.5 s or more: build plus election, or spec construction plus port"),
    e2e("peak_rss_mb", "MB", 0.15, "VmHWM of the benchmark process"),
];

/// Printed with `--trace 1`, from the traced run. A metric that does not
/// apply to a workload reads 0.
pub const PER_LAYER: [MetricDef; 41] = [
    layer("client.throughput_ops", "ops/s", Higher, "client", "virtual; exact per seed", "ops completed in the window per virtual second"),
    layer("client.write_p50_ms", "ms", Lower, "client", "virtual; exact per seed", "write latency median, pooled over regions"),
    layer("client.write_p99_ms", "ms", Lower, "client", "virtual; exact per seed", "write latency 99th percentile"),
    layer("client.read_p50_ms", "ms", Lower, "client", "virtual; exact per seed", "read latency median"),
    layer("client.read_p99_ms", "ms", Lower, "client", "virtual; exact per seed", "read latency 99th percentile"),
    layer("client.failed_frac", "frac", Lower, "client", "virtual; exact per seed", "share of issued ops answered after the 1 s retry timeout or unanswered for 1 s at the end"),
    layer("client.failover_ms", "ms", Lower, "client", "virtual; paxos_durable_failover", "crash to the first reply to a request issued after it"),
    layer("client.msg_ns", "ns", Lower, "client", "host_us_per_op", "host ns per client reply handled"),
    layer("client.timer_ns", "ns", Lower, "client", "host_us_per_op", "host ns per client poll timer"),
    layer("client.retries", "count", Lower, "client", "client.failed_frac", "timeout re-sends of ops completed in the window (span breakdowns)"),
    layer("sim.events_per_op", "events/op", Lower, "sim", "host_us_per_op, all simulation workloads", "simulator events per op completed"),
    layer("sim.msgs_per_op", "msgs/op", Lower, "sim", "host_us_per_op, all simulation workloads", "messages delivered per op completed"),
    layer("sim.self_ns_per_event", "ns", Lower, "sim", "host_us_per_op, most on pql_geo_reads", "wall time minus all handler time, per event"),
    layer("sim.lost_msgs", "count", Lower, "sim", "client.failed_frac, client.write_p99_ms on paxos_durable_failover", "messages lost to the crash"),
    layer("disk.fsyncs_per_op", "fsyncs/op", Lower, "sim", "client.failed_frac, client.write_p99_ms on paxos_durable_failover", "disk fsyncs per op completed"),
    layer("engine.queueing_ms", "ms", Lower, "engine", "client.write_p50_ms", "mean write time waiting at a non-proposing replica"),
    layer("engine.batching_ms", "ms", Lower, "engine", "client.write_p50_ms", "mean write time in the proposer's pending batch"),
    layer("engine.cmds_per_round", "cmds/round", Higher, "engine", "client.throughput_ops on mencius_geo_writes and pql_geo_reads", "commands proposed per batch flush"),
    layer("engine.window_deferrals", "count", Lower, "engine", "client.throughput_ops on mencius_geo_writes and pql_geo_reads", "batch cuts deferred by a full pipeline window"),
    layer("engine.fsync_batch_len", "entries/fsync", Higher, "engine", "client.throughput_ops on paxos_durable_failover", "log entries covered per fsync"),
    layer("engine.intake_ns", "ns", Lower, "engine", "host_us_per_op", "host ns per Client message at a replica"),
    layer("engine.forward_ns", "ns", Lower, "engine", "host_us_per_op", "host ns per Engine message (forwarding, snapshots)"),
    layer("rules.replication_ms", "ms", Lower, "rules", "client.write_p50_ms", "mean write time from propose to replication quorum"),
    layer("rules.msg_ns", "ns", Lower, "rules", "host_us_per_op, mainly on mencius_geo_writes", "host ns per Raft/Paxos/Mencius message at a replica"),
    layer("rules.timer_ns", "ns", Lower, "rules", "host_us_per_op, mainly on mencius_geo_writes", "host ns per replica timer"),
    layer("rules.wall_share", "frac", Lower, "rules", "host_us_per_op, mainly on mencius_geo_writes", "share of the measured wall time in replica protocol messages and timers"),
    layer("lease.local_read_share", "frac", Higher, "lease", "client.read_p50_ms on pql_geo_reads", "share of reads whose span tree has no propose"),
    layer("lease.msg_ns", "ns", Lower, "lease", "host_us_per_op", "host ns per Lease message at a replica"),
    layer("net.network_ms", "ms", Lower, "net", "all latencies", "mean time in flight per op, reads and writes"),
    layer("election.leader_changes", "count", Lower, "election", "client.failover_ms", "leadership moves seen polling every 10 virtual ms"),
    layer(
        "recovery.catchup_ops_per_s",
        "ops/s",
        Higher,
        "recovery",
        "client.failed_frac",
        "ops the restarted replica applies per virtual second from its restart until it reaches the leader's applied count at the restart, or the run ends",
    ),
    layer("recovery.lag_ops", "count", Lower, "recovery", "client.failed_frac", "ops the restarted replica still lacks of that target at the run end; 0 once caught up"),
    layer("harness.build_s", "s", Lower, "harness", "setup_s", "ClusterBuilder::build in the untraced run"),
    layer("harness.elect_s", "s", Lower, "harness", "setup_s", "Cluster::elect_leader in the untraced run"),
    layer("telemetry.assemble_s", "s", Lower, "telemetry", "none", "SpanAssembler::assemble"),
    layer("telemetry.trace_overhead", "frac", Lower, "telemetry", "none", "traced over untraced wall time of the measured call, minus 1"),
    layer("spec.port_s", "s", Lower, "spec", "setup_s on port_refine", "the port call"),
    layer("spec.explore_s", "s", Lower, "spec", "host_us_per_op on port_refine", "both explorations"),
    layer("spec.refine_s", "s", Lower, "spec", "host_us_per_op on port_refine", "the three refinement checks"),
    layer("spec.transitions", "count", Lower, "spec", "host_us_per_op on port_refine", "transitions over every check"),
    layer("spec.us_per_transition", "us", Lower, "spec", "host_us_per_op on port_refine", "refinement host time per refinement transition"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly these workloads and metrics, with
    /// the same units, directions and bounds.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let flat: String = json.split_whitespace().collect::<Vec<_>>().join(" ");
        let mut names = 0;
        for w in workloads() {
            assert!(
                flat.contains(&format!(
                    "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                    w.name, w.why
                )),
                "workload {}",
                w.name
            );
            names += 1;
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics have a bound");
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name,
                m.unit,
                m.better.name()
            );
            assert!(flat.contains(&entry), "{entry}");
            names += 1;
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.name()
            );
            assert!(flat.contains(&entry), "{entry}");
            names += 1;
        }
        assert_eq!(flat.matches("\"name\":").count(), names, "no extra entries");
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        all.extend(workloads().iter().map(|w| w.name));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
