//! The simulation workloads, run two ways.
//!
//! - [`untraced`] goes through the public harness (`ClusterBuilder::build`,
//!   `Cluster::elect_leader`, `Cluster::run_measurement`) and gives the
//!   end-to-end figures.
//! - [`traced`] builds the same cluster from public parts, wraps every
//!   actor in [`Timed`], turns on the span log, and polls replica state
//!   between `run_until` chunks. It gives the per-layer figures, and must
//!   reproduce the untraced run's virtual figures and event count exactly
//!   (the parity guard), which keeps the outside-built cluster from
//!   drifting away from the harness.

use std::collections::HashSet;
use std::time::Instant;

use paxraft_core::client::{Completion, WorkloadClient};
use paxraft_core::config::{DurabilityConfig, ReadMode, ReplicaConfig};
use paxraft_core::engine::{ProtocolRules, ReplicaEngine};
use paxraft_core::harness::{Cluster, ProtocolKind};
use paxraft_core::mencius::MenciusReplica;
use paxraft_core::msg::Msg;
use paxraft_core::multipaxos::MultiPaxosReplica;
use paxraft_core::raft::RaftReplica;
use paxraft_core::raftstar::RaftStarReplica;
use paxraft_core::telemetry::{SpanAssembler, Stage};
use paxraft_core::types::NodeId;
use paxraft_sim::net::{NetConfig, Region};
use paxraft_sim::rng::SimRng;
use paxraft_sim::sim::{Actor, ActorId, Simulation};
use paxraft_sim::time::{SimDuration, SimTime};
use paxraft_sim::trace::SpanKind;
use paxraft_workload::generator::{Generator, OpKind, WorkloadConfig};

use crate::derive::{RunWindow, VirtualMetrics};
use crate::timed::{LayerTable, Role, SharedTable, Timed};

/// A crash of the configured leader inside the measured window.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// Crash this long after the measurement window opens.
    pub crash_after: SimDuration,
    /// Restart this long after the crash.
    pub down_for: SimDuration,
}

/// One simulation workload: 5-region paper WAN, one replica per region,
/// leader bootstrapped at Oregon, closed-loop clients in every region.
#[derive(Debug, Clone)]
pub struct SimWorkload {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Share of reads.
    pub read_fraction: f64,
    /// Share of ops on the shared hot key.
    pub conflict_rate: f64,
    /// Closed-loop clients per region.
    pub clients_per_region: usize,
    /// Disk model and fsync policy.
    pub durability: DurabilityConfig,
    /// Leader crash and restart, if any.
    pub fault: Option<Fault>,
    /// Warm-up (excluded from the figures).
    pub warmup: SimDuration,
    /// Measurement window.
    pub measure: SimDuration,
    /// Cool-down (excluded).
    pub cooldown: SimDuration,
}

impl SimWorkload {
    fn workload(&self) -> WorkloadConfig {
        WorkloadConfig {
            read_fraction: self.read_fraction,
            conflict_rate: self.conflict_rate,
            ..WorkloadConfig::default()
        }
    }

    /// One line describing the configuration.
    pub fn describe(&self) -> String {
        format!(
            "{} reads={:.0}% conflict={:.0}% clients/region={} durability={} fault={} windows={}+{}+{}s",
            self.protocol.name(),
            self.read_fraction * 100.0,
            self.conflict_rate * 100.0,
            self.clients_per_region,
            match &self.durability.policy {
                Some(p) => format!("{p:?} fsync={}ms", self.durability.fsync_latency.as_millis_f64()),
                None => "off".into(),
            },
            match self.fault {
                Some(f) => format!(
                    "crash leader at +{}s, restart {}s later",
                    f.crash_after.as_secs_f64(),
                    f.down_for.as_secs_f64()
                ),
                None => "none".into(),
            },
            self.warmup.as_secs_f64(),
            self.measure.as_secs_f64(),
            self.cooldown.as_secs_f64(),
        )
    }
}

/// Host time of one set-up: cluster construction and leader election.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// `ClusterBuilder::build` (s).
    pub build_s: f64,
    /// `Cluster::elect_leader` (s).
    pub elect_s: f64,
}

impl Setup {
    /// Build plus election (s).
    pub fn total_s(&self) -> f64 {
        self.build_s + self.elect_s
    }
}

/// The simulator's event counters at the end of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    /// Events popped.
    pub events: u64,
    /// Messages handed to handlers.
    pub deliveries: u64,
    /// Timer fires handed to handlers.
    pub timer_fires: u64,
    /// Messages lost to faults.
    pub lost: u64,
}

impl SimCounts {
    fn of(sim: &Simulation<Msg>) -> SimCounts {
        SimCounts {
            events: sim.stats.events,
            deliveries: sim.stats.deliveries,
            timer_fires: sim.stats.timer_fires,
            lost: sim.stats.lost,
        }
    }

    fn minus(self, before: SimCounts) -> SimCounts {
        SimCounts {
            events: self.events - before.events,
            deliveries: self.deliveries - before.deliveries,
            timer_fires: self.timer_fires - before.timer_fires,
            lost: self.lost - before.lost,
        }
    }
}

/// Where the measured call's windows lie, from its start instant.
fn window(w: &SimWorkload, t0: SimTime) -> RunWindow {
    let start = t0 + w.warmup;
    let end = start + w.measure;
    RunWindow {
        start_ns: start.as_nanos(),
        end_ns: end.as_nanos(),
        run_end_ns: (end + w.cooldown).as_nanos(),
        crash_ns: w.fault.map(|f| (start + f.crash_after).as_nanos()),
    }
}

/// Schedules the workload's fault (if any) on replica 0, the leader.
fn schedule_fault(w: &SimWorkload, sim: &mut Simulation<Msg>, leader: ActorId, win: RunWindow) {
    if let (Some(f), Some(crash)) = (w.fault, win.crash_ns) {
        let crash = SimTime::from_nanos(crash);
        sim.crash_at(leader, crash);
        sim.restart_at(leader, crash + f.down_for);
    }
}

fn completions<'a>(sim: &'a Simulation<Msg>, clients: &[ActorId]) -> Vec<&'a [Completion]> {
    clients
        .iter()
        .map(|&c| sim.actor::<WorkloadClient>(c).completions.as_slice())
        .collect()
}

fn completed_since(lists: &[&[Completion]], t0: SimTime) -> u64 {
    lists
        .iter()
        .map(|l| l.iter().filter(|c| c.at_ns >= t0.as_nanos()).count() as u64)
        .sum()
}

/// One untraced run through the public harness.
#[derive(Debug, Clone)]
pub struct UntracedRun {
    /// Set-up host time.
    pub setup: Setup,
    /// Host seconds inside `run_measurement`.
    pub call_s: f64,
    /// Ops completed during that call.
    pub ops_in_call: u64,
    /// The virtual figures.
    pub virt: VirtualMetrics,
    /// Event counters at the end of the run.
    pub counts: SimCounts,
    /// `RunReport::throughput_ops`, for the derivation cross-check.
    pub report_throughput: f64,
}

fn harness_setup(w: &SimWorkload, seed: u64) -> (Cluster, Setup) {
    let t = Instant::now();
    let mut cluster = Cluster::builder(w.protocol)
        .clients_per_region(w.clients_per_region)
        .workload(w.workload())
        .durability_config(w.durability.clone())
        .seed(seed)
        .build();
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    cluster.elect_leader();
    let elect_s = t.elapsed().as_secs_f64();
    (cluster, Setup { build_s, elect_s })
}

/// Set-up alone (extra set-up samples when few full runs fit).
pub fn setup_only(w: &SimWorkload, seed: u64) -> Setup {
    harness_setup(w, seed).1
}

/// Builds, elects and measures through the public harness.
pub fn untraced(w: &SimWorkload, seed: u64) -> UntracedRun {
    let (mut cluster, setup) = harness_setup(w, seed);
    let t0 = cluster.sim.now();
    let win = window(w, t0);
    let leader = cluster.replicas()[0];
    schedule_fault(w, &mut cluster.sim, leader, win);
    let t = Instant::now();
    let report = cluster.run_measurement(w.warmup, w.measure, w.cooldown);
    let call_s = t.elapsed().as_secs_f64();
    let lists = completions(&cluster.sim, cluster.clients());
    UntracedRun {
        setup,
        call_s,
        ops_in_call: completed_since(&lists, t0),
        virt: VirtualMetrics::derive(&lists, win),
        counts: SimCounts::of(&cluster.sim),
        report_throughput: report.throughput_ops,
    }
}

/// The replica state the traced run polls and sums.
#[derive(Debug, Clone, Copy, Default)]
struct ReplicaProbe {
    leader: bool,
    applied_ops: u64,
    batch_flushes: u64,
    window_deferrals: u64,
    fsyncs: u64,
    fsync_entries: u64,
}

fn probe(sim: &Simulation<Msg>, protocol: ProtocolKind, id: ActorId) -> ReplicaProbe {
    fn of<P: ProtocolRules>(r: &ReplicaEngine<P>) -> ReplicaProbe {
        let dur = r.durability_stats();
        ReplicaProbe {
            leader: r.is_leader(),
            applied_ops: r.kv().applied_ops(),
            batch_flushes: r.batching_stats().1,
            window_deferrals: r.pipeline_stats().window_deferrals,
            fsyncs: dur.fsyncs,
            fsync_entries: dur.fsync_entries,
        }
    }
    match protocol {
        ProtocolKind::MultiPaxos => of(sim.actor::<MultiPaxosReplica>(id)),
        ProtocolKind::Raft => of(sim.actor::<RaftReplica>(id)),
        ProtocolKind::RaftStar | ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease => {
            of(sim.actor::<RaftStarReplica>(id))
        }
        ProtocolKind::RaftStarMencius => of(sim.actor::<MenciusReplica>(id)),
    }
}

fn probe_sum(sim: &Simulation<Msg>, protocol: ProtocolKind, replicas: &[ActorId]) -> ReplicaProbe {
    replicas.iter().fold(ReplicaProbe::default(), |acc, &r| {
        let p = probe(sim, protocol, r);
        ReplicaProbe {
            leader: acc.leader || p.leader,
            applied_ops: acc.applied_ops + p.applied_ops,
            batch_flushes: acc.batch_flushes + p.batch_flushes,
            window_deferrals: acc.window_deferrals + p.window_deferrals,
            fsyncs: acc.fsyncs + p.fsyncs,
            fsync_entries: acc.fsync_entries + p.fsync_entries,
        }
    })
}

/// The live replica that claims leadership (lowest id first).
fn current_leader(
    sim: &Simulation<Msg>,
    protocol: ProtocolKind,
    replicas: &[ActorId],
) -> Option<ActorId> {
    replicas
        .iter()
        .copied()
        .find(|&r| !sim.is_crashed(r) && probe(sim, protocol, r).leader)
}

fn timed_replica(
    protocol: ProtocolKind,
    cfg: ReplicaConfig,
    table: &SharedTable,
) -> Box<dyn Actor<Msg>> {
    let role = Role::Replica;
    match protocol {
        ProtocolKind::MultiPaxos => Box::new(Timed::new(MultiPaxosReplica::new(cfg), role, table)),
        ProtocolKind::Raft => Box::new(Timed::new(RaftReplica::new(cfg), role, table)),
        ProtocolKind::RaftStar | ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease => {
            Box::new(Timed::new(RaftStarReplica::new(cfg), role, table))
        }
        ProtocolKind::RaftStarMencius => {
            Box::new(Timed::new(MenciusReplica::new(cfg), role, table))
        }
    }
}

/// The cluster `ClusterBuilder::build` makes for this workload, built
/// from public parts with every actor timed.
fn build_timed(
    w: &SimWorkload,
    seed: u64,
    table: &SharedTable,
) -> (Simulation<Msg>, Vec<ActorId>, Vec<ActorId>) {
    let mut sim = Simulation::new(NetConfig::default(), seed);
    sim.enable_spans();
    let disk = w.durability.disk_config();
    if !disk.is_zero_cost() {
        sim.set_disk_config(disk);
    }
    let n = Region::ALL.len();
    let peers: Vec<ActorId> = (0..n).map(ActorId).collect();
    let mut replicas = Vec::new();
    for (i, &region) in Region::ALL.iter().enumerate() {
        let mut cfg = ReplicaConfig::wan_default(NodeId(i as u32), n);
        cfg.peers = peers.clone();
        cfg.durability = w.durability.clone();
        cfg.initial_leader = Some(NodeId(0));
        cfg.read_mode = match w.protocol {
            ProtocolKind::RaftStarPql => ReadMode::QuorumLease,
            ProtocolKind::LeaderLease => ReadMode::LeaderLease,
            _ => ReadMode::LogRead,
        };
        replicas.push(sim.add_actor(region, timed_replica(w.protocol, cfg, table)));
    }
    // The harness seeds its client generators from this stream; the
    // parity guard fails if the two ever disagree.
    let mut rng = SimRng::new(seed ^ 0xC11E57);
    let mut workload = w.workload();
    workload.partitions = n;
    let mut clients = Vec::new();
    for (ri, &region) in Region::ALL.iter().enumerate() {
        for _ in 0..w.clients_per_region {
            let cid = clients.len() as u32;
            let gen = Generator::new(workload.clone(), ri, rng.fork(cid as u64));
            let client = WorkloadClient::new(cid, replicas[ri], gen);
            clients.push(sim.add_actor(region, Box::new(Timed::new(client, Role::Client, table))));
        }
    }
    (sim, replicas, clients)
}

/// `Cluster::elect_leader`, on the outside-built cluster.
fn elect(sim: &mut Simulation<Msg>, protocol: ProtocolKind, replicas: &[ActorId]) {
    let has_leader = |sim: &Simulation<Msg>| {
        protocol == ProtocolKind::RaftStarMencius || probe_sum(sim, protocol, replicas).leader
    };
    let deadline = sim.now() + SimDuration::from_secs(30);
    while !has_leader(sim) && sim.now() < deadline {
        sim.run_for(SimDuration::from_millis(50));
    }
    assert!(has_leader(sim), "no leader elected within 30s");
    if matches!(
        protocol,
        ProtocolKind::RaftStarPql | ProtocolKind::LeaderLease
    ) {
        sim.run_for(SimDuration::from_millis(700));
    }
}

/// Span-derived figures of the commands completed in the window.
#[derive(Debug, Clone, Default)]
pub struct SpanFigures {
    /// Mean stage time per write (ms), indexed by [`Stage::index`].
    pub write_stage_ms: [f64; Stage::COUNT],
    /// Mean network time per op (ms), reads and writes together.
    pub network_ms: f64,
    /// Share of reads whose span tree has no `Propose`.
    pub local_read_share: f64,
    /// Timeout-driven client re-sends.
    pub retries: u64,
    /// Ops completed in the window without a breakdown whose stages
    /// sum to the latency the client saw.
    pub unaccounted: u64,
    /// `Propose` span events during the measured call.
    pub proposals: u64,
}

/// One traced run's measurements.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Host seconds in the measured call (handlers plus simulator).
    pub call_s: f64,
    /// Ops completed during the call.
    pub ops_in_call: u64,
    /// The virtual figures (must equal the untraced run's).
    pub virt: VirtualMetrics,
    /// Event counters at the end of the run (must equal the untraced run's).
    pub counts: SimCounts,
    /// Event counters of the measured call alone.
    pub call_counts: SimCounts,
    /// Handler host time of the measured call.
    pub table: LayerTable,
    /// Span-derived figures.
    pub spans: SpanFigures,
    /// Host seconds in `SpanAssembler::assemble`.
    pub assemble_s: f64,
    /// Leadership moves seen by polling.
    pub leader_changes: u64,
    /// How the restarted replica caught up (fault workloads only).
    pub recovery: Option<Recovery>,
    /// Replica counters summed, accrued during the call.
    pub batch_flushes: u64,
    /// Cutter deferrals for a full window, accrued during the call.
    pub window_deferrals: u64,
    /// Fsyncs issued by replicas during the call.
    pub fsyncs: u64,
    /// Log entries those fsyncs covered.
    pub fsync_entries: u64,
    /// Disk fsyncs the simulator completed during the call.
    pub disk_fsyncs: u64,
}

/// The restarted replica's catch-up, polled every [`POLL`] from its
/// restart until it reaches `target` or the run ends.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// Its applied-op count at the restart instant.
    pub applied_at_restart: u64,
    /// The leader's applied-op count at the restart instant.
    pub target: u64,
    /// Its applied-op count at the last poll.
    pub applied: u64,
    /// Restart to the last poll (virtual ms).
    pub elapsed_ms: f64,
    /// Whether it reached `target`; polling stops there.
    pub caught_up: bool,
}

impl Recovery {
    /// Ops still missing of `target` (0 once caught up).
    pub fn lag_ops(&self) -> u64 {
        self.target.saturating_sub(self.applied)
    }

    /// Ops applied per virtual second while catching up.
    pub fn ops_per_s(&self) -> f64 {
        (self.applied - self.applied_at_restart) as f64 / (self.elapsed_ms / 1e3).max(1e-9)
    }
}

/// Virtual polling period of the traced run.
const POLL: SimDuration = SimDuration::from_millis(10);

/// Builds the cluster from parts with every actor timed, then elects
/// and measures like the harness, polling replica state every [`POLL`].
pub fn traced(w: &SimWorkload, seed: u64) -> TracedRun {
    let table = SharedTable::default();
    let (mut sim, replicas, clients) = build_timed(w, seed, &table);
    elect(&mut sim, w.protocol, &replicas);
    let t0 = sim.now();
    let win = window(w, t0);
    schedule_fault(w, &mut sim, replicas[0], win);
    let restart_ns = w
        .fault
        .zip(win.crash_ns)
        .map(|(f, crash)| crash + f.down_for.as_nanos());

    let before = probe_sum(&sim, w.protocol, &replicas);
    let before_counts = SimCounts::of(&sim);
    let disk_fsyncs = |sim: &Simulation<Msg>| -> u64 {
        replicas.iter().map(|&r| sim.disk_stats_at(r).fsyncs).sum()
    };
    let before_disk = disk_fsyncs(&sim);
    let mut leader = current_leader(&sim, w.protocol, &replicas);
    let mut leader_changes = 0;
    let mut recovery: Option<Recovery> = None;
    let applied = |sim: &Simulation<Msg>, r| probe(sim, w.protocol, r).applied_ops;
    *table.borrow_mut() = LayerTable::default();
    let t = Instant::now();
    let end = SimTime::from_nanos(win.run_end_ns);
    while sim.now() < end {
        let next = (sim.now() + POLL).min(end);
        sim.run_until(next);
        let now = sim.now().as_nanos();
        let l = current_leader(&sim, w.protocol, &replicas);
        if l.is_some() && l != leader {
            if leader.is_some() {
                leader_changes += 1;
            }
            leader = l;
        }
        let Some(restart) = restart_ns.filter(|&r| now >= r) else {
            continue;
        };
        let r = recovery.get_or_insert_with(|| Recovery {
            applied_at_restart: applied(&sim, replicas[0]),
            target: leader.map_or(0, |l| applied(&sim, l)),
            applied: 0,
            elapsed_ms: 0.0,
            caught_up: false,
        });
        if !r.caught_up {
            r.applied = applied(&sim, replicas[0]);
            r.elapsed_ms = (now - restart) as f64 / 1e6;
            r.caught_up = r.applied >= r.target;
        }
    }
    let call_s = t.elapsed().as_secs_f64();
    let after = probe_sum(&sim, w.protocol, &replicas);

    let table = table.borrow().clone();
    let lists = completions(&sim, &clients);
    let virt = VirtualMetrics::derive(&lists, win);
    let t = Instant::now();
    let report = SpanAssembler::assemble(sim.trace().spans());
    let assemble_s = t.elapsed().as_secs_f64();
    let spans = span_figures(&sim, &report.commands, &lists, win, t0);

    TracedRun {
        call_s,
        ops_in_call: completed_since(&lists, t0),
        virt,
        counts: SimCounts::of(&sim),
        call_counts: SimCounts::of(&sim).minus(before_counts),
        table,
        spans,
        assemble_s,
        leader_changes,
        recovery,
        batch_flushes: after.batch_flushes - before.batch_flushes,
        window_deferrals: after.window_deferrals - before.window_deferrals,
        fsyncs: after.fsyncs - before.fsyncs,
        fsync_entries: after.fsync_entries - before.fsync_entries,
        disk_fsyncs: disk_fsyncs(&sim) - before_disk,
    }
}

fn span_figures(
    sim: &Simulation<Msg>,
    commands: &[paxraft_core::telemetry::CommandBreakdown],
    lists: &[&[Completion]],
    win: RunWindow,
    t0: SimTime,
) -> SpanFigures {
    let spans = sim.trace().spans();
    let proposed: HashSet<(u32, u64)> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::Propose)
        .map(|s| (s.client, s.seq))
        .collect();
    let mut f = SpanFigures {
        proposals: spans
            .iter()
            .filter(|s| s.kind == SpanKind::Propose && s.at >= t0)
            .count() as u64,
        ..SpanFigures::default()
    };
    let in_window = |ns: u64| (win.start_ns..win.end_ns).contains(&ns);
    let (mut writes, mut reads, mut local_reads) = (0u64, 0u64, 0u64);
    let mut write_ns = [0u128; Stage::COUNT];
    let mut network_ns = 0u128;
    for b in commands {
        let done = b.done_at.as_nanos();
        if !in_window(done) {
            continue;
        }
        // A closed-loop client's n-th completion is its command seq n.
        let seen = lists
            .get(b.client as usize)
            .and_then(|l| l.get((b.seq as usize).wrapping_sub(1)));
        let stage_sum: u64 = b.stages.iter().map(|d| d.as_nanos()).sum();
        let Some(c) = seen.filter(|c| {
            c.at_ns == done && c.latency_ns == b.total().as_nanos() && stage_sum == c.latency_ns
        }) else {
            continue;
        };
        f.retries += u64::from(b.retries);
        network_ns += u128::from(b.stage(Stage::Network).as_nanos());
        match c.kind {
            OpKind::Write => {
                writes += 1;
                for s in Stage::ALL {
                    write_ns[s.index()] += u128::from(b.stage(s).as_nanos());
                }
            }
            OpKind::Read => {
                reads += 1;
                if !proposed.contains(&(b.client, b.seq)) {
                    local_reads += 1;
                }
            }
        }
    }
    let window_ops = lists
        .iter()
        .flat_map(|l| l.iter())
        .filter(|c| in_window(c.at_ns));
    f.unaccounted = window_ops.count() as u64 - (writes + reads);
    for s in Stage::ALL {
        f.write_stage_ms[s.index()] = write_ns[s.index()] as f64 / 1e6 / writes.max(1) as f64;
    }
    f.network_ms = network_ns as f64 / 1e6 / (writes + reads).max(1) as f64;
    f.local_read_share = local_reads as f64 / reads.max(1) as f64;
    f
}
