//! The repository benchmark: the paper's workloads measured in virtual
//! time (the simulated cluster) and host time (the simulator itself),
//! with an outside-in layer trace. See `README.md` beside this crate for
//! the workloads, the metrics and how to run it.

pub mod catalogue;
pub mod derive;
pub mod sim_run;
pub mod spec_run;
pub mod timed;

use std::collections::BTreeMap;
use std::time::Instant;

use paxraft_core::telemetry::Stage;

use catalogue::{Kind, MetricDef, Workload, END_TO_END, PER_LAYER};
use derive::{host_us_per_op, median, VirtualMetrics};
use sim_run::{SimWorkload, TracedRun, UntracedRun};
use spec_run::SpecRun;
use timed::{Entry, Role};

/// Set-ups measured per run at least, for a steady `setup_s` median.
const MIN_SETUPS: usize = 7;

/// Host seconds of set-up measured per run at least: sub-millisecond
/// set-ups repeat until they add up to this.
const MIN_SETUP_S: f64 = 0.5;

/// Tops `samples` up with `more(i)` until there are [`MIN_SETUPS`] of
/// them adding up to [`MIN_SETUP_S`]; returns their median.
fn setup_median(mut samples: Vec<f64>, mut more: impl FnMut(u64) -> f64) -> f64 {
    while samples.len() < MIN_SETUPS || samples.iter().sum::<f64>() < MIN_SETUP_S {
        samples.push(more(samples.len() as u64));
    }
    median(&samples)
}

/// Metric values by name; every name must be in the catalogue.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        assert!(value.is_finite(), "{name} = {value}");
        self.0.insert(name, value);
    }

    /// The value of `name`; 0 when it does not apply to the workload.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Everything one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Operations attempted (ops issued, or checks run).
    pub attempted: u64,
    /// Operations that failed (ops unanswered at the end, or failed checks).
    pub failed: u64,
    /// The metric values.
    pub metrics: Metrics,
}

impl Outcome {
    fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The final JSON line: the given metrics, in catalogue order.
    pub fn json(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<String> = defs
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    self.metrics.get(m.name),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `f(0)`, `f(1)`, … while another run is expected to end within
/// `seconds` of the first one's start; always at least once.
fn repeat<T>(seconds: f64, mut f: impl FnMut(u64) -> T) -> Vec<T> {
    let t = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(f(out.len() as u64));
        let spent = t.elapsed().as_secs_f64();
        if spent + spent / out.len() as f64 > seconds {
            return out;
        }
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload: untraced end-to-end runs for `seconds` when
/// `trace` is false, otherwise one untraced and one traced run for the
/// per-layer figures.
pub fn run(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut o = Outcome::default();
    match &w.kind {
        Kind::Sim(s) => {
            o.lines
                .push(format!("workload {} seed={seed}: {}", w.name, s.describe()));
            if trace {
                sim_traced(s, seed, &mut o);
            } else {
                sim_end_to_end(s, seed, seconds, &mut o);
            }
        }
        Kind::Spec { budget } => {
            o.lines.push(format!(
                "workload {} (seed unused: the pipeline is deterministic), refinement budget {budget} states",
                w.name
            ));
            if trace {
                spec_traced(*budget, &mut o);
            } else {
                spec_end_to_end(*budget, seconds, &mut o);
            }
        }
    }
    if !trace {
        o.metrics.set("peak_rss_mb", peak_rss_mb());
    }
    o
}

fn list(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|v| format!("{v:.2}")).collect();
    format!("[{}]", v.join(", "))
}

fn fmt_pct(v: &VirtualMetrics) -> [String; 2] {
    [("write", v.writes), ("read", v.reads)].map(|(kind, p)| match p {
        Some(p) => format!(
            "{kind}_p50_ms = {:.3} ms, {kind}_p99_ms = {:.3} ms ({} samples)",
            p.p50_ms, p.p99_ms, p.samples
        ),
        None => format!("{kind}_p50_ms, {kind}_p99_ms = n/a (no {kind}s)"),
    })
}

fn virtual_lines(v: &VirtualMetrics, o: &mut Outcome) {
    o.lines.push(format!(
        "throughput_ops = {:.1} ops/s (virtual)",
        v.throughput_ops
    ));
    o.lines.extend(fmt_pct(v));
    o.lines.push(format!(
        "failed_frac = {:.5} ({} late + {} unanswered of {} issued)",
        v.failed_frac(),
        v.late,
        v.stuck,
        v.issued
    ));
    o.lines.push(match v.failover_ms {
        Some(ms) => format!("failover_ms = {ms:.3} ms"),
        None => "failover_ms = n/a".into(),
    });
}

/// The output checks every simulation run must pass.
fn sim_checks(s: &SimWorkload, runs: &[&VirtualMetrics], o: &mut Outcome) {
    let all = |f: fn(&VirtualMetrics) -> bool| runs.iter().all(|v| f(v));
    o.check(
        "every client completes an op in the window",
        all(|v| v.idle_clients == 0),
    );
    o.check(
        "no op is left unanswered for more than 1 s",
        all(|v| v.stuck == 0),
    );
    if s.fault.is_some() {
        o.check(
            "service resumes after the leader crash",
            all(|v| v.failover_ms.is_some()),
        );
    }
}

/// The seed of the `i`-th repetition: the run's seed first, then seeds
/// derived from it. Each repetition simulates a different schedule, so
/// the host-time median averages over the schedule's randomness (on the
/// failover workload, where the new leader lands) as well as over host
/// noise, while the virtual figures stay those of `seed` itself.
fn rep_seed(seed: u64, i: u64) -> u64 {
    seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn sim_end_to_end(s: &SimWorkload, seed: u64, seconds: f64, o: &mut Outcome) {
    let runs: Vec<UntracedRun> = repeat(seconds, |i| sim_run::untraced(s, rep_seed(seed, i)));
    let first = &runs[0];
    virtual_lines(&first.virt, o);
    sim_checks(s, &runs.iter().map(|r| &r.virt).collect::<Vec<_>>(), o);
    o.check(
        "RunReport throughput equals the derived throughput",
        runs.iter()
            .all(|r| r.report_throughput == r.virt.throughput_ops),
    );
    let setup_s = setup_median(runs.iter().map(|r| r.setup.total_s()).collect(), |i| {
        sim_run::setup_only(s, rep_seed(seed, i)).total_s()
    });
    let per_op: Vec<f64> = runs
        .iter()
        .map(|r| host_us_per_op((r.call_s * 1e9) as u128, r.ops_in_call))
        .collect();
    o.lines.push(format!(
        "{} measured runs: call {:.3} s median for {} ops and {} events; host_us_per_op per run {}",
        runs.len(),
        median(&runs.iter().map(|r| r.call_s).collect::<Vec<_>>()),
        first.ops_in_call,
        first.counts.events,
        list(&per_op)
    ));
    o.metrics.set("host_us_per_op", median(&per_op));
    o.metrics.set("setup_s", setup_s);
    o.attempted = runs.iter().map(|r| r.virt.issued).sum();
    o.failed = runs.iter().map(|r| r.virt.stuck).sum();
}

fn sim_traced(s: &SimWorkload, seed: u64, o: &mut Outcome) {
    let u = sim_run::untraced(s, seed);
    let t = sim_run::traced(s, seed);
    virtual_lines(&t.virt, o);
    sim_checks(s, &[&t.virt], o);
    o.check(
        "parity: the traced run reproduces the untraced virtual figures",
        t.virt == u.virt,
    );
    o.check(
        format!(
            "parity: the traced run reproduces the untraced event counts ({} events)",
            u.counts.events
        ),
        t.counts == u.counts,
    );
    o.check(
        "every traced op's stages sum to the latency its client saw",
        t.spans.unaccounted == 0,
    );
    let wall_ns = t.call_s * 1e9;
    let handler_ns = t.table.handler_ns() as f64;
    o.check(
        "handler time fits in the measured wall time",
        handler_ns <= wall_ns,
    );
    if s.fault.is_some() {
        o.check(
            "a new leader is elected after the crash",
            t.leader_changes >= 1,
        );
        let r = t
            .recovery
            .expect("fault workloads poll the restarted replica");
        o.check(
            "the restarted replica applies new ops after its restart",
            r.applied > r.applied_at_restart,
        );
        o.lines.push(format!(
            "recovery: {} {:.0} ms after the restart: applied {} -> {} of the leader's {} at the restart",
            if r.caught_up { "caught up" } else { "NOT caught up at the run end," },
            r.elapsed_ms,
            r.applied_at_restart,
            r.applied,
            r.target
        ));
    }
    let stages: Vec<String> = Stage::ALL
        .iter()
        .map(|s| format!("{} {:.3}", s.name(), t.spans.write_stage_ms[s.index()]))
        .collect();
    o.lines
        .push(format!("write stages, mean ms: {}", stages.join(", ")));
    layer_table(&t, o);
    let overhead = t.call_s / u.call_s - 1.0;
    o.lines.push(format!(
        "telemetry.trace_overhead = {:.1}% (traced {:.3} s vs untraced {:.3} s)",
        overhead * 100.0,
        t.call_s,
        u.call_s
    ));
    per_layer_sim(&t, &u, o);
    o.metrics.set("telemetry.trace_overhead", overhead);
    o.attempted = t.virt.issued;
    o.failed = t.virt.stuck;
}

/// Where the measured call's host time went, by actor role and entry,
/// plus the simulator's own share; the rows add up to the wall time.
fn layer_table(t: &TracedRun, o: &mut Outcome) {
    let wall_ns = t.call_s * 1e9;
    o.lines.push(format!(
        "{:<18} {:>10} {:>12} {:>10} {:>7}",
        "layer", "calls", "ns/call", "ms", "share"
    ));
    let mut row = |name: String, calls: u64, ns: f64| {
        let per = if calls == 0 { 0.0 } else { ns / calls as f64 };
        o.lines.push(format!(
            "{name:<18} {calls:>10} {per:>12.1} {:>10.1} {:>6.1}%",
            ns / 1e6,
            ns / wall_ns * 100.0
        ));
    };
    for (role, label) in [(Role::Replica, "replica"), (Role::Client, "client")] {
        for e in Entry::ALL {
            let c = t.table.cell(role, e);
            if c.calls > 0 {
                row(format!("{label}/{}", e.name()), c.calls, c.ns as f64);
            }
        }
    }
    let self_ns = wall_ns - t.table.handler_ns() as f64;
    row("sim (self)".into(), t.call_counts.events, self_ns);
    row("total".into(), t.call_counts.events, wall_ns);
}

fn per_layer_sim(t: &TracedRun, u: &UntracedRun, o: &mut Outcome) {
    let m = &mut o.metrics;
    let v = &t.virt;
    let ops = t.ops_in_call.max(1) as f64;
    let wall_ns = t.call_s * 1e9;
    let cell = |role, e| t.table.cell(role, e).ns_per_call();
    let rules = [Entry::Paxos, Entry::Raft, Entry::Mencius];
    let rules_and_timers = [Entry::Paxos, Entry::Raft, Entry::Mencius, Entry::Timer];

    m.set("client.throughput_ops", v.throughput_ops);
    if let Some(p) = v.writes {
        m.set("client.write_p50_ms", p.p50_ms);
        m.set("client.write_p99_ms", p.p99_ms);
    }
    if let Some(p) = v.reads {
        m.set("client.read_p50_ms", p.p50_ms);
        m.set("client.read_p99_ms", p.p99_ms);
    }
    m.set("client.failed_frac", v.failed_frac());
    m.set("client.failover_ms", v.failover_ms.unwrap_or(0.0));
    m.set("client.msg_ns", cell(Role::Client, Entry::Client));
    m.set("client.timer_ns", cell(Role::Client, Entry::Timer));
    m.set("client.retries", t.spans.retries as f64);

    m.set("sim.events_per_op", t.call_counts.events as f64 / ops);
    m.set("sim.msgs_per_op", t.call_counts.deliveries as f64 / ops);
    m.set(
        "sim.self_ns_per_event",
        (wall_ns - t.table.handler_ns() as f64) / t.call_counts.events.max(1) as f64,
    );
    m.set("sim.lost_msgs", t.call_counts.lost as f64);
    m.set("disk.fsyncs_per_op", t.disk_fsyncs as f64 / ops);

    let stage = |s: Stage| t.spans.write_stage_ms[s.index()];
    m.set("engine.queueing_ms", stage(Stage::Queueing));
    m.set("engine.batching_ms", stage(Stage::Batching));
    m.set(
        "engine.cmds_per_round",
        t.spans.proposals as f64 / t.batch_flushes.max(1) as f64,
    );
    m.set("engine.window_deferrals", t.window_deferrals as f64);
    m.set(
        "engine.fsync_batch_len",
        t.fsync_entries as f64 / t.fsyncs.max(1) as f64,
    );
    m.set("engine.intake_ns", cell(Role::Replica, Entry::Client));
    m.set("engine.forward_ns", cell(Role::Replica, Entry::Engine));

    m.set("rules.replication_ms", stage(Stage::Replication));
    m.set(
        "rules.msg_ns",
        t.table.sum(Role::Replica, &rules).ns_per_call(),
    );
    m.set("rules.timer_ns", cell(Role::Replica, Entry::Timer));
    m.set(
        "rules.wall_share",
        t.table.sum(Role::Replica, &rules_and_timers).ns as f64 / wall_ns,
    );

    m.set("lease.local_read_share", t.spans.local_read_share);
    m.set("lease.msg_ns", cell(Role::Replica, Entry::Lease));
    m.set("net.network_ms", t.spans.network_ms);
    m.set("election.leader_changes", t.leader_changes as f64);
    if let Some(r) = t.recovery {
        m.set("recovery.catchup_ops_per_s", r.ops_per_s());
        m.set("recovery.lag_ops", r.lag_ops() as f64);
    }
    m.set("harness.build_s", u.setup.build_s);
    m.set("harness.elect_s", u.setup.elect_s);
    m.set("telemetry.assemble_s", t.assemble_s);
}

fn spec_lines(r: &SpecRun, o: &mut Outcome) {
    for c in &r.checks {
        o.lines.push(format!(
            "{:<28} {:>7} states {:>8} transitions  {:<10} {:.3} s",
            c.name, c.states, c.transitions, c.verdict, c.secs
        ));
    }
}

fn spec_checks(r: &SpecRun, budget: usize, o: &mut Outcome) {
    let failures = r.failures(budget);
    for f in &failures {
        o.lines.push(format!("FAILED {f}"));
    }
    o.check(
        "every verdict passes and every pinned size holds",
        failures.is_empty(),
    );
    o.attempted += r.checks.len() as u64 + 1;
    o.failed += r.checks.iter().filter(|c| !c.ok).count() as u64;
}

fn check_s(r: &SpecRun) -> f64 {
    r.secs(false) + r.secs(true)
}

fn spec_end_to_end(budget: usize, seconds: f64, o: &mut Outcome) {
    let runs: Vec<SpecRun> = repeat(seconds, |_| spec_run::port_refine(budget));
    spec_lines(&runs[0], o);
    for r in &runs {
        spec_checks(r, budget, o);
    }
    let per_transition: Vec<f64> = runs
        .iter()
        .map(|r| {
            let transitions = (r.transitions(false) + r.transitions(true)) as u64;
            host_us_per_op((check_s(r) * 1e9) as u128, transitions)
        })
        .collect();
    let setup_s = setup_median(runs.iter().map(|r| r.setup_s).collect(), |_| {
        spec_run::setup_only()
    });
    o.lines.push(format!(
        "{} measured runs: check_s {:.3} s median; host_us_per_op per run {}",
        runs.len(),
        median(&runs.iter().map(check_s).collect::<Vec<_>>()),
        list(&per_transition)
    ));
    o.metrics.set("host_us_per_op", median(&per_transition));
    o.metrics.set("setup_s", setup_s);
}

fn spec_traced(budget: usize, o: &mut Outcome) {
    let r = spec_run::port_refine(budget);
    spec_lines(&r, o);
    spec_checks(&r, budget, o);
    let refine_transitions = r.transitions(true);
    let m = &mut o.metrics;
    m.set("spec.port_s", r.port_s);
    m.set("spec.explore_s", r.secs(false));
    m.set("spec.refine_s", r.secs(true));
    m.set(
        "spec.transitions",
        (r.transitions(false) + refine_transitions) as f64,
    );
    m.set(
        "spec.us_per_transition",
        r.secs(true) * 1e6 / refine_transitions.max(1) as f64,
    );
    o.lines.push(format!(
        "check_s = {:.3} s (explore {:.3} s, refine {:.3} s), port {:.6} s, set-up {:.6} s",
        check_s(&r),
        r.secs(false),
        r.secs(true),
        r.port_s,
        r.setup_s
    ));
}
