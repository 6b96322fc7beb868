//! The `port_refine` workload: the paper's Section 4 pipeline on the
//! spec layer. Model-check MultiPaxos and Raft*, check Raft* ⇒ MultiPaxos,
//! port Paxos Quorum Lease onto Raft*, and check that the ported spec
//! refines both PQL and Raft*.

use std::time::Instant;

use paxraft_spec::check::{explore, Invariant, Limits, Verdict};
use paxraft_spec::port::{extended_map, port, projection_map};
use paxraft_spec::refine::check_refinement;
use paxraft_spec::refine::StateMap;
use paxraft_spec::spec::Spec;
use paxraft_spec::specs::multipaxos::{self, MpConfig};
use paxraft_spec::specs::{pql, raftstar};

/// State budget of the two refinement checks on the ported spec.
pub const REFINE_BUDGET: usize = 2_500;

/// Pinned state counts of the two exhaustive explorations; a change to
/// the specs or the checker that moves them fails the benchmark.
pub const PINNED_STATES: [(&str, usize); 2] =
    [("explore MultiPaxos", 448), ("explore Raft*", 1_028)];

/// Pinned states and transitions of each full-budget refinement of the
/// ported spec.
pub const PINNED_REFINE: (usize, usize) = (2_500, 31_281);

/// One check of the pipeline.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// What was checked.
    pub name: &'static str,
    /// States explored.
    pub states: usize,
    /// Transitions taken.
    pub transitions: usize,
    /// The verdict: `Exhausted`, `OK` (budget reached, no violation) or a failure.
    pub verdict: String,
    /// Whether the verdict is a pass.
    pub ok: bool,
    /// Host seconds.
    pub secs: f64,
}

/// One pass over the pipeline.
#[derive(Debug, Clone)]
pub struct SpecRun {
    /// Spec construction plus the port (s).
    pub setup_s: f64,
    /// The `port` call alone (s).
    pub port_s: f64,
    /// Every check, in order.
    pub checks: Vec<CheckOutcome>,
}

impl SpecRun {
    /// Host seconds of the checks with the given kind.
    pub fn secs(&self, refinement: bool) -> f64 {
        self.of_kind(refinement).map(|c| c.secs).sum()
    }

    /// Transitions of the checks with the given kind.
    pub fn transitions(&self, refinement: bool) -> usize {
        self.of_kind(refinement).map(|c| c.transitions).sum()
    }

    fn of_kind(&self, refinement: bool) -> impl Iterator<Item = &CheckOutcome> {
        self.checks
            .iter()
            .filter(move |c| c.name.starts_with("refine") == refinement)
    }

    /// Every check passed, and at the full budget every size matches
    /// the pinned one.
    pub fn failures(&self, budget: usize) -> Vec<String> {
        let mut out: Vec<String> = self
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| format!("{}: {}", c.name, c.verdict))
            .collect();
        let sizes = |name: &str| self.checks.iter().find(|c| c.name == name);
        for (name, states) in PINNED_STATES {
            match sizes(name) {
                Some(c) if c.states == states => {}
                other => out.push(format!(
                    "{name}: {:?} states, pinned {states}",
                    other.map(|c| c.states)
                )),
            }
        }
        if budget == REFINE_BUDGET {
            for c in self
                .checks
                .iter()
                .filter(|c| c.name.starts_with("refine ported"))
            {
                if (c.states, c.transitions) != PINNED_REFINE {
                    out.push(format!(
                        "{}: {} states / {} transitions, pinned {:?}",
                        c.name, c.states, c.transitions, PINNED_REFINE
                    ));
                }
            }
        }
        out
    }
}

/// The specs and maps the checks run on. The mapping is checked on the
/// three-ballot model (Figure 3's default); the port and its refinements
/// run on two ballots, which keeps the product state space checkable.
struct Prepared {
    model: MpConfig,
    mp: Spec,
    rs: Spec,
    small_rs: Spec,
    rql: Spec,
    pql: Spec,
    ext: StateMap,
    port_s: f64,
}

fn prepare() -> Prepared {
    let model = MpConfig::default();
    let small = MpConfig {
        max_ballot: 2,
        ..MpConfig::default()
    };
    let small_mp = multipaxos::spec(&small);
    let small_rs = raftstar::spec(&small);
    let delta = pql::delta(&small);
    let map = pql::raftstar_port_map(&small);
    let t = Instant::now();
    let rql = port(&small_mp, &delta, &small_rs, &map).expect("PQL ports onto Raft*");
    let port_s = t.elapsed().as_secs_f64();
    Prepared {
        mp: multipaxos::spec(&model),
        rs: raftstar::spec(&model),
        pql: delta.apply_to(&small_mp),
        ext: extended_map(&small_mp, &small_rs, &delta, &map.state_map),
        model,
        small_rs,
        rql,
        port_s,
    }
}

/// Spec construction plus the port alone (extra set-up samples).
pub fn setup_only() -> f64 {
    let t = Instant::now();
    drop(prepare());
    t.elapsed().as_secs_f64()
}

fn timed(name: &'static str, f: impl FnOnce() -> (usize, usize, String, bool)) -> CheckOutcome {
    let t = Instant::now();
    let (states, transitions, verdict, ok) = f();
    CheckOutcome {
        name,
        states,
        transitions,
        verdict,
        ok,
        secs: t.elapsed().as_secs_f64(),
    }
}

fn explored(spec: &Spec, invariants: &[Invariant]) -> (usize, usize, String, bool) {
    let r = explore(spec, invariants, Limits::default());
    let ok = r.verdict == Verdict::Exhausted;
    let verdict = match &r.verdict {
        Verdict::Violated { invariant, .. } => format!("violated {invariant}"),
        v => format!("{v:?}"),
    };
    (r.states, r.transitions, verdict, ok)
}

fn refined(b: &Spec, a: &Spec, map: &StateMap, limits: Limits) -> (usize, usize, String, bool) {
    match check_refinement(b, a, map, limits) {
        Ok(r) => {
            let verdict = if r.exhausted { "Exhausted" } else { "OK" };
            (r.b_states, r.b_transitions, verdict.into(), true)
        }
        Err(e) => (0, 0, e.to_string(), false),
    }
}

/// Runs the pipeline; the two refinements of the ported spec explore up
/// to `budget` states.
pub fn port_refine(budget: usize) -> SpecRun {
    let t = Instant::now();
    let p = prepare();
    let setup_s = t.elapsed().as_secs_f64();
    let limits = Limits::states(budget);
    let checks = vec![
        timed("explore MultiPaxos", || {
            explored(
                &p.mp,
                &[Invariant::new(
                    "Agreement",
                    multipaxos::agreement_invariant(&p.model),
                )],
            )
        }),
        timed("explore Raft*", || {
            explored(
                &p.rs,
                &[
                    Invariant::new("CommitSafety", raftstar::commit_safety_invariant(&p.model)),
                    Invariant::new("LogMatching", raftstar::log_matching_invariant(&p.model)),
                ],
            )
        }),
        timed("refine Raft* => MultiPaxos", || {
            refined(&p.rs, &p.mp, &raftstar::refinement_map(), Limits::default())
        }),
        timed("refine ported => PQL", || {
            refined(&p.rql, &p.pql, &p.ext, limits)
        }),
        timed("refine ported => Raft*", || {
            refined(&p.rql, &p.small_rs, &projection_map(&p.small_rs), limits)
        }),
    ];
    SpecRun {
        setup_s,
        port_s: p.port_s,
        checks,
    }
}
