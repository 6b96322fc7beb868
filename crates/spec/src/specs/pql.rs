//! Paxos Quorum Lease as a non-mutating delta over MultiPaxos
//! (Appendix B.3), and its mechanical port to Raft* (Appendix B.4's
//! `RQL`, here *generated* by [`crate::port::port`]).
//!
//! ∆ state:
//!
//! - `leases[g][h]` — whether grantor `g` currently leases to holder
//!   `h`. The TLA+ appendix models lease lifetime with a global `timer`;
//!   we model expiry more adversarially as a nondeterministic `Expire`
//!   action (any lease may vanish at any moment), which both shrinks the
//!   bounded state space and strengthens the checked safety property.
//! - `applied[a]` — the contiguous applied prefix (the appendix's
//!   `applyIndex`).
//! - `lastread[a]` — version observed by the last local read (gives the
//!   added `ReadAtLocal` an observable effect).
//!
//! Added subactions: `Grant`, `Expire`, `Apply` (the appendix's `Apply`
//! with `CanCommitAt`'s holder check), `ReadAtLocal`. Modified
//! subaction: `Propose` gains the appendix's gate (`v` is read-typed or
//! the proposer holds no active lease). All of it is mechanically
//! non-mutating — `check_non_mutating` proves it, which is what makes
//! the automatic port legal.
//!
//! The key safety property ([`lease_inv`], the appendix's `LeaseInv`):
//! any instance that is *executable* under the current lease
//! configuration is known (voted for) by **every** replica holding an
//! active quorum lease — the quorum-intersection argument of
//! Section A.1.

use crate::expr::{
    and, app, app2, contains, eq, exists, forall, fun_set, implies, int, le, local, not, or, param,
    tuple, var, Expr,
};
use crate::port::{ModifiedAction, OptDelta, PortMap};
use crate::refine::StateMap;
use crate::spec::{ActionSchema, Domain};
use crate::specs::multipaxos::{self, MpConfig};
use crate::value::Value;

/// ∆-variable offsets (relative to the base spec's variable count).
pub const D_LEASES: usize = 0;
/// `applied` offset.
pub const D_APPLIED: usize = 1;
/// `lastread` offset.
pub const D_LASTREAD: usize = 2;

/// The value id treated as a read-type operation (the appendix's
/// `v.type = "read"`); include it in [`MpConfig::values`] when using the
/// `Propose` gate.
pub const READ_VALUE: i64 = 2;

/// `LeaseIsActive(h)` over given variable indices: some quorum of
/// grantors currently leases to `h`.
fn lease_active(cfg: &MpConfig, leases_var: usize, h: Expr) -> Expr {
    exists(
        "LQ",
        Expr::Const(cfg.quorums()),
        forall("g", local("LQ"), app2(var(leases_var), local("g"), h)),
    )
}

/// Builds the PQL delta for MultiPaxos with the given bounds. `n_a` is
/// the base spec's variable count (5 for our MultiPaxos).
pub fn delta(cfg: &MpConfig) -> OptDelta {
    let n_a = 5; // multipaxos vars: bal, ldr, abal, aval, votes
    let leases = n_a + D_LEASES;
    let applied = n_a + D_APPLIED;
    let lastread = n_a + D_LASTREAD;
    let acc_dom = Domain::Const(cfg.acceptors().as_set().unwrap().clone());

    let false_fun = {
        let inner = Value::fun((0..cfg.n as i64).map(|h| (Value::Int(h), Value::Bool(false))));
        Value::fun((0..cfg.n as i64).map(|g| (Value::Int(g), inner.clone())))
    };
    let zero_fun = Value::fun((0..cfg.n as i64).map(|a| (Value::Int(a), Value::Int(0))));

    // Grant(g, h): grantor g leases to holder h.
    let grant = ActionSchema {
        name: "Grant".into(),
        params: vec![
            ("g".to_string(), acc_dom.clone()),
            ("h".to_string(), acc_dom.clone()),
        ],
        guard: not(app2(var(leases), param(0), param(1))),
        updates: vec![(
            leases,
            crate::expr::fun_set2(
                var(leases),
                param(0),
                param(1),
                Expr::Const(Value::Bool(true)),
            ),
        )],
    };
    // Expire(g, h): any lease may lapse at any time (adversarial expiry).
    let expire = ActionSchema {
        name: "Expire".into(),
        params: vec![
            ("g".to_string(), acc_dom.clone()),
            ("h".to_string(), acc_dom.clone()),
        ],
        guard: app2(var(leases), param(0), param(1)),
        updates: vec![(
            leases,
            crate::expr::fun_set2(
                var(leases),
                param(0),
                param(1),
                Expr::Const(Value::Bool(false)),
            ),
        )],
    };

    // Apply(a, s, Q): the appendix's Apply with CanCommitAt — the local
    // entry is chosen by Q *and* acknowledged by every holder granted by
    // a member of Q.
    let my_vote = tuple(vec![
        app2(var(multipaxos::ABAL), param(0), param(1)),
        app2(var(multipaxos::AVAL), param(0), param(1)),
    ]);
    let apply = ActionSchema {
        name: "Apply".into(),
        params: vec![
            ("a".to_string(), acc_dom.clone()),
            ("s".to_string(), Domain::ints(1, cfg.slots)),
            (
                "Q".to_string(),
                Domain::Const(cfg.quorums().as_set().unwrap().clone()),
            ),
        ],
        guard: and(vec![
            eq(
                param(1),
                crate::expr::add(app(var(applied), param(0)), int(1)),
            ),
            not(eq(app2(var(multipaxos::AVAL), param(0), param(1)), int(0))),
            // Chosen by Q...
            forall(
                "q",
                param(2),
                contains(
                    app2(var(multipaxos::VOTES), local("q"), param(1)),
                    my_vote.clone(),
                ),
            ),
            // ...and acknowledged by every holder granted by Q's members.
            forall(
                "p",
                Expr::Const(cfg.acceptors()),
                implies(
                    exists("g", param(2), app2(var(leases), local("g"), local("p"))),
                    contains(
                        app2(var(multipaxos::VOTES), local("p"), param(1)),
                        my_vote.clone(),
                    ),
                ),
            ),
        ]),
        updates: vec![(applied, fun_set(var(applied), param(0), param(1)))],
    };

    // ReadAtLocal(a): serve a read locally under an active quorum lease,
    // after all locally accepted writes are applied (Figure 13's wait).
    let read_local = ActionSchema {
        name: "ReadAtLocal".into(),
        params: vec![("a".to_string(), acc_dom)],
        guard: and(vec![
            lease_active(cfg, leases, param(0)),
            forall(
                "s",
                Expr::Const(cfg.slot_set()),
                implies(
                    not(eq(
                        app2(var(multipaxos::AVAL), param(0), local("s")),
                        int(0),
                    )),
                    le(local("s"), app(var(applied), param(0))),
                ),
            ),
        ]),
        updates: vec![(
            lastread,
            fun_set(var(lastread), param(0), app(var(applied), param(0))),
        )],
    };

    // Modified Propose: the appendix's gate — only read-typed values
    // while the proposer holds an active lease.
    let propose_gate = ModifiedAction {
        base: "Propose".into(),
        extra_guard: or(vec![
            eq(param(2), int(READ_VALUE)),
            not(lease_active(cfg, leases, param(0))),
        ]),
        extra_updates: vec![],
    };

    OptDelta {
        new_vars: vec!["leases".into(), "applied".into(), "lastread".into()],
        new_init: vec![false_fun, zero_fun.clone(), zero_fun],
        added: vec![grant, expire, apply, read_local],
        modified: vec![propose_gate],
    }
}

/// `LeaseInv` (Appendix B.3), stated over `A∆`'s variable space: every
/// instance executable under the current leases is known to every
/// active quorum-lease holder.
pub fn lease_inv(cfg: &MpConfig) -> Expr {
    let n_a = 5;
    let leases = n_a + D_LEASES;
    let ballots = Expr::Const(Value::int_range(1, cfg.max_ballot));
    let values = Expr::Const(cfg.value_set());
    forall(
        "s",
        Expr::Const(cfg.slot_set()),
        forall(
            "b",
            ballots,
            forall(
                "v",
                values,
                implies(
                    // CanCommitAt(s, b, v) under the current leases:
                    exists(
                        "Q",
                        Expr::Const(cfg.quorums()),
                        and(vec![
                            forall(
                                "q",
                                local("Q"),
                                contains(
                                    app2(var(multipaxos::VOTES), local("q"), local("s")),
                                    tuple(vec![local("b"), local("v")]),
                                ),
                            ),
                            forall(
                                "p",
                                Expr::Const(cfg.acceptors()),
                                implies(
                                    exists(
                                        "g",
                                        local("Q"),
                                        app2(var(leases), local("g"), local("p")),
                                    ),
                                    contains(
                                        app2(var(multipaxos::VOTES), local("p"), local("s")),
                                        tuple(vec![local("b"), local("v")]),
                                    ),
                                ),
                            ),
                        ]),
                    ),
                    // ... implies every active holder knows the value:
                    forall(
                        "h",
                        Expr::Const(cfg.acceptors()),
                        implies(
                            lease_active(cfg, leases, local("h")),
                            exists(
                                "b2",
                                Expr::Const(Value::int_range(1, cfg.max_ballot)),
                                contains(
                                    app2(var(multipaxos::VOTES), local("h"), local("s")),
                                    tuple(vec![local("b2"), local("v")]),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    )
}

/// The Raft*→MultiPaxos port map: identity state map on the shared
/// 5-variable prefix, with the Figure-3 action correspondences and the
/// Section-4.3 parameter mappings.
pub fn raftstar_port_map(cfg: &MpConfig) -> PortMap {
    use crate::specs::raftstar::LAST;
    let mut elect_params: Vec<Expr> = vec![param(0), param(1), param(2)];
    for s in 0..cfg.slots as usize {
        elect_params.push(param(3 + s));
    }
    PortMap {
        state_map: StateMap::identity(5),
        action_map: vec![
            ("ElectLeader".into(), "Phase1".into()),
            ("ProposeEntry".into(), "Propose".into()),
            ("Append".into(), "AcceptAll".into()),
        ],
        param_maps: vec![
            elect_params,
            // Propose(a, s, v) from ProposeEntry(l, v):
            //   a := l, s := last[l] + 1 (a B-state expression!), v := v.
            vec![
                param(0),
                crate::expr::add(app(var(LAST), param(0)), int(1)),
                param(1),
            ],
            // AcceptAll(q, a) from Append(l, f): q := f, a := l.
            vec![param(1), param(0)],
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{explore, Invariant, Limits, Verdict};
    use crate::port::{extended_map, port, projection_map, remap_expr};
    use crate::refine::check_refinement;
    use crate::specs::{multipaxos, raftstar};

    fn cfg() -> MpConfig {
        MpConfig {
            n: 3,
            max_ballot: 2,
            slots: 1,
            values: vec![1],
        }
    }

    #[test]
    fn delta_is_mechanically_non_mutating() {
        let c = cfg();
        let mp = multipaxos::spec(&c);
        assert!(delta(&c).check_non_mutating(&mp).is_ok());
    }

    #[test]
    fn lease_inv_holds_on_pql() {
        let c = cfg();
        let mp = multipaxos::spec(&c);
        let pql = delta(&c).apply_to(&mp);
        let report = explore(
            &pql,
            &[Invariant::new("LeaseInv", lease_inv(&c))],
            Limits::states(15_000),
        );
        assert!(report.ok(), "{:?}", report.verdict);
        assert!(report.states > 1_000);
    }

    #[test]
    fn local_read_is_reachable() {
        let c = MpConfig {
            n: 3,
            max_ballot: 1,
            slots: 1,
            values: vec![1],
        };
        let mp = multipaxos::spec(&c);
        let pql = delta(&c).apply_to(&mp);
        // lastread moves => ReadAtLocal fired... lastread starts at 0 and
        // only moves to applied > 0; check a read of applied version 1.
        let some_read = exists(
            "a",
            Expr::Const(c.acceptors()),
            crate::expr::gt(app(var(5 + D_LASTREAD), local("a")), int(0)),
        );
        let report = explore(
            &pql,
            &[Invariant::new("NoReadEver", not(some_read))],
            Limits::states(60_000),
        );
        assert!(
            matches!(report.verdict, Verdict::Violated { .. }),
            "a lease-read of a committed write should be reachable: {:?}",
            report.verdict
        );
    }

    #[test]
    fn ported_rql_refines_pql_and_raftstar() {
        // The generated Raft*-PQL refines both parents.
        let c = cfg();
        let mp = multipaxos::spec(&c);
        let rs = raftstar::spec(&c);
        let d = delta(&c);
        let map = raftstar_port_map(&c);
        let rql = port(&mp, &d, &rs, &map).expect("port succeeds");
        assert_eq!(rql.vars.len(), rs.vars.len() + 3);

        let pql = d.apply_to(&mp);
        let ext = extended_map(&mp, &rs, &d, &map.state_map);
        let limits = Limits::states(2_500);
        let r1 = check_refinement(&rql, &pql, &ext, limits).expect("RQL refines PQL");
        assert!(r1.b_transitions > 100);
        let r2 =
            check_refinement(&rql, &rs, &projection_map(&rs), limits).expect("RQL refines Raft*");
        assert!(r2.b_transitions > 100);
    }

    #[test]
    fn lease_inv_holds_on_generated_rql() {
        let c = cfg();
        let mp = multipaxos::spec(&c);
        let rs = raftstar::spec(&c);
        let d = delta(&c);
        let map = raftstar_port_map(&c);
        let rql = port(&mp, &d, &rs, &map).expect("port succeeds");
        // Port the invariant with the same substitution as the spec.
        let inv = remap_expr(&mp, &rs, &map.state_map, &lease_inv(&c));
        let report = explore(
            &rql,
            &[Invariant::new("LeaseInv(ported)", inv)],
            Limits::states(10_000),
        );
        assert!(report.ok(), "{:?}", report.verdict);
    }

    #[test]
    fn propose_gate_ports_onto_propose_entry() {
        // The modified Propose's gate must appear (substituted) on the
        // ported ProposeEntry: with READ_VALUE absent from the value set
        // and an active lease, ProposeEntry is disabled.
        let c = cfg();
        let mp = multipaxos::spec(&c);
        let rs = raftstar::spec(&c);
        let d = delta(&c);
        let rql = port(&mp, &d, &rs, &raftstar_port_map(&c)).expect("port succeeds");
        let (_, pe) = rql.action("ProposeEntry").unwrap();
        // The ported guard must mention the leases variable (index 8).
        let mut reads = std::collections::BTreeSet::new();
        pe.guard.vars_read(&mut reads);
        assert!(
            reads.contains(&(rs.vars.len() + D_LEASES)),
            "gate references leases"
        );
    }
}
