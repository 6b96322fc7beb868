//! Raft*-Mencius (Appendix A.3–A.4): coordinated Raft* with round-robin
//! slot ownership, expressed as [`ProtocolRules`] over the shared
//! [`ReplicaEngine`].
//!
//! Every replica is the *default leader* of the slots `s` with
//! `(s - 1) mod n == id`. A client sends requests to its nearest replica,
//! which proposes them in its own slots (`Suggest`, the `isDefault`
//! append) — under the engine, Mencius is simply the protocol whose
//! `can_propose` is always true, so client batches are never forwarded.
//! Replicas that fall behind *skip* their unused slots — a watermark
//! piggybacked on every `SuggestOk` and broadcast as `SkipNotice` ("each
//! replica keeps committing skip to keep the system moving forward"). A
//! skipped slot is a no-op from the default leader, so by the
//! coordinated-Paxos property it is executable without waiting for a
//! commit round.
//!
//! Watermark safety relies on FIFO links (the simulator models TCP): all
//! of an owner's suggestions reach a peer before any watermark that
//! passes them, so "no suggestion seen below the watermark" really means
//! "skipped".
//!
//! Responses follow the paper's two regimes (Section 5.2):
//! - **commutative (low conflict)**: a write is acknowledged once its
//!   slot commits and every other owner's slots below it are *known*
//!   (suggested or skipped) — nothing earlier can conflict;
//! - **conflicting**: the write additionally waits until every earlier
//!   entry on the same key has applied, which requires learning the
//!   other servers' commit decisions on previous entries — the extra
//!   latency Figure 10c/d shows for Mencius-100%.
//!
//! Crashed owners are handled by *revocation*: after a silence timeout a
//! peer raises a ballot above the owner's, collects accepted values for
//! the owner's undecided range (phase-1), re-proposes what was accepted
//! and no-ops the rest (Appendix A.3's recovery leader).
//!
//! # Durability (group commit)
//!
//! Same invariant as the other three protocols: a `SuggestOk` is an
//! acceptor's promise that the accepted values survive a crash, so it
//! is routed through [`EngineCore::ack_after_sync`]; the owner's *own*
//! implicit ack is likewise gated on its local fsync (the engine's
//! `on_durable` hook adds the bit, `Instances::take_synced_votes`).
//! Crash-restart drops accepted values whose write never synced. A
//! multi-leader wrinkle: peers cannot revoke a slot whose owner is
//! alive, so an owner that loses its *own* unsynced suggestions would
//! stall the cluster (peers hold the value and wait forever for a
//! commit only the owner can produce). Worse, the skip inference
//! ("own slot below my watermark with no value was skipped") would
//! silently read the dropped slot as a decided no-op — while a
//! revocation during the downtime may have *decided the original
//! value* from the peers' copies, without the owner's vote. Dropped
//! own slots therefore go to [`MenciusRules::lost_own`], which (a)
//! suppresses the skip inference so execution blocks instead of
//! diverging, and (b) makes the restart hook run the ordinary
//! revocation phase-1 against the owner's *own* range: collect
//! accepted values from a quorum at a bumped ballot, re-decide what
//! anyone accepted and no-op the rest. That is exactly the crashed-
//! owner recovery path, reused for self-recovery — safe by the same
//! ballot argument, and live because the affected clients were never
//! answered and retry through the dedup sessions.
//! `RevokeOk` stays immediate: it reports promises (ballot raises),
//! and ballots — like terms — are modeled as free always-durable
//! metadata that survives [`ProtocolRules::on_crash`]; over-persisting
//! a promise only ever *restricts* what the acceptor may later accept,
//! so it can never manufacture a quorum for lost state.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use paxraft_sim::sim::{ActorId, Ctx};
use paxraft_sim::time::{SimDuration, SimTime};

use crate::config::ReplicaConfig;
use crate::costs::CostModel;
use crate::engine::{
    self, Accepted, EngineCore, Instance, Instances, ProtocolRules, ReplicaEngine, T_COORD,
};
use crate::kv::{Command, Key, Op};
use crate::msg::{MenciusMsg, Msg};
use crate::snapshot::Snapshot;
use crate::types::{max_failures, NodeId, Slot, Term};

/// The owner-side part of a slot, carried in the shared instance
/// record ([`Instance::ext`]).
#[derive(Debug, Default)]
struct OwnSlot {
    /// Skipped no-op (own slots only; remote skips derive from
    /// watermarks).
    skipped: bool,
    /// Whether the owner already answered the client.
    responded: bool,
    /// When the owner last (re)suggested this slot (own slots only;
    /// paces the uncommitted-suggestion retransmission).
    suggested_at: SimTime,
}

/// An in-flight revocation of a crashed owner's slots.
#[derive(Debug)]
struct RevokeOp {
    term: Term,
    owner: NodeId,
    from: Slot,
    through: Slot,
    acks: u64,
    /// Highest-ballot accepted values reported for the range.
    accepted: BTreeMap<u64, (Term, Command)>,
}

/// A Raft*-Mencius replica: the shared engine running [`MenciusRules`].
pub type MenciusReplica = ReplicaEngine<MenciusRules>;

/// What Mencius adds on top of the engine: round-robin slot ownership,
/// skip watermarks, the two-regime respond rule, and revocation.
pub struct MenciusRules {
    current_term: Term,
    /// The per-slot instances (accepted values, ballots, decisions),
    /// with the applied prefix and checkpoint floor.
    inst: Instances<OwnSlot>,
    /// My next unused owned slot; doubles as my skip watermark.
    next_own: Slot,
    /// Exclusive bound of *known* slots per peer owner: every slot of
    /// theirs below this is suggested-or-skipped.
    known_upto: Vec<Slot>,
    /// Put slots per key, for the conflicting-response rule.
    key_slots: HashMap<Key, BTreeSet<u64>>,
    /// Own committed slots waiting for the respond condition.
    await_respond: Vec<Slot>,
    commit_buf: Vec<Slot>,
    last_heard: Vec<SimTime>,
    revoke: Option<RevokeOp>,
    last_revoke_attempt: SimTime,
    /// Slots this replica skipped (stats).
    skips_issued: u64,
    /// Durability: own slots whose unsynced value a crash dropped.
    /// Membership suppresses the skip inference in `decided_at` (the
    /// empty slot must not read as a decided no-op — a revocation
    /// during our downtime may have decided the original value from
    /// the peers' copies), and `on_start` re-decides the range with a
    /// phase-1 self-revocation. Entries leave the set as values land.
    lost_own: BTreeSet<u64>,
}

impl MenciusReplica {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ReplicaConfig) -> Self {
        cfg.validate().expect("invalid replica config");
        let n = cfg.n;
        let me = cfg.id;
        ReplicaEngine::from_parts(
            EngineCore::new(cfg),
            MenciusRules {
                current_term: Term::encode(1, me, n),
                next_own: Slot(me.0 as u64 + 1),
                known_upto: vec![Slot(1); n],
                inst: Instances::default(),
                key_slots: HashMap::new(),
                await_respond: Vec::new(),
                commit_buf: Vec::new(),
                last_heard: vec![SimTime::ZERO; n],
                revoke: None,
                last_revoke_attempt: SimTime::ZERO,
                skips_issued: 0,
                lost_own: BTreeSet::new(),
            },
        )
    }

    /// The default leader of a slot: `(s - 1) mod n`.
    pub fn owner_of(slot: Slot, n: usize) -> NodeId {
        NodeId(((slot.0 - 1) % n as u64) as u32)
    }

    /// The first slot of `owner` at or after `x`.
    fn first_slot_of(owner: NodeId, x: Slot, n: usize) -> Slot {
        let n = n as u64;
        let x = x.0.max(1);
        // Smallest s >= x with (s - 1) % n == owner.
        let rem = (x - 1) % n;
        Slot(x + (owner.0 as u64 + n - rem) % n)
    }

    /// Applied prefix (tests).
    pub fn exec_index(&self) -> Slot {
        self.rules.inst.exec
    }

    /// Retained (uncompacted) slots.
    pub fn retained_slots(&self) -> usize {
        self.rules.inst.map.len()
    }

    /// Slots this replica skipped (stats).
    pub fn skips_issued(&self) -> u64 {
        self.rules.skips_issued
    }

    /// Decided command at `slot` (`None` when undecided; `Some(None)`
    /// would be unrepresentable — skipped slots report the no-op).
    pub fn decided_at(&self, slot: Slot) -> Option<Command> {
        self.rules.decided_at(&self.core, slot)
    }
}

impl MenciusRules {
    fn decided_at(&self, core: &EngineCore, slot: Slot) -> Option<Command> {
        let rec = self.inst.map.get(&slot.0);
        if let Some(s) = rec {
            if s.committed {
                return s.cmd.clone();
            }
            if s.ext.skipped {
                return Some(Command::noop());
            }
        }
        // An empty slot below its owner's watermark was skipped. The
        // inference does not apply to crash-dropped own slots: empty
        // there means "value lost", not "skipped", and peers may still
        // decide the original value (module docs).
        let owner = MenciusReplica::owner_of(slot, core.cfg.n);
        let below_watermark = if owner == core.cfg.id {
            slot < self.next_own && !self.lost_own.contains(&slot.0)
        } else {
            slot < self.known_upto[owner.0 as usize]
        };
        (below_watermark && rec.is_none_or(|s| s.cmd.is_none())).then(Command::noop)
    }

    fn broadcast(&self, core: &EngineCore, ctx: &mut Ctx<Msg>, msg: MenciusMsg) {
        for peer in core.cfg.others() {
            ctx.send(core.cfg.peer(peer), Msg::Mencius(msg.clone()));
        }
    }

    /// Stores an accepted value and indexes its key. A slot committed
    /// with a value keeps it (e.g. against a partitioned owner's stale
    /// retransmission racing a revocation that decided a no-op there).
    fn accept_value(
        &mut self,
        core: &mut EngineCore,
        s: Slot,
        term: Term,
        cmd: Command,
    ) -> Accepted {
        let key = cmd.op.key().filter(|_| matches!(cmd.op, Op::Put { .. }));
        let accepted = self.inst.accept(s, term, cmd);
        if accepted == Accepted::Written {
            if let Some(key) = key {
                self.key_slots.entry(key).or_default().insert(s.0);
            }
            // A value landing in a crash-dropped own slot (our own
            // recovery decision, or a revocation's) supersedes the loss
            // marker.
            self.lost_own.remove(&s.0);
            self.inst.note_size(&mut core.snap_stats);
        }
        accepted
    }

    /// Removes a discarded or dropped value from the key index.
    fn unindex(&mut self, s: Slot, cmd: &Command) {
        let Some(key) = cmd.op.key() else { return };
        if let Some(set) = self.key_slots.get_mut(&key) {
            set.remove(&s.0);
            if set.is_empty() {
                self.key_slots.remove(&key);
            }
        }
    }

    /// Forgets the slots a compaction or checkpoint install discarded.
    fn forget_discarded(&mut self, gone: BTreeMap<u64, Instance<OwnSlot>>) {
        for (s, slot) in gone {
            if let Some(cmd) = slot.cmd {
                self.unindex(Slot(s), &cmd);
            }
        }
        self.lost_own = self.lost_own.split_off(&self.inst.floor().next().0);
    }

    /// Commit tally for own slots that gained an ack bit at `term` (a
    /// `SuggestOk`, or our own post-fsync vote); newly committed slots
    /// are announced and await their client response.
    fn tally_own(&mut self, core: &EngineCore, slots: &[Slot], term: Term, bit: u64) {
        let start = self.commit_buf.len();
        let need = max_failures(core.cfg.n) + 1; // f followers + me
        self.inst
            .tally(slots, Some(term), bit, need, &mut self.commit_buf);
        self.await_respond
            .extend_from_slice(&self.commit_buf[start..]);
    }

    /// Advances my own watermark to cover everything below `target`
    /// (skipping unused own slots), broadcasting the skip if it moved.
    fn maybe_skip_to(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, target: Slot) {
        if target <= self.next_own {
            return;
        }
        let new_own = MenciusReplica::first_slot_of(core.cfg.id, target, core.cfg.n);
        let mut s = self.next_own;
        while s < new_own {
            let slot = self.inst.map.entry(s.0).or_default();
            if slot.cmd.is_none() {
                slot.ext.skipped = true;
                self.skips_issued += 1;
            }
            s = Slot(s.0 + core.cfg.n as u64);
        }
        self.next_own = new_own;
        self.broadcast(
            core,
            ctx,
            MenciusMsg::SkipNotice {
                watermark: self.next_own,
                exec: self.inst.exec,
            },
        );
    }

    fn note_known(&mut self, core: &EngineCore, owner: NodeId, upto_exclusive: Slot) {
        if owner == core.cfg.id {
            return;
        }
        let k = &mut self.known_upto[owner.0 as usize];
        if upto_exclusive > *k {
            *k = upto_exclusive;
        }
    }

    /// The respond condition's coverage part: every other owner's slots
    /// below `s` are known (suggested or skipped).
    fn covered(&self, core: &EngineCore, s: Slot) -> bool {
        core.cfg
            .others()
            .all(|o| self.known_upto[o.0 as usize] >= s)
    }

    /// The respond condition's conflict part: every earlier write to the
    /// same key has applied.
    fn conflicts_applied(&self, s: Slot, cmd: &Command) -> bool {
        let Some(key) = cmd.op.key() else { return true };
        let Some(slots) = self.key_slots.get(&key) else {
            return true;
        };
        match slots.range(..s.0).next_back() {
            Some(&c) => self.inst.exec.0 >= c,
            None => true,
        }
    }

    /// Answers clients for own slots whose respond condition now holds.
    fn try_respond(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let mut still = Vec::new();
        let await_list = std::mem::take(&mut self.await_respond);
        for s in await_list {
            let Some(slot) = self.inst.map.get(&s.0) else {
                continue;
            };
            if slot.ext.responded || slot.cmd.is_none() {
                continue;
            }
            let cmd = slot.cmd.clone().expect("checked");
            let is_get = matches!(cmd.op, Op::Get { .. });
            let ready = slot.committed
                && self.covered(core, s)
                && if is_get {
                    // Reads need the value: wait for in-order apply.
                    self.inst.exec >= s
                } else {
                    self.conflicts_applied(s, &cmd)
                };
            if ready {
                let reply = if is_get {
                    let Op::Get { key } = cmd.op else {
                        unreachable!()
                    };
                    core.kv.read_local(key)
                } else {
                    crate::kv::Reply::Done
                };
                core.respond(ctx, cmd.id, reply);
                self.inst.map.get_mut(&s.0).expect("exists").ext.responded = true;
            } else {
                still.push(s);
            }
        }
        self.await_respond = still;
    }

    /// Applies the decided prefix in slot order.
    fn try_execute(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        loop {
            let next = self.inst.exec.next();
            let Some(cmd) = self.decided_at(core, next) else {
                break;
            };
            if !matches!(cmd.op, Op::Noop) {
                ctx.charge(core.cfg.costs.apply_per_cmd);
                // The slot owner plays the proposer role for the
                // migration hooks (it proposed this command).
                let mine = MenciusReplica::owner_of(next, core.cfg.n) == core.cfg.id;
                engine::apply_command(core, ctx, &cmd, mine);
            }
            self.inst.exec = next;
        }
        self.try_respond(core, ctx);
        self.maybe_compact(core, ctx);
    }

    /// Checkpoints and discards the executed slot prefix once it crosses
    /// the configured threshold. Own slots still awaiting a client
    /// response are never discarded; the checkpoint itself captures the
    /// full executed prefix, which may run ahead of the discard point.
    fn maybe_compact(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let mut upto = self.inst.exec;
        for &s in &self.await_respond {
            if s <= upto {
                upto = s.prev();
            }
        }
        if upto <= self.inst.floor() {
            return;
        }
        if let Some(gone) = self.inst.maybe_compact(core, ctx, upto) {
            self.forget_discarded(gone);
        }
    }

    fn flush_commits(&mut self, core: &EngineCore, ctx: &mut Ctx<Msg>) {
        if !self.commit_buf.is_empty() {
            let slots = std::mem::take(&mut self.commit_buf);
            self.broadcast(core, ctx, MenciusMsg::Commit { slots });
        }
    }

    /// Retransmits my own suggested-but-unexecuted slots after
    /// `retry_interval` of silence — the MultiPaxos heartbeat's
    /// uncommitted-instance retransmission in the Mencius spelling. A
    /// `Suggest` or `SuggestOk` lost on the wire otherwise stalls the
    /// slot until the client gives up and retries; committed slots are
    /// included because a peer that missed the original suggestion can
    /// neither advance its watermark past the slot nor execute it, which
    /// blocks the respond condition's coverage check cluster-wide.
    ///
    /// Each slot is re-sent at its *original* accepted term (`bal`), not
    /// `current_term`: ack counting matches acks against the slot's
    /// ballot, and a term that advanced in between (a revocation attempt
    /// on some third owner, a `SuggestReject`) would both orphan the
    /// acks and let a stale value ride over a revocation-raised ballot.
    /// Slots suggested at different terms therefore go out in separate
    /// per-term rounds.
    fn retransmit_own_unexecuted(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let now = ctx.now();
        let retry = core.cfg.retry_interval;
        let me = core.cfg.id;
        let n = core.cfg.n;
        let mut values = Vec::new();
        let mut committed = Vec::new();
        let from = self.inst.exec.next().0;
        for (&s, slot) in self.inst.map.range_mut(from..) {
            if values.len() >= 64 {
                break;
            }
            if MenciusReplica::owner_of(Slot(s), n) != me || slot.ext.skipped {
                continue;
            }
            let Some(cmd) = slot.cmd.clone() else {
                continue;
            };
            if now.since(slot.ext.suggested_at.min(now)) <= retry {
                continue;
            }
            slot.ext.suggested_at = now;
            if slot.committed {
                committed.push(Slot(s));
            }
            values.push((Slot(s), slot.bal, cmd));
        }
        self.resuggest(core, ctx, None, values, committed);
    }

    /// Re-sends own values in per-term `Suggest` rounds, each at the
    /// term it was accepted at, then a `Commit` for `committed` — to
    /// every peer, or to `to` alone.
    fn resuggest(
        &self,
        core: &EngineCore,
        ctx: &mut Ctx<Msg>,
        to: Option<NodeId>,
        values: Vec<(Slot, Term, Command)>,
        committed: Vec<Slot>,
    ) {
        let mut by_term: BTreeMap<Term, Vec<(Slot, Command)>> = BTreeMap::new();
        for (s, term, cmd) in values {
            by_term.entry(term).or_default().push((s, cmd));
        }
        let watermark = self.next_own;
        let mut msgs: Vec<MenciusMsg> = by_term
            .into_iter()
            .map(|(term, items)| MenciusMsg::Suggest {
                term,
                items,
                watermark,
            })
            .collect();
        if !committed.is_empty() {
            msgs.push(MenciusMsg::Commit { slots: committed });
        }
        for msg in msgs {
            match to {
                Some(peer) => ctx.send(core.cfg.peer(peer), Msg::Mencius(msg)),
                None => self.broadcast(core, ctx, msg),
            }
        }
    }

    /// Per-peer catch-up: the MultiPaxos stall-gated replay ported to the
    /// Mencius spelling. A suggestion lost on the wire leaves the peer a
    /// committed-without-value gap it can never fill itself (unlike a
    /// crashed owner's slots, a live owner's slots are never revoked), so
    /// each owner re-suggests its *own* decided slots to peers whose
    /// executed prefix stalled between two coordination ticks — 64 slots
    /// per round to bound the burst, by state transfer once the gap is
    /// below the checkpoint floor (handled on `SkipNotice` receipt).
    fn replay_to_stalled_peers(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let peers: Vec<NodeId> = core.cfg.others().collect();
        for peer in peers {
            let Some(fexec) = core.progress.stalled_exec(peer) else {
                continue;
            };
            if fexec >= self.inst.exec || fexec < self.inst.floor() {
                continue;
            }
            // Each slot is replayed at the term it was accepted at (see
            // `retransmit_own_unexecuted` for why `current_term` would
            // be wrong).
            let (me, n) = (core.cfg.id, core.cfg.n);
            let values = self
                .inst
                .replay(fexec, |s| MenciusReplica::owner_of(s, n) == me);
            let slots = values.iter().map(|v| v.0).collect();
            self.resuggest(core, ctx, Some(peer), values, slots);
        }
    }

    /// The highest slot any owner is known to have reached (sizing the
    /// revocation range).
    fn horizon(&self) -> Slot {
        let max_slot = self.inst.tail().0;
        let max_known = self.known_upto.iter().map(|s| s.0).max().unwrap_or(0);
        Slot(max_slot.max(max_known).max(self.next_own.0))
    }

    /// Starts revocation of `owner`'s undecided slots when they block
    /// execution and the owner has been silent. With durability on,
    /// also covers *self*-recovery: a crash-dropped own slot
    /// (`lost_own`) blocks execution just like a crashed peer's, and is
    /// re-decided by the same phase-1 — immediately, no silence
    /// required, since we know first-hand the write is gone.
    fn maybe_revoke(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let now = ctx.now();
        if self.revoke.is_some() {
            // A revocation whose `RevokeOk`s never arrive (lost on the
            // wire, or our ballot was stale and peers silently ignored
            // it) would otherwise pin recovery shut forever; retry with
            // a fresh ballot.
            if now.since(self.last_revoke_attempt.min(now)) < core.cfg.mencius.revoke_timeout {
                return;
            }
            self.revoke = None;
        }
        let next = self.inst.exec.next();
        if self.decided_at(core, next).is_some() {
            return; // not blocked
        }
        let owner = MenciusReplica::owner_of(next, core.cfg.n);
        let through = if owner == core.cfg.id {
            // Our own slot: flush/batch handles it — unless its value
            // was crash-dropped, which only a self-revocation can
            // re-decide (peers never revoke a live owner). The range
            // stops at the last dropped slot: anything above it
            // (including post-restart suggestions) is live and stays
            // on the normal quorum path.
            if !self.lost_own.contains(&next.0)
                || now.since(self.last_revoke_attempt.min(now)) < core.cfg.mencius.revoke_timeout
            {
                return;
            }
            Slot(*self.lost_own.iter().next_back().expect("checked non-empty"))
        } else {
            let silent = now.since(self.last_heard[owner.0 as usize].min(now));
            if silent < core.cfg.mencius.revoke_timeout
                || now.since(self.last_revoke_attempt.min(now)) < core.cfg.mencius.revoke_timeout
            {
                return;
            }
            Slot(self.horizon().0 + core.cfg.n as u64)
        };
        self.start_revocation(core, ctx, owner, next, through, now);
    }

    /// Phase-1 of revocation: bump the ballot, collect accepted values
    /// for `owner`'s slots in the range, promise locally, broadcast.
    fn start_revocation(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        owner: NodeId,
        from: Slot,
        through: Slot,
        now: SimTime,
    ) {
        self.last_revoke_attempt = now;
        self.current_term = self.current_term.next_for(core.cfg.id, core.cfg.n);
        let op = RevokeOp {
            term: self.current_term,
            owner,
            from,
            through,
            acks: core.me_bit(),
            accepted: self
                .owned_accepted(core, owner, from, through)
                .into_iter()
                .map(|(s, b, c)| (s.0, (b, c)))
                .collect(),
        };
        self.broadcast(
            core,
            ctx,
            MenciusMsg::Revoke {
                term: op.term,
                owner,
                from,
                through,
            },
        );
        // Promise locally.
        self.promise_range(core, owner, from, through, op.term);
        self.revoke = Some(op);
    }

    /// `owner`'s accepted values in the range (revocation phase 1).
    fn owned_accepted(
        &self,
        core: &EngineCore,
        owner: NodeId,
        from: Slot,
        through: Slot,
    ) -> Vec<(Slot, Term, Command)> {
        let n = core.cfg.n;
        let owned = |s| MenciusReplica::owner_of(s, n) == owner;
        self.inst.accepted(from.0..=through.0, owned)
    }

    /// Raises the ballot on `owner`'s undecided slots in the range so the
    /// (possibly alive) owner can no longer commit there.
    fn promise_range(
        &mut self,
        core: &EngineCore,
        owner: NodeId,
        from: Slot,
        through: Slot,
        term: Term,
    ) {
        let mut s = MenciusReplica::first_slot_of(owner, from, core.cfg.n);
        while s <= through {
            let slot = self.inst.map.entry(s.0).or_default();
            if term > slot.bal {
                slot.bal = term;
            }
            s = Slot(s.0 + core.cfg.n as u64);
        }
    }

    fn on_mencius(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        msg: MenciusMsg,
    ) {
        let peer = core.cfg.node_of(from);
        self.last_heard[peer.0 as usize] = ctx.now();
        match msg {
            MenciusMsg::Suggest {
                term,
                items,
                watermark,
            } => {
                let bytes: usize = items.iter().map(|(_, c)| c.size_bytes()).sum();
                ctx.charge(
                    core.cfg.costs.append_fixed
                        + (core.cfg.costs.append_per_cmd + core.cfg.costs.coord_per_cmd)
                            * items.len().max(1) as u64
                        + core.cfg.costs.size_cost(bytes),
                );
                let mut acked = Vec::new();
                let mut rejected = Vec::new();
                let mut reject_term = Term::ZERO;
                let mut max_slot = Slot::NONE;
                let mut written = Vec::new();
                let mut written_bytes = 0usize;
                for (s, cmd) in items {
                    if s <= self.inst.floor() {
                        // Decided and checkpointed away; the lagging
                        // owner converges via Checkpoint, not re-accept.
                        continue;
                    }
                    let bal = self.inst.map.get(&s.0).map_or(Term::ZERO, |x| x.bal);
                    if term >= bal {
                        let sz = cmd.size_bytes();
                        // Already committed with a value (`Held`): a
                        // duplicate, nothing new reaches the disk.
                        if self.accept_value(core, s, term, cmd) == Accepted::Written {
                            written.push(s);
                            written_bytes += sz;
                        }
                        acked.push(s);
                        if s > max_slot {
                            max_slot = s;
                        }
                    } else {
                        rejected.push(s);
                        reject_term = reject_term.max(bal);
                    }
                }
                self.inst.persist(core, ctx, &written, written_bytes);
                self.note_known(core, peer, watermark.max(max_slot.next()));
                // Skip my own unused slots below the suggestion (the
                // piggybacked skip of Appendix A.3).
                self.maybe_skip_to(core, ctx, max_slot);
                if !acked.is_empty() {
                    // The acceptor's promise that these values survive a
                    // crash: sent only after the covering fsync (group
                    // commit batches it; see the module docs).
                    let ok = Msg::Mencius(MenciusMsg::SuggestOk {
                        term,
                        slots: acked,
                        watermark: self.next_own,
                    });
                    core.ack_after_sync(ctx, from, ok);
                }
                if !rejected.is_empty() {
                    ctx.send(
                        from,
                        Msg::Mencius(MenciusMsg::SuggestReject {
                            slots: rejected,
                            term: reject_term,
                        }),
                    );
                }
                self.try_execute(core, ctx);
            }
            MenciusMsg::SuggestOk {
                term,
                slots,
                watermark,
            } => {
                ctx.charge(core.cfg.costs.ack_process);
                self.note_known(core, peer, watermark);
                if let Some(&upto) = slots.iter().max() {
                    core.progress.on_ack(peer, upto);
                }
                let bit = 1u64 << peer.0;
                self.tally_own(core, &slots, term, bit);
                self.flush_commits(core, ctx);
                self.try_execute(core, ctx);
            }
            MenciusMsg::SuggestReject { slots, term } => {
                // Our slots were revoked: re-propose the commands in
                // fresh slots above the revoked range. In-flight rounds
                // toward the rejecting peer are dead.
                core.progress.on_regress(peer);
                if term > self.current_term {
                    self.current_term = self.current_term.next_for(core.cfg.id, core.cfg.n);
                    while self.current_term < term {
                        self.current_term = self.current_term.next_for(core.cfg.id, core.cfg.n);
                    }
                }
                for s in slots {
                    let Some(slot) = self.inst.map.get_mut(&s.0) else {
                        continue;
                    };
                    if slot.committed || slot.ext.responded {
                        continue;
                    }
                    // Taken around the store, so its bytes stay counted
                    // in the compaction trigger (a known leak; ROADMAP).
                    if let Some(cmd) = slot.cmd.take() {
                        slot.ext.skipped = true; // treat as noop locally
                        core.pending.push(cmd);
                    }
                }
                if !core.pending.is_empty() {
                    core.arm_batch(ctx);
                }
            }
            MenciusMsg::SkipNotice { watermark, exec } => {
                ctx.charge(core.cfg.costs.coord_msg);
                self.note_known(core, peer, watermark);
                // The Mencius spelling of MultiPaxos's piggybacked
                // `exec` report, read by the stalled-peer replay.
                core.progress.note_exec(peer, exec);
                // A peer whose executed prefix fell below our checkpoint
                // floor can never learn the dropped commit decisions
                // from us: ship it the state instead.
                if exec < self.inst.floor() {
                    engine::ship_snapshot(
                        core,
                        ctx,
                        peer,
                        (self.inst.exec, Term::ZERO),
                        Term::ZERO,
                    );
                }
                self.try_execute(core, ctx);
            }
            MenciusMsg::Commit { slots } => {
                ctx.charge(core.cfg.costs.coord_msg);
                for s in slots {
                    if self.inst.learn(s) {
                        self.note_known(core, peer, Slot(s.0 + 1));
                    }
                }
                self.try_execute(core, ctx);
            }
            MenciusMsg::Revoke {
                term,
                owner,
                from: rfrom,
                through,
            } => {
                if term > self.current_term {
                    // Promise: raise ballots on the revoked range.
                    let accepted = self.owned_accepted(core, owner, rfrom, through);
                    self.promise_range(core, owner, rfrom, through, term);
                    ctx.send(
                        from,
                        Msg::Mencius(MenciusMsg::RevokeOk {
                            term,
                            owner,
                            accepted,
                        }),
                    );
                }
            }
            MenciusMsg::RevokeOk {
                term,
                owner,
                accepted,
            } => {
                let finished = {
                    let Some(op) = self.revoke.as_mut() else {
                        return;
                    };
                    if op.term != term || op.owner != owner {
                        return;
                    }
                    op.acks |= 1 << peer.0;
                    for (s, b, c) in accepted {
                        match op.accepted.get(&s.0) {
                            Some((ob, _)) if *ob >= b => {}
                            _ => {
                                op.accepted.insert(s.0, (b, c));
                            }
                        }
                    }
                    op.acks.count_ones() as usize >= max_failures(core.cfg.n) + 1
                };
                if finished {
                    let op = self.revoke.take().expect("checked");
                    let n = core.cfg.n as u64;
                    let mut items = Vec::new();
                    let mut s = MenciusReplica::first_slot_of(op.owner, op.from, core.cfg.n);
                    while s <= op.through {
                        let cmd = op
                            .accepted
                            .get(&s.0)
                            .map(|(_, c)| c.clone())
                            .unwrap_or_else(Command::noop);
                        items.push((s, cmd));
                        s = Slot(s.0 + n);
                    }
                    // Decide locally and broadcast. The decided values
                    // are a local disk write too; if a crash drops them
                    // before the fsync, the slots degrade to
                    // committed-without-value and a fresh revocation
                    // re-decides them.
                    let mut written = Vec::new();
                    let mut written_bytes = 0usize;
                    for (s, cmd) in &items {
                        let sz = cmd.size_bytes();
                        if self.accept_value(core, *s, op.term, cmd.clone()) != Accepted::BelowFloor
                        {
                            self.inst.map.get_mut(&s.0).expect("accepted").committed = true;
                            written.push(*s);
                            written_bytes += sz;
                        }
                    }
                    self.inst.persist(core, ctx, &written, written_bytes);
                    self.note_known(core, op.owner, Slot(op.through.0 + 1));
                    self.broadcast(
                        core,
                        ctx,
                        MenciusMsg::RevokeCommit {
                            term: op.term,
                            items,
                        },
                    );
                    self.try_execute(core, ctx);
                }
            }
            MenciusMsg::RevokeCommit { term, items } => {
                let mut reproposed = false;
                let mut written = Vec::new();
                let mut written_bytes = 0usize;
                for (s, cmd) in items {
                    if s <= self.inst.floor() {
                        continue; // already executed and checkpointed
                    }
                    let owner = MenciusReplica::owner_of(s, core.cfg.n);
                    // If our own in-flight command was no-oped, re-propose.
                    if owner == core.cfg.id {
                        if let Some(slot) = self.inst.map.get(&s.0) {
                            if !slot.ext.responded {
                                if let Some(mine) = &slot.cmd {
                                    if *mine != cmd {
                                        core.pending.push(mine.clone());
                                        reproposed = true;
                                    }
                                }
                            }
                        }
                        // Our future proposals must clear the range.
                        let above =
                            MenciusReplica::first_slot_of(core.cfg.id, s.next(), core.cfg.n);
                        self.next_own = self.next_own.max(above);
                    }
                    let sz = cmd.size_bytes();
                    if self.accept_value(core, s, term, cmd) != Accepted::BelowFloor {
                        let slot = self.inst.map.get_mut(&s.0).expect("accepted");
                        if term >= slot.bal {
                            slot.committed = true;
                        }
                        written.push(s);
                        written_bytes += sz;
                    }
                    self.note_known(core, owner, s.next());
                }
                self.inst.persist(core, ctx, &written, written_bytes);
                if reproposed {
                    core.arm_batch(ctx);
                }
                self.try_execute(core, ctx);
            }
        }
    }
}

impl ProtocolRules for MenciusRules {
    /// Every replica is the default leader of its own slots: client
    /// batches are always proposed locally, never forwarded.
    fn can_propose(&self, _core: &EngineCore) -> bool {
        true
    }

    fn applied_index(&self, _core: &EngineCore) -> Slot {
        self.inst.exec
    }

    fn extra_propose_cost(&self, costs: &CostModel) -> SimDuration {
        costs.coord_per_cmd
    }

    /// Proposes the batch into my own slots (`Suggest`) — one pipelined
    /// round over this owner's slot range. The suggestion always reaches
    /// every peer (watermark safety and commit learning require it), so
    /// unlike the single-leader protocols the send is not gated; the
    /// per-peer window still tracks in-flight rounds so the engine's
    /// batch cutter can pace this owner's range.
    fn propose(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, cmds: Vec<Command>) {
        let mut items = Vec::with_capacity(cmds.len());
        // With durability on, the owner's implicit ack waits for its own
        // fsync (`on_durable` adds the bit).
        let own_vote = if core.dur.enabled() { 0 } else { core.me_bit() };
        for cmd in cmds {
            let s = self.next_own;
            self.next_own = Slot(self.next_own.0 + core.cfg.n as u64);
            self.accept_value(core, s, self.current_term, cmd.clone());
            let slot = self.inst.map.get_mut(&s.0).expect("just accepted");
            slot.acks = own_vote;
            slot.ext.suggested_at = ctx.now();
            items.push((s, cmd));
        }
        self.inst.persist_own(core, ctx, &items, self.current_term);
        if let (Some(&(first, _)), Some(&(upto, _))) = (items.first(), items.last()) {
            let peers: Vec<NodeId> = core.cfg.others().collect();
            for peer in peers {
                core.progress.on_sent(peer, first.prev(), upto, ctx.now());
            }
        }
        self.broadcast(
            core,
            ctx,
            MenciusMsg::Suggest {
                term: self.current_term,
                items,
                watermark: self.next_own,
            },
        );
        self.try_execute(core, ctx);
    }

    fn on_start(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        ctx.set_timer(core.cfg.mencius.skip_heartbeat, T_COORD);
        // Crash recovery: re-decide own slots whose unsynced values the
        // crash dropped, via the ordinary revocation phase-1 run against
        // our *own* range (module docs). Kicked here rather than waiting
        // for the revoke timeout — we know first-hand the writes are
        // gone. `maybe_revoke` retries if this round stalls.
        if !self.lost_own.is_empty() && self.revoke.is_none() {
            let from = Slot(*self.lost_own.iter().next().expect("non-empty"));
            let through = Slot(*self.lost_own.iter().next_back().expect("non-empty"));
            self.start_revocation(core, ctx, core.cfg.id, from, through, ctx.now());
        }
    }

    fn on_timer(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, kind: u64, _token: u64) {
        if kind != T_COORD {
            return;
        }
        // Rounds whose acks never came are presumed lost (the commit
        // broadcast and watermarks re-cover them); don't let them pin
        // the window shut.
        core.progress
            .expire_stale(ctx.now(), core.cfg.retry_interval);
        // Keepalive watermark, commit flush, revocation check.
        self.broadcast(
            core,
            ctx,
            MenciusMsg::SkipNotice {
                watermark: self.next_own,
                exec: self.inst.exec,
            },
        );
        self.flush_commits(core, ctx);
        self.retransmit_own_unexecuted(core, ctx);
        self.replay_to_stalled_peers(core, ctx);
        self.maybe_revoke(core, ctx);
        self.try_execute(core, ctx);
        ctx.set_timer(core.cfg.mencius.skip_heartbeat, T_COORD);
    }

    fn on_msg(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        if let Msg::Mencius(m) = msg {
            self.on_mencius(core, ctx, from, m);
        }
    }

    /// A local fsync completed: add this owner's own (previously
    /// withheld) ack bit to the suggestions the sync covered. Slots
    /// since re-balloted (a `SuggestReject`, a revocation) fail the
    /// per-slot term check of the tally.
    fn on_durable(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        let ready = self.inst.take_synced_votes(core.dur.synced_seq());
        if ready.is_empty() {
            return;
        }
        for (term, slots) in ready {
            self.tally_own(core, &slots, term, core.me_bit());
        }
        self.flush_commits(core, ctx);
        self.try_execute(core, ctx);
    }

    fn snapshot_chunk_fixed_cost(&self, costs: &CostModel) -> SimDuration {
        costs.coord_msg
    }

    /// Mencius's multi-leader `Checkpoint` spelling is ballot-free: its
    /// headers drop the 8-byte seal the MultiPaxos spelling carries.
    fn snapshot_wire_overhead(&self, costs: &CostModel) -> (usize, usize) {
        (
            costs.checkpoint_chunk_header.saturating_sub(8),
            costs.checkpoint_ack_header.saturating_sub(8),
        )
    }

    fn accept_snapshot_chunk(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        _seal: Term,
    ) -> bool {
        // Multi-leader transfers are ballot-free; any peer may ship us
        // its state. The chunk doubles as a liveness signal.
        self.last_heard[core.cfg.node_of(from).0 as usize] = ctx.now();
        true
    }

    /// Installs a fully reassembled checkpoint from a peer.
    fn install_snapshot(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        snap: Snapshot,
    ) {
        let last = snap.last_slot;
        if let Some(gone) = self.inst.install(core, ctx, snap) {
            core.snap_stats.entries_discarded += gone.len() as u64;
            self.forget_discarded(gone);
            // Everything covered is decided at every owner.
            for k in &mut self.known_upto {
                *k = (*k).max(last.next());
            }
            let above = MenciusReplica::first_slot_of(core.cfg.id, last.next(), core.cfg.n);
            self.next_own = self.next_own.max(above);
            // Own in-flight slots inside the covered range were decided
            // without us (revoked to no-ops); their clients re-submit
            // and the restored sessions deduplicate.
            self.await_respond.retain(|&s| s > last);
            self.try_execute(core, ctx);
        }
        self.inst.ack_checkpoint(core, ctx, from, Term::ZERO);
    }

    fn on_snapshot_ack(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        _seal: Term,
        upto: Slot,
    ) {
        let peer = core.cfg.node_of(from);
        self.last_heard[peer.0 as usize] = ctx.now();
        core.snap_send.finish(peer.0 as usize);
        self.note_known(core, peer, upto.next());
    }

    fn on_crash(&mut self, core: &mut EngineCore) {
        // Stable storage: slots (accepted values, ballots, commits),
        // current_term, and the durable checkpoint. Volatile: pending
        // work and respond queues. The state machine restarts from the
        // checkpoint — the discarded slot prefix cannot be replayed —
        // and re-executes the retained decided suffix.
        //
        // Durability: accepted values whose write never fsynced are
        // gone (`Instances::drop_unsynced`). A committed slot losing
        // its value awaits it from the owner's replay; an *own*
        // uncommitted slot goes to `lost_own` for phase-1 self-recovery
        // (module docs).
        let from = self.inst.floor().next();
        for (s, cmd) in self.inst.drop_unsynced(core.dur.synced_seq(), from) {
            self.unindex(s, &cmd);
            let skipped = self.inst.map.get(&s.0).is_some_and(|x| x.ext.skipped);
            // A dropped committed slot now awaits its value; the rest
            // were uncommitted.
            if !self.inst.awaits_value(s)
                && MenciusReplica::owner_of(s, core.cfg.n) == core.cfg.id
                && !skipped
            {
                self.lost_own.insert(s.0);
            }
        }
        self.await_respond.clear();
        self.commit_buf.clear();
        self.revoke = None;
        core.kv = crate::kv::KvStore::new();
        self.inst.exec = Slot::NONE;
        if let Some(snap) = &core.stable_snap {
            core.kv.restore(&snap.kv);
            self.inst.exec = snap.last_slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{drive_until, region_of, TestClient};
    use paxraft_sim::net::NetConfig;
    use paxraft_sim::sim::Simulation;
    use paxraft_sim::time::SimTime;

    /// n replicas plus one TestClient per replica (client i → replica i).
    fn mencius_cluster(n: usize) -> (Simulation<Msg>, Vec<ActorId>, Vec<ActorId>) {
        let mut sim = Simulation::new(NetConfig::default(), 11);
        let peers: Vec<ActorId> = (0..n).map(ActorId).collect();
        let mut replicas = Vec::new();
        for i in 0..n {
            let mut cfg = ReplicaConfig::wan_default(NodeId(i as u32), n);
            cfg.peers = peers.clone();
            cfg.client_base = n;
            cfg.mencius.revoke_timeout = SimDuration::from_secs(2);
            replicas.push(sim.add_actor(region_of(i), Box::new(MenciusReplica::new(cfg))));
        }
        let mut clients = Vec::new();
        for i in 0..n {
            let c = TestClient::new(i as u32, replicas[i]);
            clients.push(sim.add_actor(region_of(i), Box::new(c)));
        }
        (sim, replicas, clients)
    }

    #[test]
    fn owner_assignment_round_robin() {
        assert_eq!(MenciusReplica::owner_of(Slot(1), 3), NodeId(0));
        assert_eq!(MenciusReplica::owner_of(Slot(2), 3), NodeId(1));
        assert_eq!(MenciusReplica::owner_of(Slot(3), 3), NodeId(2));
        assert_eq!(MenciusReplica::owner_of(Slot(4), 3), NodeId(0));
    }

    #[test]
    fn single_client_commits_with_skips() {
        let (mut sim, replicas, clients) = mencius_cluster(3);
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(10);
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(11);
        assert!(drive_until(&mut sim, SimTime::from_secs(5), |sim| {
            sim.actor::<TestClient>(clients[0]).replies.len() == 2
        }));
        // Replica 0 owns slots 1, 4, ...; others must have skipped 2, 3.
        sim.run_for(SimDuration::from_millis(500));
        let r1 = sim.actor::<MenciusReplica>(replicas[1]);
        assert!(r1.skips_issued() >= 1, "replica 1 skipped its unused slots");
        let r0 = sim.actor::<MenciusReplica>(replicas[0]);
        assert!(
            r0.exec_index().0 >= 4,
            "prefix executed through both writes"
        );
    }

    #[test]
    fn all_replicas_serve_their_own_clients() {
        let (mut sim, replicas, clients) = mencius_cluster(3);
        for &c in &clients {
            sim.actor_mut::<TestClient>(c).enqueue_put(c.0 as u64 * 100);
        }
        assert!(drive_until(&mut sim, SimTime::from_secs(5), |sim| {
            clients
                .iter()
                .all(|&c| sim.actor::<TestClient>(c).replies.len() == 1)
        }));
        // Load balance: each replica proposed in its own slots.
        sim.run_for(SimDuration::from_secs(1));
        for (i, &r) in replicas.iter().enumerate() {
            let rep = sim.actor::<MenciusReplica>(r);
            assert!(rep.responses_sent() >= 1, "replica {i} answered its client");
        }
    }

    #[test]
    fn states_converge_across_replicas() {
        let (mut sim, replicas, clients) = mencius_cluster(3);
        for round in 0..5 {
            for &c in &clients {
                sim.actor_mut::<TestClient>(c)
                    .enqueue_put(round * 10 + c.0 as u64);
            }
        }
        assert!(drive_until(&mut sim, SimTime::from_secs(20), |sim| {
            clients
                .iter()
                .all(|&c| sim.actor::<TestClient>(c).replies.len() == 5)
        }));
        sim.run_for(SimDuration::from_secs(1));
        let e0 = sim.actor::<MenciusReplica>(replicas[0]).exec_index();
        assert!(e0.0 >= 15);
        // Every decided slot agrees across replicas.
        for s in 1..=e0.0 {
            let d0 = sim.actor::<MenciusReplica>(replicas[0]).decided_at(Slot(s));
            for &r in &replicas[1..] {
                let dr = sim.actor::<MenciusReplica>(r).decided_at(Slot(s));
                if let (Some(a), Some(b)) = (&d0, &dr) {
                    assert_eq!(a.id, b.id, "agreement at slot {s}");
                }
            }
        }
    }

    #[test]
    fn conflicting_writes_apply_in_slot_order_everywhere() {
        let (mut sim, replicas, clients) = mencius_cluster(3);
        // All clients hammer the same key.
        for _ in 0..4 {
            for &c in &clients {
                sim.actor_mut::<TestClient>(c)
                    .enqueue_put(crate::kv::Key::from(0u64));
            }
        }
        assert!(drive_until(&mut sim, SimTime::from_secs(30), |sim| {
            clients
                .iter()
                .all(|&c| sim.actor::<TestClient>(c).replies.len() == 4)
        }));
        sim.run_for(SimDuration::from_secs(1));
        // Convergence: all replicas end with the same final value.
        let v0 = sim.actor::<MenciusReplica>(replicas[0]).kv().read_local(0);
        for &r in &replicas[1..] {
            let vr = sim.actor::<MenciusReplica>(r).kv().read_local(0);
            assert_eq!(vr.value_id(), v0.value_id(), "same final value everywhere");
        }
    }

    #[test]
    fn revocation_unblocks_after_owner_crash() {
        let (mut sim, replicas, clients) = mencius_cluster(3);
        // Prime: one committed round so everyone is warm.
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(1);
        assert!(drive_until(&mut sim, SimTime::from_secs(5), |sim| {
            sim.actor::<TestClient>(clients[0]).replies.len() == 1
        }));
        // Crash replica 2, then keep writing from replica 0's client.
        sim.crash_at(replicas[2], sim.now() + SimDuration::from_millis(1));
        let t0 = sim.now();
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(2);
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(3);
        assert!(drive_until(&mut sim, SimTime::from_secs(30), |sim| {
            sim.actor::<TestClient>(clients[0]).replies.len() == 3
        }));
        let done = sim.actor::<TestClient>(clients[0]).replies[2].2;
        // Progress resumed after the 2s revoke timeout (plus slack).
        assert!(
            done.since(t0) < SimDuration::from_secs(10),
            "revocation unblocked writes in {}",
            done.since(t0)
        );
        // And the dead owner's slots are decided (no-ops) at survivors.
        let r0 = sim.actor::<MenciusReplica>(replicas[0]);
        assert!(r0.exec_index().0 >= 4);
    }

    #[test]
    fn lost_revocation_round_is_retried() {
        let (mut sim, replicas, clients) = mencius_cluster(3);
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(1);
        assert!(drive_until(&mut sim, SimTime::from_secs(5), |sim| {
            sim.actor::<TestClient>(clients[0]).replies.len() == 1
        }));
        let t1 = sim.now();
        sim.crash_at(replicas[2], t1 + SimDuration::from_millis(1));
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(2);
        // Replicas 0 and 1 cannot reach each other while the first
        // revocation round against the crashed owner runs (its silence
        // timeout is 2 s), so that round's messages are lost.
        sim.partition_at(vec![0, 1, 2, 0, 1, 2], t1 + SimDuration::from_millis(1500));
        sim.heal_at(t1 + SimDuration::from_millis(3000));
        assert!(
            drive_until(&mut sim, t1 + SimDuration::from_secs(30), |sim| {
                sim.actor::<TestClient>(clients[0]).replies.len() == 2
            }),
            "a fresh revocation round unblocks the write after the heal"
        );
    }

    #[test]
    fn commutative_writes_respond_before_full_prefix_applies() {
        // With distinct keys, replica 0's write responds once covered and
        // committed, without waiting for other owners' commits.
        let (mut sim, _replicas, clients) = mencius_cluster(3);
        sim.actor_mut::<TestClient>(clients[0]).enqueue_put(100);
        sim.actor_mut::<TestClient>(clients[1]).enqueue_put(200);
        assert!(drive_until(&mut sim, SimTime::from_secs(5), |sim| {
            sim.actor::<TestClient>(clients[0]).replies.len() == 1
                && sim.actor::<TestClient>(clients[1]).replies.len() == 1
        }));
    }
}
