//! MultiPaxos (Figure 1): a stable-leader multi-decree Paxos, expressed
//! as [`ProtocolRules`] over the shared [`ReplicaEngine`].
//!
//! Structure follows the paper's pseudocode: `Phase1a`/`Phase1b` and
//! `Phase1Succeed` elect a proposer by ballot; `Phase2a`/`Phase2b`
//! replicate values per instance; `Learn` marks instances chosen on a
//! majority of `acceptOK`s. Instances commit **out of order** (the
//! property that blocks a direct Raft→Paxos mapping, Section 3), but
//! execution still applies the log prefix in order.
//!
//! Batching, forwarding, client dedup and checkpoint transfer are
//! engine-provided, and the instance store is the Paxos family's shared
//! `Instances`; this file holds only ballots, phase-1 value adoption
//! and the per-instance commit rule.
//!
//! # Durability (group commit)
//!
//! With a [`crate::config::DurabilityConfig`] enabled, a Phase2b vote
//! is a promise that the accepted value survives a crash (Paxos's
//! acceptor-persistence requirement), so the `acceptOK` is routed
//! through [`EngineCore::ack_after_sync`], and the proposer's own vote
//! counts only once its write is fsynced; a crash drops the values whose
//! write never synced (the store's `persist_own`, `take_synced_votes`
//! and `drop_unsynced`). Ballot promises are modeled like Raft terms: a
//! tiny always-durable metadata write (ballots survive crashes), so
//! `prepareOK` defers only behind outstanding *value* writes.

use std::collections::{BTreeMap, HashMap};

use paxraft_sim::sim::{ActorId, Ctx};

use crate::config::ReplicaConfig;
use crate::engine::{self, Accepted, EngineCore, Instances, ProtocolRules, ReplicaEngine};
use crate::kv::Command;
use crate::msg::{Msg, PaxosMsg};
use crate::snapshot::Snapshot;
use crate::types::{quorum, NodeId, Slot, Term};

/// A MultiPaxos replica (proposer + acceptor + learner): the shared
/// engine running [`PaxosRules`].
pub type MultiPaxosReplica = ReplicaEngine<PaxosRules>;

/// What MultiPaxos adds on top of the engine: ballots, the out-of-order
/// instance store, and phase-1/phase-2 semantics.
pub struct PaxosRules {
    /// Highest ballot seen (`s.ballot`).
    ballot: Term,
    /// Figure 1's `phase1Succeeded`: this replica is the active proposer.
    phase1_succeeded: bool,
    /// Figure 1's `s.instances`, with the applied prefix and checkpoint
    /// floor.
    inst: Instances<()>,
    /// Leader's next unused instance id.
    next_slot: Slot,
    /// Phase-1 replies: voter → (accepted entries, log tail, checkpoint
    /// floor).
    prepare_acks: HashMap<NodeId, (Vec<(Slot, Term, Command)>, Slot, Slot)>,
}

impl MultiPaxosReplica {
    /// Creates a replica.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ReplicaConfig) -> Self {
        cfg.validate().expect("invalid replica config");
        ReplicaEngine::from_parts(
            EngineCore::new(cfg),
            PaxosRules {
                ballot: Term::ZERO,
                phase1_succeeded: false,
                inst: Instances::default(),
                next_slot: Slot(1),
                prepare_acks: HashMap::new(),
            },
        )
    }

    /// The current ballot.
    pub fn ballot(&self) -> Term {
        self.rules.ballot
    }

    /// Applied prefix (for tests).
    pub fn exec_index(&self) -> Slot {
        self.rules.inst.exec
    }

    /// Chosen value at a slot, if committed (for agreement tests).
    pub fn committed_at(&self, slot: Slot) -> Option<&Command> {
        let inst = self.rules.inst.map.get(&slot.0)?;
        if inst.committed {
            inst.cmd.as_ref()
        } else {
            None
        }
    }

    /// Retained (uncompacted) instances.
    pub fn retained_instances(&self) -> usize {
        self.rules.inst.map.len()
    }
}

impl PaxosRules {
    fn arm_election(&self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        core.arm_election(ctx, self.ballot == Term::ZERO);
    }

    fn broadcast(&self, core: &EngineCore, ctx: &mut Ctx<Msg>, msg: PaxosMsg) {
        for peer in core.cfg.others() {
            ctx.send(core.cfg.peer(peer), Msg::Paxos(msg.clone()));
        }
    }

    /// A Figure 1 `Phase2a` message at our ballot.
    fn accept(&self, items: Vec<(Slot, Command)>, window_room: bool) -> Msg {
        Msg::Paxos(PaxosMsg::Accept {
            ballot: self.ballot,
            items,
            window_room,
        })
    }

    /// Ships one pipelined Accept round: every acceptor whose window has
    /// room gets the batch now (its send cursor moves past the batch); a
    /// saturated acceptor is skipped and receives the backlog from
    /// [`PaxosRules::pump_accepts`] as its acks free slots (with the
    /// heartbeat retransmission as the loss-recovery backstop). Commits
    /// only need a quorum, so a round skipped by a minority of slow
    /// acceptors commits undelayed.
    fn send_accept_round(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        items: &[(Slot, Command)],
    ) {
        let (Some(first), Some(upto)) = (
            items.iter().map(|(s, _)| *s).min(),
            items.iter().map(|(s, _)| *s).max(),
        ) else {
            return;
        };
        let peers: Vec<NodeId> = core.cfg.others().collect();
        for peer in peers {
            if !core.progress.has_room(peer) {
                continue;
            }
            core.progress.on_sent(peer, first.prev(), upto, ctx.now());
            let window_room = core.progress.quorum_has_room(core.cfg.id);
            ctx.send(
                core.cfg.peer(peer),
                self.accept(items.to_vec(), window_room),
            );
        }
    }

    /// Ships `peer` the uncommitted instances that accumulated past its
    /// send cursor while its window was full. Called after one of its
    /// acknowledgements frees a slot — the MultiPaxos spelling of the
    /// Raft family's backlog pump.
    fn pump_accepts(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, peer: NodeId) {
        let highest = Slot(self.next_slot.0.saturating_sub(1));
        let cursor = core.progress.sent_through(peer);
        if cursor >= highest || !core.progress.has_room(peer) {
            return;
        }
        let items: Vec<(Slot, Command)> = self.uncommitted_past(cursor).take(64).collect();
        match (items.first(), items.last()) {
            (Some(&(first, _)), Some(&(upto, _))) => {
                core.progress.on_sent(peer, first.prev(), upto, ctx.now());
                if items.len() < 64 {
                    // Nothing uncommitted is left past this round.
                    core.progress.advance_cursor(peer, highest);
                }
                let window_room = core.progress.quorum_has_room(core.cfg.id);
                ctx.send(core.cfg.peer(peer), self.accept(items, window_room));
            }
            // Everything past the cursor is committed; Learn covers it.
            _ => core.progress.advance_cursor(peer, highest),
        }
    }

    /// Accepted but uncommitted values past `from`, in slot order.
    fn uncommitted_past(&self, from: Slot) -> impl Iterator<Item = (Slot, Command)> + '_ {
        let pending = self.inst.map.range(from.next().0..);
        pending
            .filter(|(_, i)| !i.committed)
            .filter_map(|(&s, i)| i.cmd.clone().map(|c| (Slot(s), c)))
    }

    /// Adopts a higher ballot. A deposed proposer's in-flight rounds
    /// will never be acknowledged to it as proposer, so it forgets them.
    fn adopt_ballot(&mut self, core: &mut EngineCore, ballot: Term) {
        if self.phase1_succeeded {
            core.progress.reset();
        }
        self.ballot = ballot;
        self.phase1_succeeded = false;
    }

    /// Figure 1 `Phase1a`: pick a fresh owned ballot and prepare.
    fn start_phase1(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.ballot = self.ballot.next_for(core.cfg.id, core.cfg.n);
        self.phase1_succeeded = false;
        self.prepare_acks.clear();
        // Self-votes recorded under the old ballot no longer apply.
        self.inst.forget_own_votes();
        let from_slot = self.first_unchosen();
        // Record our own accepted instances as an implicit Phase1b reply.
        let mine = self.inst.accepted(from_slot.0.., |_| true);
        self.prepare_acks
            .insert(core.cfg.id, (mine, self.inst.tail(), self.inst.floor()));
        self.broadcast(
            core,
            ctx,
            PaxosMsg::Prepare {
                ballot: self.ballot,
                from_slot,
            },
        );
        self.arm_election(core, ctx); // retry if this round stalls
    }

    fn first_unchosen(&self) -> Slot {
        let mut s = self.inst.exec.next();
        while self.inst.map.get(&s.0).is_some_and(|i| i.committed) {
            s = s.next();
        }
        s
    }

    /// Broadcasts a Learn for newly chosen instances and executes.
    fn broadcast_chosen(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, chosen: Vec<Slot>) {
        if !chosen.is_empty() {
            self.broadcast(core, ctx, PaxosMsg::Learn { slots: chosen });
            self.try_execute(core, ctx);
        }
    }

    /// Figure 1 `Phase1Succeed`: adopt safe values and go active.
    fn try_phase1_succeed(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if self.phase1_succeeded || self.prepare_acks.len() < quorum(core.cfg.n) {
            return;
        }
        // Never fill slots at or below a replying acceptor's checkpoint
        // floor: those instances are chosen but unreportable (the
        // acceptor discarded them after execution), so a no-op fill
        // would overwrite a chosen value. The acceptor ships us its
        // checkpoint alongside the PrepareOk; execution of the covered
        // prefix resumes once it installs.
        let max_floor = self
            .prepare_acks
            .values()
            .map(|(_, _, floor)| *floor)
            .max()
            .unwrap_or(Slot::NONE);
        let start = self.first_unchosen().max(max_floor.next());
        let end = self
            .prepare_acks
            .values()
            .map(|(_, tail, _)| *tail)
            .max()
            .unwrap_or(Slot::NONE);
        // safeEntry: highest accepted ballot per instance; Noop for gaps.
        let mut safe: BTreeMap<u64, (Term, Command)> = BTreeMap::new();
        for (entries, _, _) in self.prepare_acks.values() {
            for (slot, bal, cmd) in entries {
                if slot.0 < start.0 {
                    continue;
                }
                match safe.get(&slot.0) {
                    Some((b, _)) if *b >= *bal => {}
                    _ => {
                        safe.insert(slot.0, (*bal, cmd.clone()));
                    }
                }
            }
        }
        let mut items = Vec::new();
        let mut s = start;
        // Our own acceptOK counts only once the value is on disk;
        // `on_durable` adds the bit after the fsync.
        let own_vote = if core.dur.enabled() { 0 } else { core.me_bit() };
        while s <= end {
            if !self.inst.map.entry(s.0).or_default().committed {
                let cmd = safe
                    .get(&s.0)
                    .map(|(_, c)| c.clone())
                    .unwrap_or_else(Command::noop);
                self.inst.write(s, self.ballot, cmd.clone()).acks = own_vote;
                items.push((s, cmd));
            }
            s = s.next();
        }
        self.inst.persist_own(core, ctx, &items, self.ballot);
        self.inst.note_size(&mut core.snap_stats);
        self.phase1_succeeded = true;
        core.leader_hint = Some(core.cfg.id);
        core.progress.reset_for_leadership(Slot::NONE);
        self.next_slot = Slot(end.0.max(self.inst.tail().0) + 1);
        self.send_accept_round(core, ctx, &items);
        core.arm_heartbeat(ctx);
        // Anything buffered while campaigning goes out now.
        engine::flush_pending(self, core, ctx);
    }

    /// Applies the contiguous committed prefix; the proposer answers
    /// clients at apply time.
    fn try_execute(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        loop {
            let next = self.inst.exec.next();
            let Some(inst) = self.inst.map.get(&next.0) else {
                break;
            };
            if !inst.committed {
                break;
            }
            let cmd = inst.cmd.clone().expect("committed instance has a value");
            ctx.charge(core.cfg.costs.apply_per_cmd);
            let reply = engine::apply_command(core, ctx, &cmd, self.phase1_succeeded);
            self.inst.exec = next;
            if self.phase1_succeeded && cmd.id.client != u32::MAX {
                core.respond(ctx, cmd.id, reply);
            }
        }
        // Checkpoint and discard the whole executed prefix.
        self.inst.maybe_compact(core, ctx, self.inst.exec);
    }

    fn on_paxos(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        msg: PaxosMsg,
    ) {
        match msg {
            PaxosMsg::Prepare { ballot, from_slot } => {
                // Figure 1 Phase1b.
                if ballot > self.ballot {
                    self.adopt_ballot(core, ballot);
                    core.leader_hint = Some(ballot.owner(core.cfg.n));
                    self.arm_election(core, ctx);
                    // The promise itself is free always-durable metadata
                    // (see the module docs), but the reply reports
                    // accepted *values*; deferring it behind any
                    // outstanding value write keeps the report's
                    // contents crash-stable.
                    let ok = Msg::Paxos(PaxosMsg::PrepareOk {
                        ballot,
                        entries: self.inst.accepted(from_slot.0.., |_| true),
                        log_tail: self.inst.tail(),
                        floor: self.inst.floor(),
                    });
                    core.ack_after_sync(ctx, from, ok);
                    // The candidate asks for instances we checkpointed
                    // away: ship the checkpoint so it can execute the
                    // covered prefix it will never see as entries.
                    if from_slot <= self.inst.floor() {
                        engine::ship_snapshot(
                            core,
                            ctx,
                            core.cfg.node_of(from),
                            (self.inst.exec, Term::ZERO),
                            self.ballot,
                        );
                    }
                }
            }
            PaxosMsg::PrepareOk {
                ballot,
                entries,
                log_tail,
                floor,
            } => {
                if ballot == self.ballot && !self.phase1_succeeded {
                    let node = core.cfg.node_of(from);
                    self.prepare_acks.insert(node, (entries, log_tail, floor));
                    self.try_phase1_succeed(core, ctx);
                }
            }
            PaxosMsg::Accept {
                ballot,
                items,
                window_room,
            } => {
                // Figure 1 Phase2b.
                if ballot >= self.ballot {
                    if ballot > self.ballot {
                        self.adopt_ballot(core, ballot);
                    }
                    core.leader_hint = Some(ballot.owner(core.cfg.n));
                    core.note_window_hint(window_room, ctx.now());
                    let bytes: usize = items.iter().map(|(_, c)| c.size_bytes()).sum();
                    ctx.charge(
                        core.cfg.costs.append_fixed
                            + core.cfg.costs.append_per_cmd * items.len() as u64
                            + core.cfg.costs.size_cost(bytes),
                    );
                    let mut slots = Vec::with_capacity(items.len());
                    let mut below_floor = false;
                    let mut written = Vec::new();
                    let mut written_bytes = 0usize;
                    for (slot, cmd) in items {
                        let size = cmd.size_bytes();
                        match self.inst.accept(slot, ballot, cmd) {
                            // Checkpointed away: the instance is chosen
                            // and executed here; a proposer asking about
                            // it is behind our floor.
                            Accepted::BelowFloor => {
                                below_floor = true;
                                continue;
                            }
                            Accepted::Held => {}
                            Accepted::Written => {
                                written_bytes += size;
                                written.push(slot);
                            }
                        }
                        slots.push(slot);
                    }
                    // The freshly accepted values are one disk write.
                    self.inst.persist(core, ctx, &written, written_bytes);
                    self.inst.note_size(&mut core.snap_stats);
                    // Accepts double as heartbeats.
                    self.arm_election(core, ctx);
                    // Phase2b promises the accepted values survive a
                    // crash: the acceptOK leaves only after the fsync
                    // covering them (group commit batches the fsync).
                    let ok = Msg::Paxos(PaxosMsg::AcceptOk {
                        ballot,
                        slots,
                        exec: self.inst.exec,
                    });
                    core.ack_after_sync(ctx, from, ok);
                    if below_floor {
                        engine::ship_snapshot(
                            core,
                            ctx,
                            core.cfg.node_of(from),
                            (self.inst.exec, Term::ZERO),
                            self.ballot,
                        );
                    }
                    self.try_execute(core, ctx);
                }
            }
            PaxosMsg::AcceptOk {
                ballot,
                slots,
                exec,
            } => {
                // Figure 1 Learn.
                let node = core.cfg.node_of(from);
                core.progress.note_exec(node, exec);
                if let Some(&upto) = slots.iter().max() {
                    core.progress.on_ack(node, upto);
                }
                if ballot == self.ballot && self.phase1_succeeded {
                    ctx.charge(core.cfg.costs.ack_process);
                    let mut chosen = Vec::new();
                    let need = quorum(core.cfg.n);
                    self.inst
                        .tally(&slots, None, 1u64 << node.0, need, &mut chosen);
                    // An acceptor's executed prefix is chosen globally.
                    // Instances we proposed at our own ballot (i.e.
                    // after a successful phase 1) need no quorum count
                    // there: their value agrees with the chosen one by
                    // the phase-1 safety argument. Stale-ballot values
                    // may differ from what was chosen, so they must
                    // wait for a Learn or checkpoint instead.
                    for (&s, inst) in self.inst.map.range_mut(..=exec.0) {
                        if !inst.committed && inst.cmd.is_some() && inst.bal == self.ballot {
                            inst.committed = true;
                            chosen.push(Slot(s));
                        }
                    }
                    self.broadcast_chosen(core, ctx, chosen);
                    // The freed window slot may have a backlog waiting.
                    self.pump_accepts(core, ctx, node);
                }
            }
            PaxosMsg::Learn { slots } => {
                for slot in slots {
                    self.inst.learn(slot);
                }
                self.try_execute(core, ctx);
            }
        }
    }

    /// Heartbeat: retransmit uncommitted instances, re-Learn committed
    /// ones, and catch lagging acceptors up — by instance replay while
    /// their gap is still retained, by checkpoint once it is not.
    fn heartbeat(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        if !self.phase1_succeeded {
            return;
        }
        // Rounds whose acks never came are presumed lost; the heartbeat
        // retransmission below re-covers their instances, so the window
        // must not stay pinned by them.
        core.progress
            .expire_stale(ctx.now(), core.cfg.retry_interval);
        let retransmit: Vec<(Slot, Command)> = self.uncommitted_past(self.inst.exec).collect();
        let committed: Vec<Slot> = self
            .inst
            .map
            .range(self.inst.exec.0.saturating_sub(64)..)
            .filter(|(_, i)| i.committed)
            .map(|(&s, _)| Slot(s))
            .collect();
        // The heartbeat Accept doubles as the hint refresh: even an idle
        // cluster re-teaches acceptors the proposer's window occupancy.
        let window_room = core.progress.quorum_has_room(core.cfg.id);
        for peer in core.cfg.others() {
            ctx.send(
                core.cfg.peer(peer),
                self.accept(retransmit.clone(), window_room),
            );
        }
        if !committed.is_empty() {
            self.broadcast(core, ctx, PaxosMsg::Learn { slots: committed });
        }
        // Per-acceptor catch-up, 64 instances per round to bound the
        // burst. An acceptor behind the checkpoint floor can only be
        // caught up by state transfer — the instances are gone. A
        // healthy acceptor's report always trails by a WAN round-trip,
        // so replay targets only *stalled* reports: ones that did not
        // advance between two consecutive heartbeats.
        let peers: Vec<NodeId> = core.cfg.others().collect();
        for peer in peers {
            let Some(fexec) = core.progress.stalled_exec(peer) else {
                continue;
            };
            if fexec >= self.inst.exec {
                continue;
            }
            if fexec < self.inst.floor() {
                engine::ship_snapshot(core, ctx, peer, (self.inst.exec, Term::ZERO), self.ballot);
                continue;
            }
            let replay = self.inst.replay(fexec, |_| true);
            if replay.is_empty() {
                continue;
            }
            let slots = replay.iter().map(|v| v.0).collect();
            let items = replay.into_iter().map(|(s, _, c)| (s, c)).collect();
            ctx.send(core.cfg.peer(peer), self.accept(items, window_room));
            ctx.send(core.cfg.peer(peer), Msg::Paxos(PaxosMsg::Learn { slots }));
        }
        core.arm_heartbeat(ctx);
    }
}

impl ProtocolRules for PaxosRules {
    fn can_propose(&self, _core: &EngineCore) -> bool {
        self.phase1_succeeded
    }

    fn applied_index(&self, _core: &EngineCore) -> Slot {
        self.inst.exec
    }

    /// Figure 1 `Phase2a`, batched.
    fn propose(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, cmds: Vec<Command>) {
        let mut items = Vec::with_capacity(cmds.len());
        // With durability on, the proposer's implicit acceptOK waits for
        // its own fsync (`on_durable` adds the bit).
        let own_vote = if core.dur.enabled() { 0 } else { core.me_bit() };
        for cmd in cmds {
            let slot = self.next_slot;
            self.next_slot = self.next_slot.next();
            self.inst.write(slot, self.ballot, cmd.clone()).acks = own_vote;
            items.push((slot, cmd));
        }
        self.inst.persist_own(core, ctx, &items, self.ballot);
        self.inst.note_size(&mut core.snap_stats);
        self.send_accept_round(core, ctx, &items);
    }

    fn on_start(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.arm_election(core, ctx);
    }

    fn on_election_timeout(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.start_phase1(core, ctx);
    }

    fn on_heartbeat(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        self.heartbeat(core, ctx);
    }

    fn on_msg(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        if let Msg::Paxos(p) = msg {
            self.on_paxos(core, ctx, from, p);
        }
    }

    fn accept_snapshot_chunk(
        &mut self,
        _core: &mut EngineCore,
        _ctx: &mut Ctx<Msg>,
        _from: ActorId,
        seal: Term,
    ) -> bool {
        // A stale proposer's checkpoint is ignored.
        seal >= self.ballot
    }

    /// The Paxos `Checkpoint`/`CheckpointOk` spelling is leaner on the
    /// wire than Raft's `InstallSnapshot`/`SnapshotAck`.
    fn snapshot_wire_overhead(&self, costs: &crate::costs::CostModel) -> (usize, usize) {
        (costs.checkpoint_chunk_header, costs.checkpoint_ack_header)
    }

    /// Installs a fully reassembled checkpoint.
    fn install_snapshot(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        from: ActorId,
        snap: Snapshot,
    ) {
        let last = snap.last_slot;
        if self.inst.install(core, ctx, snap).is_some() {
            self.next_slot = self.next_slot.max(last.next());
            // A mid-campaign phase-1 picture is stale now; the armed
            // election timer retries with a fresh ballot.
            if !self.phase1_succeeded {
                self.prepare_acks.clear();
            }
            self.try_execute(core, ctx);
        }
        self.inst.ack_checkpoint(core, ctx, from, self.ballot);
    }

    fn on_snapshot_ack(
        &mut self,
        core: &mut EngineCore,
        _ctx: &mut Ctx<Msg>,
        from: ActorId,
        _seal: Term,
        upto: Slot,
    ) {
        let node = core.cfg.node_of(from);
        core.snap_send.finish(node.0 as usize);
        core.progress.note_exec(node, upto);
    }

    fn on_durable(&mut self, core: &mut EngineCore, ctx: &mut Ctx<Msg>) {
        // An fsync landed: the proposer's own accepted values up to the
        // durable watermark now count toward their quorums.
        if !self.phase1_succeeded {
            return;
        }
        let mut chosen = Vec::new();
        let need = quorum(core.cfg.n);
        for (bal, slots) in self.inst.take_synced_votes(core.dur.synced_seq()) {
            self.inst
                .tally(&slots, Some(bal), core.me_bit(), need, &mut chosen);
        }
        self.broadcast_chosen(core, ctx, chosen);
    }

    fn on_crash(&mut self, core: &mut EngineCore) {
        // Model a restart with stable storage: ballot, *fsynced*
        // accepted values, commit flags, the executed state (this model
        // keeps the state machine across a crash) and the checkpoint
        // persist; volatile leadership does not. Unsynced values past
        // the applied prefix are gone; a committed instance losing its
        // value this way awaits it from the proposer's retransmission or
        // a checkpoint.
        let from = self.inst.exec.next();
        for (s, _) in self.inst.drop_unsynced(core.dur.synced_seq(), from) {
            // Fully empty uncommitted instances need no placeholder.
            if !self.inst.awaits_value(s) {
                self.inst.map.remove(&s.0);
            }
        }
        self.phase1_succeeded = false;
        self.prepare_acks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{cluster_with, drive_until, TestClient};
    use paxraft_sim::sim::Simulation;
    use paxraft_sim::time::{SimDuration, SimTime};

    fn paxos_cluster(n: usize) -> (Simulation<Msg>, Vec<ActorId>, ActorId) {
        cluster_with(n, |cfg| {
            let mut cfg = cfg;
            cfg.initial_leader = Some(NodeId(0));
            Box::new(MultiPaxosReplica::new(cfg))
        })
    }

    #[test]
    fn all_replicas_converge_on_same_log() {
        let (mut sim, replicas, client) = paxos_cluster(3);
        for k in 0..10 {
            sim.actor_mut::<TestClient>(client).enqueue_put(k);
        }
        drive_until(&mut sim, SimTime::from_secs(10), |sim| {
            sim.actor::<TestClient>(client).replies.len() == 10
        });
        // Heartbeats spread Learn messages; run a little longer.
        sim.run_for(SimDuration::from_secs(1));
        let exec0 = sim.actor::<MultiPaxosReplica>(replicas[0]).exec_index();
        assert!(exec0.0 >= 10);
        for s in 1..=exec0.0 {
            let c0 = sim
                .actor::<MultiPaxosReplica>(replicas[0])
                .committed_at(Slot(s))
                .cloned();
            for &r in &replicas[1..] {
                if let Some(c) = sim.actor::<MultiPaxosReplica>(r).committed_at(Slot(s)) {
                    assert_eq!(Some(c.clone()), c0, "agreement at slot {s}");
                }
            }
        }
    }
}
