//! The Paxos-family instance store, Figure 1's `s.instances`: what
//! [`super::raft_family::RaftBase`] is to Raft and Raft*, this is to
//! MultiPaxos and Raft*-Mencius.
//!
//! It owns every per-slot transition both protocols need — accept a
//! value, learn a decision before its value, tally votes (the proposer's
//! own only once its write is fsynced), checkpoint and discard the
//! executed prefix, install a checkpoint, drop unsynced values on a
//! crash, replay committed values to a stalled peer. It never branches
//! on protocol: it hands back what it discarded or dropped, and per-slot
//! state only one protocol needs rides in [`Instance::ext`].

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeBounds;

use paxraft_sim::sim::{ActorId, Ctx};

use crate::kv::Command;
use crate::msg::{EngineMsg, Msg};
use crate::snapshot::{Snapshot, SnapshotStats};
use crate::types::{Slot, Term};

use super::EngineCore;

/// Most committed values one stalled-peer replay round carries.
const REPLAY_BURST: usize = 64;

/// One instance (Figure 1's `s.instances[i]`).
#[derive(Debug, Default)]
pub struct Instance<X> {
    /// The accepted value.
    pub cmd: Option<Command>,
    /// Highest ballot the value was accepted at, or promised.
    pub bal: Term,
    /// Whether the value is known chosen.
    pub committed: bool,
    /// Proposer-side acknowledgement bitmap.
    pub acks: u64,
    /// Sequence of the disk write carrying the value (0 with durability
    /// disabled); a crash before its fsync drops the value.
    wseq: u64,
    /// Protocol-specific per-slot state.
    pub ext: X,
}

/// What [`Instances::accept`] did with a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accepted {
    /// At or below the checkpoint floor (decided and executed): nothing
    /// stored.
    BelowFloor,
    /// Already committed with a value, which is never rewritten.
    Held,
    /// Stored, and committed if its decision had arrived first.
    Written,
}

/// The per-slot records with the applied prefix, the checkpoint floor,
/// the payload byte count and the own votes awaiting the local fsync.
#[derive(Debug, Default)]
pub struct Instances<X> {
    /// The records by slot. Values change only through the methods
    /// below, which keep the byte count; other fields may be edited in
    /// place.
    pub map: BTreeMap<u64, Instance<X>>,
    /// Applied prefix.
    pub exec: Slot,
    /// Checkpoint floor: slots at or below it were discarded after
    /// execution; their effects live in the state machine.
    floor: Slot,
    /// Retained payload bytes (compaction byte trigger).
    bytes: usize,
    /// Slots known chosen whose value has not arrived.
    no_value: BTreeSet<u64>,
    /// Own votes awaiting the local fsync: (write seq, ballot, slots).
    own_votes: Vec<(u64, Term, Vec<Slot>)>,
}

impl<X: Default> Instances<X> {
    /// Highest retained slot (`NONE` when empty).
    pub fn tail(&self) -> Slot {
        self.map.keys().next_back().map_or(Slot::NONE, |&s| Slot(s))
    }

    /// The checkpoint floor.
    pub fn floor(&self) -> Slot {
        self.floor
    }

    /// Whether `s` is known chosen but its value has not arrived.
    pub fn awaits_value(&self, s: Slot) -> bool {
        self.no_value.contains(&s.0)
    }

    /// Feeds the retained size into the peak-log counters.
    pub fn note_size(&self, stats: &mut SnapshotStats) {
        stats.note_log_size(self.map.len(), self.bytes);
    }

    /// Stores `cmd` at `s` unconditionally (a proposer's own write),
    /// raising the ballot to `bal`.
    pub fn write(&mut self, s: Slot, bal: Term, cmd: Command) -> &mut Instance<X> {
        let inst = self.map.entry(s.0).or_default();
        self.bytes += cmd.size_bytes();
        self.bytes -= inst.cmd.replace(cmd).map_or(0, |c| c.size_bytes());
        inst.bal = inst.bal.max(bal);
        inst
    }

    /// The acceptor's write of `cmd` at `s`, accepted at `bal`.
    pub fn accept(&mut self, s: Slot, bal: Term, cmd: Command) -> Accepted {
        if s <= self.floor {
            return Accepted::BelowFloor;
        }
        let held = |i: &Instance<X>| i.committed && i.cmd.is_some();
        if self.map.get(&s.0).is_some_and(held) {
            return Accepted::Held;
        }
        let promote = self.no_value.remove(&s.0);
        self.write(s, bal, cmd).committed |= promote;
        Accepted::Written
    }

    /// A Learn/Commit for `s`: commits it, or records the decision until
    /// the value arrives. `false` for slots checkpointed away.
    pub fn learn(&mut self, s: Slot) -> bool {
        if s <= self.floor {
            return false;
        }
        match self.map.get_mut(&s.0) {
            Some(inst) if inst.cmd.is_some() => inst.committed = true,
            _ => {
                self.no_value.insert(s.0);
            }
        }
        true
    }

    /// Charges one disk write of `bytes` for the values just written at
    /// `slots` and tags them with its sequence, which it returns (`None`
    /// when nothing was written or durability is disabled).
    pub fn persist(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        slots: &[Slot],
        bytes: usize,
    ) -> Option<u64> {
        if slots.is_empty() {
            return None;
        }
        core.durable_write(ctx, bytes, slots.len());
        if !core.dur.enabled() {
            return None;
        }
        let seq = core.dur.write_seq();
        for s in slots {
            if let Some(inst) = self.map.get_mut(&s.0) {
                inst.wseq = seq;
            }
        }
        Some(seq)
    }

    /// [`Instances::persist`] for the proposer's own proposals at ballot
    /// `bal`; its own vote waits for [`Instances::take_synced_votes`].
    pub fn persist_own(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        items: &[(Slot, Command)],
        bal: Term,
    ) {
        let slots: Vec<Slot> = items.iter().map(|(s, _)| *s).collect();
        let bytes = items.iter().map(|(_, c)| c.size_bytes()).sum();
        if let Some(seq) = self.persist(core, ctx, &slots, bytes) {
            self.own_votes.push((seq, bal, slots));
        }
    }

    /// Forgets queued own votes (a new ballot supersedes them).
    pub fn forget_own_votes(&mut self) {
        self.own_votes.clear();
    }

    /// Adds voter `bit` to the listed uncommitted slots and commits those
    /// reaching `need` votes, appending them to `chosen`. With `bal`
    /// set, a vote counts only while the slot's ballot is still `bal`.
    pub fn tally(
        &mut self,
        slots: &[Slot],
        bal: Option<Term>,
        bit: u64,
        need: usize,
        chosen: &mut Vec<Slot>,
    ) {
        for s in slots {
            let Some(inst) = self.map.get_mut(&s.0) else {
                continue;
            };
            if inst.committed || bal.is_some_and(|b| b != inst.bal) {
                continue;
            }
            inst.acks |= bit;
            if inst.acks.count_ones() as usize >= need {
                inst.committed = true;
                chosen.push(*s);
            }
        }
    }

    /// Takes the queued own votes that the fsync covering write
    /// `synced` made durable, as (ballot cast at, slots).
    pub fn take_synced_votes(&mut self, synced: u64) -> Vec<(Term, Vec<Slot>)> {
        let split = self.own_votes.partition_point(|v| v.0 <= synced);
        self.own_votes
            .drain(..split)
            .map(|(_, b, s)| (b, s))
            .collect()
    }

    /// The accepted `(slot, ballot, value)`s in `r` whose slot passes
    /// `keep`: a phase-1 report.
    pub fn accepted<R: RangeBounds<u64>>(
        &self,
        r: R,
        keep: impl Fn(Slot) -> bool,
    ) -> Vec<(Slot, Term, Command)> {
        self.map
            .range(r)
            .filter(|(&s, _)| keep(Slot(s)))
            .filter_map(|(&s, i)| i.cmd.clone().map(|c| (Slot(s), i.bal, c)))
            .collect()
    }

    /// The first [`REPLAY_BURST`] committed `(slot, ballot, value)`s past
    /// a stalled peer's applied prefix `exec` whose slot passes `keep`.
    pub fn replay(&self, exec: Slot, keep: impl Fn(Slot) -> bool) -> Vec<(Slot, Term, Command)> {
        self.map
            .range(exec.next().0..)
            .filter(|(&s, i)| i.committed && keep(Slot(s)))
            .filter_map(|(&s, i)| i.cmd.clone().map(|c| (Slot(s), i.bal, c)))
            .take(REPLAY_BURST)
            .collect()
    }

    /// Drops the records at or below `upto` and raises the floor to it.
    fn discard_through(&mut self, upto: Slot) -> BTreeMap<u64, Instance<X>> {
        let retained = self.map.split_off(&(upto.0 + 1));
        let gone = std::mem::replace(&mut self.map, retained);
        for inst in gone.values() {
            self.bytes -= inst.cmd.as_ref().map_or(0, Command::size_bytes);
        }
        self.no_value = self.no_value.split_off(&(upto.0 + 1));
        self.floor = self.floor.max(upto);
        gone
    }

    /// Once the configured threshold is crossed, checkpoints the state
    /// machine at the applied prefix and discards the records through
    /// `upto` (at most the applied prefix), returning them.
    pub fn maybe_compact(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        upto: Slot,
    ) -> Option<BTreeMap<u64, Instance<X>>> {
        let snapshot = &core.cfg.snapshot;
        let executed = upto.0.saturating_sub(self.floor.0) as usize;
        if !snapshot.enabled() || !snapshot.should_compact(executed, self.bytes) {
            return None;
        }
        let snap = Snapshot {
            last_slot: self.exec,
            last_term: Term::ZERO,
            kv: core.kv.snapshot(),
        };
        ctx.charge(core.cfg.costs.snapshot_cost(snap.size_bytes()));
        // The checkpoint file replaces the discarded instances as their
        // durable form; charge its write (modeled atomic, no ack waits
        // on it — see `raft_family::RaftBase::maybe_compact`).
        core.durable_write(ctx, snap.size_bytes(), 1);
        let gone = self.discard_through(upto);
        core.stable_snap = Some(snap);
        core.snap_stats.compactions += 1;
        core.snap_stats.entries_discarded += gone.len() as u64;
        Some(gone)
    }

    /// Installs a checkpoint that is ahead of the applied prefix and
    /// returns the records it covers, now discarded.
    pub fn install(
        &mut self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        snap: Snapshot,
    ) -> Option<BTreeMap<u64, Instance<X>>> {
        if snap.last_slot <= self.exec {
            return None;
        }
        ctx.charge(core.cfg.costs.snapshot_cost(snap.size_bytes()));
        // The installed checkpoint is the new recovery floor; the ack
        // attests to holding it, so its write is charged and the ack
        // waits for the covering fsync.
        core.durable_write(ctx, snap.size_bytes(), 1);
        core.kv.restore(&snap.kv);
        self.exec = snap.last_slot;
        let gone = self.discard_through(snap.last_slot);
        core.stable_snap = Some(snap);
        core.snap_stats.snapshots_installed += 1;
        Some(gone)
    }

    /// Acknowledges a checkpoint transfer from `to` at the applied prefix.
    pub fn ack_checkpoint(
        &self,
        core: &mut EngineCore,
        ctx: &mut Ctx<Msg>,
        to: ActorId,
        seal: Term,
    ) {
        let ack = Msg::Engine(EngineMsg::SnapshotAck {
            group: core.cfg.group_id(),
            seal,
            upto: self.exec,
            header_bytes: core.snap_wire.1,
        });
        core.ack_after_sync(ctx, to, ack);
    }

    /// Crash: drops the values from slot `from` on whose write never
    /// fsynced (sequence beyond `synced`) and returns them. Their acks
    /// and the own votes for them (forgotten here) waited for that
    /// fsync, so they counted toward no quorum and dropping them loses
    /// no chosen state. A committed instance losing its value awaits it
    /// again. Ballots are durable metadata and survive.
    pub fn drop_unsynced(&mut self, synced: u64, from: Slot) -> Vec<(Slot, Command)> {
        let mut dropped = Vec::new();
        for (&s, inst) in self.map.range_mut(from.0..) {
            if inst.wseq <= synced {
                continue;
            }
            let Some(cmd) = inst.cmd.take() else {
                continue;
            };
            self.bytes -= cmd.size_bytes();
            inst.acks = 0;
            inst.wseq = 0;
            if std::mem::take(&mut inst.committed) {
                self.no_value.insert(s);
            }
            dropped.push((Slot(s), cmd));
        }
        self.own_votes.clear();
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::{CmdId, Key};

    fn put(seq: u64, len: usize) -> Command {
        Command::put(CmdId { client: 1, seq }, Key::from(seq), vec![0; len])
    }

    fn bal(round: u64) -> Term {
        Term::encode(round, crate::types::NodeId(0), 3)
    }

    /// One fresh store per case; each case drives one transition.
    #[test]
    fn instances_table() {
        type Case = (&'static str, fn(&mut Instances<()>));
        let cases: &[Case] = &[
            ("a commit before its value is promoted by the value", |st| {
                assert!(st.learn(Slot(3)));
                assert!(st.map.is_empty() && st.awaits_value(Slot(3)));
                assert_eq!(st.accept(Slot(3), bal(1), put(3, 8)), Accepted::Written);
                assert!(st.map[&3].committed && !st.awaits_value(Slot(3)));
            }),
            ("a late accept never rewrites a committed value", |st| {
                st.accept(Slot(1), bal(1), put(1, 8));
                st.learn(Slot(1));
                assert_eq!(st.accept(Slot(1), bal(2), put(9, 8)), Accepted::Held);
                assert_eq!(st.map[&1].cmd.as_ref().unwrap().id.seq, 1);
                assert_eq!(st.map[&1].bal, bal(1));
            }),
            ("bytes track accept, replace, crash drop, discard", |st| {
                let (a, b, c) = (put(1, 8), put(2, 40), put(3, 100));
                let (sa, sb, sc) = (a.size_bytes(), b.size_bytes(), c.size_bytes());
                st.accept(Slot(1), bal(1), a);
                st.accept(Slot(2), bal(1), b);
                assert_eq!(st.bytes, sa + sb);
                st.accept(Slot(2), bal(2), c);
                assert_eq!(st.bytes, sa + sc, "a replace swaps the payload");
                st.map.get_mut(&2).unwrap().wseq = 5;
                assert_eq!(st.drop_unsynced(4, Slot(1)).len(), 1);
                assert_eq!(st.bytes, sa, "a crash drop releases the payload");
                assert_eq!(st.discard_through(Slot(1)).len(), 1);
                assert_eq!(st.bytes, 0, "a discard releases the payload");
                assert_eq!(st.accept(Slot(1), bal(3), put(4, 8)), Accepted::BelowFloor);
                assert_eq!(st.bytes, 0);
            }),
            ("an unsynced drop degrades a commit; synced survive", |st| {
                for s in 1..=3 {
                    st.accept(Slot(s), bal(1), put(s, 8));
                    st.map.get_mut(&s).unwrap().wseq = s.min(2);
                }
                st.learn(Slot(1));
                st.learn(Slot(2));
                let dropped = st.drop_unsynced(1, Slot(1));
                assert_eq!(
                    dropped.iter().map(|d| d.0).collect::<Vec<_>>(),
                    [Slot(2), Slot(3)]
                );
                assert!(st.map[&1].committed, "a synced value is kept");
                assert!(!st.map[&2].committed && st.map[&2].cmd.is_none());
                assert!(st.awaits_value(Slot(2)), "the commit awaits its value");
                assert!(!st.awaits_value(Slot(3)));
                assert_eq!(st.map[&3].bal, bal(1), "the ballot is durable");
            }),
            ("the own-vote drain ignores a superseded ballot", |st| {
                st.write(Slot(1), bal(1), put(1, 8));
                st.write(Slot(2), bal(1), put(2, 8));
                st.own_votes.push((1, bal(1), vec![Slot(1), Slot(2)]));
                st.own_votes.push((2, bal(1), vec![Slot(1)]));
                // Slot 2 is rewritten at a higher ballot before the fsync.
                st.write(Slot(2), bal(2), put(3, 8));
                let mut chosen = Vec::new();
                for (b, slots) in st.take_synced_votes(1) {
                    st.tally(&slots, Some(b), 0b1, 1, &mut chosen);
                }
                assert_eq!(chosen, vec![Slot(1)]);
                assert!(!st.map[&2].committed);
                assert_eq!(st.own_votes.len(), 1, "the unsynced vote stays queued");
            }),
            ("a discard at the floor clears the no-value markers", |st| {
                st.learn(Slot(2));
                st.learn(Slot(5));
                st.discard_through(Slot(3));
                assert!(!st.awaits_value(Slot(2)) && st.awaits_value(Slot(5)));
                assert!(!st.learn(Slot(3)), "checkpointed slots are not re-learned");
            }),
        ];
        for (name, case) in cases {
            eprintln!("case: {name}");
            case(&mut Instances::default());
        }
    }
}
