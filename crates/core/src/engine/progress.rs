//! Per-peer replication progress, written once for every protocol.
//!
//! The paper's Figure-3 map makes a Raft append round and a Paxos accept
//! round the same act, so a proposer's view of each peer is the same
//! record in all four protocols — the shape of etcd's single per-peer
//! `Progress`. [`Progress`] owns it, one entry per replica:
//!
//! - the **match index** (highest slot the peer acknowledged holding),
//!   from which the Raft family's commit tally takes its f-th largest;
//! - the **send cursor** (`sent_through`, MultiPaxos's accept cursor):
//!   the highest slot already shipped, so back-to-back batch flushes do
//!   not retransmit in-flight suffixes, plus the `prev` of the last send
//!   (rejection backoff) and its time (timed rewind);
//! - the **in-flight rounds**: etcd-style *pipelined AppendEntries* and
//!   α-bounded in-flight Paxos instances are one mechanism, a window of
//!   at most `depth` unacknowledged rounds per peer. Senders consult
//!   [`Progress::has_room`] before shipping *new* entries
//!   (retransmissions are not gated). An acknowledgement covering slot
//!   `s` retires every round ending at or below `s`, so a lost ack does
//!   not pin the window once a later one arrives; a rejection or rewind
//!   clears the peer's rounds so the retransmission starts a fresh
//!   window rather than counting dead rounds against the depth;
//! - the **executed prefix** the peer last reported and its value at the
//!   previous tick: a report that did not move between two ticks marks a
//!   *stalled* peer (a gap it cannot fill itself), as opposed to one
//!   merely trailing by a WAN round trip.
//!
//! Every transition that touches several of these fields is one call,
//! so no call site can update the cursor without the window or the
//! other way round. Reset points: [`Progress::reset_for_leadership`] on
//! gaining leadership (reports survive it), [`Progress::reset`] on
//! losing it, [`Progress::clear`] on a crash.
//!
//! The window also drives the engine's **adaptive batch cutter** (see
//! [`super::ReplicaEngine`]): while a replication quorum has window room
//! a pending batch is flushed immediately (pipelining hides the round
//! trip, so waiting only adds latency); once the window saturates,
//! commands accumulate up to `batch_max` or the batch timer — exactly
//! the regime where batching amortizes per-round cost.

use std::collections::VecDeque;

use paxraft_sim::time::{SimDuration, SimTime};

use crate::types::{NodeId, Slot};

/// One in-flight replication round toward a peer.
#[derive(Debug, Clone, Copy)]
struct Round {
    /// Highest slot the round carries; an ack at or above it retires
    /// the round.
    upto: Slot,
    /// When the round was shipped (staleness expiry).
    sent_at: SimTime,
}

/// Occupancy and cutter counters, aggregated into
/// [`crate::harness::RunReport::pipeline`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// Replication rounds shipped through the window.
    pub rounds_sent: u64,
    /// High-water mark of in-flight rounds to any single peer.
    pub peak_in_flight: u64,
    /// Batch flushes triggered by window room (no timer wait).
    pub eager_flushes: u64,
    /// Times the cutter accumulated instead because the window was
    /// saturated.
    pub window_deferrals: u64,
    /// Rounds retired by out-of-order/cumulative acknowledgements.
    pub rounds_acked: u64,
    /// Rounds cleared by a regress (rejection, rewind, or expiry).
    pub rounds_regressed: u64,
    /// Follower forwards cut early because a piggybacked leader
    /// occupancy hint said the window had room.
    pub hint_flushes: u64,
    /// Eager cuts refused because the egress NIC backlog exceeded a
    /// quarter of the batch delay: the bandwidth-bound regime where
    /// batching amortizes per-message overhead.
    pub nic_deferrals: u64,
}

impl PipelineStats {
    /// Accumulates another replica's counters (peaks take the max).
    pub fn absorb(&mut self, other: &PipelineStats) {
        self.rounds_sent += other.rounds_sent;
        self.peak_in_flight = self.peak_in_flight.max(other.peak_in_flight);
        self.eager_flushes += other.eager_flushes;
        self.window_deferrals += other.window_deferrals;
        self.rounds_acked += other.rounds_acked;
        self.rounds_regressed += other.rounds_regressed;
        self.hint_flushes += other.hint_flushes;
        self.nic_deferrals += other.nic_deferrals;
    }
}

/// What a proposer knows about one peer.
#[derive(Debug, Clone)]
struct Peer {
    matched: Slot,
    sent_through: Slot,
    prev_sent: Slot,
    last_sent: SimTime,
    inflight: VecDeque<Round>,
    exec: Slot,
    exec_prev: Slot,
}

impl Peer {
    const FRESH: Peer = Peer {
        matched: Slot::NONE,
        sent_through: Slot::NONE,
        prev_sent: Slot::NONE,
        last_sent: SimTime::ZERO,
        inflight: VecDeque::new(),
        exec: Slot::NONE,
        exec_prev: Slot::NONE,
    };
}

/// Per-peer replication progress for one replica.
#[derive(Debug)]
pub struct Progress {
    depth: usize,
    peers: Vec<Peer>,
    /// Occupancy and cutter counters.
    pub stats: PipelineStats,
}

impl Progress {
    /// Fresh progress over `n` replicas with a window of `depth`
    /// in-flight rounds per peer.
    pub fn new(n: usize, depth: usize) -> Self {
        Progress {
            depth,
            peers: vec![Peer::FRESH; n],
            stats: PipelineStats::default(),
        }
    }

    fn peer(&self, p: NodeId) -> &Peer {
        &self.peers[p.0 as usize]
    }

    fn peer_mut(&mut self, p: NodeId) -> &mut Peer {
        &mut self.peers[p.0 as usize]
    }

    /// Leadership acquired with the log ending at `tail`: optimistically
    /// assume every peer holds it (rejections back the cursor off),
    /// forget the match and every in-flight round. Executed-prefix
    /// reports survive.
    pub fn reset_for_leadership(&mut self, tail: Slot) {
        for p in &mut self.peers {
            p.matched = Slot::NONE;
            p.sent_through = tail;
            p.prev_sent = tail;
            p.last_sent = SimTime::ZERO;
            p.inflight.clear();
        }
    }

    /// Leadership lost: the in-flight rounds will never be acknowledged
    /// to this replica as leader, so stop counting them.
    pub fn reset(&mut self) {
        for p in &mut self.peers {
            p.inflight.clear();
        }
    }

    /// Crash: all of it is volatile.
    pub fn clear(&mut self) {
        self.peers.fill(Peer::FRESH);
    }

    /// Acknowledged match index of `p`.
    pub fn match_index(&self, p: NodeId) -> Slot {
        self.peer(p).matched
    }

    /// The raw send cursor of `p`: the highest slot offered to it.
    pub fn sent_through(&self, p: NodeId) -> Slot {
        self.peer(p).sent_through
    }

    /// The `prev` the next Append to `p` should use: everything after it
    /// is shipped in that message.
    pub fn next_prev(&self, p: NodeId) -> Slot {
        let peer = self.peer(p);
        peer.sent_through.max(peer.matched)
    }

    /// In-flight rounds toward `p`.
    pub fn in_flight(&self, p: NodeId) -> usize {
        self.peer(p).inflight.len()
    }

    /// Total in-flight rounds across every peer — the occupancy gauge
    /// the telemetry sampler reads.
    pub fn total_in_flight(&self) -> usize {
        self.peers.iter().map(|p| p.inflight.len()).sum()
    }

    /// Whether a new round may be started toward `p`.
    pub fn has_room(&self, p: NodeId) -> bool {
        self.in_flight(p) < self.depth
    }

    /// Whether enough peers have window room that a fresh round could
    /// still be acknowledged by a replication quorum: at least
    /// `quorum - 1` of the *other* replicas (the sender supplies the
    /// remaining vote itself).
    pub fn quorum_has_room(&self, me: NodeId) -> bool {
        let need = crate::types::quorum(self.peers.len()) - 1;
        let with_room = self
            .peers
            .iter()
            .enumerate()
            .filter(|&(i, p)| i != me.0 as usize && p.inflight.len() < self.depth)
            .count();
        with_room >= need
    }

    /// Records that slots `(prev, tail]` were shipped to `p` at `now`:
    /// advances the send cursor and, when the range is non-empty, opens
    /// an in-flight round ending at `tail` (an empty heartbeat append
    /// opens none).
    pub fn on_sent(&mut self, p: NodeId, prev: Slot, tail: Slot, now: SimTime) {
        let peer = self.peer_mut(p);
        peer.prev_sent = prev;
        peer.sent_through = peer.sent_through.max(tail);
        peer.last_sent = now;
        if tail > prev {
            peer.inflight.push_back(Round {
                upto: tail,
                sent_at: now,
            });
            let len = peer.inflight.len() as u64;
            self.stats.rounds_sent += 1;
            self.stats.peak_in_flight = self.stats.peak_in_flight.max(len);
        }
    }

    /// Moves `p`'s send cursor up to `to` without shipping anything
    /// (everything in between needs no round).
    pub fn advance_cursor(&mut self, p: NodeId, to: Slot) {
        let peer = self.peer_mut(p);
        peer.sent_through = peer.sent_through.max(to);
    }

    /// Records an acknowledgement from `p` covering slots through
    /// `upto`: every round ending at or below it retires (including
    /// rounds skipped over by an out-of-order, later acknowledgement)
    /// and the match index advances. Returns whether the match advanced.
    pub fn on_ack(&mut self, p: NodeId, upto: Slot) -> bool {
        let peer = &mut self.peers[p.0 as usize];
        while peer.inflight.front().is_some_and(|r| r.upto <= upto) {
            peer.inflight.pop_front();
            self.stats.rounds_acked += 1;
        }
        let advanced = upto > peer.matched;
        if advanced {
            peer.matched = upto;
        }
        advanced
    }

    /// Clears `p`'s in-flight rounds after its rounds were refused: the
    /// retransmission path re-ships the suffix as a fresh round.
    pub fn on_regress(&mut self, p: NodeId) {
        let peer = &mut self.peers[p.0 as usize];
        self.stats.rounds_regressed += peer.inflight.len() as u64;
        peer.inflight.clear();
    }

    /// Records a rejection with the peer's `hint` (its last index):
    /// regresses its window and rewinds the cursor one step below the
    /// last probe, or to the hint if lower, never below the match.
    /// Returns the `prev` to probe next.
    pub fn on_reject(&mut self, p: NodeId, hint: Slot) -> Slot {
        self.on_regress(p);
        let peer = self.peer_mut(p);
        let backoff = Slot(peer.prev_sent.0.saturating_sub(1));
        let new_prev = backoff.min(hint).max(peer.matched);
        peer.sent_through = new_prev;
        peer.prev_sent = new_prev;
        new_prev
    }

    /// Timed retransmission: when `p` has unacknowledged entries shipped
    /// longer than `retry` ago, regresses its window and rewinds the
    /// cursor to the match so the next send repeats them. Returns
    /// whether a rewind happened.
    pub fn rewind_if_stale(&mut self, p: NodeId, now: SimTime, retry: SimDuration) -> bool {
        let peer = self.peer(p);
        if peer.sent_through <= peer.matched || now.since(peer.last_sent.min(now)) <= retry {
            return false;
        }
        self.on_regress(p);
        let peer = self.peer_mut(p);
        peer.sent_through = peer.matched;
        true
    }

    /// Drops rounds older than `retry` toward every peer (their acks are
    /// presumed lost and a periodic retransmission path covers the
    /// data). Keeps a stalled peer from pinning the window shut forever.
    pub fn expire_stale(&mut self, now: SimTime, retry: SimDuration) {
        for peer in &mut self.peers {
            while peer
                .inflight
                .front()
                .is_some_and(|r| now.since(r.sent_at.min(now)) > retry)
            {
                peer.inflight.pop_front();
                self.stats.rounds_regressed += 1;
            }
        }
    }

    /// The largest slot replicated on at least `k` of the tracked peers
    /// (`exclude`, the leader itself, not included).
    pub fn kth_largest_match(&self, k: usize, exclude: NodeId) -> Slot {
        let mut m: Vec<Slot> = self
            .peers
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != exclude.0 as usize)
            .map(|(_, p)| p.matched)
            .collect();
        m.sort_unstable();
        if k == 0 || k > m.len() {
            return Slot::NONE;
        }
        m[m.len() - k]
    }

    /// Records `p`'s reported executed prefix (reports only move up).
    pub fn note_exec(&mut self, p: NodeId, exec: Slot) {
        let peer = self.peer_mut(p);
        peer.exec = peer.exec.max(exec);
    }

    /// One stall-detector tick for `p`: returns its reported executed
    /// prefix if the report did not move since the previous tick, and
    /// remembers the report for the next one.
    pub fn stalled_exec(&mut self, p: NodeId) -> Option<Slot> {
        let peer = self.peer_mut(p);
        let stalled = peer.exec == peer.exec_prev;
        peer.exec_prev = peer.exec;
        stalled.then_some(peer.exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    const RETRY: SimDuration = SimDuration::from_millis(600);

    /// One tracker over five replicas per case; each case drives it and
    /// checks the outcome. Ports every case of the former replicator
    /// and pipeline-window suites.
    #[test]
    fn progress_table() {
        type Case = (&'static str, usize, fn(&mut Progress));
        let cases: &[Case] = &[
            ("fresh tracker sends everything", 8, |r| {
                assert_eq!(r.next_prev(NodeId(1)), Slot::NONE);
            }),
            ("a send suppresses retransmission", 8, |r| {
                r.on_sent(NodeId(1), Slot::NONE, Slot(10), t(0));
                // The next batch flush ships only entries after 10.
                assert_eq!(r.next_prev(NodeId(1)), Slot(10));
            }),
            ("an ack advances the match; a stale one does not", 8, |r| {
                r.on_sent(NodeId(1), Slot::NONE, Slot(10), t(0));
                assert!(r.on_ack(NodeId(1), Slot(10)));
                assert!(!r.on_ack(NodeId(1), Slot(5)), "stale ack ignored");
                assert_eq!(r.match_index(NodeId(1)), Slot(10));
            }),
            ("a reject backs off and respects the hint", 8, |r| {
                r.reset_for_leadership(Slot(20));
                // Probe at prev=20 fails; follower says its last index is 3.
                let p = r.on_reject(NodeId(2), Slot(3));
                assert_eq!(p, Slot(3), "jump to the follower's tail");
                r.on_sent(NodeId(2), p, Slot(20), t(0));
                // Another mismatch without a useful hint decrements.
                assert_eq!(r.on_reject(NodeId(2), Slot(3)), Slot(2));
            }),
            ("a reject never rewinds before the match", 8, |r| {
                r.on_ack(NodeId(1), Slot(8));
                r.on_sent(NodeId(1), Slot(8), Slot(12), t(0));
                let p = r.on_reject(NodeId(1), Slot(1));
                assert_eq!(p, Slot(8), "matched prefix is never re-probed");
            }),
            ("a timed rewind waits for the retry interval", 8, |r| {
                r.on_sent(NodeId(1), Slot::NONE, Slot(10), t(0));
                assert!(!r.rewind_if_stale(NodeId(1), t(100), RETRY));
                assert!(r.rewind_if_stale(NodeId(1), t(700), RETRY));
                assert_eq!(r.next_prev(NodeId(1)), Slot::NONE, "cursor back at match");
            }),
            ("no rewind once fully acknowledged", 8, |r| {
                r.on_sent(NodeId(1), Slot::NONE, Slot(10), t(0));
                r.on_ack(NodeId(1), Slot(10));
                assert!(!r.rewind_if_stale(NodeId(1), t(10_000), RETRY));
            }),
            ("the k-th largest match is a quorum tally", 8, |r| {
                r.on_ack(NodeId(1), Slot(10));
                r.on_ack(NodeId(2), Slot(7));
                r.on_ack(NodeId(3), Slot(3));
                // Excluding leader 0; matches are [10,7,3,0]; 2nd largest
                // = 7: 2 followers + leader = majority of 5.
                assert_eq!(r.kth_largest_match(2, NodeId(0)), Slot(7));
                assert_eq!(r.kth_largest_match(1, NodeId(0)), Slot(10));
                assert_eq!(r.kth_largest_match(4, NodeId(0)), Slot::NONE);
            }),
            (
                "a leadership reset is optimistic and keeps reports",
                8,
                |r| {
                    r.on_ack(NodeId(1), Slot(5));
                    r.on_sent(NodeId(1), Slot(5), Slot(7), t(0));
                    r.note_exec(NodeId(1), Slot(4));
                    r.reset_for_leadership(Slot(9));
                    assert_eq!(r.match_index(NodeId(1)), Slot::NONE);
                    assert_eq!(r.next_prev(NodeId(1)), Slot(9));
                    assert_eq!(r.in_flight(NodeId(1)), 0);
                    r.stalled_exec(NodeId(1));
                    assert_eq!(r.stalled_exec(NodeId(1)), Some(Slot(4)));
                },
            ),
            ("the depth bounds in-flight rounds per peer", 2, |r| {
                assert!(r.has_room(NodeId(1)));
                r.on_sent(NodeId(1), Slot::NONE, Slot(5), t(0));
                assert!(r.has_room(NodeId(1)));
                r.on_sent(NodeId(1), Slot(5), Slot(9), t(1));
                assert!(!r.has_room(NodeId(1)), "window full at depth 2");
                assert!(r.has_room(NodeId(2)), "per-peer accounting");
            }),
            ("an empty (heartbeat) send opens no round", 2, |r| {
                r.on_sent(NodeId(1), Slot(5), Slot(5), t(0));
                assert_eq!(r.in_flight(NodeId(1)), 0);
                assert_eq!(r.stats.rounds_sent, 0);
            }),
            ("a cumulative ack retires every covered round", 4, |r| {
                r.on_sent(NodeId(1), Slot::NONE, Slot(3), t(0));
                r.on_sent(NodeId(1), Slot(3), Slot(6), t(1));
                r.on_sent(NodeId(1), Slot(6), Slot(9), t(2));
                // The ack for the second round also covers the first
                // (whose own ack may have been lost or reordered).
                r.on_ack(NodeId(1), Slot(6));
                assert_eq!(r.in_flight(NodeId(1)), 1);
                r.on_ack(NodeId(1), Slot(9));
                assert_eq!(r.in_flight(NodeId(1)), 0);
            }),
            ("a stale ack retires nothing", 4, |r| {
                r.on_sent(NodeId(1), Slot::NONE, Slot(8), t(0));
                r.on_ack(NodeId(1), Slot(4));
                assert_eq!(r.in_flight(NodeId(1)), 1);
            }),
            ("a regress clears the peer's window", 2, |r| {
                r.on_sent(NodeId(3), Slot::NONE, Slot(5), t(0));
                r.on_sent(NodeId(3), Slot(5), Slot(9), t(1));
                assert!(!r.has_room(NodeId(3)));
                r.on_regress(NodeId(3));
                assert!(r.has_room(NodeId(3)), "retransmission starts fresh");
                assert_eq!(r.stats.rounds_regressed, 2);
            }),
            ("expiry drops old rounds only", 4, |r| {
                r.on_sent(NodeId(1), Slot::NONE, Slot(5), t(0));
                r.on_sent(NodeId(1), Slot(5), Slot(9), t(500));
                r.expire_stale(t(700), RETRY);
                assert_eq!(r.in_flight(NodeId(1)), 1, "only the 700ms-old round");
            }),
            ("quorum room needs enough followers", 1, |r| {
                // n = 5, me = 0: need 2 of the 4 others with room.
                assert!(r.quorum_has_room(NodeId(0)));
                r.on_sent(NodeId(1), Slot::NONE, Slot(1), t(0));
                r.on_sent(NodeId(2), Slot::NONE, Slot(1), t(0));
                assert!(r.quorum_has_room(NodeId(0)), "3 and 4 still have room");
                r.on_sent(NodeId(3), Slot::NONE, Slot(1), t(0));
                assert!(!r.quorum_has_room(NodeId(0)), "only node 4 has room");
            }),
            ("peak occupancy is tracked", 8, |r| {
                for i in 1..=5u64 {
                    r.on_sent(NodeId(2), Slot(i - 1), Slot(i), t(i));
                }
                r.on_ack(NodeId(2), Slot(5));
                assert_eq!(r.stats.peak_in_flight, 5);
                assert_eq!(r.stats.rounds_acked, 5);
            }),
            ("a reject or a timed rewind is one call", 4, |r| {
                // Each leaves the peer with no in-flight rounds and a
                // cursor at or above its match.
                r.on_ack(NodeId(1), Slot(4));
                r.on_sent(NodeId(1), Slot(4), Slot(8), t(0));
                r.on_sent(NodeId(1), Slot(8), Slot(12), t(1));
                r.on_reject(NodeId(1), Slot(2));
                assert_eq!(r.in_flight(NodeId(1)), 0);
                assert!(r.sent_through(NodeId(1)) >= r.match_index(NodeId(1)));
                r.on_ack(NodeId(2), Slot(3));
                r.on_sent(NodeId(2), Slot(3), Slot(6), t(0));
                r.on_sent(NodeId(2), Slot(6), Slot(9), t(1));
                assert!(r.rewind_if_stale(NodeId(2), t(700), RETRY));
                assert_eq!(r.in_flight(NodeId(2)), 0);
                assert!(r.sent_through(NodeId(2)) >= r.match_index(NodeId(2)));
                assert_eq!(r.stats.rounds_regressed, 4);
            }),
            ("a stalled report is one that did not move", 8, |r| {
                // The first tick has no previous value to compare with
                // beyond the fresh one.
                assert_eq!(r.stalled_exec(NodeId(1)), Some(Slot::NONE));
                r.note_exec(NodeId(1), Slot(7));
                assert_eq!(r.stalled_exec(NodeId(1)), None, "moved since the last tick");
                assert_eq!(r.stalled_exec(NodeId(1)), Some(Slot(7)), "stuck for a tick");
                r.note_exec(NodeId(1), Slot(3));
                assert_eq!(
                    r.stalled_exec(NodeId(1)),
                    Some(Slot(7)),
                    "reports only move up"
                );
            }),
            ("reset forgets rounds, clear forgets everything", 8, |r| {
                r.on_ack(NodeId(1), Slot(3));
                r.on_sent(NodeId(1), Slot(3), Slot(6), t(0));
                r.note_exec(NodeId(1), Slot(2));
                r.reset();
                assert_eq!(r.total_in_flight(), 0);
                assert_eq!(r.match_index(NodeId(1)), Slot(3));
                assert_eq!(r.sent_through(NodeId(1)), Slot(6));
                r.clear();
                assert_eq!(r.match_index(NodeId(1)), Slot::NONE);
                assert_eq!(r.sent_through(NodeId(1)), Slot::NONE);
                assert_eq!(r.stalled_exec(NodeId(1)), Some(Slot::NONE));
            }),
        ];
        for &(name, depth, case) in cases {
            // Captured output names the failing case.
            println!("case: {name}");
            case(&mut Progress::new(5, depth));
        }
    }
}
