//! CPU cost model for replica message handling.
//!
//! The paper's throughput experiments saturate the leader's CPU (Figures
//! 9c, 10a: "the leader's CPU is the bottleneck"). We reproduce that by
//! charging each handler a service time drawn from this model; the
//! simulator's per-node serial CPU queue then produces the saturation
//! behaviour. Constants are calibrated so a 5-replica single-leader
//! cluster saturates at roughly the paper's 41K ops/s for 8-byte
//! requests (Figure 10a); `cargo run --release -p paxraft-bench --bin fig10 --
//! --panel a` reruns that saturation sweep.

use paxraft_sim::time::SimDuration;

/// Per-message-kind CPU service costs.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Handling one client request at the receiving replica.
    pub client_req: SimDuration,
    /// Per-command cost of processing a forwarded batch at the leader.
    pub forward_per_cmd: SimDuration,
    /// Fixed cost of assembling one replication message (leader side).
    pub propose_fixed: SimDuration,
    /// Per-command cost of appending to the leader log and marshalling.
    pub propose_per_cmd: SimDuration,
    /// Fixed cost of processing one Append/Accept at a follower.
    pub append_fixed: SimDuration,
    /// Per-command cost of a follower append.
    pub append_per_cmd: SimDuration,
    /// Leader-side cost of processing one acknowledgement.
    pub ack_process: SimDuration,
    /// Applying one committed command to the state machine.
    pub apply_per_cmd: SimDuration,
    /// Building and sending one client response.
    pub reply_fixed: SimDuration,
    /// Serving one local (lease) read.
    pub read_local: SimDuration,
    /// Processing one lease grant/renewal message.
    pub lease_msg: SimDuration,
    /// Processing one Mencius skip/commit bookkeeping message.
    pub coord_msg: SimDuration,
    /// Extra per-command coordination overhead on *every* replica under
    /// Mencius (skip tracking, commit tracking, ordering checks).
    pub coord_per_cmd: SimDuration,
    /// Additional cost per KiB of payload handled (serialization /
    /// checksumming); applied on proposes and appends.
    pub per_kib: SimDuration,
    /// Per-KiB cost of encoding or installing a state-machine snapshot
    /// (charged on top of the NIC transfer the simulator models).
    pub snapshot_per_kib: SimDuration,
    /// Wire-header bytes of one Raft-spelling `InstallSnapshot` chunk
    /// (term, leaderId, lastIncludedIndex, lastIncludedTerm, offset,
    /// done). The Paxos family's `Checkpoint` spelling is leaner; see
    /// [`CostModel::checkpoint_chunk_header`].
    pub snapshot_chunk_header: usize,
    /// Wire-header bytes of one Raft-spelling `SnapshotAck`.
    pub snapshot_ack_header: usize,
    /// Wire-header bytes of one Paxos-spelling `Checkpoint` chunk
    /// (ballot, executedThrough, offset — no per-entry term, no done
    /// flag; Mencius drops the ballot too, see
    /// [`crate::engine::ProtocolRules::snapshot_wire_overhead`]).
    pub checkpoint_chunk_header: usize,
    /// Wire-header bytes of one Paxos-spelling `CheckpointOk`.
    pub checkpoint_ack_header: usize,
    /// Wire-header bytes a sharded cluster adds to every engine-level
    /// message (forwarding, snapshot transfer) to carry the replica-group
    /// id. A single-group (unsharded) cluster needs no routing header
    /// and pays nothing.
    pub shard_group_header: usize,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            client_req: SimDuration::from_micros(3),
            forward_per_cmd: SimDuration::from_micros(1),
            propose_fixed: SimDuration::from_micros(2),
            propose_per_cmd: SimDuration::from_micros(6),
            append_fixed: SimDuration::from_micros(2),
            append_per_cmd: SimDuration::from_micros(3),
            ack_process: SimDuration::from_micros(2),
            apply_per_cmd: SimDuration::from_micros(2),
            reply_fixed: SimDuration::from_micros(4),
            read_local: SimDuration::from_micros(4),
            lease_msg: SimDuration::from_micros(1),
            coord_msg: SimDuration::from_micros(1),
            coord_per_cmd: SimDuration::from_micros(3),
            per_kib: SimDuration::from_micros(1),
            snapshot_per_kib: SimDuration::from_micros(2),
            snapshot_chunk_header: 48,
            snapshot_ack_header: 16,
            checkpoint_chunk_header: 40,
            checkpoint_ack_header: 16,
            shard_group_header: 4,
        }
    }
}

impl CostModel {
    /// Payload-size surcharge for `bytes` of command data.
    pub fn size_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(self.per_kib.as_nanos() * bytes as u64 / 1024)
    }

    /// CPU cost of encoding / installing a snapshot of `bytes` bytes.
    pub fn snapshot_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_nanos(self.snapshot_per_kib.as_nanos() * bytes as u64 / 1024)
    }

    /// A model with all costs zero, for latency-only tests where CPU
    /// queueing would add noise.
    pub fn free() -> Self {
        CostModel {
            client_req: SimDuration::ZERO,
            forward_per_cmd: SimDuration::ZERO,
            propose_fixed: SimDuration::ZERO,
            propose_per_cmd: SimDuration::ZERO,
            append_fixed: SimDuration::ZERO,
            append_per_cmd: SimDuration::ZERO,
            ack_process: SimDuration::ZERO,
            apply_per_cmd: SimDuration::ZERO,
            reply_fixed: SimDuration::ZERO,
            read_local: SimDuration::ZERO,
            lease_msg: SimDuration::ZERO,
            coord_msg: SimDuration::ZERO,
            coord_per_cmd: SimDuration::ZERO,
            per_kib: SimDuration::ZERO,
            snapshot_per_kib: SimDuration::ZERO,
            // Wire sizes are not CPU costs; the free model keeps them.
            snapshot_chunk_header: 48,
            snapshot_ack_header: 16,
            checkpoint_chunk_header: 40,
            checkpoint_ack_header: 16,
            shard_group_header: 4,
        }
    }

    /// The same model with every CPU service time multiplied by `mult`
    /// (wire-header sizes are unchanged — they are not CPU costs).
    ///
    /// The sharding benches use this to model a slower core: with the
    /// default constants a single leader saturates near the paper's 41K
    /// ops/s, which a deterministic simulation can only reach with
    /// thousands of client actors. Scaling the costs moves the CPU
    /// ceiling into the reach of a small closed-loop client fleet so the
    /// "throughput scales past one leader's CPU" effect is visible in a
    /// seconds-long virtual run.
    pub fn scaled_cpu(mut self, mult: u64) -> Self {
        self.client_req = self.client_req * mult;
        self.forward_per_cmd = self.forward_per_cmd * mult;
        self.propose_fixed = self.propose_fixed * mult;
        self.propose_per_cmd = self.propose_per_cmd * mult;
        self.append_fixed = self.append_fixed * mult;
        self.append_per_cmd = self.append_per_cmd * mult;
        self.ack_process = self.ack_process * mult;
        self.apply_per_cmd = self.apply_per_cmd * mult;
        self.reply_fixed = self.reply_fixed * mult;
        self.read_local = self.read_local * mult;
        self.lease_msg = self.lease_msg * mult;
        self.coord_msg = self.coord_msg * mult;
        self.coord_per_cmd = self.coord_per_cmd * mult;
        self.per_kib = self.per_kib * mult;
        self.snapshot_per_kib = self.snapshot_per_kib * mult;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_leader_cost_near_paper_saturation() {
        // Leader per-op cost with 4 followers should be in the low tens of
        // microseconds, putting single-leader saturation near the paper's
        // ~41K ops/s.
        let c = CostModel::default();
        let per_op = c.forward_per_cmd.as_nanos()
            + c.propose_per_cmd.as_nanos()
            + 4 * c.ack_process.as_nanos()
            + c.apply_per_cmd.as_nanos()
            + c.reply_fixed.as_nanos();
        let ops_per_sec = 1e9 / per_op as f64;
        assert!(
            (30_000.0..60_000.0).contains(&ops_per_sec),
            "leader saturation estimate {ops_per_sec:.0} ops/s"
        );
    }

    #[test]
    fn size_cost_linear() {
        let c = CostModel::default();
        assert_eq!(c.size_cost(1024).as_nanos(), c.per_kib.as_nanos());
        assert_eq!(c.size_cost(4096).as_nanos(), 4 * c.per_kib.as_nanos());
        assert_eq!(c.size_cost(0), SimDuration::ZERO);
    }

    #[test]
    fn free_model_is_all_zero() {
        let c = CostModel::free();
        assert_eq!(c.client_req, SimDuration::ZERO);
        assert_eq!(c.size_cost(1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn scaled_cpu_multiplies_service_times_but_not_wire_headers() {
        let base = CostModel::default();
        let c = base.clone().scaled_cpu(100);
        assert_eq!(c.client_req, base.client_req * 100);
        assert_eq!(c.apply_per_cmd, base.apply_per_cmd * 100);
        assert_eq!(c.size_cost(1024), base.size_cost(1024) * 100);
        assert_eq!(c.snapshot_chunk_header, base.snapshot_chunk_header);
        assert_eq!(c.shard_group_header, base.shard_group_header);
    }
}
