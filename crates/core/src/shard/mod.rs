//! Multi-group sharding: many replica groups per node, key-range
//! routing, and live rebalancing.
//!
//! One consensus group is bounded by its leader's CPU (Figures 9c/10a:
//! "the leader's CPU is the bottleneck"). The standard production
//! scale-out — partitioning state across many Multi-Paxos groups, as in
//! "The Performance of Paxos in the Cloud" — is protocol-agnostic under
//! the paper's vocabulary map, so it lives here once and all four
//! protocols inherit it through the shared [`crate::engine`]:
//!
//! - [`ShardRouter`] — a contiguous key-range partition map over
//!   `groups`, mirroring the workload generator's
//!   `partition_range` arithmetic so the key space splits the same way
//!   everywhere.
//! - [`ShardMembership`] — what one replica knows about the partition
//!   map: its own group plus the router, used to answer misrouted
//!   commands with [`crate::kv::Reply::WrongGroup`].
//! - [`ShardConfig`] — how many groups
//!   [`crate::harness::ClusterBuilder::build`] runs: `groups`
//!   independent `ReplicaEngine` groups over the same simulated nodes
//!   (distinct actor per `(node, group)`, shared network/clock/fault
//!   injection), with per-group leader placement ([`LeaderPlacement`])
//!   and clients that resolve each key to its group
//!   ([`crate::client::ClientRouting`]). One group is the unsharded
//!   cluster.
//! - [`migration`] + [`RebalanceCoordinator`] — **live rebalancing**:
//!   the partition map is versioned, and a coordinator moves key
//!   ranges between groups through the groups' own logs (freeze →
//!   chunked export → replicated install → publish → release), so
//!   splits, merges and hot-range moves run under load with
//!   exactly-once hand-off in every protocol.
//! - [`autobalance`] — **closed-loop placement**: a policy engine that
//!   watches live per-group telemetry and the apply-path load sketch,
//!   and drives the coordinator itself (concurrent disjoint-range
//!   migrations, hysteresis + cooldown so it provably never
//!   ping-pongs) instead of replaying a script.
//!
//! Leader placement is the axis where the Paxos/Raft leader-flexibility
//! difference shows up ("Paxos vs Raft: Have we reached consensus on
//! distributed consensus?"): `AllOnOne` concentrates every group's
//! leader in one region, `RoundRobin` spreads them — same total CPU,
//! different client latency geometry.

pub mod autobalance;
mod cluster;
pub mod migration;
mod rebalance;
mod router;

pub use autobalance::{AutoBalanceConfig, AutoBalancePolicy, BalanceDecision};
pub use cluster::{GroupStats, LeaderPlacement, ShardConfig};
pub use migration::{MigrationSpec, RouterVersion};
pub use rebalance::{RebalanceConfig, RebalanceCoordinator};
pub use router::{ShardMembership, ShardRouter};
