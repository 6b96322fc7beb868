//! # paxraft
//!
//! Umbrella crate for the reproduction of *"On the Parallels between Paxos
//! and Raft, and how to Port Optimizations"* (Wang et al., PODC 2019).
//!
//! This crate re-exports the workspace members so that examples and
//! integration tests can use a single dependency:
//!
//! - [`spec`] — the TLA+-like specification DSL, explicit-state model
//!   checker, refinement checker, and the automatic optimization-porting
//!   engine (Section 4 of the paper), together with specs of MultiPaxos,
//!   Raft*, PQL, Raft*-PQL, Coordinated Paxos (Mencius) and Coordinated
//!   Raft* (Appendices B.1–B.6).
//! - [`sim`] — a deterministic discrete-event simulator with a 5-region
//!   geo-latency model, NIC bandwidth queues and CPU service queues,
//!   substituting for the paper's EC2 testbed.
//! - [`core`] — runnable replicas: MultiPaxos, Raft, Raft*, Raft*-PQL
//!   (plus a Leader-Lease baseline) and Raft*-Mencius, a replicated KV
//!   state machine, closed-loop clients and a cluster harness.
//! - [`workload`] — the YCSB-like workload generator, latency/throughput
//!   metrics and a linearizability checker.
//! - [`parity`] — the fixed-seed fingerprints pinned in `PARITY_pr5.txt`.
//!
//! ## Quickstart
//!
//! ```
//! use paxraft::core::harness::{Cluster, ProtocolKind};
//! use paxraft::core::kv::Op;
//!
//! let mut cluster = Cluster::builder(ProtocolKind::RaftStar).seed(7).build();
//! cluster.elect_leader();
//! let v = cluster.submit_and_wait(Op::Put { key: 1, value: b"hello".to_vec() });
//! assert!(v.is_ok());
//! ```
pub use paxraft_core as core;
pub use paxraft_sim as sim;
pub use paxraft_spec as spec;
pub use paxraft_workload as workload;

pub mod parity;
