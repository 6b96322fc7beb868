//! The outside-in layer trace: [`Timed`] wraps any actor and times each
//! handler call on the host clock, keyed by the actor's role and the
//! top-level [`Msg`] variant (or timer). The wrapper forwards every call
//! and `as_any` unchanged, so the simulation runs the same schedule and
//! downcasts to the inner actor still work.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use paxraft_core::msg::Msg;
use paxraft_sim::sim::{Actor, ActorId, Ctx};

/// Which kind of actor a handler ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A replica (engine + protocol rules).
    Replica,
    /// A workload client.
    Client,
}

/// What a handler call handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `on_start` (boot or restart).
    Start,
    /// `on_timer`.
    Timer,
    /// `Msg::Client`.
    Client,
    /// `Msg::Engine`.
    Engine,
    /// `Msg::Paxos`.
    Paxos,
    /// `Msg::Raft`.
    Raft,
    /// `Msg::Lease`.
    Lease,
    /// `Msg::Mencius`.
    Mencius,
}

impl Entry {
    /// Every entry, in table order.
    pub const ALL: [Entry; 8] = [
        Entry::Start,
        Entry::Timer,
        Entry::Client,
        Entry::Engine,
        Entry::Paxos,
        Entry::Raft,
        Entry::Lease,
        Entry::Mencius,
    ];

    fn of(msg: &Msg) -> Entry {
        match msg {
            Msg::Client(_) => Entry::Client,
            Msg::Engine(_) => Entry::Engine,
            Msg::Paxos(_) => Entry::Paxos,
            Msg::Raft(_) => Entry::Raft,
            Msg::Lease(_) => Entry::Lease,
            Msg::Mencius(_) => Entry::Mencius,
        }
    }

    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            Entry::Start => "start",
            Entry::Timer => "timer",
            Entry::Client => "Client",
            Entry::Engine => "Engine",
            Entry::Paxos => "Paxos",
            Entry::Raft => "Raft",
            Entry::Lease => "Lease",
            Entry::Mencius => "Mencius",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Calls and host nanoseconds per (role, entry).
#[derive(Debug, Clone, Copy, Default)]
pub struct Cell {
    /// Handler calls.
    pub calls: u64,
    /// Host nanoseconds inside the handler.
    pub ns: u64,
}

impl Cell {
    /// Mean host nanoseconds per call (0 when never called).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// The handler-time table all [`Timed`] wrappers of one run share.
#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    replica: [Cell; Entry::ALL.len()],
    client: [Cell; Entry::ALL.len()],
}

impl LayerTable {
    /// One cell.
    pub fn cell(&self, role: Role, entry: Entry) -> Cell {
        match role {
            Role::Replica => self.replica[entry.index()],
            Role::Client => self.client[entry.index()],
        }
    }

    /// Cells of `role` summed over `entries`.
    pub fn sum(&self, role: Role, entries: &[Entry]) -> Cell {
        entries.iter().fold(Cell::default(), |acc, &e| {
            let c = self.cell(role, e);
            Cell {
                calls: acc.calls + c.calls,
                ns: acc.ns + c.ns,
            }
        })
    }

    /// Host nanoseconds spent in all handlers.
    pub fn handler_ns(&self) -> u64 {
        self.replica.iter().chain(&self.client).map(|c| c.ns).sum()
    }

    fn add(&mut self, role: Role, entry: Entry, started: Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        let cell = match role {
            Role::Replica => &mut self.replica[entry.index()],
            Role::Client => &mut self.client[entry.index()],
        };
        cell.calls += 1;
        cell.ns += ns;
    }
}

/// Shared handle to a run's [`LayerTable`].
pub type SharedTable = Rc<RefCell<LayerTable>>;

/// An actor whose handler calls are timed into a [`LayerTable`].
pub struct Timed<A> {
    inner: A,
    role: Role,
    table: SharedTable,
}

impl<A> Timed<A> {
    /// Wraps `inner`, recording into `table` under `role`.
    pub fn new(inner: A, role: Role, table: &SharedTable) -> Self {
        Timed {
            inner,
            role,
            table: Rc::clone(table),
        }
    }
}

impl<A: Actor<Msg>> Actor<Msg> for Timed<A> {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        self.table.borrow_mut().add(self.role, Entry::Start, t);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, from: ActorId, msg: Msg) {
        let entry = Entry::of(&msg);
        let t = Instant::now();
        self.inner.on_message(ctx, from, msg);
        self.table.borrow_mut().add(self.role, entry, t);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, token: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, token);
        self.table.borrow_mut().add(self.role, Entry::Timer, t);
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
