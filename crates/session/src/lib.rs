//! Runtime-agnostic core of the CAESAR reproduction: the client session
//! contract, the replica driver, and the state-machine surface.
//!
//! Every figure of the paper measures *client-perceived* behaviour: a client
//! submits a command at its local replica and waits for it to execute there.
//! This crate defines that submit/await contract once, so the same client
//! code runs against the discrete-event simulator (`simnet::SimSession`)
//! and the TCP runtime (`net::NetCluster`, including fully external
//! processes speaking the wire protocol):
//!
//! * [`session::ClusterHandle`] — implemented by every runtime; hands out
//!   per-replica [`session::ClientHandle`]s.
//! * [`session::ClientHandle::submit`] — submits an [`session::Op`] and
//!   returns a [`session::Ticket`].
//! * [`session::Ticket::wait`] — blocks (or, for the simulator, advances
//!   simulated time) until the command executes at the submitting replica
//!   and returns the [`session::Reply`], which carries the key-value store
//!   result so reads observe the submitting replica's state
//!   (read-your-writes).
//!
//! Completions are routed by [`consensus_types::CommandId`] through a waiter
//! table with bounded in-flight backpressure; replicas that disconnect fail
//! their outstanding tickets with [`session::SessionError::Disconnected`]
//! instead of leaving waiters hanging.
//!
//! The *application* side of the contract lives in [`state_machine`]: every
//! runtime owns one [`state_machine::StateMachine`] per replica (built by a
//! [`state_machine::StateMachineFactory`], defaulting to the `kvstore`
//! reference implementation) and the output of each apply is what a
//! [`session::Reply`] carries. State machines snapshot and restore
//! themselves, which is what snapshot-based state transfer for restarted
//! replicas is built on.
//!
//! The *replica* side lives here too, once for both runtimes:
//! [`process`] defines the [`Process`] trait every protocol implements, and
//! [`driver`] hosts one process as a sans-IO [`ReplicaDriver`] — events in
//! (client commands, peer messages, timers, snapshot chunks), actions out
//! (sends, timers, replies, aborts, decisions, donations). The driver owns
//! what sits between a protocol and a transport: [`batch`] folds
//! concurrently queued client commands into one consensus instance
//! (`docs/THROUGHPUT.md`), dedup against the applied-id summaries, [`exec`]
//! applies decided commands to the replica's state machine, and the
//! optional write-ahead log, checkpoints and restore state machine
//! (`docs/RECOVERY.md`, `docs/DURABILITY.md`). `simnet` drives it with
//! simulated time and `net` with sockets.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batch;
pub mod driver;
pub mod exec;
pub mod process;
pub mod session;
pub mod state_machine;

pub use batch::{BatchConfig, Batcher};
pub use driver::{Action, DriverConfig, ReplicaDriver, ReplicaState};
pub use exec::{Executor, PreparedRestore};
pub use process::{Context, Process};
pub use session::{
    ClientHandle, ClusterHandle, Drive, Op, ParkDrive, Reply, SessionCore, SessionError,
    SubmitTransport, Ticket, Waiter, DEFAULT_IN_FLIGHT,
};
pub use state_machine::{EventLog, RestoreError, StateMachine, StateMachineFactory};
