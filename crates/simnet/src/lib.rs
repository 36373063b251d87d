//! Deterministic discrete-event network simulator for geo-replicated
//! consensus protocols.
//!
//! The paper evaluates CAESAR on five Amazon EC2 sites (Virginia, Ohio,
//! Frankfurt, Ireland, Mumbai). This crate replaces that testbed with a
//! reproducible substrate:
//!
//! * a [`LatencyMatrix`] seeded from the round-trip times reported in
//!   Section VI of the paper (see [`LatencyMatrix::ec2_five_sites`]),
//! * an event-driven [`Simulator`] that delivers messages after the
//!   configured one-way delay (plus optional jitter), fires self-scheduled
//!   timeouts, models per-node CPU occupancy so that throughput saturates as
//!   client load grows, and injects crash faults; each node is a
//!   `consensus_core::driver::ReplicaDriver`, so simulated replicas batch,
//!   deduplicate, apply, answer clients and checkpoint with the exact code
//!   the `net` TCP runtime runs,
//! * the [`Process`] trait that every protocol crate implements
//!   (CAESAR, EPaxos, Multi-Paxos, Mencius, M²Paxos), re-exported from
//!   `consensus_core::process`; executed commands are pushed through
//!   [`Context::deliver`],
//! * [`SimSession`], which exposes the simulator through the
//!   runtime-agnostic submit/await client API of `consensus_core::session`.
//!
//! All randomness comes from a caller-provided seed, so every experiment in
//! the harness is exactly reproducible.
//!
//! # Example
//!
//! ```
//! use consensus_types::{Command, Decision, NodeId};
//! use simnet::{Context, LatencyMatrix, Process, SimConfig, SimSession, Simulator};
//! use consensus_core::session::{ClusterHandle, Op};
//!
//! /// A toy protocol: every node immediately "executes" the commands it is given.
//! struct Echo;
//!
//! impl Process for Echo {
//!     type Message = ();
//!     fn on_client_command(&mut self, cmd: Command, ctx: &mut Context<'_, ()>) {
//!         let decision = Decision {
//!             command: cmd.id(),
//!             timestamp: Default::default(),
//!             path: consensus_types::DecisionPath::Ordered,
//!             proposed_at: ctx.now(),
//!             executed_at: ctx.now(),
//!             breakdown: Default::default(),
//!         };
//!         ctx.deliver(cmd, decision);
//!     }
//!     fn on_message(&mut self, _: NodeId, _: (), _: &mut Context<'_, ()>) {}
//! }
//!
//! let config = SimConfig::new(LatencyMatrix::uniform(3, 10.0));
//! let session = SimSession::new(Simulator::new(config, |_id| Echo));
//! let client = session.client(NodeId(0));
//! let reply = client.submit(Op::put(1, 9)).unwrap().wait().unwrap();
//! assert_eq!(reply.node, NodeId(0));
//! assert_eq!(session.decisions(NodeId(0)).len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod latency;
mod session;
mod sim;

pub use consensus_core::process::{Context, Process};
pub use latency::{GeoSite, LatencyMatrix};
pub use session::SimSession;
pub use sim::{SimConfig, SimStats, Simulator};
