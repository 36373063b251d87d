//! Socket-based TCP transport runtime: the wall-clock runtime of the CAESAR
//! reproduction, next to the `simnet` discrete-event simulator.
//!
//! The paper evaluates CAESAR on five real EC2 sites. This crate closes the
//! gap between the simulator and such a deployment: it takes **any**
//! [`consensus_core::Process`] implementation — CAESAR, EPaxos, Multi-Paxos,
//! Mencius, M²Paxos, unchanged — and runs an N-node cluster over real TCP
//! sockets with real serialization, real kernel buffers and real
//! backpressure. Each replica is hosted in a
//! [`consensus_core::ReplicaDriver`], the sans-IO driver the simulator runs
//! too: batching, dedup, apply with per-command replies, the write-ahead
//! log, checkpoints and restore live there, and this crate is the
//! transport:
//!
//! * [`wire`] — checksummed, length-prefixed bincode framing (`u32`
//!   length, CRC-32, payload) with the [`WireMessage`] envelope (peer
//!   messages, client requests, state transfer, stats scrapes) and the
//!   [`Event`] decision stream;
//!   decoding is incremental ([`wire::FrameBuffer`]) so nonblocking reads
//!   never desynchronize a stream;
//! * [`NetReplica`] — one replica, running **O(1) threads regardless of
//!   connection count**: an epoll *event loop* (built on the `reactor`
//!   crate's `Poller`/`Token`/`Interest` layer) owns the listener, every
//!   peer link, subscriber, and client connection as nonblocking sockets
//!   with per-connection read/write buffers and interest-driven flushing;
//!   a *core loop* feeds the driver from the mailbox, maps its `SimTime`
//!   timers onto wall-clock deadlines, and turns its actions into frames;
//! * [`NetCluster`] — an orchestrator that spawns N replicas on loopback
//!   ports, submits client commands and collects decisions **over the
//!   wire**, supports clean shutdown plus crash/restart of individual
//!   replicas, and can emulate the paper's EC2 latency matrix on loopback
//!   via the [`DelayShim`].
//!
//! Each replica's driver executes decided commands on the core loop against
//! a pluggable [`consensus_core::StateMachine`] (the `kvstore` reference
//! implementation unless [`NetConfig::with_state_machine`] installs
//! another), checkpoints
//! it at least `checkpoint_interval` units apart (and, once the checkpoint
//! outgrows one snapshot chunk, only after the suffix has logged about as
//! many bytes as it holds), and retains the decided suffix since. That
//! powers **snapshot-based state transfer**: a replica
//! restarted via [`NetCluster::restart_replica`] comes back empty,
//! broadcasts [`WireMessage::SnapshotRequest`], installs the first complete
//! [`WireMessage::SnapshotChunk`] transfer (checkpoint + suffix replay +
//! the donor's dedup window), and hands its protocol a
//! `consensus_types::StateTransfer` (`Process::on_state_transfer`): the
//! floor-compacted applied-id summary plus the donor's execution cursor, so
//! dependency-tracked protocols (CAESAR, EPaxos) stop waiting on covered
//! ids and slot-based ones (Multi-Paxos, Mencius, M²Paxos) fast-forward
//! their next-execute slot / per-leader slots / per-object slot vectors
//! instead of stalling at their slot gap. All five protocols then serve
//! reads that reflect pre-crash writes (`tests/restart_catch_up.rs` runs
//! the matrix). While restoring a replica fails client requests fast with
//! an abort; submissions to a replica the orchestrator stopped fail at
//! submit time. The full lifecycle is documented in `docs/RECOVERY.md`.
//!
//! Snapshot transfer needs a live donor. [`NetConfig::with_data_dir`] (or
//! [`NetReplicaConfig::data_dir`] directly) removes that dependency: each
//! replica keeps a durable write-ahead log (the `wal` crate) in its own
//! subdirectory, appending decided commands before execution and committing
//! them — under the configured [`FsyncPolicy`] — before client replies go
//! out. A restarted replica replays its own log first and uses snapshot
//! transfer only as the fallback for whatever disk could not provide, so
//! [`NetCluster::power_cycle`] can stop **every** replica and bring the
//! whole cluster back from its data dirs with zero live donors. See
//! `docs/DURABILITY.md` for the log format and recovery decision tree.
//!
//! The event-loop internals replaced the seed's thread-per-link blocking
//! I/O precisely because the paper's headline result is throughput at scale:
//! hundreds of concurrent clients per replica are two file descriptors per
//! connection, not two OS threads. The wire protocol and the public
//! `NetReplica`/`NetCluster`/[`ReplicaClient`] API survived the swap
//! unchanged (the frames merely gained the CRC-32 header field). There is
//! still no async runtime underneath — just epoll, raw and readable.
//!
//! # Example
//!
//! ```
//! use caesar::{CaesarConfig, CaesarReplica};
//! use consensus_types::{Command, CommandId, NodeId};
//! use net::{NetCluster, NetConfig};
//!
//! let caesar = CaesarConfig::new(3).with_recovery_timeout(None);
//! let cluster = NetCluster::start(NetConfig::new(3), move |id| {
//!     CaesarReplica::new(id, caesar.clone())
//! })
//! .expect("cluster starts");
//! cluster.submit(NodeId(0), Command::put(CommandId::new(NodeId(0), 1), 7, 1)).unwrap();
//! let decisions = cluster.wait_for_decisions(NodeId(0), 1, std::time::Duration::from_secs(10));
//! assert_eq!(decisions.len(), 1);
//! cluster.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod client;
mod cluster;
mod event_loop;
mod replica;
pub mod wire;

pub use client::{scrape_stats, scrape_stats_deadline, ReplicaClient, StatsScrape};
pub use cluster::{NetCluster, NetConfig};
pub use replica::{DelayShim, NetReplica, NetReplicaConfig, NetReplicaStats};
pub use wal::FsyncPolicy;
pub use wire::{Event, WireMessage};
