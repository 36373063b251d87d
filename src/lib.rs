//! `caesar-suite` — umbrella crate for the CAESAR reproduction workspace.
//!
//! This crate exists to host the workspace-level integration tests
//! (`tests/`) and the runnable examples (`examples/`); it re-exports the
//! public crates so examples and tests can use a single dependency root.
//!
//! Start with the [`caesar`] crate for the protocol itself, [`harness`] for
//! the experiments, and the `examples/quickstart.rs` binary for a guided
//! tour.
//!
//! # Two runtimes, one client API, one pluggable state machine
//!
//! Every protocol implements the single [`consensus_core::Process`] trait
//! once (re-exported as `simnet::Process`) — pushing executed commands
//! through `Context::deliver` — and then runs, unchanged, on two
//! substrates. Both host each replica in the same sans-IO
//! [`consensus_core::ReplicaDriver`], which batches client commands,
//! deduplicates executions, applies them with per-command replies, logs
//! them to the optional write-ahead log, cuts checkpoints and runs the
//! restore state machine; a runtime is only the transport around it:
//!
//! | runtime | substrate | time | use it for |
//! |---|---|---|---|
//! | [`simnet`] | discrete-event simulator | simulated | reproducing the paper's figures exactly (seeded, deterministic, crash injection, CPU-saturation model) |
//! | [`net`] | epoll event loop over real TCP sockets, CRC-checked bincode frames | wall clock | real threads and scheduler interleavings on loopback, and deployment-shaped runs: hundreds of concurrent clients per replica, kernel buffers, reconnects, crash/restart + snapshot catch-up, external clients and processes |
//!
//! What the decided order *drives* is equally pluggable: every runtime owns
//! one [`consensus_core::StateMachine`] per replica — `apply` one decided
//! command at a time, `snapshot`/`restore` the whole state as bytes, report
//! an `applied_through` watermark and a cross-replica `fingerprint`. The
//! [`kvstore`] crate's `KvStore` is the reference implementation (and the
//! default factory everywhere); `consensus_core::EventLog` is a second,
//! entirely different one (replies carry log positions), and any custom
//! implementation plugs in through `with_state_machine` on the runtime
//! configs (`NetConfig`, `SimConfig`; see the
//! `custom_state_machine` example and `tests/state_machines.rs`). The
//! session [`consensus_core::session::Reply`] carries whatever output the
//! machine's `apply` produced.
//!
//! The `net` runtime's internals are a **reactor**: each replica runs one
//! event-loop thread that owns every socket — listener, peer links,
//! subscribers, client connections — as nonblocking descriptors registered
//! with an epoll poller (the [`reactor`] crate's `Poller`/`Token`/`Interest`
//! layer, raw Linux bindings with no external deps), plus one core-loop
//! thread feeding the replica driver from a mailbox and a timer wheel. Inbound bytes decode incrementally through
//! per-connection frame buffers; outbound frames queue whole (no staging
//! copy) and leave in `writev` scatter-gather batches on writability;
//! WAN-emulation delays and reconnect backoffs are epoll-wait deadlines.
//! Thread count per replica is O(1) in connections — the
//! `tests/net_soak.rs` soak holds 500 simultaneous clients on one replica
//! to pin that down — and a cluster can run as N separate OS processes via
//! the `consensus_node` binary (see `tests/multi_process.rs` and the
//! `tcp_cluster` example docs).
//!
//! A crashed `net` replica restarts on its old address with a fresh process
//! and an **empty state machine**, then catches up by snapshot-based state
//! transfer: it asks its peers (`SnapshotRequest`), a live peer donates its
//! latest checkpoint plus the decided suffix (`SnapshotChunk` frames over
//! the same event loop), and the restarted replica restores, replays, and
//! serves reads that reflect pre-crash writes — for **all five protocols**
//! (`tests/restart_catch_up.rs` runs the crash → restart → read matrix).
//! While restoring, client requests fail fast with an abort instead of
//! hanging; the `Process::on_state_transfer` hook hands the protocol layer
//! a [`consensus_types::StateTransfer`] — the floor-compacted applied-id
//! summary plus the donor's [`consensus_types::ExecutionCursor`] — so
//! dependency-gated execution (CAESAR predecessors, EPaxos graphs) stops
//! waiting on covered commands and slot-gated execution (Multi-Paxos,
//! Mencius, M²Paxos) fast-forwards its cursor past the restored state. The
//! whole lifecycle — checkpoint cadence, wire flow, cursor vs. id
//! transfer, dedup window, fail-fast aborts — is documented in the
//! [`recovery`] chapter (rendered from `docs/RECOVERY.md`).
//!
//! With a data directory configured (`NetConfig::with_data_dir`, the
//! `consensus_node` binary's `--data-dir`), replicas are **durable**: each
//! keeps a write-ahead log (the [`wal`] crate — CRC-framed records in
//! compacting segment files, fsynced under a configurable
//! [`net::FsyncPolicy`]) and recovery becomes disk-first, with the snapshot
//! transfer above as the fallback for whatever disk cannot provide. A whole
//! cluster can power-cycle — every replica down, zero donors — and come
//! back serving its pre-crash state (`NetCluster::power_cycle`; the
//! durability matrix in `tests/restart_catch_up.rs` pins this per
//! protocol, and `crates/wal/tests/corruption.rs` property-tests torn-tail
//! repair). The log format, fsync trade-offs and recovery decision tree
//! are documented in the [`durability`] chapter (rendered from
//! `docs/DURABILITY.md`).
//!
//! Both serve clients through the same session API
//! ([`consensus_core::session`]): `ClusterHandle::client(node)` hands out a
//! `ClientHandle` bound to one replica, `ClientHandle::submit(op)` returns a
//! `Ticket`, and `Ticket::wait()` resolves to a `Reply` once the command
//! executes at the submitting replica — carrying the key-value store result,
//! so reads observe that replica's state (read-your-writes). Completions are
//! routed by command id through a waiter table with bounded in-flight
//! backpressure; a replica that disconnects fails its outstanding tickets
//! instead of leaving them hanging.
//!
//! ## Submit/await on the simulator
//!
//! `Ticket::wait` advances *simulated* time, so a client round trip is
//! deterministic and instant in wall-clock terms:
//!
//! ```
//! use caesar::{CaesarConfig, CaesarReplica};
//! use consensus_core::session::{ClusterHandle, Op};
//! use consensus_types::NodeId;
//! use simnet::{LatencyMatrix, SimConfig, SimSession, Simulator};
//!
//! let config = CaesarConfig::new(5);
//! let sim_config = SimConfig::new(LatencyMatrix::ec2_five_sites());
//! let session = SimSession::new(Simulator::new(sim_config, move |id| {
//!     CaesarReplica::new(id, config.clone())
//! }));
//! let client = session.client(NodeId(0));
//! let write = client.submit(Op::put(7, 1)).unwrap().wait().unwrap();
//! let read = client.submit(Op::get(7)).unwrap().wait().unwrap();
//! assert_eq!(read.output, Some(1), "read-your-writes at the submitting replica");
//! assert!(write.decision.latency() > 0);
//! ```
//!
//! ## Submit/await over TCP
//!
//! The same calls against [`net::NetCluster`] travel as
//! `WireMessage::ClientRequest` frames and come back as
//! `Event::ClientReply` frames — the identical wire protocol an external
//! process speaks through [`net::ReplicaClient`] (see the
//! `consensus_client` example):
//!
//! ```
//! use caesar::{CaesarConfig, CaesarReplica};
//! use consensus_core::session::{ClusterHandle, Op};
//! use consensus_types::NodeId;
//! use net::{NetCluster, NetConfig};
//!
//! let caesar = CaesarConfig::new(3).with_recovery_timeout(None);
//! let sockets = NetCluster::start(NetConfig::new(3), move |id| {
//!     CaesarReplica::new(id, caesar.clone())
//! })
//! .expect("cluster starts");
//! let client = sockets.client(NodeId(0));
//! client.submit(Op::put(7, 3)).unwrap().wait().unwrap();
//! let read = client.submit(Op::get(7)).unwrap().wait().unwrap();
//! assert_eq!(read.output, Some(3));
//! sockets.shutdown();
//! ```
//!
//! Or fully external, over a plain socket:
//!
//! ```text
//! cargo run --release --example tcp_cluster -- serve 30       # terminal 1
//! cargo run --release --example consensus_client -- ADDR      # terminal 2
//! ```
//!
//! The `tests/cross_runtime.rs` integration test pins the two runtimes
//! together: the same seeded workload, driven through `ClusterHandle`, must
//! produce identical replies and the identical delivery order on both.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[doc = include_str!("../docs/RECOVERY.md")]
pub mod recovery {}

#[doc = include_str!("../docs/DURABILITY.md")]
pub mod durability {}

#[doc = include_str!("../docs/OBSERVABILITY.md")]
pub mod observability {}

#[doc = include_str!("../docs/THROUGHPUT.md")]
pub mod throughput {}

pub use caesar;
pub use consensus_core;
pub use consensus_types;
pub use epaxos;
pub use harness;
pub use kvstore;
pub use m2paxos;
pub use mencius;
pub use multipaxos;
pub use net;
pub use reactor;
pub use simnet;
pub use telemetry;
pub use wal;
pub use workload;
