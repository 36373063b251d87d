//! One replica running over real sockets.
//!
//! A [`NetReplica`] owns a single [`simnet::Process`] implementation and
//! drives it exactly the way the simulator does — through
//! [`Context::for_runtime`] — but with TCP in place of the event queue. The
//! replica runs **O(1) threads regardless of connection count**:
//!
//! * an **event-loop thread** (see [`crate::event_loop`]) owns every socket
//!   — listener, peer links, subscribers, client connections — as
//!   nonblocking descriptors on one epoll [`reactor::Poller`]; it decodes
//!   inbound frames into the replica's mailbox and flushes per-connection
//!   write buffers interest-driven;
//! * a **core-loop thread** drains the mailbox, invokes the process
//!   callbacks, applies executions to the replica's pluggable
//!   [`StateMachine`] (the `kvstore` reference implementation unless the
//!   config carries a custom factory) on this same thread through an
//!   [`Executor`] — no execution threads, since a round of decided
//!   commands applies faster than it could be handed off — and maps the
//!   process's `SimTime` timers onto wall-clock deadlines in a local timer
//!   wheel (its mailbox wait *is* the timer sleep — it blocks until the
//!   earliest deadline, not on a polling interval).
//!
//! Outbound frames are serialized on the core loop and handed to the event
//! loop pre-framed; the optional [`DelayShim`] attaches an artificial
//! delivery deadline which the event loop honours as an epoll-wait timeout,
//! emulating a WAN latency matrix on loopback without any sleeping thread.
//!
//! Client connections submit [`WireMessage::ClientRequest`] frames; when the
//! command executes at this replica, the core loop emits an
//! [`Event::ClientReply`] carrying the state-machine output and the event
//! loop routes it to the submitting connection. A replica that shuts down
//! with requests still pending answers them with [`Event::ClientAbort`] so
//! no client waits forever.
//!
//! # Snapshot-based state transfer
//!
//! The core loop checkpoints its state machine — snapshot bytes, the
//! floor-compacted `AppliedSummary` of the ids it covers, and the
//! protocol's `ExecutionCursor` at cut time — and retains the units applied
//! since in a suffix log. Cuts are at least
//! [`NetReplicaConfig::checkpoint_interval`] units apart; once the last
//! checkpoint outgrows one snapshot chunk, a cut also waits until the
//! suffix has logged as many encoded bytes as that checkpoint held (capped
//! so the suffix always fits one frame). Checkpoint cost thus tracks logged
//! work, not state size, and recovery replays at most about one
//! checkpoint's worth of suffix. A replica started with
//! [`NetReplicaConfig::catch_up`] — which is how
//! `NetCluster::restart_replica` brings a crashed node back — begins in
//! a *restoring* state: it broadcasts [`WireMessage::SnapshotRequest`] to
//! its peers, and each live peer answers with
//! [`WireMessage::SnapshotChunk`] frames carrying its latest checkpoint
//! plus the decided suffix and a donation-time cursor. The first complete
//! transfer wins: the replica `restore`s the snapshot, replays the suffix,
//! seeds its applied-id summary from the transfer, hands the protocol a
//! `StateTransfer` through `Process::on_state_transfer` (dependency
//! tracking learns what is covered; slot cursors fast-forward past the
//! restored state), and only then starts applying the executions its own
//! process produced (buffered while restoring; commands already covered
//! are deduplicated by id). While restoring, client requests are refused
//! with an immediate [`Event::ClientAbort`] — fail fast, never hang — and
//! if no transfer completes within [`NetReplicaConfig::catch_up_timeout`]
//! the replica gives up and serves with whatever it has (the pre-transfer
//! behaviour). A full walk-through of the lifecycle lives in
//! `docs/RECOVERY.md` at the repository root.
//!
//! # Durable write-ahead log
//!
//! When [`NetReplicaConfig::data_dir`] is set, the core loop opens a
//! [`wal::Wal`] in that directory and the replica becomes durable: every
//! decided command is appended to the log *before* it touches the state
//! machine, the protocol's `ExecutionCursor` is marked after each apply
//! batch, and the staged records are committed (fsynced under the
//! configured [`FsyncPolicy`]) before the client replies leave the core
//! loop. Cutting a checkpoint also writes it to the log, which rotates to a
//! fresh segment and compacts everything older away. On restart the core
//! loop replays its own log first — latest checkpoint plus the command
//! suffix after it, a torn tail truncated at the first CRC mismatch — and
//! only then runs the snapshot-transfer catch-up above for whatever disk
//! could not provide (a donor whose offer is behind the disk watermark is
//! skipped rather than allowed to regress it). With data dirs in place an
//! entire cluster can power down and come back with zero live donors; the
//! record format, fsync trade-offs, and the recovery decision tree are
//! documented in `docs/DURABILITY.md`.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use consensus_core::batch::{BatchConfig, Batcher};
use consensus_core::exec::Executor;
use consensus_core::state_machine::StateMachineFactory;
use consensus_types::{
    AppliedSummary, Command, CommandId, Decision, DecisionPath, Execution, ExecutionCursor,
    LatencyBreakdown, NodeId, SimTime, StateTransfer, Timestamp,
};
use kvstore::KvStore;
use simnet::{Context, LatencyMatrix, Process};
use telemetry::{Counter, Registry, SpanEvent, TracePhase};
use wal::{FsyncPolicy, Recovery, Wal, WalConfig};

use crate::event_loop::{EventLoop, IoCmd, IoQueue};
use crate::wire::{frame_bytes, Event, WireMessage, MAX_FRAME_LEN};

/// Bytes of transfer payload per [`WireMessage::SnapshotChunk`] frame.
/// Bounded so a large state machine never produces one giant frame that
/// monopolizes the donor's write buffer (and so transfers interleave with
/// protocol traffic).
const SNAPSHOT_CHUNK: usize = 256 * 1024;

/// Suffix bytes past which a checkpoint is due however large the state is:
/// a quarter of [`MAX_FRAME_LEN`], so the suffix riding on the last
/// [`WireMessage::SnapshotChunk`] (beside at most one chunk of payload)
/// always fits in one frame.
const SUFFIX_CAP: u64 = MAX_FRAME_LEN as u64 / 4;

/// Whether the core loop cuts a checkpoint now, given the suffix logged
/// since the last cut (`units`, encoded `bytes`) and that cut's payload
/// length. At least `interval` units must separate cuts. Past that, a
/// payload under one [`SNAPSHOT_CHUNK`] is cut at once, so small states
/// keep the plain unit cadence; a larger one waits until the suffix has
/// logged as many bytes as the payload holds (at most [`SUFFIX_CAP`]), so
/// a cut never writes much more than the work it retires.
fn checkpoint_due(units: usize, bytes: u64, interval: u64, last_payload: usize) -> bool {
    units as u64 >= interval
        && (last_payload < SNAPSHOT_CHUNK || bytes >= (last_payload as u64).min(SUFFIX_CAP))
}

/// Emulates a WAN latency matrix on a fast local network by delaying each
/// outbound frame until `one_way(src, dst) × scale` has elapsed since it was
/// produced (the paper's five-site EC2 matrix scaled down keeps tests fast).
#[derive(Debug, Clone)]
pub struct DelayShim {
    latency: LatencyMatrix,
    scale: f64,
}

impl DelayShim {
    /// Creates a shim from a latency matrix and a scale factor (`0.01` turns
    /// a 93 ms one-way delay into 0.93 ms).
    #[must_use]
    pub fn new(latency: LatencyMatrix, scale: f64) -> Self {
        Self { latency, scale }
    }

    /// The artificial one-way delay from `src` to `dst`.
    #[must_use]
    pub fn one_way(&self, src: NodeId, dst: NodeId) -> Duration {
        let us = self.latency.one_way(src, dst) as f64 * self.scale;
        Duration::from_micros(us as u64)
    }
}

/// Configuration of one socket-backed replica.
#[derive(Clone)]
pub struct NetReplicaConfig {
    /// This replica's identity.
    pub id: NodeId,
    /// Total number of replicas in the cluster.
    pub nodes: usize,
    /// Address to listen on; use port 0 to let the OS pick one. The
    /// listener binds with `SO_REUSEADDR`, so a restarted replica can
    /// reclaim the address of its previous life immediately.
    pub bind: SocketAddr,
    /// Optional artificial-delay shim applied to outbound frames (including
    /// self-deliveries).
    pub delay: Option<DelayShim>,
    /// Multiplier mapping the process's `SimTime` timer delays (µs) onto
    /// wall-clock time; `1.0` means a 500 ms protocol timeout sleeps 500 ms.
    pub timer_scale: f64,
    /// Delay between outbound reconnect attempts.
    pub reconnect_backoff: Duration,
    /// Epoch used for `Context::now`; share one across the cluster so
    /// timestamps are comparable.
    pub epoch: Instant,
    /// Builds this replica's state machine (the `kvstore` reference
    /// implementation by default).
    pub state_machine: StateMachineFactory,
    /// Minimum number of applied consensus units between two state-machine
    /// checkpoints (snapshot + watermark); the units since the checkpoint
    /// form the replayable suffix served to catching-up peers. States under
    /// one snapshot chunk (256 KiB) are cut at exactly this cadence; larger
    /// ones also wait until the suffix has logged as many bytes as the last
    /// checkpoint held (capped at a quarter of the wire's frame limit), so
    /// checkpoint cost tracks logged work rather than state size.
    pub checkpoint_interval: u64,
    /// Start in the *restoring* state: request a snapshot from the peers
    /// and only serve once restored (or once `catch_up_timeout` passes).
    /// `NetCluster::restart_replica` sets this.
    pub catch_up: bool,
    /// How long a catching-up replica waits for a complete snapshot
    /// transfer before giving up and serving with empty state.
    pub catch_up_timeout: Duration,
    /// Directory for this replica's write-ahead log. When set, the core
    /// loop appends every decided command (and per-batch execution-cursor
    /// marks) before applying it, persists checkpoints as durable records,
    /// and on startup replays the log *first* — disk-first recovery — using
    /// snapshot transfer only for whatever disk could not provide. `None`
    /// (the default) keeps the replica memory-only.
    pub data_dir: Option<PathBuf>,
    /// When logged records reach the platter (see [`FsyncPolicy`]); only
    /// consulted when [`NetReplicaConfig::data_dir`] is set.
    pub fsync: FsyncPolicy,
    /// Proposer batching: client requests already queued in the mailbox
    /// when the core loop turns are folded into one consensus unit,
    /// amortising ordering round trips, wire frames, and WAL fsyncs
    /// (group commit). Disabled by default (`max_batch = 1`).
    pub batch: BatchConfig,
    /// Ignored: every replica applies decided commands on its core loop
    /// (see [`consensus_core::exec::Executor`]). Kept only because the
    /// `perfbench/` benchmark still sets it; it goes with that benchmark's
    /// next revision.
    pub exec_workers: usize,
}

impl std::fmt::Debug for NetReplicaConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetReplicaConfig")
            .field("id", &self.id)
            .field("nodes", &self.nodes)
            .field("bind", &self.bind)
            .field("delay", &self.delay)
            .field("timer_scale", &self.timer_scale)
            .field("reconnect_backoff", &self.reconnect_backoff)
            .field("checkpoint_interval", &self.checkpoint_interval)
            .field("catch_up", &self.catch_up)
            .field("catch_up_timeout", &self.catch_up_timeout)
            .field("data_dir", &self.data_dir)
            .field("fsync", &self.fsync)
            .field("batch", &self.batch)
            .finish_non_exhaustive()
    }
}

impl NetReplicaConfig {
    /// A loopback configuration with OS-assigned port and real-time timers.
    #[must_use]
    pub fn loopback(id: NodeId, nodes: usize) -> Self {
        Self {
            id,
            nodes,
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            delay: None,
            timer_scale: 1.0,
            reconnect_backoff: Duration::from_millis(10),
            epoch: Instant::now(),
            state_machine: KvStore::factory(),
            checkpoint_interval: 64,
            catch_up: false,
            catch_up_timeout: Duration::from_secs(10),
            data_dir: None,
            fsync: FsyncPolicy::PerBatch,
            batch: BatchConfig::disabled(),
            exec_workers: 1,
        }
    }
}

/// Counters exposed by a running replica (all monotone).
///
/// The handles live in the replica's [`telemetry::Registry`] under `net.*`
/// names (e.g. `net.frames_sent`), so a [`WireMessage::StatsRequest`] scrape
/// reads the same values as the in-process accessors.
#[derive(Debug)]
pub struct NetReplicaStats {
    /// Frames flushed to peer/client sockets (counted when their write
    /// buffer drains).
    pub frames_sent: Counter,
    /// Frames received and enqueued from any connection.
    pub frames_received: Counter,
    /// Outbound frames abandoned: buffered on a connection that died, or
    /// displaced from an over-full down-link queue.
    pub frames_dropped: Counter,
    /// Successful outbound connection establishments (first + re-connects).
    pub connects: Counter,
    /// Write-buffer flush passes that put at least one complete frame on
    /// the wire; all frames buffered on a connection leave in one such pass
    /// ([`Self::frames_sent`] ÷ this is the average batch size).
    pub batches_flushed: Counter,
    /// Frames whose CRC-32 check failed on decode; each one also tears its
    /// connection down (a corrupted stream cannot be resynchronized).
    pub corrupt_frames: Counter,
    /// Flush passes that gathered two or more frames into one `writev`
    /// scatter-gather syscall (single-frame flushes are ordinary writes).
    pub writev_flushes: Counter,
    /// Snapshot transfers this replica donated to catching-up peers.
    pub snapshots_served: Counter,
    /// Snapshot payload bytes chunked out across all donations.
    pub snapshot_bytes_sent: Counter,
    /// Catch-up transfers this replica completed (snapshot restored and
    /// suffix replayed). Counted before the restored state is installed, so
    /// whoever observes the restored watermark or fingerprint also
    /// observes this count.
    pub catch_ups_completed: Counter,
    /// Commands replayed from donors' decided suffixes during catch-up.
    pub catch_up_replayed: Counter,
}

impl NetReplicaStats {
    /// Registers (or re-attaches to) the transport counters in `registry`.
    #[must_use]
    pub fn register(registry: &Registry) -> Self {
        Self {
            frames_sent: registry.counter("net.frames_sent"),
            frames_received: registry.counter("net.frames_received"),
            frames_dropped: registry.counter("net.frames_dropped"),
            connects: registry.counter("net.connects"),
            batches_flushed: registry.counter("net.batches_flushed"),
            corrupt_frames: registry.counter("net.corrupt_frames"),
            writev_flushes: registry.counter("net.writev_flushes"),
            snapshots_served: registry.counter("net.snapshots_served"),
            snapshot_bytes_sent: registry.counter("net.snapshot_bytes_sent"),
            catch_ups_completed: registry.counter("net.catch_ups_completed"),
            catch_up_replayed: registry.counter("net.catch_up_replayed"),
        }
    }
}

/// Write-ahead-log failures the core loop survives: each is printed to
/// stderr, counted here under `wal.errors.*`, and the replica keeps
/// serving (a memory-only replica's counters stay at zero).
struct WalErrors {
    /// A decided unit could not be staged.
    append: Counter,
    /// A cursor mark or the commit (fsync) closing an apply batch failed.
    commit: Counter,
    /// A checkpoint record could not be written, or the one recovered at
    /// startup could not be decoded or restored.
    checkpoint: Counter,
}

impl WalErrors {
    fn register(registry: &Registry) -> Self {
        Self {
            append: registry.counter("wal.errors.append"),
            commit: registry.counter("wal.errors.commit"),
            checkpoint: registry.counter("wal.errors.checkpoint"),
        }
    }
}

/// A consensus replica served over TCP.
///
/// Returned by [`NetReplica::spawn`] in a *bound but not yet linked* state:
/// the event loop is accepting (so peers can dial in at any time) but the
/// core loop only starts once [`NetReplica::start`] provides the peer
/// address book. This two-phase bring-up lets an orchestrator bind N
/// replicas on OS-assigned ports first and distribute the resulting
/// addresses second.
pub struct NetReplica<P: Process> {
    id: NodeId,
    local_addr: SocketAddr,
    config: NetReplicaConfig,
    process: Option<P>,
    executor: Arc<Executor>,
    mailbox_tx: Sender<WireMessage<P::Message>>,
    mailbox_rx: Option<Receiver<WireMessage<P::Message>>>,
    io: Arc<IoQueue>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Registry>,
    stats: Arc<NetReplicaStats>,
    subscriber_count: Arc<AtomicUsize>,
    /// The open write-ahead log and what its startup scan recovered, held
    /// here between [`NetReplica::spawn`] (which opens the log so disk
    /// errors surface synchronously) and [`NetReplica::start`] (which moves
    /// both onto the core loop: the recovery is replayed before the first
    /// mailbox message is served).
    wal: Option<(Wal, Recovery)>,
    threads: Vec<JoinHandle<()>>,
}

impl<P> NetReplica<P>
where
    P: Process + Send + 'static,
    P::Message: serde::Serialize + serde::Deserialize + Send + 'static,
{
    /// Binds the listener and starts the event-loop thread, which accepts
    /// connections immediately. The process is not driven until
    /// [`NetReplica::start`] is called.
    pub fn spawn(config: NetReplicaConfig, process: P) -> io::Result<Self> {
        let listener = reactor::bind_reusable(config.bind, 1024)?;
        let local_addr = listener.local_addr()?;
        let (mailbox_tx, mailbox_rx) = mpsc::channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        // One registry per replica: the process's own (so protocol counters
        // and transport counters scrape together), or a fresh one when the
        // process does not expose telemetry.
        let registry = process.telemetry().unwrap_or_else(|| Arc::new(Registry::new()));
        let stats = Arc::new(NetReplicaStats::register(&registry));
        let subscriber_count = Arc::new(AtomicUsize::new(0));
        let io = Arc::new(IoQueue::new()?);
        let executor =
            Arc::new(Executor::new(config.state_machine.clone(), config.id, 1, &registry));
        // Disk-first: open (and scan) the write-ahead log before any socket
        // traffic exists, so an unreadable data dir fails the spawn instead
        // of a serving replica.
        let wal = match &config.data_dir {
            Some(dir) => {
                let wal_config = WalConfig::new(dir.clone()).with_fsync(config.fsync.clone());
                Some(Wal::open(wal_config, &registry)?)
            }
            None => None,
        };

        let event_loop = EventLoop::new(
            config.id,
            listener,
            Arc::clone(&io),
            mailbox_tx.clone(),
            config.reconnect_backoff,
            Arc::clone(&registry),
            Arc::clone(&stats),
            Arc::clone(&subscriber_count),
            Arc::clone(&shutdown),
        )?;
        let io_thread = std::thread::spawn(move || event_loop.run());

        Ok(Self {
            id: config.id,
            local_addr,
            config,
            process: Some(process),
            executor,
            mailbox_tx,
            mailbox_rx: Some(mailbox_rx),
            io,
            shutdown,
            registry,
            stats,
            subscriber_count,
            wal,
            threads: vec![io_thread],
        })
    }

    /// The address the replica is listening on (useful with port 0 binds).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This replica's identity.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Live transport counters.
    #[must_use]
    pub fn stats(&self) -> &Arc<NetReplicaStats> {
        &self.stats
    }

    /// The telemetry registry this replica records into: the process's
    /// protocol counters, the `net.*` transport counters, and the
    /// command-lifecycle span ring. The same data a
    /// [`WireMessage::StatsRequest`] scrape returns.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The state-machine digest of this replica (see
    /// [`consensus_core::StateMachine::fingerprint`]); equal histories give
    /// equal fingerprints, which is how the catch-up tests compare a
    /// restarted replica against a never-crashed peer.
    #[must_use]
    pub fn state_fingerprint(&self) -> u64 {
        self.executor.fingerprint()
    }

    /// Number of commands this replica's state machine has applied
    /// (including commands replayed through snapshot catch-up).
    #[must_use]
    pub fn applied_through(&self) -> u64 {
        self.executor.applied_through()
    }

    /// Decision-stream subscribers the event loop has registered so far.
    pub(crate) fn subscribers(&self) -> usize {
        self.subscriber_count.load(Ordering::Relaxed)
    }

    /// Number of OS threads this replica runs. Constant — event loop plus
    /// core loop — independent of how many peers or clients are connected.
    #[must_use]
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// A handle for injecting envelopes into the local mailbox without a
    /// socket (used by in-process orchestration and tests).
    #[must_use]
    pub fn mailbox(&self) -> Sender<WireMessage<P::Message>> {
        self.mailbox_tx.clone()
    }

    /// Starts the core loop given the full cluster address book
    /// (`peers[i]` is replica *i*'s listen address; this replica's own entry
    /// is ignored — self-sends short-circuit through the timer wheel).
    ///
    /// # Panics
    ///
    /// Panics if called twice or if `peers.len()` disagrees with the
    /// configured cluster size.
    pub fn start(&mut self, peers: Vec<SocketAddr>) {
        assert_eq!(peers.len(), self.config.nodes, "address book size mismatch");
        let process = self.process.take().expect("NetReplica::start called twice");
        let mailbox_rx = self.mailbox_rx.take().expect("mailbox receiver present");
        let (wal, disk_recovery) = match self.wal.take() {
            Some((wal, recovery)) => (Some(wal), Some(recovery)),
            None => (None, None),
        };

        // Hand the event loop its address book; it dials (and keeps
        // redialing) every remote peer from its own thread.
        let book: Vec<(NodeId, SocketAddr)> = peers
            .iter()
            .enumerate()
            .map(|(index, &addr)| (NodeId::from_index(index), addr))
            .filter(|&(to, _)| to != self.id)
            .collect();
        self.io.push(IoCmd::DialPeers(book));

        let core = CoreLoop {
            id: self.id,
            nodes: self.config.nodes,
            process,
            mailbox: mailbox_rx,
            io: Arc::clone(&self.io),
            timers: TimerWheel::default(),
            delay: self.config.delay.clone(),
            timer_scale: self.config.timer_scale,
            epoch: self.config.epoch,
            shutdown: Arc::clone(&self.shutdown),
            executor: Arc::clone(&self.executor),
            batch: self.config.batch,
            batcher: Batcher::new(self.id),
            stash: None,
            batch_assembled: self.registry.counter("batch.assembled"),
            batch_commands: self.registry.counter("batch.commands"),
            checkpoint: None,
            checkpoint_interval: self.config.checkpoint_interval.max(1),
            suffix_log: Vec::new(),
            suffix_bytes: 0,
            restore: if self.config.catch_up && self.config.nodes > 1 {
                Some(RestoreState {
                    deadline: Instant::now() + self.config.catch_up_timeout,
                    donors: HashMap::new(),
                    pending: Vec::new(),
                })
            } else {
                None
            },
            applied: AppliedSummary::default(),
            ordered: AppliedSummary::default(),
            watermark: 0,
            registry: Arc::clone(&self.registry),
            // Maps the epoch-relative `Context::now` timestamps spans carry
            // onto wall-clock microseconds, so traces scraped from
            // different replicas (different processes, shared epoch or not)
            // line up on one axis.
            wall0: telemetry::wall_clock_us()
                .saturating_sub(self.config.epoch.elapsed().as_micros() as u64),
            stats: Arc::clone(&self.stats),
            reply_wanted: HashSet::new(),
            subscribers: Arc::clone(&self.subscriber_count),
            wal,
            wal_errors: WalErrors::register(&self.registry),
            disk_recovery,
        };
        self.threads.push(std::thread::spawn(move || core.run()));
    }

    /// Requests shutdown without blocking (the core loop exits at its next
    /// mailbox wakeup and the event loop follows).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.mailbox_tx.send(WireMessage::Shutdown);
        // If the core loop never started, the event loop still has to exit.
        if self.process.is_some() {
            self.io.push(IoCmd::Shutdown);
        }
    }

    /// Requests shutdown and joins every thread the replica spawned.
    /// Also used internally when a replica is replaced in-place (see
    /// `NetCluster::restart_replica`).
    pub fn stop(&mut self) {
        self.request_shutdown();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }

    /// Requests shutdown and joins every thread the replica spawned.
    pub fn shutdown(mut self) {
        self.stop();
    }
}

/// Pending self-deliveries: protocol timers and loopback (self-addressed)
/// sends, ordered by wall-clock deadline.
struct TimerWheel<M> {
    entries: Vec<(Instant, M)>,
}

impl<M> Default for TimerWheel<M> {
    fn default() -> Self {
        Self { entries: Vec::new() }
    }
}

impl<M> TimerWheel<M> {
    fn push(&mut self, at: Instant, msg: M) {
        self.entries.push((at, msg));
    }

    /// Deadline of the soonest pending entry.
    fn next_deadline(&self) -> Option<Instant> {
        self.entries.iter().map(|(at, _)| *at).min()
    }

    /// Removes and returns every entry due at `now`, in deadline order.
    fn pop_due(&mut self, now: Instant) -> Vec<M> {
        let mut due: Vec<(Instant, M)> = Vec::new();
        let mut index = 0;
        while index < self.entries.len() {
            if self.entries[index].0 <= now {
                due.push(self.entries.swap_remove(index));
            } else {
                index += 1;
            }
        }
        due.sort_by_key(|(at, _)| *at);
        due.into_iter().map(|(_, msg)| msg).collect()
    }
}

/// The latest checkpoint: the serialized transfer payload — state-machine
/// snapshot bytes paired with the floor-compacted [`AppliedSummary`]s of
/// the command ids and consensus-unit ids it covers and the protocol's
/// [`ExecutionCursor`] at cut time — plus the watermark. `payload` is
/// reference-counted so donating never copies it.
///
/// The applied-id summary exists because applying a command twice forks a
/// replica's state machine away from its peers, and after a crash/restart
/// duplicates are real: the snapshot a restarted replica installs covers
/// commands that surviving peers *also* redeliver as queued protocol
/// traffic once their links reconnect. Every apply consults the summary,
/// and shipping it with the snapshot hands the receiver the complete dedup
/// (and dependency-satisfaction) knowledge — a transfer that shipped only a
/// recent window would leave the receiver's protocol layer waiting forever
/// on any dependency older than the window. Thanks to per-origin run
/// compaction the payload is O(replicas + clients), not O(history).
#[derive(Clone)]
struct Checkpoint {
    applied_through: u64,
    payload: Arc<Vec<u8>>,
}

/// One donor's in-flight snapshot transfer, assembled chunk by chunk.
struct DonorTransfer {
    applied_through: u64,
    total: u32,
    received: u32,
    chunks: Vec<Option<Vec<u8>>>,
    suffix: Vec<Command>,
    /// The donor's execution cursor at donation time (last chunk only;
    /// consistent with snapshot + suffix).
    cursor: ExecutionCursor,
}

/// The fields of one [`WireMessage::SnapshotChunk`], regrouped so the core
/// loop can pass them around as a unit.
struct ChunkFields {
    from: NodeId,
    applied_through: u64,
    seq: u32,
    total: u32,
    bytes: Vec<u8>,
    suffix: Vec<Command>,
    cursor: ExecutionCursor,
}

/// The catching-up phase of a restarted replica: requests are out, chunks
/// are being assembled per donor, and executions produced by the local
/// process meanwhile are buffered until the restore resolves.
struct RestoreState {
    deadline: Instant,
    donors: HashMap<NodeId, DonorTransfer>,
    pending: Vec<Execution>,
}

struct CoreLoop<P: Process> {
    id: NodeId,
    nodes: usize,
    process: P,
    mailbox: Receiver<WireMessage<P::Message>>,
    io: Arc<IoQueue>,
    timers: TimerWheel<P::Message>,
    delay: Option<DelayShim>,
    timer_scale: f64,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
    /// The replica's execution engine, applied on this thread. Every
    /// execution is applied here, and its output answers `ClientRequest`
    /// submissions. Shared with the `NetReplica` handle so orchestrators
    /// can read fingerprints and watermarks.
    executor: Arc<Executor>,
    /// Proposer batching knobs (disabled ⇒ the mailbox drain never runs).
    batch: BatchConfig,
    /// Allocates this replica's batch-lane unit ids.
    batcher: Batcher,
    /// A non-client envelope pulled off the mailbox while draining a batch;
    /// dispatched before the mailbox is consulted again.
    stash: Option<WireMessage<P::Message>>,
    /// Count of multi-command units assembled.
    batch_assembled: Counter,
    /// Count of client commands that travelled inside those units.
    batch_commands: Counter,
    /// The latest snapshot cut, served to catching-up peers.
    checkpoint: Option<Checkpoint>,
    /// Minimum units between checkpoint cuts (see [`checkpoint_due`]).
    checkpoint_interval: u64,
    /// Units applied since the checkpoint, in execution order — the
    /// replayable suffix a donor sends alongside its snapshot. Cleared on
    /// every checkpoint cut, so it holds at most `checkpoint_interval`
    /// units or about as many encoded bytes as the checkpoint payload
    /// (never more than [`SUFFIX_CAP`]), whichever is larger.
    suffix_log: Vec<Command>,
    /// Encoded size of `suffix_log`, in bytes.
    suffix_bytes: u64,
    /// `Some` while this replica is catching up from a peer snapshot.
    restore: Option<RestoreState>,
    /// Every *command* id this replica has applied (batch units count one
    /// id per inner command), floor-compacted; consulted and fed on every
    /// apply so a redelivered decision (reconnect replay after a crash)
    /// cannot be applied twice.
    applied: AppliedSummary,
    /// Every *consensus unit* id this replica has executed — plain command
    /// ids plus batch-lane unit ids. Protocol layers name units (a
    /// predecessor set can reference a batch id), so transfers ship this
    /// alongside `applied`; it also reseeds the batcher's id lane after a
    /// restart so a new incarnation never reuses a logged unit id.
    ordered: AppliedSummary,
    /// The highest state-machine watermark this loop has observed. The
    /// machine only ever moves forward — a regression means a restore or a
    /// replay mis-ordered against live applies, which would let a client
    /// reply observe a cursor ahead of `applied_through` — so the core loop
    /// asserts monotonicity at every step that touches the machine.
    watermark: u64,
    /// The replica's telemetry registry: protocol spans drained from the
    /// process contexts and runtime spans (submit/execute/reply) land here.
    registry: Arc<Registry>,
    /// Wall-clock microseconds (UNIX epoch) at `epoch`: added to every
    /// span's epoch-relative timestamp before it is recorded.
    wall0: u64,
    stats: Arc<NetReplicaStats>,
    /// Commands submitted to **this** replica as `ClientRequest`s, i.e. the
    /// only ones a connection here may be waiting on. Every replica executes
    /// every command, so without this filter (N−1)/N of the reply frames
    /// would be serialized just to be dropped by the event loop.
    reply_wanted: HashSet<CommandId>,
    /// Live decision-stream subscribers (maintained by the event loop);
    /// when zero, `Event::Decisions` batches are not even serialized.
    subscribers: Arc<AtomicUsize>,
    /// The durable write-ahead log, when [`NetReplicaConfig::data_dir`] is
    /// set: commands are appended before they are applied, a cursor mark
    /// closes each apply batch, and checkpoints become durable records that
    /// rotate and compact the segment files.
    wal: Option<Wal>,
    wal_errors: WalErrors,
    /// What the log's startup scan recovered; replayed once, before the
    /// first mailbox message, then `None` forever.
    disk_recovery: Option<Recovery>,
}

impl<P> CoreLoop<P>
where
    P: Process,
    P::Message: serde::Serialize,
{
    fn now_us(&self) -> SimTime {
        self.epoch.elapsed().as_micros() as SimTime
    }

    fn run(mut self) {
        let mut outbox: Vec<(NodeId, P::Message)> = Vec::new();
        let mut new_timers: Vec<(SimTime, P::Message)> = Vec::new();
        let mut executions: Vec<Execution> = Vec::new();
        let mut spans: Vec<SpanEvent> = Vec::new();

        {
            let now = self.now_us();
            let mut ctx = Context::for_runtime(
                self.id,
                self.nodes,
                now,
                &mut outbox,
                &mut new_timers,
                &mut executions,
            )
            .with_spans(&mut spans);
            self.process.on_start(&mut ctx);
        }
        // Disk first: replay this replica's own log before anything else —
        // snapshot transfer (requested below, when `catch_up` is set) then
        // only has to cover what disk could not provide.
        if let Some(recovery) = self.disk_recovery.take() {
            self.recover_from_disk(
                recovery,
                &mut outbox,
                &mut new_timers,
                &mut executions,
                &mut spans,
            );
        }
        self.flush(&mut outbox, &mut new_timers, &mut executions, &mut spans);
        if self.restore.is_some() {
            self.request_snapshots();
        }

        loop {
            // Block until the earliest timer deadline (the mailbox wait *is*
            // the timer sleep); a long backstop covers the no-timer case —
            // shutdown arrives as a mailbox message, not a poll. A pending
            // restore's give-up deadline also bounds the wait.
            let mut timeout = self
                .timers
                .next_deadline()
                .map(|at| at.saturating_duration_since(Instant::now()))
                .unwrap_or(Duration::from_secs(1));
            if let Some(restore) = &self.restore {
                timeout = timeout.min(restore.deadline.saturating_duration_since(Instant::now()));
            }
            let next = match self.stash.take() {
                // An envelope pulled off the mailbox by a batch drain is
                // dispatched before the mailbox is consulted again.
                Some(envelope) => Ok(envelope),
                None => self.mailbox.recv_timeout(timeout),
            };
            match next {
                Ok(envelope) => {
                    if !self.dispatch(
                        envelope,
                        &mut outbox,
                        &mut new_timers,
                        &mut executions,
                        &mut spans,
                    ) {
                        break;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
            self.check_restore_deadline();
            // Fire due timers and self-deliveries through the same envelope
            // path the mailbox uses.
            for msg in self.timers.pop_due(Instant::now()) {
                self.dispatch(
                    WireMessage::Timer { msg },
                    &mut outbox,
                    &mut new_timers,
                    &mut executions,
                    &mut spans,
                );
            }
            self.flush(&mut outbox, &mut new_timers, &mut executions, &mut spans);
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }

        self.shutdown.store(true, Ordering::SeqCst);
        // Final flush so subscribers see everything executed, then hand the
        // event loop its shutdown command: it aborts the client requests
        // still awaiting replies and closes every socket.
        self.publish(&mut executions);
        self.io.push(IoCmd::Shutdown);
    }

    /// Handles one envelope; returns `false` when the loop should stop.
    fn dispatch(
        &mut self,
        envelope: WireMessage<P::Message>,
        outbox: &mut Vec<(NodeId, P::Message)>,
        new_timers: &mut Vec<(SimTime, P::Message)>,
        executions: &mut Vec<Execution>,
        spans: &mut Vec<SpanEvent>,
    ) -> bool {
        match envelope {
            WireMessage::Shutdown => return false,
            WireMessage::Hello { .. } | WireMessage::Subscribe => {}
            // Stats scrapes are answered by the event loop on the requesting
            // connection and never forwarded here; this arm only fires for
            // in-process mailbox injections, which need no reply.
            WireMessage::StatsRequest => {}
            WireMessage::Peer { from, msg } => {
                let now = self.now_us();
                let mut ctx =
                    Context::for_runtime(self.id, self.nodes, now, outbox, new_timers, executions)
                        .with_spans(spans);
                self.process.on_message(from, msg, &mut ctx);
            }
            WireMessage::ClientRequest { cmd } => {
                if self.restore.is_some() {
                    // Fail fast: a restoring replica's state machine is not
                    // serving yet, and a queued command would hang the
                    // client's ticket until its timeout. The abort frame
                    // travels the reply route the event loop just
                    // registered, resolving the ticket with an error now.
                    let id = cmd.id();
                    let abort = Event::ClientAbort {
                        from: self.id,
                        command: id,
                        reason: "replica is restoring from a peer snapshot; retry shortly"
                            .to_string(),
                    };
                    if let Ok(frame) = frame_bytes(&abort) {
                        self.io.push(IoCmd::ClientReply { command: id, frame });
                    }
                    return true;
                }
                // Group commit: fold every client request already queued in
                // the mailbox into one consensus unit. One ordering round
                // (and, durably, one fsync) then covers the whole batch; the
                // apply path fans replies back out per inner command.
                let mut queued = vec![cmd];
                while self.batch.enabled() && queued.len() < self.batch.max_batch {
                    match self.mailbox.try_recv() {
                        Ok(WireMessage::ClientRequest { cmd }) => queued.push(cmd),
                        Ok(other) => {
                            self.stash = Some(other);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                if queued.len() > 1 {
                    self.batch_assembled.inc();
                    self.batch_commands.add(queued.len() as u64);
                }
                let now = self.now_us();
                let mut ctx =
                    Context::for_runtime(self.id, self.nodes, now, outbox, new_timers, executions)
                        .with_spans(spans);
                for cmd in &queued {
                    self.reply_wanted.insert(cmd.id());
                    ctx.trace(TracePhase::Submit, cmd.id());
                }
                let unit = self.batcher.coalesce(queued);
                self.process.on_client_command(unit, &mut ctx);
            }
            WireMessage::SnapshotRequest { from } => self.serve_snapshot(from),
            WireMessage::SnapshotChunk {
                from,
                applied_through,
                seq,
                total,
                bytes,
                suffix,
                cursor,
            } => {
                self.accept_chunk(
                    ChunkFields { from, applied_through, seq, total, bytes, suffix, cursor },
                    outbox,
                    new_timers,
                    executions,
                    spans,
                );
            }
            WireMessage::Client { cmd } => {
                let id = cmd.id();
                let now = self.now_us();
                let mut ctx =
                    Context::for_runtime(self.id, self.nodes, now, outbox, new_timers, executions)
                        .with_spans(spans);
                ctx.trace(TracePhase::Submit, id);
                self.process.on_client_command(cmd, &mut ctx);
            }
            WireMessage::Timer { msg } => {
                let now = self.now_us();
                let mut ctx =
                    Context::for_runtime(self.id, self.nodes, now, outbox, new_timers, executions)
                        .with_spans(spans);
                self.process.on_message(self.id, msg, &mut ctx);
            }
        }
        true
    }

    /// Routes buffered sends and timers, then publishes fresh executions.
    ///
    /// Peer messages are serialized here (the event loop deals in opaque
    /// frames) and pushed to the I/O thread in one batch — one waker write,
    /// and every frame of this step lands in the same flush.
    fn flush(
        &mut self,
        outbox: &mut Vec<(NodeId, P::Message)>,
        new_timers: &mut Vec<(SimTime, P::Message)>,
        executions: &mut Vec<Execution>,
        spans: &mut Vec<SpanEvent>,
    ) {
        // Spans carry `Context::now` (epoch-relative) timestamps; rebase
        // onto the wall clock so scraped rings line up across replicas.
        for span in spans.iter_mut() {
            span.at += self.wall0;
        }
        self.registry.record_spans(spans);
        let now = Instant::now();
        let mut cmds: Vec<IoCmd> = Vec::new();
        for (to, msg) in outbox.drain(..) {
            let deliver_at = match &self.delay {
                Some(shim) => now + shim.one_way(self.id, to),
                None => now,
            };
            if to == self.id {
                // Loopback: no socket, but the artificial delay still applies.
                self.timers.push(deliver_at, msg);
            } else if let Ok(frame) = frame_bytes(&WireMessage::Peer { from: self.id, msg }) {
                cmds.push(IoCmd::SendPeer { to, deliver_at, frame });
            }
        }
        for (delay_us, msg) in new_timers.drain(..) {
            let scaled = Duration::from_micros((delay_us as f64 * self.timer_scale) as u64);
            self.timers.push(now + scaled, msg);
        }
        self.io.push_many(cmds);
        self.publish(executions);
    }

    /// Routes fresh executions: buffered while a restore is pending (they
    /// are applied after the snapshot resolves, minus what the replay
    /// already covered), applied immediately otherwise.
    fn publish(&mut self, executions: &mut Vec<Execution>) {
        if executions.is_empty() {
            return;
        }
        if let Some(restore) = &mut self.restore {
            restore.pending.append(executions);
            return;
        }
        self.apply_executions(executions);
    }

    /// Applies executions through the executor and hands the event loop the
    /// reply and decision-stream frames: one [`Event::ClientReply`] per
    /// inner command (routed to whichever connection submitted it, or
    /// dropped if none did) and one [`Event::Decisions`] batch for the
    /// subscribers. The whole round goes to the executor at once; batch
    /// units unpack here — the WAL logs each unit filtered to its surviving
    /// inner commands, and one commit (one fsync) closes the round.
    /// Serialization happens here; the I/O thread never blocks on a stalled
    /// sink — slow connections buffer and flush on writability.
    fn apply_executions(&mut self, executions: &mut Vec<Execution>) {
        if executions.is_empty() {
            return;
        }
        let mut cmds: Vec<IoCmd> = Vec::with_capacity(executions.len() + 1);
        let mut runtime_spans: Vec<SpanEvent> = Vec::with_capacity(executions.len());
        let wall_now = telemetry::wall_clock_us();
        // Dedup: a unit already executed — through catch-up replay, or as a
        // redelivered decision after a reconnect — must not be applied
        // again (it would fork this replica's state machine, and its
        // decision was already published on first apply or in the restore's
        // synthesized transfer batch). Inside a surviving unit, individual
        // inner commands covered by a transfer are filtered out the same
        // way. A connection waiting on a deduplicated command (a client
        // that reused an id, e.g. reconnecting with a stale sequence base)
        // gets an explicit abort — the output its submission would have
        // produced is unknowable now, and silence would hang its ticket
        // until the session timeout.
        let mut decisions: Vec<Decision> = Vec::with_capacity(executions.len());
        let mut units: Vec<Command> = Vec::with_capacity(executions.len());
        for Execution { command, decision } in executions.drain(..) {
            let unit_id = command.id();
            if self.ordered.contains(unit_id) {
                for leaf in command.leaves() {
                    self.abort_duplicate(leaf.id(), &mut cmds);
                }
                continue;
            }
            self.ordered.insert(unit_id);
            let unit = if command.leaves().iter().all(|leaf| !self.applied.contains(leaf.id())) {
                command
            } else {
                // Re-pack the unit to its surviving inner commands: the WAL
                // record and the executor both see exactly what will apply.
                let mut surviving = Vec::new();
                for leaf in command.leaves() {
                    if self.applied.contains(leaf.id()) {
                        self.abort_duplicate(leaf.id(), &mut cmds);
                    } else {
                        surviving.push(leaf.clone());
                    }
                }
                if surviving.is_empty() {
                    continue;
                }
                if command.is_batch() {
                    Command::batch(unit_id, surviving)
                } else {
                    surviving.pop().expect("one surviving plain command")
                }
            };
            decisions.push(decision);
            units.push(unit);
        }
        // Log before apply: a command is on disk (staged, at least) before
        // its effects exist, so recovery can only ever see a
        // logged-but-unapplied command — replayable — never an
        // applied-but-unlogged one, which would be lost state.
        if let Some(wal) = &mut self.wal {
            for unit in &units {
                if let Err(err) = wal.append_command(unit) {
                    self.wal_errors.append.inc();
                    eprintln!("replica {} wal append failed: {err}", self.id);
                }
            }
        }
        let outputs = self.executor.apply_round(&units);
        for ((decision, unit), leaf_outputs) in decisions.iter().zip(units).zip(outputs) {
            for (leaf, output) in unit.leaves().iter().zip(leaf_outputs) {
                let id = leaf.id();
                self.applied.insert(id);
                runtime_spans.push(SpanEvent {
                    command: id,
                    phase: TracePhase::Execute,
                    at: wall_now,
                    node: self.id,
                });
                if self.reply_wanted.remove(&id) {
                    runtime_spans.push(SpanEvent {
                        command: id,
                        phase: TracePhase::Reply,
                        at: wall_now,
                        node: self.id,
                    });
                    let mut decision = decision.clone();
                    decision.command = id;
                    let reply = Event::ClientReply { from: self.id, command: id, output, decision };
                    if let Ok(frame) = frame_bytes(&reply) {
                        cmds.push(IoCmd::ClientReply { command: id, frame });
                    }
                }
            }
            self.suffix_bytes += bincode::serialized_size(&unit).expect("unit encodes");
            self.suffix_log.push(unit);
        }
        self.registry.record_spans(&mut runtime_spans);
        let watermark = self.executor.applied_through();
        self.observe_watermark(watermark);
        // Close the apply batch on disk *before* its reply frames reach the
        // event loop: a cursor mark (so a slot-based protocol resumes
        // exactly here, not at the stale checkpoint cursor) and the fsync
        // policy's batch boundary. Under per-record/per-batch policies an
        // acknowledged command is on the platter before the client sees the
        // reply; under an interval policy it is at least in the page cache.
        if let Some(wal) = &mut self.wal {
            let cursor = self.process.execution_cursor();
            let result = if matches!(cursor, ExecutionCursor::Ids) {
                // Dependency-tracked protocols carry no slot cursor; the
                // logged command ids are the whole resume point.
                wal.commit()
            } else {
                wal.append_cursor(&cursor).and_then(|()| wal.commit())
            };
            if let Err(err) = result {
                self.wal_errors.commit.inc();
                eprintln!("replica {} wal commit failed: {err}", self.id);
            }
        }
        if self.subscribers.load(Ordering::Relaxed) > 0 {
            let event = Event::Decisions { from: self.id, batch: decisions };
            if let Ok(frame) = frame_bytes(&event) {
                cmds.push(IoCmd::Publish { frame });
            }
        }
        self.io.push_many(cmds);
        let last_payload = self.checkpoint.as_ref().map_or(0, |cut| cut.payload.len());
        if checkpoint_due(
            self.suffix_log.len(),
            self.suffix_bytes,
            self.checkpoint_interval,
            last_payload,
        ) {
            self.cut_checkpoint();
        }
    }

    /// Aborts the ticket of a connection waiting on `id`, if any: the
    /// command was deduplicated (already applied here), so the reply it
    /// expects will never be produced.
    fn abort_duplicate(&mut self, id: CommandId, cmds: &mut Vec<IoCmd>) {
        if self.reply_wanted.remove(&id) {
            let abort = Event::ClientAbort {
                from: self.id,
                command: id,
                reason: "command id was already applied here (duplicate submission or \
                         reused sequence); resubmit with a fresh id"
                    .to_string(),
            };
            if let Ok(frame) = frame_bytes(&abort) {
                cmds.push(IoCmd::ClientReply { command: id, frame });
            }
        }
    }

    // ---- disk-first recovery --------------------------------------------

    /// Replays what the write-ahead log recovered, before the first mailbox
    /// message: restore the latest durable checkpoint (the same serialized
    /// payload a snapshot donor would send), apply the logged unit suffix,
    /// then hand the protocol a [`StateTransfer`] whose cursor merges the
    /// checkpoint's embedded cursor with the last logged cursor mark — so a
    /// slot-based protocol resumes exactly where the previous incarnation
    /// left off. Ends by cutting a fresh checkpoint, which also compacts the
    /// log down to one segment.
    fn recover_from_disk(
        &mut self,
        recovery: Recovery,
        outbox: &mut Vec<(NodeId, P::Message)>,
        new_timers: &mut Vec<(SimTime, P::Message)>,
        executions: &mut Vec<Execution>,
        spans: &mut Vec<SpanEvent>,
    ) {
        if recovery.is_empty() {
            return;
        }
        let mut covered = AppliedSummary::default();
        let mut covered_units = AppliedSummary::default();
        let mut checkpoint_cursor = ExecutionCursor::Ids;
        if let Some(image) = &recovery.checkpoint {
            let Ok((snapshot, applied, ordered, cursor)) =
                bincode::deserialize::<(Vec<u8>, AppliedSummary, AppliedSummary, ExecutionCursor)>(
                    &image.payload,
                )
            else {
                // A CRC-valid but undecodable checkpoint means a format
                // change or writer bug, not disk damage; starting empty
                // (and falling back to snapshot transfer if catch_up is
                // set) beats serving half-restored state.
                self.wal_errors.checkpoint.inc();
                eprintln!("replica {} wal checkpoint undecodable; starting empty", self.id);
                return;
            };
            if self.executor.restore(&snapshot).is_err() {
                self.wal_errors.checkpoint.inc();
                eprintln!(
                    "replica {} wal checkpoint rejected by state machine; starting empty",
                    self.id
                );
                return;
            }
            covered = applied;
            covered_units = ordered;
            checkpoint_cursor = cursor;
        }
        // Suffix records are consensus units (batches log filtered to the
        // inner commands that actually applied), so replaying them through
        // the executor reproduces exactly the pre-crash applies.
        self.executor.apply_round(&recovery.suffix);
        let watermark = self.executor.applied_through();
        self.observe_watermark(watermark);
        let mut transfer = StateTransfer {
            applied: covered,
            ordered: covered_units,
            cursor: checkpoint_cursor.merge(recovery.cursor),
        };
        transfer
            .applied
            .extend(recovery.suffix.iter().flat_map(|unit| unit.leaves().iter().map(Command::id)));
        transfer.ordered.extend(recovery.suffix.iter().map(Command::id));
        self.applied.merge(&transfer.applied);
        self.ordered.merge(&transfer.ordered);
        // A restarted proposer must never reuse a unit id that is already on
        // disk: fast-forward the batch-id lane past everything recovered.
        self.batcher.reseed(&self.ordered);
        {
            let now = self.now_us();
            let mut ctx =
                Context::for_runtime(self.id, self.nodes, now, outbox, new_timers, executions)
                    .with_spans(spans);
            self.process.on_state_transfer(&transfer, &mut ctx);
        }
        self.publish_transfer_decisions(&transfer);
        // The recovered state is the new baseline: cutting a checkpoint
        // writes it as one durable record and compacts away every segment
        // the scan just replayed.
        self.cut_checkpoint();
    }

    // ---- snapshot-based state transfer ----------------------------------

    /// Asserts that the state machine's watermark never moves backwards as
    /// observed by this loop — the regression guard behind the
    /// "replies must never observe a cursor ahead of `applied_through`"
    /// invariant of restart catch-up.
    fn observe_watermark(&mut self, watermark: u64) {
        assert!(
            watermark >= self.watermark,
            "replica {} state-machine watermark regressed: {} -> {}",
            self.id,
            self.watermark,
            watermark
        );
        self.watermark = watermark;
    }

    /// Snapshots the state machine (plus the floor-compacted applied-id
    /// summary it covers and the protocol's execution cursor) as the new
    /// checkpoint payload and resets the suffix log — the payload must stay
    /// consistent: the log holds exactly the commands applied after the
    /// checkpoint watermark, and the cursor is the protocol's resume point
    /// for precisely that state.
    fn cut_checkpoint(&mut self) {
        let snapshot = self.executor.snapshot();
        let applied_through = self.executor.applied_through();
        self.observe_watermark(applied_through);
        let cursor = self.process.execution_cursor();
        let payload = bincode::serialize(&(snapshot, &self.applied, &self.ordered, cursor))
            .expect("checkpoint payload serializes");
        // The same serialized payload becomes the durable checkpoint record:
        // the log rotates to a fresh segment headed by it and compacts every
        // older segment away (they are fully covered). A cut that follows a
        // donor restore also lands here, so the log always reflects the
        // machine even when the bytes arrived over the wire.
        if let Some(wal) = &mut self.wal {
            if let Err(err) = wal.append_checkpoint(applied_through, &payload) {
                self.wal_errors.checkpoint.inc();
                eprintln!("replica {} wal checkpoint failed: {err}", self.id);
            }
        }
        self.checkpoint = Some(Checkpoint { applied_through, payload: Arc::new(payload) });
        self.suffix_log.clear();
        self.suffix_bytes = 0;
    }

    /// Broadcasts a [`WireMessage::SnapshotRequest`] to every peer. The
    /// frames queue on the (re)connecting peer links and flow as soon as
    /// each link comes up.
    fn request_snapshots(&mut self) {
        let now = Instant::now();
        let mut cmds: Vec<IoCmd> = Vec::with_capacity(self.nodes.saturating_sub(1));
        for index in 0..self.nodes {
            let to = NodeId::from_index(index);
            if to == self.id {
                continue;
            }
            let deliver_at = match &self.delay {
                Some(shim) => now + shim.one_way(self.id, to),
                None => now,
            };
            let request = WireMessage::<P::Message>::SnapshotRequest { from: self.id };
            if let Ok(frame) = frame_bytes(&request) {
                cmds.push(IoCmd::SendPeer { to, deliver_at, frame });
            }
        }
        self.io.push_many(cmds);
    }

    /// Donates this replica's state to a catching-up peer: the latest
    /// checkpoint (cut fresh if none exists yet), chunked, with the decided
    /// suffix riding on the last chunk.
    fn serve_snapshot(&mut self, to: NodeId) {
        if to == self.id || self.restore.is_some() {
            return; // a replica that is itself restoring cannot donate
        }
        if self.checkpoint.is_none() {
            self.cut_checkpoint();
        }
        let checkpoint = self.checkpoint.clone().expect("checkpoint just cut");
        let suffix = self.suffix_log.clone();
        // Donation-time cursor: consistent with snapshot *plus* suffix, so
        // the receiver's protocol resumes past everything it replays.
        let cursor = self.process.execution_cursor();
        let bytes = &checkpoint.payload;
        let total = (bytes.len().div_ceil(SNAPSHOT_CHUNK)).max(1) as u32;
        let now = Instant::now();
        let deliver_at = match &self.delay {
            Some(shim) => now + shim.one_way(self.id, to),
            None => now,
        };
        let mut cmds: Vec<IoCmd> = Vec::with_capacity(total as usize);
        for seq in 0..total {
            let start = seq as usize * SNAPSHOT_CHUNK;
            let end = (start + SNAPSHOT_CHUNK).min(bytes.len());
            let last = seq + 1 == total;
            // The last chunk's suffix is bounded by the cut rule (see
            // `SUFFIX_CAP`), but the cursor's decided backlog is not (a
            // Mencius donor stalled on the crashed node's slot gap
            // accumulates one entry per downtime commit). If the frame would exceed the wire's
            // cap, shed backlog from the tail until it fits — the receiver
            // executes in slot order, so a truncated tail degrades to the
            // down-queue redelivery path instead of an invisible, silently
            // dropped transfer that stalls the whole restore.
            let mut send_cursor = if last { cursor.clone() } else { ExecutionCursor::Ids };
            let frame = loop {
                let chunk = WireMessage::<P::Message>::SnapshotChunk {
                    from: self.id,
                    applied_through: checkpoint.applied_through,
                    seq,
                    total,
                    bytes: bytes[start..end].to_vec(),
                    suffix: if last { suffix.clone() } else { Vec::new() },
                    cursor: send_cursor.clone(),
                };
                match frame_bytes(&chunk) {
                    Ok(frame) => break Some(frame),
                    Err(_) => {
                        let backlog = send_cursor.backlog_len();
                        if backlog == 0 {
                            // Even the backlog-free frame is oversized
                            // (enormous commands?): surface it as a drop
                            // instead of vanishing silently.
                            self.stats.frames_dropped.inc();
                            break None;
                        }
                        send_cursor.truncate_backlog(backlog / 2);
                    }
                }
            };
            if let Some(frame) = frame {
                self.stats.snapshot_bytes_sent.add((end - start) as u64);
                cmds.push(IoCmd::SendPeer { to, deliver_at, frame });
            }
        }
        self.stats.snapshots_served.inc();
        self.io.push_many(cmds);
    }

    /// Assembles one donor's transfer; the first donor to complete wins.
    fn accept_chunk(
        &mut self,
        chunk: ChunkFields,
        outbox: &mut Vec<(NodeId, P::Message)>,
        new_timers: &mut Vec<(SimTime, P::Message)>,
        executions: &mut Vec<Execution>,
        spans: &mut Vec<SpanEvent>,
    ) {
        let ChunkFields { from, applied_through, seq, total, bytes, suffix, cursor } = chunk;
        let Some(restore) = &mut self.restore else {
            return; // not restoring (late or duplicate transfer): ignore
        };
        if total == 0 || seq >= total {
            return;
        }
        let donor = restore.donors.entry(from).or_insert_with(|| DonorTransfer {
            applied_through,
            total,
            received: 0,
            chunks: vec![None; total as usize],
            suffix: Vec::new(),
            cursor: ExecutionCursor::Ids,
        });
        if donor.total != total || donor.applied_through != applied_through {
            return; // frames from two different transfers of one donor
        }
        if donor.chunks[seq as usize].is_none() {
            donor.received += 1;
        }
        donor.chunks[seq as usize] = Some(bytes);
        if seq + 1 == total {
            donor.suffix = suffix;
            donor.cursor = cursor;
        }
        if donor.received == donor.total {
            self.finish_restore(from, outbox, new_timers, executions, spans);
        }
    }

    /// Installs a completed donor transfer: restore the snapshot, replay the
    /// decided suffix, tell the process which commands are covered (so its
    /// dependency tracking stops waiting for them), then apply whatever the
    /// local process executed while the transfer was in flight (minus the
    /// commands the replay covered).
    fn finish_restore(
        &mut self,
        donor_id: NodeId,
        outbox: &mut Vec<(NodeId, P::Message)>,
        new_timers: &mut Vec<(SimTime, P::Message)>,
        executions: &mut Vec<Execution>,
        spans: &mut Vec<SpanEvent>,
    ) {
        let Some(mut restore) = self.restore.take() else { return };
        let Some(donor) = restore.donors.remove(&donor_id) else {
            self.restore = Some(restore);
            return;
        };
        // Hybrid guard: a replica that already replayed its own write-ahead
        // log may be *ahead* of this donor (e.g. the donor itself restarted
        // or checkpointed long ago). Installing the donation would regress
        // the state machine; skip it and keep waiting for a donor that can
        // actually add something — the restore deadline serves from disk
        // state if none can.
        let suffix_commands: u64 = donor.suffix.iter().map(|unit| unit.leaves().len() as u64).sum();
        if donor.applied_through + suffix_commands < self.watermark {
            self.restore = Some(restore);
            return;
        }
        let mut payload = Vec::new();
        for chunk in donor.chunks {
            payload.extend_from_slice(&chunk.expect("transfer complete"));
        }
        let Ok((snapshot, covered, covered_units, checkpoint_cursor)) =
            bincode::deserialize::<(Vec<u8>, AppliedSummary, AppliedSummary, ExecutionCursor)>(
                &payload,
            )
        else {
            // Broken donor: stay in the restoring state and wait for
            // another transfer (or the deadline).
            self.restore = Some(restore);
            return;
        };
        let Ok(prepared) = self.executor.prepare_restore(&snapshot) else {
            self.restore = Some(restore);
            return;
        };
        // Nothing below can fail: publish "restore complete" before the
        // restored watermark and fingerprint become visible, so an observer
        // that sees the caught-up state also sees the completed catch-up.
        // The counter is a relaxed atomic; the executor's machine locks
        // order it (released by `install`, acquired by every watermark or
        // fingerprint read). `install` replays the suffix before the swap,
        // so observers never see the bare snapshot, whose watermark can
        // sit behind what disk recovery already reached.
        self.stats.catch_ups_completed.inc();
        self.stats.catch_up_replayed.add(donor.suffix.len() as u64);
        self.executor.install(prepared, &donor.suffix);
        let watermark = self.executor.applied_through();
        // The restored watermark must land exactly where the transfer
        // claims (snapshot coverage + replayed suffix) — and, like every
        // other step, never behind anything this loop already observed.
        self.observe_watermark(watermark);
        assert!(
            watermark >= donor.applied_through,
            "replica {} restored watermark {watermark} behind the donated checkpoint {}",
            self.id,
            donor.applied_through
        );
        // Inherit the donor's dedup knowledge: everything its snapshot and
        // suffix cover counts as applied here, so redelivered crash-time
        // decisions (reconnecting peers drain their down-queues into this
        // replica) are skipped, not applied twice. The donation-time cursor
        // covers the suffix the checkpoint-time cursor predates; merging
        // keeps whichever claim is further along.
        let mut transfer = StateTransfer {
            applied: covered,
            ordered: covered_units,
            cursor: checkpoint_cursor.merge(donor.cursor),
        };
        transfer
            .applied
            .extend(donor.suffix.iter().flat_map(|unit| unit.leaves().iter().map(Command::id)));
        transfer.ordered.extend(donor.suffix.iter().map(Command::id));
        self.applied.merge(&transfer.applied);
        self.ordered.merge(&transfer.ordered);
        self.batcher.reseed(&self.ordered);
        // The protocol layer needs the same knowledge: a later command whose
        // dependency set names a transferred command must not wait for a
        // local execution that will never happen, and a slot-based
        // protocol's execution cursor must fast-forward past the restored
        // state instead of stalling at its slot gap.
        {
            let now = self.now_us();
            let mut ctx =
                Context::for_runtime(self.id, self.nodes, now, outbox, new_timers, executions)
                    .with_spans(spans);
            self.process.on_state_transfer(&transfer, &mut ctx);
        }
        self.publish_transfer_decisions(&transfer);
        // The restored state is this replica's new baseline: checkpoint it
        // so it can donate in turn, then catch up on local executions.
        self.cut_checkpoint();
        let mut pending = std::mem::take(&mut restore.pending);
        self.apply_executions(&mut pending);
    }

    /// Reports a transfer's executions on the decision stream. The protocol
    /// layer will never re-deliver a command the transfer covers (its
    /// dependency tracking / slot cursor now counts it as executed), so
    /// without this a subscriber that counts on the stream being gap-free
    /// waits forever for executions that already happened — a real race
    /// pre-fix: a command decided *during* a transfer landed in the donated
    /// snapshot and then never appeared on the restarted replica's stream.
    /// Disk recovery synthesizes the same batch for the commands it
    /// replayed. The records carry the completion time and no protocol
    /// timestamps. The enumeration is O(history) but runs once per
    /// restore; emitting bounded frames keeps any single one far from
    /// MAX_FRAME_LEN (one giant frame would be silently unsendable).
    fn publish_transfer_decisions(&mut self, transfer: &StateTransfer) {
        if self.subscribers.load(Ordering::Relaxed) == 0 {
            return;
        }
        let now = self.now_us();
        let mut cmds: Vec<IoCmd> = Vec::new();
        // Enumerate everything the transfer covers — unit ids (what the
        // live stream carries) plus inner-command ids of batches — so no
        // subscriber waits on an id that already executed.
        for window in transfer.unit_summary().ids().chunks(4096) {
            let batch: Vec<Decision> = window
                .iter()
                .map(|&id| Decision {
                    command: id,
                    timestamp: Timestamp::ZERO,
                    path: DecisionPath::Ordered,
                    proposed_at: now,
                    executed_at: now,
                    breakdown: LatencyBreakdown::default(),
                })
                .collect();
            let event = Event::Decisions { from: self.id, batch };
            if let Ok(frame) = frame_bytes(&event) {
                cmds.push(IoCmd::Publish { frame });
            }
        }
        self.io.push_many(cmds);
    }

    /// Gives up on a restore whose deadline passed: serve with whatever
    /// state we have, starting with the buffered local executions.
    fn check_restore_deadline(&mut self) {
        let expired = self.restore.as_ref().is_some_and(|rs| Instant::now() >= rs.deadline);
        if expired {
            let mut restore = self.restore.take().expect("restore present");
            let mut pending = std::mem::take(&mut restore.pending);
            self.apply_executions(&mut pending);
        }
    }
}

#[cfg(test)]
mod tests {
    use consensus_types::BATCH_LANE;

    use super::*;
    use crate::wire::FRAME_HEADER_LEN;

    #[test]
    fn small_payload_cuts_on_the_unit_interval() {
        // No checkpoint yet, or one under a chunk: the interval alone rules.
        for payload in [0, 4_096, SNAPSHOT_CHUNK - 1] {
            assert!(!checkpoint_due(63, 0, 64, payload));
            assert!(checkpoint_due(64, 1, 64, payload));
        }
    }

    #[test]
    fn large_payload_waits_for_suffix_bytes() {
        let payload = 4 * SNAPSHOT_CHUNK;
        assert!(!checkpoint_due(64, 0, 64, payload));
        assert!(!checkpoint_due(100_000, payload as u64 - 1, 64, payload));
        assert!(checkpoint_due(100_000, payload as u64, 64, payload));
        // The interval still separates cuts, however many bytes piled up.
        assert!(!checkpoint_due(63, 10 * payload as u64, 64, payload));
    }

    #[test]
    fn capped_suffix_plus_one_chunk_fits_one_frame() {
        // However large the state, the cap bounds the suffix.
        let payload = 2 * MAX_FRAME_LEN as usize;
        assert!(!checkpoint_due(1_000_000, SUFFIX_CAP - 1, 64, payload));
        assert!(checkpoint_due(1_000_000, SUFFIX_CAP, 64, payload));
        // The check runs after every apply round, so a donated suffix holds
        // at most the cap plus one round; model the round as a full batch.
        let unit = Command::batch(
            CommandId::new(NodeId(0), BATCH_LANE | 1),
            (0..64).map(|seq| Command::put(CommandId::new(NodeId(1), seq), seq, seq)).collect(),
        );
        let unit_bytes = bincode::serialized_size(&unit).expect("unit encodes");
        let suffix = vec![unit; (SUFFIX_CAP / unit_bytes + 2) as usize];
        let last_chunk = WireMessage::<()>::SnapshotChunk {
            from: NodeId(0),
            applied_through: u64::MAX,
            seq: 0,
            total: 1,
            bytes: vec![0xA5; SNAPSHOT_CHUNK],
            suffix,
            cursor: ExecutionCursor::Ids,
        };
        let frame = frame_bytes(&last_chunk).expect("capped suffix plus one chunk fits a frame");
        assert!(frame.len() - FRAME_HEADER_LEN <= MAX_FRAME_LEN as usize);
    }
}
