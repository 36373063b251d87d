//! One replica running over real sockets.
//!
//! A [`NetReplica`] hosts a single [`consensus_core::Process`]
//! implementation in a [`ReplicaDriver`] — the same sans-IO driver the
//! `simnet` simulator runs — with TCP in place of the event queue. The
//! driver owns batching, dedup, apply with per-leaf replies, the
//! write-ahead log, checkpoints and the restore state machine; this module
//! is only the transport around it. The replica runs **O(1) threads
//! regardless of connection count**:
//!
//! * an **event-loop thread** (see [`crate::event_loop`]) owns every socket
//!   — listener, peer links, subscribers, client connections — as
//!   nonblocking descriptors on one epoll [`reactor::Poller`]; it decodes
//!   inbound frames into the replica's mailbox and flushes per-connection
//!   write buffers interest-driven;
//! * a **core-loop thread** drains the mailbox into the driver (folding
//!   co-queued [`WireMessage::ClientRequest`]s into one `on_client` call,
//!   up to the configured batch size), fires due timers and loopback sends
//!   from a local timer wheel (its mailbox wait *is* the timer sleep — it
//!   blocks until the earliest deadline, not on a polling interval), and
//!   turns each poll's [`Action`]s into frames for the event loop.
//!
//! Outbound frames are serialized on the core loop and handed to the event
//! loop pre-framed; the optional [`DelayShim`] attaches an artificial
//! delivery deadline which the event loop honours as an epoll-wait timeout,
//! emulating a WAN latency matrix on loopback without any sleeping thread.
//!
//! Client connections submit [`WireMessage::ClientRequest`] frames; when the
//! command executes at this replica, the driver's reply becomes an
//! [`Event::ClientReply`] frame the event loop routes to the submitting
//! connection. A replica that shuts down with requests still pending answers
//! them with [`Event::ClientAbort`] so no client waits forever.
//!
//! # Snapshot-based state transfer
//!
//! The driver checkpoints its state machine at least
//! [`NetReplicaConfig::checkpoint_interval`] units apart (see
//! `consensus_core::driver::checkpoint_due`) and keeps the units applied
//! since as a suffix. A replica started with [`NetReplicaConfig::catch_up`]
//! — which is how `NetCluster::restart_replica` brings a crashed node back —
//! begins *restoring*: it broadcasts [`WireMessage::SnapshotRequest`] to its
//! peers, each live peer's driver donates its latest checkpoint plus suffix
//! and cursor, and this module splits the donation into
//! [`WireMessage::SnapshotChunk`] frames of at most [`SNAPSHOT_CHUNK`]
//! payload bytes (shedding cursor backlog until the last one fits the
//! frame limit). The first complete transfer wins; client requests are
//! refused with an immediate [`Event::ClientAbort`] until then, and if none
//! completes within [`NetReplicaConfig::catch_up_timeout`] the replica
//! serves with whatever it has. `docs/RECOVERY.md` at the repository root
//! walks through the lifecycle.
//!
//! # Durable write-ahead log
//!
//! When [`NetReplicaConfig::data_dir`] is set, the driver opens a
//! [`wal::Wal`] there and the replica becomes durable: every decided unit
//! is logged before it applies, each apply round closes with a cursor mark
//! and a commit under the configured [`FsyncPolicy`] before its replies
//! reach this module, and checkpoints become log records that compact older
//! segments away. On restart the driver replays the log first and uses
//! snapshot transfer only for what disk could not provide; see
//! `docs/DURABILITY.md`.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use consensus_core::batch::BatchConfig;
use consensus_core::driver::{
    Action, Donation, DriverConfig, ReplicaDriver, SnapshotChunk, SNAPSHOT_CHUNK, SUFFIX_CAP,
};
use consensus_core::exec::Executor;
use consensus_core::session::Reply;
use consensus_core::state_machine::StateMachineFactory;
use consensus_core::Process;
use consensus_types::{ExecutionCursor, NodeId, SimTime};
use kvstore::KvStore;
use simnet::LatencyMatrix;
use telemetry::{Counter, Registry};
use wal::{FsyncPolicy, WalConfig};

use crate::event_loop::{EventLoop, IoCmd, IoQueue};
use crate::wire::{frame_bytes, Event, WireMessage, MAX_FRAME_LEN};

// The driver caps the donated suffix at a quarter of the frame limit, so the
// last chunk (one chunk of payload plus the suffix) always fits one frame.
const _: () = assert!(SUFFIX_CAP <= MAX_FRAME_LEN as u64 / 4);

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
    /// checkpoint cost tracks logged work rather than state size (see
    /// `consensus_core::driver::checkpoint_due`).
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
            checkpoint_interval: consensus_core::driver::DEFAULT_CHECKPOINT_INTERVAL,
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
    /// Snapshot transfers this replica donated to catching-up peers
    /// (counted by the driver under the same name).
    pub snapshots_served: Counter,
    /// Snapshot payload bytes chunked out across all donations.
    pub snapshot_bytes_sent: Counter,
    /// Catch-up transfers this replica completed (snapshot restored and
    /// suffix replayed). The driver counts it before the restored state is
    /// installed, so whoever observes the restored watermark or fingerprint
    /// also observes this count (and `replica.state` reading "serving").
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
    /// The replica's driver, held here between [`NetReplica::spawn`] (which
    /// builds it and opens its write-ahead log, so disk errors surface
    /// synchronously) and [`NetReplica::start`] (which moves it onto the
    /// core loop).
    driver: Option<ReplicaDriver<P>>,
    executor: Arc<Executor>,
    mailbox_tx: Sender<WireMessage<P::Message>>,
    mailbox_rx: Option<Receiver<WireMessage<P::Message>>>,
    io: Arc<IoQueue>,
    shutdown: Arc<AtomicBool>,
    registry: Arc<Registry>,
    stats: Arc<NetReplicaStats>,
    subscriber_count: Arc<AtomicUsize>,
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
        let driver_config = DriverConfig {
            checkpoint_interval: config.checkpoint_interval,
            catch_up_timeout: config
                .catch_up
                .then_some(config.catch_up_timeout.as_micros() as SimTime),
            // Maps the epoch-relative times the driver sees onto wall-clock
            // microseconds, so traces scraped from different replicas line
            // up on one axis.
            span_offset: telemetry::wall_clock_us()
                .saturating_sub(config.epoch.elapsed().as_micros() as u64),
            ..DriverConfig::new(config.id, config.nodes, config.state_machine.clone())
        };
        let mut driver = ReplicaDriver::new(driver_config, process);
        // Disk-first: open (and scan) the write-ahead log before any socket
        // traffic exists, so an unreadable data dir fails the spawn instead
        // of a serving replica.
        if let Some(dir) = &config.data_dir {
            driver =
                driver.with_wal(WalConfig::new(dir.clone()).with_fsync(config.fsync.clone()))?;
        }
        // One registry per replica: the process's own (so protocol counters
        // and transport counters scrape together), or a fresh one the
        // driver made when the process does not expose telemetry.
        let registry = Arc::clone(driver.registry());
        let executor = Arc::clone(driver.executor());
        let stats = Arc::new(NetReplicaStats::register(&registry));
        let subscriber_count = Arc::new(AtomicUsize::new(0));
        let io = Arc::new(IoQueue::new()?);

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
            driver: Some(driver),
            executor,
            mailbox_tx,
            mailbox_rx: Some(mailbox_rx),
            io,
            shutdown,
            registry,
            stats,
            subscriber_count,
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
    /// is ignored — self-sends short-circuit through the timer wheel). The
    /// driver replays its disk recovery before the first mailbox message.
    ///
    /// # Panics
    ///
    /// Panics if called twice or if `peers.len()` disagrees with the
    /// configured cluster size.
    pub fn start(&mut self, peers: Vec<SocketAddr>) {
        assert_eq!(peers.len(), self.config.nodes, "address book size mismatch");
        let driver = self.driver.take().expect("NetReplica::start called twice");
        let mailbox_rx = self.mailbox_rx.take().expect("mailbox receiver present");

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
            driver,
            mailbox: mailbox_rx,
            io: Arc::clone(&self.io),
            timers: TimerWheel::default(),
            delay: self.config.delay.clone(),
            timer_scale: self.config.timer_scale,
            epoch: self.config.epoch,
            shutdown: Arc::clone(&self.shutdown),
            batch: self.config.batch,
            stash: None,
            stats: Arc::clone(&self.stats),
            subscribers: Arc::clone(&self.subscriber_count),
            actions: Vec::new(),
        };
        self.threads.push(std::thread::spawn(move || core.run()));
    }

    /// Requests shutdown without blocking (the core loop exits at its next
    /// mailbox wakeup and the event loop follows).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.mailbox_tx.send(WireMessage::Shutdown);
        // If the core loop never started, the event loop still has to exit.
        if self.driver.is_some() {
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

struct CoreLoop<P: Process> {
    id: NodeId,
    nodes: usize,
    driver: ReplicaDriver<P>,
    mailbox: Receiver<WireMessage<P::Message>>,
    io: Arc<IoQueue>,
    timers: TimerWheel<P::Message>,
    delay: Option<DelayShim>,
    timer_scale: f64,
    epoch: Instant,
    shutdown: Arc<AtomicBool>,
    /// Proposer batching knobs (disabled ⇒ the mailbox drain never runs).
    batch: BatchConfig,
    /// A non-client envelope pulled off the mailbox while draining a batch;
    /// dispatched before the mailbox is consulted again.
    stash: Option<WireMessage<P::Message>>,
    stats: Arc<NetReplicaStats>,
    /// Live decision-stream subscribers (maintained by the event loop);
    /// when zero, `Event::Decisions` batches are not even serialized.
    subscribers: Arc<AtomicUsize>,
    /// Scratch for one flush's driver actions, reused across turns.
    actions: Vec<Action<P::Message>>,
}

impl<P> CoreLoop<P>
where
    P: Process,
    P::Message: serde::Serialize,
{
    /// The driver's clock: microseconds since the cluster epoch.
    fn now_us(&self) -> SimTime {
        self.epoch.elapsed().as_micros() as SimTime
    }

    fn run(mut self) {
        self.driver.on_start(self.now_us());
        self.flush();
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
            if let Some(deadline) = self.driver.restore_deadline() {
                let left = deadline.saturating_sub(self.now_us());
                timeout = timeout.min(Duration::from_micros(left));
            }
            let next = match self.stash.take() {
                // An envelope pulled off the mailbox by a batch drain is
                // dispatched before the mailbox is consulted again.
                Some(envelope) => Ok(envelope),
                None => self.mailbox.recv_timeout(timeout),
            };
            match next {
                Ok(envelope) => {
                    if !self.dispatch(envelope) {
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
            let now = self.now_us();
            for msg in self.timers.pop_due(Instant::now()) {
                self.driver.on_timer(msg, now);
            }
            self.flush();
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }

        self.shutdown.store(true, Ordering::SeqCst);
        // Final flush so subscribers see everything executed, then hand the
        // event loop its shutdown command: it aborts the client requests
        // still awaiting replies and closes every socket.
        self.flush();
        self.io.push(IoCmd::Shutdown);
    }

    /// Hands one envelope to the driver; returns `false` when the loop
    /// should stop.
    fn dispatch(&mut self, envelope: WireMessage<P::Message>) -> bool {
        let now = self.now_us();
        match envelope {
            WireMessage::Shutdown => return false,
            WireMessage::Hello { .. } | WireMessage::Subscribe => {}
            // Stats scrapes are answered by the event loop on the requesting
            // connection and never forwarded here; this arm only fires for
            // in-process mailbox injections, which need no reply.
            WireMessage::StatsRequest => {}
            WireMessage::Peer { from, msg } => self.driver.on_message(from, msg, now),
            WireMessage::ClientRequest { cmd } => {
                // Group commit: every client request already queued in the
                // mailbox joins this one, so one ordering round (and,
                // durably, one fsync) covers the whole batch.
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
                self.driver.on_client(queued, now);
            }
            WireMessage::SnapshotRequest { from } => self.driver.on_snapshot_request(from),
            WireMessage::SnapshotChunk(chunk) => self.driver.on_chunk(chunk, now),
        }
        true
    }

    /// Routes the driver's actions to the event loop in two batches, as
    /// the loop always has: first the peer sends and timers of this turn —
    /// protocol traffic never waits for this replica's disk — then, once
    /// `poll` has applied the round and committed it to the WAL, its
    /// replies and decision batches.
    fn flush(&mut self) {
        let mut actions = std::mem::take(&mut self.actions);
        actions.extend(self.driver.poll_transmit());
        self.route(&mut actions);
        let now = self.now_us();
        actions.extend(self.driver.poll(now));
        self.route(&mut actions);
        self.actions = actions;
    }

    /// Turns actions into event-loop commands, pushed in one batch — one
    /// waker write, and every frame lands in the same flush. Peer messages
    /// are serialized here (the event loop deals in opaque frames);
    /// loopback sends and timers go to the timer wheel.
    fn route(&mut self, actions: &mut Vec<Action<P::Message>>) {
        if actions.is_empty() {
            return;
        }
        let (id, now) = (self.id, Instant::now());
        let delay = &self.delay;
        let deliver_at = |to: NodeId| match delay {
            Some(shim) => now + shim.one_way(id, to),
            None => now,
        };
        let mut cmds: Vec<IoCmd> = Vec::with_capacity(actions.len());
        for action in actions.drain(..) {
            match action {
                Action::Send { to, msg } if to == id => self.timers.push(deliver_at(to), msg),
                Action::Send { to, msg } => {
                    if let Ok(frame) = frame_bytes(&WireMessage::Peer { from: id, msg }) {
                        cmds.push(IoCmd::SendPeer { to, deliver_at: deliver_at(to), frame });
                    }
                }
                Action::Timer { delay, msg } => {
                    let scaled = Duration::from_micros((delay as f64 * self.timer_scale) as u64);
                    self.timers.push(now + scaled, msg);
                }
                Action::Reply(Reply { command, output, decision, .. }) => {
                    let event = Event::ClientReply { from: id, command, output, decision };
                    if let Ok(frame) = frame_bytes(&event) {
                        cmds.push(IoCmd::ClientReply { command, frame });
                    }
                }
                Action::Abort { command, reason } => {
                    let event =
                        Event::ClientAbort { from: id, command, reason: reason.to_string() };
                    if let Ok(frame) = frame_bytes(&event) {
                        cmds.push(IoCmd::ClientReply { command, frame });
                    }
                }
                Action::Decisions(batch) => {
                    if self.subscribers.load(Ordering::Relaxed) > 0 {
                        if let Ok(frame) = frame_bytes(&Event::Decisions { from: id, batch }) {
                            cmds.push(IoCmd::Publish { frame });
                        }
                    }
                }
                Action::Donate(donation) => {
                    let at = deliver_at(donation.to);
                    chunk_donation::<P::Message>(id, donation, at, &self.stats, &mut cmds);
                }
                Action::RequestSnapshots => {
                    // The frames queue on the (re)connecting peer links and
                    // flow as soon as each link comes up.
                    let request = WireMessage::<P::Message>::SnapshotRequest { from: id };
                    for to in NodeId::all(self.nodes).filter(|&to| to != id) {
                        if let Ok(frame) = frame_bytes(&request) {
                            cmds.push(IoCmd::SendPeer { to, deliver_at: deliver_at(to), frame });
                        }
                    }
                }
            }
        }
        self.io.push_many(cmds);
    }
}

/// Splits a donation into [`WireMessage::SnapshotChunk`] frames of at most
/// [`SNAPSHOT_CHUNK`] payload bytes, the suffix and cursor riding on the
/// last one. The suffix is bounded by the driver's cut rule, but the
/// cursor's decided backlog is not (a Mencius donor stalled on the crashed
/// node's slot gap accumulates one entry per downtime commit): if the last
/// frame would exceed the wire's cap, backlog is shed from the tail until it
/// fits — the receiver executes in slot order, so a truncated tail degrades
/// to the down-queue redelivery path instead of an invisible, silently
/// dropped transfer that stalls the whole restore.
fn chunk_donation<M: serde::Serialize>(
    from: NodeId,
    donation: Donation,
    deliver_at: Instant,
    stats: &NetReplicaStats,
    cmds: &mut Vec<IoCmd>,
) {
    let Donation { to, applied_through, payload, suffix, cursor } = donation;
    let total = payload.len().div_ceil(SNAPSHOT_CHUNK).max(1) as u32;
    for seq in 0..total {
        let start = seq as usize * SNAPSHOT_CHUNK;
        let end = (start + SNAPSHOT_CHUNK).min(payload.len());
        let last = seq + 1 == total;
        let mut send_cursor = if last { cursor.clone() } else { ExecutionCursor::Ids };
        let frame = loop {
            let chunk = WireMessage::<M>::SnapshotChunk(SnapshotChunk {
                from,
                applied_through,
                seq,
                total,
                bytes: payload[start..end].to_vec(),
                suffix: if last { suffix.clone() } else { Vec::new() },
                cursor: send_cursor.clone(),
            });
            match frame_bytes(&chunk) {
                Ok(frame) => break Some(frame),
                Err(_) => {
                    let backlog = send_cursor.backlog_len();
                    if backlog == 0 {
                        // Even the backlog-free frame is oversized
                        // (enormous commands?): surface it as a drop
                        // instead of vanishing silently.
                        stats.frames_dropped.inc();
                        break None;
                    }
                    send_cursor.truncate_backlog(backlog / 2);
                }
            }
        };
        if let Some(frame) = frame {
            stats.snapshot_bytes_sent.add((end - start) as u64);
            cmds.push(IoCmd::SendPeer { to, deliver_at, frame });
        }
    }
}

#[cfg(test)]
mod tests {
    use consensus_types::{Command, CommandId, BATCH_LANE};

    use super::*;
    use crate::wire::FRAME_HEADER_LEN;

    #[test]
    fn capped_suffix_plus_one_chunk_fits_one_frame() {
        // The driver checks its cut rule after every apply round, so a
        // donated suffix holds at most the cap plus one round; model the
        // round as a full batch.
        let unit = Command::batch(
            CommandId::new(NodeId(0), BATCH_LANE | 1),
            (0..64).map(|seq| Command::put(CommandId::new(NodeId(1), seq), seq, seq)).collect(),
        );
        let unit_bytes = bincode::serialized_size(&unit).expect("unit encodes");
        let suffix = vec![unit; (SUFFIX_CAP / unit_bytes + 2) as usize];
        let last_chunk = WireMessage::<()>::SnapshotChunk(SnapshotChunk {
            from: NodeId(0),
            applied_through: u64::MAX,
            seq: 0,
            total: 1,
            bytes: vec![0xA5; SNAPSHOT_CHUNK],
            suffix,
            cursor: ExecutionCursor::Ids,
        });
        let frame = frame_bytes(&last_chunk).expect("capped suffix plus one chunk fits a frame");
        assert!(frame.len() - FRAME_HEADER_LEN <= MAX_FRAME_LEN as usize);
    }
}
