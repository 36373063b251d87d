//! The replica's single I/O thread: an epoll event loop over the
//! [`reactor`] crate.
//!
//! One `EventLoop` owns **every** socket of a replica — the listener, the
//! outbound peer links, inbound peer connections, decision-stream
//! subscribers, and external client connections — as nonblocking descriptors
//! registered with a [`reactor::Poller`]. That replaces the seed transport's
//! reader-thread-per-connection and writer-thread-per-peer model: a replica
//! now runs O(1) threads (this loop plus the core loop) no matter how many
//! clients connect.
//!
//! Data flow:
//!
//! * **inbound bytes** are read on readability into a per-connection
//!   [`FrameBuffer`], decoded incrementally (partial frames survive until
//!   the next readability), and forwarded to the core loop's mailbox;
//! * **outbound frames** arrive pre-serialized from the core loop through
//!   the [`IoQueue`] (an [`reactor::Waker`]-signalled command queue), are
//!   appended to per-connection write buffers **as whole frames** — no
//!   copy into a contiguous staging buffer — and are flushed
//!   interest-driven with `writev` scatter-gather (`write_vectored`): all
//!   frames queued for one wakeup leave in a single syscall, each gathered
//!   straight from its own allocation (`writev_flushes` counts the
//!   multi-frame gathers). A buffer that does not drain in one call
//!   registers write interest and finishes when epoll reports writability;
//! * **artificial WAN delays** (the [`crate::DelayShim`]) become epoll-wait
//!   deadlines: a delayed frame sits in its peer link's queue and the loop's
//!   `epoll_wait` timeout is the earliest pending deadline — no thread ever
//!   sleeps per frame;
//! * **peer links** (re)connect with nonblocking `connect`: completion is a
//!   writability event, refusal re-arms a backoff deadline. Frames queued
//!   while a link is down wait (bounded) and flush on reconnect.
//!
//! Frames that fail their CRC-32 check poison the stream: the connection is
//! torn down and `corrupt_frames` incremented — resynchronizing with a
//! corrupted byte stream is not possible, reconnecting is.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use consensus_types::{CommandId, NodeId};
use reactor::{Events, Interest, PollEvent, Poller, Token, Waker};

use crate::replica::NetReplicaStats;
use crate::wire::{frame_bytes, is_checksum_error, Event, FrameBuffer, WireMessage};
use telemetry::Registry;

/// Token of the [`IoQueue`] waker.
const WAKER: Token = Token(0);
/// Token of the listener.
const LISTENER: Token = Token(1);
/// First token handed to connections.
const FIRST_CONN: u64 = 2;

/// Hard cap on one connection's buffered outbound bytes; a sink that stalls
/// past this is torn down instead of growing the buffer forever.
const MAX_WRITE_BUFFER: usize = 64 * 1024 * 1024;

/// Most frames gathered into one `writev` call (Linux caps an iovec array at
/// `IOV_MAX` = 1024; staying far below it keeps the stack allocation small).
const MAX_IOV: usize = 64;

/// Cap on frames queued for a peer whose link is down. The protocols
/// tolerate message loss (their timeouts re-drive agreement), so beyond this
/// the oldest frames are dropped and counted.
const MAX_DOWN_QUEUE: usize = 100_000;

/// How long a nonblocking peer dial may stay in flight before it is torn
/// down and re-armed. Without this, a peer host that blackholes SYNs (no
/// RST) would pin the link in `connecting` for the kernel's multi-minute
/// SYN timeout; with it, re-linking after the host returns takes a backoff,
/// not a kernel retry cycle.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);

/// Commands the core loop (or the replica handle) sends to the I/O thread.
/// Frames arrive pre-serialized so the event loop never touches the
/// (protocol-generic) message type on the send path.
pub(crate) enum IoCmd {
    /// The cluster address book: dial every remote peer and keep the links
    /// alive from now on.
    DialPeers(Vec<(NodeId, SocketAddr)>),
    /// A framed peer envelope, to be written to `to`'s link once
    /// `deliver_at` has passed (the delay shim's artificial WAN deadline).
    SendPeer {
        /// Destination replica.
        to: NodeId,
        /// Artificial delivery deadline (now, when no shim is configured).
        deliver_at: Instant,
        /// The length-prefixed, checksummed frame.
        frame: Vec<u8>,
    },
    /// A framed [`Event::ClientReply`] for whichever connection submitted
    /// `command`. Dropped silently if that connection is gone.
    ClientReply {
        /// The command the reply answers.
        command: CommandId,
        /// The framed reply event.
        frame: Vec<u8>,
    },
    /// A framed [`Event::Decisions`] batch for every subscriber (the frame
    /// is reference-counted onto each subscriber's write buffer, not
    /// copied).
    Publish {
        /// The framed decision event.
        frame: Vec<u8>,
    },
    /// Flush what can be flushed without blocking, abort still-pending
    /// client requests, close every socket, and exit the loop.
    Shutdown,
}

/// The cross-thread command queue into the event loop: push commands, the
/// eventfd waker makes the poller return, the I/O thread drains.
pub(crate) struct IoQueue {
    cmds: Mutex<Vec<IoCmd>>,
    waker: Waker,
}

impl IoQueue {
    pub(crate) fn new() -> io::Result<Self> {
        Ok(Self { cmds: Mutex::new(Vec::new()), waker: Waker::new()? })
    }

    /// Enqueues one command and wakes the loop.
    pub(crate) fn push(&self, cmd: IoCmd) {
        self.cmds.lock().expect("io queue lock").push(cmd);
        let _ = self.waker.wake();
    }

    /// Enqueues a batch with a single wakeup (the flush path pushes every
    /// frame of one core-loop step together).
    pub(crate) fn push_many(&self, cmds: impl IntoIterator<Item = IoCmd>) {
        let mut queue = self.cmds.lock().expect("io queue lock");
        let before = queue.len();
        queue.extend(cmds);
        let pushed = queue.len() > before;
        drop(queue);
        if pushed {
            let _ = self.waker.wake();
        }
    }

    fn drain(&self) -> Vec<IoCmd> {
        std::mem::take(&mut *self.cmds.lock().expect("io queue lock"))
    }
}

/// What a registered connection is.
#[derive(Clone, Copy)]
enum ConnKind {
    /// Accepted by the listener: a peer's outbound link, a subscriber, or an
    /// external client — the first frames tell us which.
    Inbound,
    /// Our outbound link to a peer replica.
    Peer(NodeId),
}

/// Pending outbound frames of one connection. Frames are queued **whole**,
/// by reference count — never copied into a contiguous staging buffer — and
/// flushed with scatter-gather `writev` ([`Write::write_vectored`]), so a
/// frame produced once by the core loop travels zero-copy to every socket
/// it goes to (a decision batch shared by N subscribers is one allocation,
/// not N). Frame boundaries keep the `frames_sent` / `frames_dropped` stats
/// exact across partial writes: a frame counts as *sent* the moment its
/// last byte reaches the socket, and only frames never fully written count
/// as dropped on teardown.
#[derive(Default)]
struct WriteBuf {
    /// Queued frames, oldest first. The front frame may be partially
    /// written ([`WriteBuf::front_written`] bytes of it already left).
    frames: VecDeque<Arc<Vec<u8>>>,
    /// Bytes of the front frame already written in an earlier call.
    front_written: usize,
    /// Total unwritten bytes across all queued frames.
    queued_bytes: usize,
}

impl WriteBuf {
    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    fn push_frame(&mut self, frame: Arc<Vec<u8>>) {
        self.queued_bytes += frame.len();
        self.frames.push_back(frame);
    }

    /// Unwritten bytes queued (the back-pressure measure capped by
    /// [`MAX_WRITE_BUFFER`]).
    fn pending_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Fills `slices` with the unwritten tail of every queued frame (at
    /// most [`MAX_IOV`]), ready for one `writev`.
    fn gather<'a>(&'a self, slices: &mut Vec<IoSlice<'a>>) {
        slices.clear();
        for (index, frame) in self.frames.iter().take(MAX_IOV).enumerate() {
            let bytes = if index == 0 { &frame[self.front_written..] } else { &frame[..] };
            slices.push(IoSlice::new(bytes));
        }
    }

    /// Accounts `written` bytes accepted by the socket; returns how many
    /// frames that completed.
    fn consume(&mut self, written: usize) -> u64 {
        self.queued_bytes -= written;
        let mut acc = self.front_written + written;
        let mut completed = 0;
        while let Some(front) = self.frames.front() {
            if acc < front.len() {
                break;
            }
            acc -= front.len();
            self.frames.pop_front();
            completed += 1;
        }
        self.front_written = acc;
        completed
    }

    /// Frames with at least one byte still unwritten (lost if the
    /// connection dies now).
    fn unsent_frames(&self) -> u64 {
        self.frames.len() as u64
    }
}

/// One registered connection.
struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    /// A peer link whose nonblocking `connect` has not completed yet;
    /// writability (or an error event) resolves it.
    connecting: bool,
    read: FrameBuffer,
    write: WriteBuf,
    /// Whether write interest is currently registered.
    wants_write: bool,
    /// This connection asked for the decision stream.
    subscribed: bool,
    /// Reply routes this connection registered (cleared on teardown so a
    /// dead client does not leak routes).
    registered: Vec<CommandId>,
}

/// Our outbound link to one peer replica, across reconnects.
struct PeerLink {
    addr: SocketAddr,
    /// Token of the live (or connecting) connection, if any.
    token: Option<u64>,
    /// When to dial again while down.
    retry_at: Option<Instant>,
    /// While a dial is in flight: when to give up on it.
    connect_deadline: Option<Instant>,
    /// Frames waiting for their delivery deadline or for the link to come
    /// up. Deadlines are monotone per link, so this is a FIFO.
    queued: VecDeque<(Instant, Arc<Vec<u8>>)>,
}

pub(crate) struct EventLoop<M> {
    id: NodeId,
    poller: Poller,
    listener: TcpListener,
    queue: Arc<IoQueue>,
    mailbox: Sender<WireMessage<M>>,
    conns: HashMap<u64, Conn>,
    peers: HashMap<NodeId, PeerLink>,
    /// Which connection answers each in-flight `ClientRequest`.
    routes: HashMap<CommandId, u64>,
    next_token: u64,
    reconnect_backoff: Duration,
    /// The replica's telemetry registry, snapshotted to answer
    /// [`WireMessage::StatsRequest`] frames without a core-loop round trip.
    registry: Arc<Registry>,
    stats: Arc<NetReplicaStats>,
    /// Live decision-stream subscribers, shared with the core loop so it
    /// can skip serializing `Event::Decisions` batches nobody will read.
    subscriber_count: Arc<AtomicUsize>,
    shutdown: Arc<AtomicBool>,
    /// Set by [`IoCmd::Shutdown`] (or a dead core loop): exit after this
    /// iteration's flush. Shutdown travels through the command queue — never
    /// the flag alone — so every frame the core loop pushed before stopping
    /// is flushed first.
    stop: bool,
}

impl<M> EventLoop<M>
where
    M: serde::Serialize + serde::Deserialize,
{
    // One constructor, one internal call site; the alternative is a
    // parameter struct that would only be destructured right back.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: NodeId,
        listener: TcpListener,
        queue: Arc<IoQueue>,
        mailbox: Sender<WireMessage<M>>,
        reconnect_backoff: Duration,
        registry: Arc<Registry>,
        stats: Arc<NetReplicaStats>,
        subscriber_count: Arc<AtomicUsize>,
        shutdown: Arc<AtomicBool>,
    ) -> io::Result<Self> {
        let poller = Poller::new()?;
        poller.register(queue.waker.fd(), WAKER, Interest::READABLE)?;
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
        Ok(Self {
            id,
            poller,
            listener,
            queue,
            mailbox,
            conns: HashMap::new(),
            peers: HashMap::new(),
            routes: HashMap::new(),
            next_token: FIRST_CONN,
            reconnect_backoff,
            registry,
            stats,
            subscriber_count,
            shutdown,
            stop: false,
        })
    }

    pub(crate) fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            let timeout = self.next_timeout();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }
            let fired: Vec<PollEvent> = events.iter().collect();
            for event in fired {
                match event.token {
                    WAKER => self.queue.waker.drain(),
                    LISTENER => self.accept_ready(),
                    Token(token) => self.conn_ready(token, event),
                }
            }
            self.drain_queue();
            let now = Instant::now();
            self.redial_due_peers(now);
            self.enqueue_due_frames(now);
            self.flush_dirty();
            if self.stop {
                break;
            }
        }
        self.teardown_all();
    }

    /// The `epoll_wait` deadline: the earliest delayed-frame delivery or
    /// peer redial, capped so a missed edge can never wedge the loop.
    fn next_timeout(&self) -> Duration {
        let mut deadline: Option<Instant> = None;
        let mut consider = |at: Instant| match deadline {
            Some(current) if current <= at => {}
            _ => deadline = Some(at),
        };
        for link in self.peers.values() {
            if let Some(at) = link.retry_at {
                consider(at);
            }
            if let Some(at) = link.connect_deadline {
                consider(at);
            }
            // A frame deadline only matters once the link is up: while the
            // connect is in flight, the wake-up is its writability event
            // (or the connect deadline above), and a due frame must not
            // spin the loop with a zero timeout.
            let live = link
                .token
                .is_some_and(|token| self.conns.get(&token).is_some_and(|conn| !conn.connecting));
            if live {
                if let Some(&(at, _)) = link.queued.front() {
                    consider(at);
                }
            }
        }
        let cap = Duration::from_millis(500);
        match deadline {
            Some(at) => at.saturating_duration_since(Instant::now()).min(cap),
            None => cap,
        }
    }

    // ---- command queue ---------------------------------------------------

    /// Applies every queued command, in order; [`IoCmd::Shutdown`] arms
    /// [`Self::stop`] after the commands before it have been applied.
    fn drain_queue(&mut self) {
        for cmd in self.queue.drain() {
            match cmd {
                IoCmd::DialPeers(book) => {
                    let now = Instant::now();
                    for (to, addr) in book {
                        self.peers.insert(
                            to,
                            PeerLink {
                                addr,
                                token: None,
                                retry_at: Some(now),
                                connect_deadline: None,
                                queued: VecDeque::new(),
                            },
                        );
                    }
                }
                IoCmd::SendPeer { to, deliver_at, frame } => {
                    if let Some(link) = self.peers.get_mut(&to) {
                        if link.queued.len() >= MAX_DOWN_QUEUE {
                            link.queued.pop_front();
                            self.stats.frames_dropped.inc();
                        }
                        link.queued.push_back((deliver_at, Arc::new(frame)));
                    }
                }
                IoCmd::ClientReply { command, frame } => {
                    if let Some(&token) = self.routes.get(&command) {
                        self.append_frame(token, Arc::new(frame));
                    }
                    self.routes.remove(&command);
                }
                IoCmd::Publish { frame } => {
                    let subscribed: Vec<u64> = self
                        .conns
                        .iter()
                        .filter(|(_, conn)| conn.subscribed)
                        .map(|(&token, _)| token)
                        .collect();
                    let frame = Arc::new(frame);
                    for token in subscribed {
                        self.append_frame(token, Arc::clone(&frame));
                    }
                }
                IoCmd::Shutdown => self.stop = true,
            }
        }
    }

    // ---- accept / read ---------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    let _ = self.insert_conn(stream, ConnKind::Inbound, false);
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // EMFILE & friends: the connection stays in the backlog
                    // and the level-triggered listener would refire
                    // instantly; a brief pause keeps a fd-exhausted replica
                    // from spinning a core while it degrades.
                    std::thread::sleep(Duration::from_millis(2));
                    return;
                }
            }
        }
    }

    fn insert_conn(&mut self, stream: TcpStream, kind: ConnKind, connecting: bool) -> Option<u64> {
        let token = self.next_token;
        self.next_token += 1;
        let interest = if connecting { Interest::WRITABLE } else { Interest::READABLE };
        if self.poller.register(stream.as_raw_fd(), Token(token), interest).is_err() {
            return None; // fd broken; the stream drops and closes here
        }
        self.conns.insert(
            token,
            Conn {
                stream,
                kind,
                connecting,
                read: FrameBuffer::new(),
                write: WriteBuf::default(),
                wants_write: connecting,
                subscribed: false,
                registered: Vec::new(),
            },
        );
        Some(token)
    }

    fn conn_ready(&mut self, token: u64, event: PollEvent) {
        if !self.conns.contains_key(&token) {
            return; // torn down earlier in this batch
        }
        if self.conns[&token].connecting {
            // Any readiness on a connecting socket resolves the connect.
            self.finish_connect(token);
            return;
        }
        if event.readable {
            self.read_ready(token);
        }
        if event.writable && self.conns.contains_key(&token) {
            self.write_ready(token);
        }
        if event.error && !event.readable && self.conns.contains_key(&token) {
            self.teardown(token);
        }
    }

    fn read_ready(&mut self, token: u64) {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            let conn = match self.conns.get_mut(&token) {
                Some(conn) => conn,
                None => return,
            };
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    self.teardown(token);
                    return;
                }
                Ok(n) => {
                    conn.read.extend(&chunk[..n]);
                    if !self.decode_ready_frames(token) {
                        return; // connection torn down or core loop gone
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => return,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.teardown(token);
                    return;
                }
            }
        }
    }

    /// Decodes and dispatches every complete frame buffered on `token`.
    /// Returns `false` if the connection was torn down.
    fn decode_ready_frames(&mut self, token: u64) -> bool {
        loop {
            let conn = match self.conns.get_mut(&token) {
                Some(conn) => conn,
                None => return false,
            };
            let message: WireMessage<M> = match conn.read.next_msg() {
                Ok(Some(message)) => message,
                Ok(None) => return true,
                Err(err) => {
                    if is_checksum_error(&err) {
                        self.stats.corrupt_frames.inc();
                    }
                    self.teardown(token);
                    return false;
                }
            };
            match message {
                WireMessage::Subscribe => {
                    if !conn.subscribed {
                        conn.subscribed = true;
                        self.subscriber_count.fetch_add(1, Ordering::Relaxed);
                    }
                }
                WireMessage::ClientRequest { cmd } => {
                    let id = cmd.id();
                    conn.registered.push(id);
                    self.routes.insert(id, token);
                    self.stats.frames_received.inc();
                    if self.mailbox.send(WireMessage::ClientRequest { cmd }).is_err() {
                        self.stop = true; // core loop is gone
                        return false;
                    }
                }
                WireMessage::StatsRequest => {
                    // Answered right here on the requesting connection: the
                    // registry is lock-free to snapshot, so a scrape never
                    // queues behind — or perturbs — the consensus core loop.
                    self.stats.frames_received.inc();
                    let reply = Event::StatsReply {
                        from: self.id,
                        snapshot: self.registry.snapshot(),
                        spans: self.registry.spans(),
                    };
                    if let Ok(frame) = frame_bytes(&reply) {
                        self.append_frame(token, Arc::new(frame));
                    }
                }
                WireMessage::Shutdown => {
                    // Shutdown belongs to the local mailbox (`request_shutdown`
                    // sends it in-process); a connection that sends one is
                    // not allowed to stop the replica.
                    self.teardown(token);
                    return false;
                }
                message => {
                    self.stats.frames_received.inc();
                    if self.mailbox.send(message).is_err() {
                        self.stop = true; // core loop is gone
                        return false;
                    }
                }
            }
        }
    }

    // ---- peer links ------------------------------------------------------

    fn redial_due_peers(&mut self, now: Instant) {
        // Give up on dials that outlived their deadline (a blackholed SYN
        // never produces a readiness event); teardown re-arms the backoff.
        let stale: Vec<u64> = self
            .peers
            .values()
            .filter(|link| link.connect_deadline.is_some_and(|at| at <= now))
            .filter_map(|link| link.token)
            .collect();
        for token in stale {
            self.teardown(token);
        }
        let due: Vec<NodeId> = self
            .peers
            .iter()
            .filter(|(_, link)| link.retry_at.is_some_and(|at| at <= now))
            .map(|(&to, _)| to)
            .collect();
        for to in due {
            self.dial(to);
        }
    }

    fn dial(&mut self, to: NodeId) {
        let link = match self.peers.get_mut(&to) {
            Some(link) => link,
            None => return,
        };
        link.retry_at = None;
        let dialed = reactor::connect_stream(link.addr)
            .ok()
            .and_then(|stream| self.insert_conn(stream, ConnKind::Peer(to), true));
        if let Some(link) = self.peers.get_mut(&to) {
            match dialed {
                Some(token) => {
                    link.token = Some(token);
                    link.connect_deadline =
                        Some(Instant::now() + CONNECT_TIMEOUT.max(self.reconnect_backoff));
                }
                None => link.retry_at = Some(Instant::now() + self.reconnect_backoff),
            }
        }
    }

    /// Resolves a nonblocking connect once epoll reports the socket ready.
    fn finish_connect(&mut self, token: u64) {
        let conn = match self.conns.get_mut(&token) {
            Some(conn) => conn,
            None => return,
        };
        if !matches!(conn.kind, ConnKind::Peer(_)) {
            return;
        }
        if reactor::take_socket_error(conn.stream.as_raw_fd()).is_err() {
            self.teardown(token);
            return;
        }
        let _ = conn.stream.set_nodelay(true);
        conn.connecting = false;
        conn.wants_write = false;
        let _ = self.poller.reregister(conn.stream.as_raw_fd(), Token(token), Interest::READABLE);
        self.stats.connects.inc();
        if let ConnKind::Peer(to) = conn.kind {
            if let Some(link) = self.peers.get_mut(&to) {
                link.connect_deadline = None;
            }
        }
        // Announce ourselves, then let any frames that queued while the link
        // was down flow in the next flush pass.
        match frame_bytes(&WireMessage::<M>::Hello { from: self.id }) {
            Ok(hello) => self.append_frame(token, Arc::new(hello)),
            Err(_) => self.teardown(token),
        }
    }

    /// Moves every due frame from peer queues into the live links' write
    /// buffers. All frames due at one wakeup join one buffer — one `write`.
    fn enqueue_due_frames(&mut self, now: Instant) {
        let live: Vec<NodeId> =
            self.peers.iter().filter(|(_, link)| link.token.is_some()).map(|(&to, _)| to).collect();
        for to in live {
            let link = match self.peers.get_mut(&to) {
                Some(link) => link,
                None => continue,
            };
            let Some(token) = link.token else { continue };
            if self.conns.get(&token).is_none_or(|conn| conn.connecting) {
                continue;
            }
            let mut due: Vec<Arc<Vec<u8>>> = Vec::new();
            while let Some(&(at, _)) = link.queued.front() {
                if at > now {
                    break;
                }
                due.push(link.queued.pop_front().expect("frame present").1);
            }
            for frame in due {
                self.append_frame(token, frame);
            }
        }
    }

    // ---- writes ----------------------------------------------------------

    /// Appends a frame to `token`'s write buffer (flushed by
    /// [`EventLoop::flush_dirty`] or on writability). The frame is queued by
    /// reference — shared frames (decision batches) are not copied per
    /// connection.
    fn append_frame(&mut self, token: u64, frame: Arc<Vec<u8>>) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.write.pending_bytes() + frame.len() > MAX_WRITE_BUFFER {
            self.teardown(token);
            return;
        }
        conn.write.push_frame(frame);
    }

    /// One flush attempt for every connection with buffered output.
    fn flush_dirty(&mut self) {
        let dirty: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, conn)| !conn.connecting && !conn.write.is_empty())
            .map(|(&token, _)| token)
            .collect();
        for token in dirty {
            self.write_ready(token);
        }
    }

    /// Writes as much buffered output as the socket accepts, gathering every
    /// queued frame into one `writev` (scatter-gather) call per pass — the
    /// frames go from their own allocations straight to the kernel, with no
    /// intermediate copy. Registers write interest on a partial write,
    /// drops it once the buffer drains.
    fn write_ready(&mut self, token: u64) {
        let mut completed: u64 = 0;
        loop {
            let conn = match self.conns.get_mut(&token) {
                Some(conn) => conn,
                None => return,
            };
            if conn.write.is_empty() {
                break;
            }
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(conn.write.frames.len().min(MAX_IOV));
            conn.write.gather(&mut slices);
            let gathered = slices.len();
            let result = conn.stream.write_vectored(&slices);
            match result {
                Ok(0) => {
                    self.teardown(token);
                    return;
                }
                Ok(n) => {
                    completed += conn.write.consume(n);
                    if gathered > 1 {
                        self.stats.writev_flushes.inc();
                    }
                }
                Err(err) if err.kind() == io::ErrorKind::WouldBlock => break,
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.teardown(token);
                    return;
                }
            }
        }
        let conn = match self.conns.get_mut(&token) {
            Some(conn) => conn,
            None => return,
        };
        if completed > 0 {
            self.stats.frames_sent.add(completed);
            self.stats.batches_flushed.inc();
        }
        if conn.write.is_empty() {
            if conn.wants_write {
                conn.wants_write = false;
                let _ = self.poller.reregister(
                    conn.stream.as_raw_fd(),
                    Token(token),
                    Interest::READABLE,
                );
            }
        } else if !conn.wants_write {
            conn.wants_write = true;
            let _ = self.poller.reregister(conn.stream.as_raw_fd(), Token(token), Interest::BOTH);
        }
    }

    // ---- teardown --------------------------------------------------------

    /// Closes one connection: deregisters the fd, drops its reply routes and
    /// subscription, and re-arms the redial timer if it was a peer link.
    fn teardown(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else { return };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if conn.write.unsent_frames() > 0 {
            self.stats.frames_dropped.add(conn.write.unsent_frames());
        }
        if conn.subscribed {
            self.subscriber_count.fetch_sub(1, Ordering::Relaxed);
        }
        for id in &conn.registered {
            if self.routes.get(id) == Some(&token) {
                self.routes.remove(id);
            }
        }
        if let ConnKind::Peer(to) = conn.kind {
            if let Some(link) = self.peers.get_mut(&to) {
                if link.token == Some(token) {
                    link.token = None;
                    link.connect_deadline = None;
                    link.retry_at = Some(Instant::now() + self.reconnect_backoff);
                }
            }
        }
    }

    /// Shutdown: answer every pending client request with an abort, attempt
    /// one last nonblocking flush everywhere, and close all sockets.
    fn teardown_all(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let pending: Vec<(CommandId, u64)> = self.routes.drain().collect();
        for (command, token) in pending {
            let abort = Event::ClientAbort {
                from: self.id,
                command,
                reason: "replica shut down before the command executed".to_string(),
            };
            if let Ok(frame) = frame_bytes(&abort) {
                self.append_frame(token, Arc::new(frame));
            }
        }
        self.flush_dirty();
        for (_, conn) in self.conns.drain() {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(len: usize, fill: u8) -> Arc<Vec<u8>> {
        Arc::new(vec![fill; len])
    }

    #[test]
    fn write_buf_tracks_frame_boundaries_across_partial_writes() {
        let mut buf = WriteBuf::default();
        buf.push_frame(frame(10, 1));
        buf.push_frame(frame(5, 2));
        buf.push_frame(frame(8, 3));
        assert_eq!(buf.pending_bytes(), 23);
        assert_eq!(buf.unsent_frames(), 3);

        // A partial write through the first frame completes nothing.
        assert_eq!(buf.consume(7), 0);
        assert_eq!(buf.pending_bytes(), 16);
        // Finishing frame 1 and all of frame 2 completes two frames.
        assert_eq!(buf.consume(8), 2);
        assert_eq!(buf.unsent_frames(), 1);
        // The rest of frame 3.
        assert_eq!(buf.consume(8), 1);
        assert!(buf.is_empty());
        assert_eq!(buf.pending_bytes(), 0);
    }

    #[test]
    fn gather_offsets_the_partially_written_front_frame() {
        let mut buf = WriteBuf::default();
        buf.push_frame(frame(10, 1));
        buf.push_frame(frame(4, 2));
        assert_eq!(buf.consume(6), 0); // 6 of the first frame already left

        let mut slices: Vec<IoSlice<'_>> = Vec::new();
        buf.gather(&mut slices);
        assert_eq!(slices.len(), 2, "both frames gather into one writev");
        assert_eq!(slices[0].len(), 4, "front frame offset by the written prefix");
        assert_eq!(slices[1].len(), 4);
        assert_eq!(slices.iter().map(|s| s.len()).sum::<usize>(), buf.pending_bytes());
    }

    #[test]
    fn gather_caps_the_iovec_count() {
        let mut buf = WriteBuf::default();
        for _ in 0..(MAX_IOV + 10) {
            buf.push_frame(frame(3, 9));
        }
        let mut slices: Vec<IoSlice<'_>> = Vec::new();
        buf.gather(&mut slices);
        assert_eq!(slices.len(), MAX_IOV);
        // Consuming everything the capped gather covered leaves the rest.
        let covered: usize = slices.iter().map(|s| s.len()).sum();
        assert_eq!(buf.consume(covered), MAX_IOV as u64);
        assert_eq!(buf.unsent_frames(), 10);
    }

    #[test]
    fn shared_frames_are_not_copied_per_connection() {
        let shared = frame(64, 7);
        let mut a = WriteBuf::default();
        let mut b = WriteBuf::default();
        a.push_frame(Arc::clone(&shared));
        b.push_frame(Arc::clone(&shared));
        // One allocation, three handles: the two buffers queue the same bytes.
        assert_eq!(Arc::strong_count(&shared), 3);
        assert_eq!(a.pending_bytes(), 64);
        assert_eq!(b.pending_bytes(), 64);
    }
}
