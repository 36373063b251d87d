//! Length-prefixed bincode framing and the wire envelopes.
//!
//! Every TCP segment exchanged by the runtime is one *frame*: a little-endian
//! `u32` payload length, a little-endian `u32` CRC-32 checksum of the
//! payload, then the bincode payload. The checksum is verified on decode —
//! a mismatch surfaces as a [`checksum-mismatch error`](is_checksum_error)
//! so the transport can count it (`corrupt_frames`) and tear the connection
//! down rather than trust a desynchronized stream. Two envelope types flow
//! over the frames:
//!
//! * [`WireMessage`] — everything a replica *receives*: peer protocol
//!   messages, reply-expecting client submissions
//!   ([`WireMessage::ClientRequest`]), decision-stream subscriptions,
//!   snapshot-based state transfer ([`WireMessage::SnapshotRequest`] /
//!   [`WireMessage::SnapshotChunk`], used by restarted replicas to catch
//!   up), stats scrapes, and shutdown requests (local mailbox only: the
//!   event loop tears down a connection that sends one);
//! * [`Event`] — everything a replica *publishes* to client connections:
//!   batches of executed [`Decision`]s, plus per-command
//!   [`Event::ClientReply`] / [`Event::ClientAbort`] frames answering
//!   `ClientRequest` submissions.
//!
//! `WireMessage<M>` is generic over the protocol message type, so the one
//! envelope serves CAESAR, EPaxos, Multi-Paxos, Mencius and M²Paxos alike;
//! the client-facing variants do not involve `M`, so an external client can
//! speak the protocol without knowing which consensus algorithm is running
//! (it submits `WireMessage::<()>::ClientRequest` frames). The serde impls
//! are written by hand because the vendored derive does not support generic
//! types.

use std::io::{self, Read, Write};

use consensus_core::driver::SnapshotChunk;
use consensus_types::{Command, CommandId, Decision, NodeId};
use telemetry::{RegistrySnapshot, SpanRingSnapshot};

/// Upper bound on a frame payload, guarding against corrupt length prefixes.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Bytes of frame header preceding the payload: `u32` length + `u32` CRC-32.
pub const FRAME_HEADER_LEN: usize = 8;

/// CRC-32 checksum (IEEE 802.3) of `bytes`, as carried in the frame header.
///
/// The implementation lives in [`consensus_types::crc32`] so the write-ahead
/// log (`wal`) can frame its on-disk records with the exact same checksum
/// path without depending on this crate; re-exported here because the wire
/// module is where frame producers and consumers look for it.
pub use consensus_types::crc32;

/// Marker put in checksum-failure errors so the transport can distinguish a
/// corrupted frame (count it, kill the link) from ordinary decode errors.
const CHECKSUM_MISMATCH: &str = "frame checksum mismatch";

/// Whether `err` reports a frame whose CRC-32 did not match its payload.
#[must_use]
pub fn is_checksum_error(err: &io::Error) -> bool {
    err.kind() == io::ErrorKind::InvalidData && err.to_string().contains(CHECKSUM_MISMATCH)
}

/// Envelope for everything a replica's mailbox can receive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMessage<M> {
    /// First frame on every replica→replica connection: announces the dialing
    /// peer. Currently informational — [`WireMessage::Peer`] frames carry
    /// their own `from` — but it gives reconnects a well-defined preamble and
    /// is the natural hook for future link auth or connection dedup.
    Hello {
        /// The dialing replica.
        from: NodeId,
    },
    /// A protocol message relayed between replicas.
    Peer {
        /// The sending replica.
        from: NodeId,
        /// The protocol payload.
        msg: M,
    },
    /// A client command submitted to this replica **with a reply**: once the
    /// command executes here, the replica answers the submitting connection
    /// with an [`Event::ClientReply`] frame carrying the key-value store
    /// result (read-your-writes at this replica). If the replica shuts down
    /// first, it answers with [`Event::ClientAbort`] instead.
    ClientRequest {
        /// The command to order.
        cmd: Command,
    },
    /// Subscribes the sending connection to this replica's decision stream
    /// ([`Event::Decisions`] frames flow back on the same socket).
    Subscribe,
    /// A restarted replica asking a live peer for its state: the peer
    /// answers with a stream of [`WireMessage::SnapshotChunk`] frames
    /// carrying its latest checkpoint plus the decided suffix applied since
    /// (snapshot-based state transfer; see the `net` module docs).
    SnapshotRequest {
        /// The replica requesting catch-up.
        from: NodeId,
    },
    /// One chunk of a state-transfer payload, answering a
    /// [`WireMessage::SnapshotRequest`]. The payload is the donor's
    /// checkpoint — its state-machine snapshot bytes *plus* the
    /// floor-compacted summaries of the command and unit ids that snapshot
    /// covers *plus* the protocol execution cursor captured when the
    /// checkpoint was cut, serialized together — and chunks `0..total`
    /// carry it in order, each bounded in size. The **last** chunk
    /// additionally carries the suffix of units the donor applied after the
    /// snapshot watermark (which the receiver replays after restoring) and
    /// a fresh execution cursor captured at donation time, covering that
    /// suffix. The id summaries make recovery exact: the receiver seeds its
    /// dedup knowledge (and its protocol's dependency tracking) from them,
    /// so redelivered crash-time decisions are never double-applied and
    /// later commands never wait on dependencies the snapshot already
    /// covers. The cursor lets slot-based protocols resume: the receiver's
    /// process fast-forwards its execution gate past the transferred state
    /// instead of stalling at its slot gap (see
    /// `Process::on_state_transfer`).
    SnapshotChunk(SnapshotChunk),
    /// Asks the replica for a snapshot of its telemetry registry (metrics
    /// plus the command-lifecycle span ring). The replica answers the
    /// requesting connection with one [`Event::StatsReply`] frame. Carries
    /// no fields, so any client — including one that does not know the
    /// protocol message type — can scrape any replica.
    StatsRequest,
    /// Orderly shutdown request. Local mailbox only: `NetReplica` injects
    /// it in-process, and the event loop tears down any connection that
    /// sends one.
    Shutdown,
}

/// Envelope for frames a replica publishes to client connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Commands executed at `from` since the last event, in execution order.
    Decisions {
        /// The publishing replica.
        from: NodeId,
        /// The executed commands, oldest first.
        batch: Vec<Decision>,
    },
    /// Answer to a [`WireMessage::ClientRequest`]: the command executed at
    /// the replica the client submitted it to.
    ClientReply {
        /// The replying replica.
        from: NodeId,
        /// The command this reply answers.
        command: CommandId,
        /// The key-value store result at the replying replica: the value
        /// read by a `Get`, the previous value overwritten by a `Put`.
        output: Option<u64>,
        /// The decision record (path, timestamps, latency breakdown).
        decision: Decision,
    },
    /// A [`WireMessage::ClientRequest`] will never be answered (the replica
    /// is shutting down); the client should fail the pending ticket.
    ClientAbort {
        /// The aborting replica.
        from: NodeId,
        /// The command whose reply will never come.
        command: CommandId,
        /// Why the reply will never come.
        reason: String,
    },
    /// Answer to a [`WireMessage::StatsRequest`]: the replica's telemetry
    /// registry at the moment the request was processed.
    StatsReply {
        /// The replying replica.
        from: NodeId,
        /// Counters, gauges and histograms by name.
        snapshot: RegistrySnapshot,
        /// The command-lifecycle span ring (timestamps are wall-clock
        /// microseconds since the UNIX epoch, comparable across replicas).
        spans: SpanRingSnapshot,
    },
}

impl<M: serde::Serialize> serde::Serialize for WireMessage<M> {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            WireMessage::Hello { from } => {
                serde::write_variant_tag(out, 0);
                from.serialize(out);
            }
            WireMessage::Peer { from, msg } => {
                serde::write_variant_tag(out, 1);
                from.serialize(out);
                msg.serialize(out);
            }
            WireMessage::Subscribe => serde::write_variant_tag(out, 3),
            WireMessage::Shutdown => serde::write_variant_tag(out, 5),
            WireMessage::ClientRequest { cmd } => {
                serde::write_variant_tag(out, 6);
                cmd.serialize(out);
            }
            WireMessage::SnapshotRequest { from } => {
                serde::write_variant_tag(out, 7);
                from.serialize(out);
            }
            WireMessage::SnapshotChunk(chunk) => {
                serde::write_variant_tag(out, 8);
                chunk.serialize(out);
            }
            WireMessage::StatsRequest => serde::write_variant_tag(out, 9),
        }
    }
}

impl<M: serde::Deserialize> serde::Deserialize for WireMessage<M> {
    fn deserialize(input: &mut &[u8]) -> serde::Result<Self> {
        match serde::read_variant_tag(input)? {
            0 => Ok(WireMessage::Hello { from: NodeId::deserialize(input)? }),
            1 => Ok(WireMessage::Peer {
                from: NodeId::deserialize(input)?,
                msg: M::deserialize(input)?,
            }),
            // Tags 2 and 4 are retired, not reused, so a frame from an
            // older build fails to decode instead of meaning something else.
            3 => Ok(WireMessage::Subscribe),
            5 => Ok(WireMessage::Shutdown),
            6 => Ok(WireMessage::ClientRequest { cmd: Command::deserialize(input)? }),
            7 => Ok(WireMessage::SnapshotRequest { from: NodeId::deserialize(input)? }),
            8 => Ok(WireMessage::SnapshotChunk(SnapshotChunk::deserialize(input)?)),
            9 => Ok(WireMessage::StatsRequest),
            other => Err(serde::Error::unknown_variant("WireMessage", other)),
        }
    }
}

impl serde::Serialize for Event {
    fn serialize(&self, out: &mut Vec<u8>) {
        match self {
            Event::Decisions { from, batch } => {
                serde::write_variant_tag(out, 0);
                from.serialize(out);
                batch.serialize(out);
            }
            Event::ClientReply { from, command, output, decision } => {
                serde::write_variant_tag(out, 1);
                from.serialize(out);
                command.serialize(out);
                output.serialize(out);
                decision.serialize(out);
            }
            Event::ClientAbort { from, command, reason } => {
                serde::write_variant_tag(out, 2);
                from.serialize(out);
                command.serialize(out);
                reason.serialize(out);
            }
            Event::StatsReply { from, snapshot, spans } => {
                serde::write_variant_tag(out, 3);
                from.serialize(out);
                snapshot.serialize(out);
                spans.serialize(out);
            }
        }
    }
}

impl serde::Deserialize for Event {
    fn deserialize(input: &mut &[u8]) -> serde::Result<Self> {
        match serde::read_variant_tag(input)? {
            0 => Ok(Event::Decisions {
                from: NodeId::deserialize(input)?,
                batch: Vec::deserialize(input)?,
            }),
            1 => Ok(Event::ClientReply {
                from: NodeId::deserialize(input)?,
                command: CommandId::deserialize(input)?,
                output: Option::deserialize(input)?,
                decision: Decision::deserialize(input)?,
            }),
            2 => Ok(Event::ClientAbort {
                from: NodeId::deserialize(input)?,
                command: CommandId::deserialize(input)?,
                reason: String::deserialize(input)?,
            }),
            3 => Ok(Event::StatsReply {
                from: NodeId::deserialize(input)?,
                snapshot: RegistrySnapshot::deserialize(input)?,
                spans: SpanRingSnapshot::deserialize(input)?,
            }),
            other => Err(serde::Error::unknown_variant("Event", other)),
        }
    }
}

/// Writes one checksummed, length-prefixed frame.
pub fn write_frame<W: Write>(writer: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(&crc32(payload).to_le_bytes())?;
    writer.write_all(payload)?;
    writer.flush()
}

/// Reads one frame, validating the length against [`MAX_FRAME_LEN`] and the
/// payload against the header checksum.
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    reader.read_exact(&mut header)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4 header bytes"));
    let expected_crc = u32::from_le_bytes(header[4..].try_into().expect("4 header bytes"));
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload)?;
    if crc32(&payload) != expected_crc {
        return Err(io::Error::new(io::ErrorKind::InvalidData, CHECKSUM_MISMATCH));
    }
    Ok(payload)
}

/// Incremental, push-based frame decoder: feed it whatever bytes a
/// nonblocking read produced ([`FrameBuffer::extend`]) and pop complete,
/// checksum-verified frames ([`FrameBuffer::next_frame`]) as they form.
///
/// This is the event loop's decode path: a reactor never blocks in
/// `read_exact`, so partial frames simply stay buffered until the socket's
/// next readability. Consumed bytes are reclaimed lazily to keep the buffer
/// from re-copying its tail on every frame.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by decoded frames.
    pos: usize,
}

impl FrameBuffer {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed space once it dominates the buffer.
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame, if one is fully buffered.
    ///
    /// `Ok(None)` means "need more bytes". `Err` means the stream is
    /// poisoned (oversized length or checksum mismatch) and the connection
    /// must be dropped — after a framing error the byte boundary is gone.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let pending = &self.buf[self.pos..];
        if pending.len() < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..4].try_into().expect("4 buffered bytes"));
        let expected_crc = u32::from_le_bytes(pending[4..8].try_into().expect("4 buffered bytes"));
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds cap {MAX_FRAME_LEN}"),
            ));
        }
        let total = FRAME_HEADER_LEN + len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let payload = pending[FRAME_HEADER_LEN..total].to_vec();
        if crc32(&payload) != expected_crc {
            return Err(io::Error::new(io::ErrorKind::InvalidData, CHECKSUM_MISMATCH));
        }
        self.pos += total;
        Ok(Some(payload))
    }

    /// Like [`FrameBuffer::next_frame`], but deserializes the payload.
    pub fn next_msg<T: serde::Deserialize>(&mut self) -> io::Result<Option<T>> {
        match self.next_frame()? {
            None => Ok(None),
            Some(payload) => bincode::deserialize(&payload)
                .map(Some)
                .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string())),
        }
    }
}

/// Incremental frame decoder over a blocking [`Read`] that tolerates read
/// timeouts.
///
/// [`read_frame`] uses `read_exact` and therefore **loses bytes** if a read
/// timeout fires mid-frame — fine for in-memory buffers and tests, wrong for
/// sockets polled with a timeout. `FrameReader` instead accumulates whatever
/// bytes arrive in a [`FrameBuffer`] and only yields a frame once it is
/// complete, so a `WouldBlock`/`TimedOut` between (or inside) frames never
/// desynchronizes the stream. Client-side readers use this; the replica's
/// event loop drives the underlying [`FrameBuffer`] directly.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: FrameBuffer,
}

impl FrameReader {
    /// Creates an empty decoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pulls bytes from `reader` until one full frame is buffered.
    ///
    /// Returns `Ok(Some(payload))` for a complete frame, `Ok(None)` if the
    /// read timed out with the partial state preserved (call again later),
    /// and `Err` on EOF, I/O error, checksum mismatch, or an oversized
    /// length prefix.
    pub fn read_frame<R: Read>(&mut self, reader: &mut R) -> io::Result<Option<Vec<u8>>> {
        loop {
            if let Some(payload) = self.buf.next_frame()? {
                return Ok(Some(payload));
            }
            let mut chunk = [0u8; 16 * 1024];
            match reader.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"))
                }
                Ok(n) => self.buf.extend(&chunk[..n]),
                Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
                Err(err)
                    if matches!(
                        err.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None);
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Like [`FrameReader::read_frame`], but deserializes the payload.
    pub fn read_msg<R: Read, T: serde::Deserialize>(
        &mut self,
        reader: &mut R,
    ) -> io::Result<Option<T>> {
        match self.read_frame(reader)? {
            None => Ok(None),
            Some(payload) => bincode::deserialize(&payload)
                .map(Some)
                .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string())),
        }
    }
}

/// Serializes `value` and writes it as one frame.
pub fn send_msg<W: Write, T: serde::Serialize>(writer: &mut W, value: &T) -> io::Result<()> {
    let payload = bincode::serialize(value)
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
    write_frame(writer, &payload)
}

/// Serializes `value` into one complete frame (header + payload) as an owned
/// byte vector — the unit the event loop's write buffers deal in.
pub fn frame_bytes<T: serde::Serialize>(value: &T) -> io::Result<Vec<u8>> {
    let payload = bincode::serialize(value)
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))?;
    let mut framed = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    write_frame(&mut framed, &payload)?;
    Ok(framed)
}

/// Reads one frame and deserializes a `T` from it.
pub fn recv_msg<R: Read, T: serde::Deserialize>(reader: &mut R) -> io::Result<T> {
    let payload = read_frame(reader)?;
    bincode::deserialize(&payload)
        .map_err(|err| io::Error::new(io::ErrorKind::InvalidData, err.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar::CaesarMessage;
    use consensus_types::{Ballot, CommandId, ExecutionCursor, Timestamp};
    use std::collections::BTreeSet;

    fn round_trip<T>(value: &T) -> T
    where
        T: serde::Serialize + serde::Deserialize,
    {
        let mut framed = Vec::new();
        send_msg(&mut framed, value).expect("frame writes");
        recv_msg(&mut framed.as_slice()).expect("frame reads")
    }

    #[test]
    fn wire_message_round_trips_over_frames() {
        let cmd = Command::put(CommandId::new(NodeId(1), 7), 3, 9);
        let messages: Vec<WireMessage<u64>> = vec![
            WireMessage::Hello { from: NodeId(4) },
            WireMessage::Peer { from: NodeId(2), msg: 99 },
            WireMessage::Subscribe,
            WireMessage::Shutdown,
            WireMessage::ClientRequest { cmd: cmd.clone() },
            WireMessage::SnapshotRequest { from: NodeId(2) },
            WireMessage::StatsRequest,
            WireMessage::SnapshotChunk(SnapshotChunk {
                from: NodeId(1),
                applied_through: 640,
                seq: 2,
                total: 3,
                bytes: vec![1, 2, 3, 250, 0],
                suffix: vec![cmd],
                cursor: ExecutionCursor::Log {
                    next_execute: 640,
                    next_free: 650,
                    backlog: Vec::new(),
                },
            }),
        ];
        for msg in &messages {
            assert_eq!(&round_trip(msg), msg);
        }
    }

    #[test]
    fn retired_client_and_timer_tags_fail_to_decode() {
        // Tag 2 (fire-and-forget submission) and tag 4 (timer) are gone: a
        // peer that sends either poisons its own connection.
        for tag in [2_u8, 4] {
            let mut payload = Vec::new();
            serde::write_variant_tag(&mut payload, u32::from(tag));
            serde::Serialize::serialize(&7_u64, &mut payload);
            let mut framed = Vec::new();
            write_frame(&mut framed, &payload).expect("frame writes");
            assert!(recv_msg::<_, WireMessage<u64>>(&mut framed.as_slice()).is_err());
        }
    }

    #[test]
    fn client_request_frames_are_protocol_agnostic() {
        // A client that does not know the protocol message type serializes a
        // `WireMessage::<()>::ClientRequest`; the replica decodes it with its
        // real message type. The bytes must be identical.
        let cmd = Command::put(CommandId::new(NodeId(0), 3), 7, 11);
        let mut client_bytes = Vec::new();
        send_msg(&mut client_bytes, &WireMessage::<()>::ClientRequest { cmd: cmd.clone() })
            .expect("frame writes");
        let decoded: WireMessage<CaesarMessage> =
            recv_msg(&mut client_bytes.as_slice()).expect("frame reads");
        match decoded {
            WireMessage::ClientRequest { cmd: got } => assert_eq!(got, cmd),
            other => panic!("variant changed in flight: {other:?}"),
        }
    }

    #[test]
    fn client_reply_and_abort_events_round_trip() {
        let decision = Decision {
            command: CommandId::new(NodeId(1), 5),
            timestamp: Timestamp::new(9, NodeId(1)),
            path: consensus_types::DecisionPath::Fast,
            proposed_at: 3,
            executed_at: 40,
            breakdown: Default::default(),
        };
        let reply = Event::ClientReply {
            from: NodeId(1),
            command: CommandId::new(NodeId(1), 5),
            output: Some(17),
            decision,
        };
        assert_eq!(round_trip(&reply), reply);
        let abort = Event::ClientAbort {
            from: NodeId(2),
            command: CommandId::new(NodeId(2), 9),
            reason: "replica shut down".to_string(),
        };
        assert_eq!(round_trip(&abort), abort);
    }

    #[test]
    fn stats_reply_events_round_trip() {
        let registry = telemetry::Registry::new();
        registry.counter("decisions.fast").add(41);
        registry.histogram("latency_us").record(250);
        registry.record_span(telemetry::SpanEvent {
            command: CommandId::new(NodeId(1), 9),
            phase: telemetry::TracePhase::Commit,
            at: 1_234,
            node: NodeId(1),
        });
        let reply = Event::StatsReply {
            from: NodeId(1),
            snapshot: registry.snapshot(),
            spans: registry.spans(),
        };
        let back = round_trip(&reply);
        let Event::StatsReply { from, snapshot, spans } = back else {
            panic!("variant changed in flight");
        };
        assert_eq!(from, NodeId(1));
        assert_eq!(snapshot.counter("decisions.fast"), 41);
        assert_eq!(snapshot.histograms["latency_us"].count(), 1);
        assert_eq!(spans.events.len(), 1);
        assert_eq!(spans.events[0].phase, telemetry::TracePhase::Commit);
    }

    #[test]
    fn caesar_messages_survive_the_wire() {
        let cmd = Command::put(CommandId::new(NodeId(0), 1), 7, 1);
        let pred: BTreeSet<CommandId> =
            [CommandId::new(NodeId(1), 4), CommandId::new(NodeId(2), 9)].into();
        let original = WireMessage::Peer {
            from: NodeId(3),
            msg: CaesarMessage::FastPropose {
                ballot: Ballot::initial(NodeId(0)),
                cmd,
                time: Timestamp::new(12, NodeId(0)),
                whitelist: Some(pred),
            },
        };
        let back: WireMessage<CaesarMessage> = round_trip(&original);
        match (original, back) {
            (WireMessage::Peer { from: f1, msg: m1 }, WireMessage::Peer { from: f2, msg: m2 }) => {
                assert_eq!(f1, f2);
                assert_eq!(format!("{m1:?}"), format!("{m2:?}"));
            }
            other => panic!("variant changed in flight: {other:?}"),
        }
    }

    #[test]
    fn decision_events_round_trip() {
        let decision = Decision {
            command: CommandId::new(NodeId(0), 1),
            timestamp: Timestamp::new(3, NodeId(0)),
            path: consensus_types::DecisionPath::Fast,
            proposed_at: 10,
            executed_at: 90,
            breakdown: Default::default(),
        };
        let event = Event::Decisions { from: NodeId(2), batch: vec![decision] };
        assert_eq!(round_trip(&event), event);
    }

    /// A reader that yields its data in fixed-size slivers with a
    /// `WouldBlock` timeout between every read, mimicking a socket whose
    /// read timeout keeps firing mid-frame.
    struct TricklingReader {
        data: Vec<u8>,
        pos: usize,
        ready: bool,
    }

    impl std::io::Read for TricklingReader {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "not yet"));
            }
            self.ready = false;
            if self.pos >= self.data.len() {
                return Ok(0); // EOF
            }
            let n = out.len().min(3).min(self.data.len() - self.pos);
            out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frame_reader_survives_timeouts_mid_frame() {
        let mut data = Vec::new();
        let first = WireMessage::Peer { from: NodeId(1), msg: 7u64 };
        let second =
            WireMessage::ClientRequest { cmd: Command::put(CommandId::new(NodeId(0), 1), 3, 9) };
        send_msg(&mut data, &first).unwrap();
        send_msg(&mut data, &second).unwrap();

        let mut reader = TricklingReader { data, pos: 0, ready: false };
        let mut decoder = FrameReader::new();
        let mut messages: Vec<WireMessage<u64>> = Vec::new();
        let mut timeouts = 0;
        loop {
            match decoder.read_msg(&mut reader) {
                Ok(Some(msg)) => messages.push(msg),
                Ok(None) => timeouts += 1, // timeout fired; state must survive
                Err(err) if err.kind() == std::io::ErrorKind::UnexpectedEof => break,
                Err(err) => panic!("decoder lost sync: {err}"),
            }
            assert!(timeouts < 10_000, "decoder never completed");
        }
        assert_eq!(messages, vec![first, second]);
        assert!(timeouts > 0, "the trickling reader should have timed out");
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(read_frame(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn corrupted_payloads_fail_the_checksum() {
        let mut framed = Vec::new();
        send_msg(&mut framed, &WireMessage::<u64>::Peer { from: NodeId(1), msg: 7 }).unwrap();
        // Flip one payload bit; the length prefix still matches, so only the
        // checksum can catch it.
        let last = framed.len() - 1;
        framed[last] ^= 0x01;
        let err = read_frame(&mut framed.as_slice()).expect_err("corruption must be detected");
        assert!(is_checksum_error(&err), "unexpected error class: {err}");

        // The incremental decoder reports the same poisoned-stream error.
        let mut buffer = FrameBuffer::new();
        buffer.extend(&framed);
        let err = buffer.next_frame().expect_err("corruption must be detected");
        assert!(is_checksum_error(&err), "unexpected error class: {err}");
    }

    #[test]
    fn frame_buffer_decodes_across_arbitrary_chunk_boundaries() {
        let mut data = Vec::new();
        let messages: Vec<WireMessage<u64>> = vec![
            WireMessage::Hello { from: NodeId(3) },
            WireMessage::Peer { from: NodeId(1), msg: 42 },
            WireMessage::Subscribe,
        ];
        for msg in &messages {
            send_msg(&mut data, msg).unwrap();
        }
        // Feed the stream one byte at a time; every complete frame must pop
        // exactly once, in order.
        let mut buffer = FrameBuffer::new();
        let mut decoded: Vec<WireMessage<u64>> = Vec::new();
        for byte in &data {
            buffer.extend(std::slice::from_ref(byte));
            while let Some(msg) = buffer.next_msg().expect("stream stays in sync") {
                decoded.push(msg);
            }
        }
        assert_eq!(decoded, messages);
        assert_eq!(buffer.pending(), 0);
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let mut framed = Vec::new();
        send_msg(&mut framed, &WireMessage::<u64>::Subscribe).unwrap();
        framed.truncate(framed.len().saturating_sub(1));
        // Either the length prefix or the payload is short — both are errors.
        assert!(recv_msg::<_, WireMessage<u64>>(&mut framed.as_slice()).is_err());
    }
}
