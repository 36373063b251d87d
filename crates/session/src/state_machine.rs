//! The pluggable application surface of the consensus stack.
//!
//! The protocols decide an *order* of commands; what that order drives is a
//! [`StateMachine`]. Every runtime (simulator, threads, TCP) owns one boxed
//! state machine per replica and applies decided commands to it in execution
//! order — the output of each apply is what flows back to the submitting
//! client inside a [`crate::session::Reply`].
//!
//! The trait is deliberately narrow and snapshot-centred:
//!
//! * [`StateMachine::apply`] — deterministic transition, one decided command
//!   at a time, in execution order;
//! * [`StateMachine::snapshot`] / [`StateMachine::restore`] — the whole
//!   state as opaque bytes, which is what makes crash recovery a *transfer*
//!   instead of a replay-from-genesis: a restarted replica installs a live
//!   peer's snapshot and only replays the decided suffix (see the `net`
//!   runtime's `SnapshotRequest`/`SnapshotChunk` frames);
//! * [`StateMachine::applied_through`] — the watermark of commands applied
//!   so far, carried alongside snapshots so a receiver knows where the
//!   suffix starts;
//! * [`StateMachine::fingerprint`] — a digest for cross-replica comparison
//!   (snapshot *bytes* may legitimately differ between replicas that hold
//!   identical state, e.g. hash-map iteration order).
//!
//! The `kvstore` crate's `KvStore` is the reference implementation (the
//! paper's benchmark state machine); [`EventLog`] here is a second, wholly
//! different one — an append-only command log — that the cross-runtime tests
//! drive through every `ClusterHandle` to prove the runtimes are generic
//! over the application.

use std::fmt;
use std::sync::Arc;

use consensus_types::{Command, NodeId};

/// Why a [`StateMachine::restore`] rejected a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreError {
    /// Human-readable reason (decode failure, version mismatch, …).
    pub reason: String,
}

impl RestoreError {
    /// Creates an error from any displayable reason.
    #[must_use]
    pub fn new(reason: impl fmt::Display) -> Self {
        Self { reason: reason.to_string() }
    }
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot restore failed: {}", self.reason)
    }
}

impl std::error::Error for RestoreError {}

/// A deterministic replicated state machine driven by decided commands.
///
/// Implementations must be deterministic: two instances that apply the same
/// command sequence hold identical state (equal [`fingerprint`] and
/// [`applied_through`] values), and `restore(snapshot())` must reproduce the
/// instance exactly. Runtimes hold implementations as `Box<dyn StateMachine>`
/// — one per replica — and never inspect the state beyond this trait.
///
/// [`fingerprint`]: StateMachine::fingerprint
/// [`applied_through`]: StateMachine::applied_through
pub trait StateMachine: Send {
    /// Applies one decided command, in execution order. The returned value
    /// is the command's client-visible output (routed into the
    /// [`crate::session::Reply`] at the submitting replica).
    fn apply(&mut self, cmd: &Command) -> Option<u64>;

    /// Serializes the complete state — including the
    /// [`StateMachine::applied_through`] watermark — as opaque bytes.
    fn snapshot(&self) -> Vec<u8>;

    /// Replaces the entire state from bytes produced by
    /// [`StateMachine::snapshot`] on another instance of the same
    /// implementation.
    fn restore(&mut self, snapshot: &[u8]) -> Result<(), RestoreError>;

    /// Number of commands applied so far (the snapshot watermark).
    fn applied_through(&self) -> u64;

    /// A digest of the current state for cross-replica comparison. Two
    /// instances holding equal state must report equal fingerprints even if
    /// their snapshot bytes differ (e.g. hash-map iteration order).
    fn fingerprint(&self) -> u64;

    /// A short human-readable name for logs and tables.
    fn kind(&self) -> &'static str {
        "state-machine"
    }
}

/// How a runtime builds the state machine of each replica. Cheap to clone;
/// runtimes default to the `kvstore` reference implementation.
pub type StateMachineFactory = Arc<dyn Fn(NodeId) -> Box<dyn StateMachine> + Send + Sync>;

/// An append-only event log: the second [`StateMachine`] implementation.
///
/// Where `KvStore` interprets commands (reads observe writes), `EventLog`
/// merely *records* them: every applied command is appended verbatim and the
/// output is its 1-based log position. That makes replies observable and
/// strictly ordered — position `n` answers the `n`-th command the replica
/// executed — so the cross-runtime tests can assert that all three runtimes
/// drive an arbitrary state machine identically, not just the key-value
/// store they used to hard-code.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EventLog {
    entries: Vec<Command>,
}

impl EventLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded commands, in execution order.
    #[must_use]
    pub fn entries(&self) -> &[Command] {
        &self.entries
    }
}

impl StateMachine for EventLog {
    fn apply(&mut self, cmd: &Command) -> Option<u64> {
        self.entries.push(cmd.clone());
        Some(self.entries.len() as u64)
    }

    fn snapshot(&self) -> Vec<u8> {
        bincode::serialize(self).expect("event log serializes")
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), RestoreError> {
        *self = bincode::deserialize(snapshot).map_err(RestoreError::new)?;
        Ok(())
    }

    fn applied_through(&self) -> u64 {
        self.entries.len() as u64
    }

    fn fingerprint(&self) -> u64 {
        // Order-dependent chain: a log's identity *is* its order.
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for cmd in &self.entries {
            for word in [
                u64::from(cmd.id().origin().0),
                cmd.id().sequence(),
                cmd.key().map_or(u64::MAX, |k| k),
                cmd.value(),
            ] {
                acc ^= word;
                acc = acc.wrapping_mul(0x1000_0000_01b3);
            }
        }
        acc
    }

    fn kind(&self) -> &'static str {
        "event-log"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_types::CommandId;

    fn put(seq: u64, key: u64, value: u64) -> Command {
        Command::put(CommandId::new(NodeId(0), seq), key, value)
    }

    #[test]
    fn event_log_outputs_are_log_positions() {
        let mut log = EventLog::new();
        assert_eq!(log.apply(&put(1, 7, 10)), Some(1));
        assert_eq!(log.apply(&put(2, 9, 20)), Some(2));
        assert_eq!(log.applied_through(), 2);
        assert_eq!(log.entries().len(), 2);
    }

    #[test]
    fn event_log_snapshot_restore_round_trips() {
        let mut log = EventLog::new();
        for i in 1..=5 {
            log.apply(&put(i, i, i * 10));
        }
        let snapshot = log.snapshot();
        let mut restored = EventLog::new();
        restored.restore(&snapshot).expect("snapshot restores");
        assert_eq!(restored, log);
        assert_eq!(restored.fingerprint(), log.fingerprint());
        assert_eq!(restored.applied_through(), 5);
        // Applies continue seamlessly after a restore.
        assert_eq!(restored.apply(&put(6, 1, 1)), Some(6));
    }

    #[test]
    fn event_log_fingerprint_is_order_dependent() {
        let a = put(1, 1, 10);
        let b = put(2, 2, 20);
        let mut one = EventLog::new();
        one.apply(&a);
        one.apply(&b);
        let mut two = EventLog::new();
        two.apply(&b);
        two.apply(&a);
        assert_ne!(one.fingerprint(), two.fingerprint());
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut log = EventLog::new();
        assert!(log.restore(&[0xFF; 3]).is_err());
    }

    #[test]
    fn factories_build_independent_machines() {
        let factory: StateMachineFactory = Arc::new(|_| Box::new(EventLog::new()));
        let mut a = factory(NodeId(0));
        let b = factory(NodeId(1));
        a.apply(&put(1, 1, 1));
        assert_eq!(a.applied_through(), 1);
        assert_eq!(b.applied_through(), 0);
        assert_eq!(a.kind(), "event-log");
    }
}
