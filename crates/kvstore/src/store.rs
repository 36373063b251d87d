//! The deterministic key-value state machine: the reference
//! [`StateMachine`] implementation.

use std::collections::HashMap;

use consensus_core::state_machine::{RestoreError, StateMachine};
use consensus_types::{Command, Operation};
use serde::{Deserialize, Serialize};

/// A deterministic, fully replicated key-value store.
///
/// Replicas apply decided commands in their execution order; two replicas
/// that applied compatible command sequences end up with identical stores,
/// which is what the integration tests assert. This is the reference
/// implementation of [`consensus_core::StateMachine`] — the one every
/// runtime constructs unless a custom factory is plugged in.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvStore {
    data: HashMap<u64, u64>,
    /// Number of write commands applied, used as a cheap state-machine
    /// fingerprint alongside the data itself.
    applied_writes: u64,
    /// Total number of commands applied (the snapshot watermark).
    applied: u64,
}

impl KvStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The default [`consensus_core::state_machine::StateMachineFactory`]
    /// every runtime config starts with: one fresh `KvStore` per replica.
    /// Defined once here so the runtimes cannot drift onto different
    /// defaults.
    #[must_use]
    pub fn factory() -> consensus_core::state_machine::StateMachineFactory {
        std::sync::Arc::new(|_| Box::new(KvStore::new()))
    }

    /// Applies a decided command. Returns the value read for `Get`
    /// operations, the previous value for `Put` operations, and `None` for
    /// no-ops or reads of missing keys.
    pub fn apply(&mut self, cmd: &Command) -> Option<u64> {
        self.applied += 1;
        match (cmd.operation(), cmd.key()) {
            (Operation::Put, Some(key)) => {
                self.applied_writes += 1;
                self.data.insert(key, cmd.value())
            }
            (Operation::Get, Some(key)) => self.data.get(&key).copied(),
            _ => None,
        }
    }

    /// Reads the current value of `key`.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<u64> {
        self.data.get(&key).copied()
    }

    /// Number of distinct keys stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the store holds no keys.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of write commands applied so far.
    #[must_use]
    pub fn applied_writes(&self) -> u64 {
        self.applied_writes
    }

    /// Total number of commands applied so far (writes, reads and no-ops).
    #[must_use]
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// A deterministic fingerprint of the store contents, independent of
    /// insertion order. Two replicas with equal fingerprints hold the same
    /// data.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        // Order-independent combination: XOR of per-entry mixes.
        let mut acc = 0u64;
        for (&k, &v) in &self.data {
            acc ^= mix(k, v);
        }
        acc
    }
}

impl StateMachine for KvStore {
    fn apply(&mut self, cmd: &Command) -> Option<u64> {
        KvStore::apply(self, cmd)
    }

    fn snapshot(&self) -> Vec<u8> {
        bincode::serialize(self).expect("kv store serializes")
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), RestoreError> {
        *self = bincode::deserialize(snapshot).map_err(RestoreError::new)?;
        Ok(())
    }

    fn applied_through(&self) -> u64 {
        self.applied
    }

    fn fingerprint(&self) -> u64 {
        KvStore::fingerprint(self)
    }

    fn kind(&self) -> &'static str {
        "kv-store"
    }
}

/// Applies a sequence of commands to a fresh store and returns it.
#[must_use]
pub fn apply_all<'a>(commands: impl IntoIterator<Item = &'a Command>) -> KvStore {
    let mut store = KvStore::new();
    for cmd in commands {
        store.apply(cmd);
    }
    store
}

fn mix(k: u64, v: u64) -> u64 {
    // splitmix64-style mixing of the (key, value) pair.
    let mut x = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ v.wrapping_add(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use consensus_types::{CommandId, NodeId};

    fn put(seq: u64, key: u64, value: u64) -> Command {
        Command::put(CommandId::new(NodeId(0), seq), key, value)
    }

    #[test]
    fn put_stores_and_returns_previous_value() {
        let mut s = KvStore::new();
        assert_eq!(s.apply(&put(1, 7, 10)), None);
        assert_eq!(s.apply(&put(2, 7, 20)), Some(10));
        assert_eq!(s.get(7), Some(20));
        assert_eq!(s.applied_writes(), 2);
    }

    #[test]
    fn get_reads_without_modifying() {
        let mut s = KvStore::new();
        s.apply(&put(1, 7, 10));
        let get =
            Command::new(CommandId::new(NodeId(1), 1), consensus_types::Operation::Get, Some(7), 0);
        assert_eq!(s.apply(&get), Some(10));
        assert_eq!(s.applied_writes(), 1);
    }

    #[test]
    fn noop_changes_nothing() {
        let mut s = KvStore::new();
        let noop = Command::noop(CommandId::new(NodeId(0), 1));
        assert_eq!(s.apply(&noop), None);
        assert!(s.is_empty());
    }

    #[test]
    fn fingerprint_is_order_independent_for_commuting_writes() {
        let a = put(1, 1, 10);
        let b = put(2, 2, 20);
        let s1 = apply_all([&a, &b]);
        let s2 = apply_all([&b, &a]);
        assert_eq!(s1.fingerprint(), s2.fingerprint());
        assert_eq!(s1, s2);
    }

    #[test]
    fn fingerprint_differs_when_conflicting_writes_are_reordered() {
        let a = put(1, 7, 10);
        let b = put(2, 7, 20);
        let s1 = apply_all([&a, &b]);
        let s2 = apply_all([&b, &a]);
        assert_ne!(s1.fingerprint(), s2.fingerprint());
    }

    #[test]
    fn len_counts_distinct_keys() {
        let s = apply_all([&put(1, 1, 1), &put(2, 2, 2), &put(3, 1, 3)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn snapshot_restore_round_trips_data_and_watermark() {
        let mut original = apply_all([&put(1, 1, 10), &put(2, 2, 20)]);
        let get =
            Command::new(CommandId::new(NodeId(1), 1), consensus_types::Operation::Get, Some(1), 0);
        original.apply(&get);
        assert_eq!(StateMachine::applied_through(&original), 3);

        let snapshot = StateMachine::snapshot(&original);
        let mut restored = KvStore::new();
        StateMachine::restore(&mut restored, &snapshot).expect("snapshot restores");
        assert_eq!(restored, original);
        assert_eq!(StateMachine::fingerprint(&restored), StateMachine::fingerprint(&original));
        assert_eq!(StateMachine::applied_through(&restored), 3);
        // A restored store keeps applying where the original left off.
        assert_eq!(restored.apply(&put(3, 1, 30)), Some(10));
        assert_eq!(restored.applied(), 4);
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut store = KvStore::new();
        assert!(StateMachine::restore(&mut store, &[0xAB; 2]).is_err());
    }
}
