//! Plugging a **custom state machine** into a running cluster.
//!
//! The consensus layer decides an order of commands; what that order drives
//! is any implementation of `consensus_core::StateMachine`. This example
//! defines one from scratch — a per-key accumulator that sums every written
//! value instead of overwriting — and runs it through the TCP runtime's
//! session API, then does the same with the built-in `EventLog`:
//!
//! ```text
//! cargo run --release --example custom_state_machine
//! ```
//!
//! The same factory plugs into the simulator
//! (`SimConfig::with_state_machine`)
//! and into a served cluster (`tcp_cluster -- serve 30 log`); snapshot
//! catch-up for restarted replicas works for any implementation because it
//! only uses the trait's `snapshot`/`restore`/`applied_through` surface.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use caesar::{CaesarConfig, CaesarReplica};
use consensus_core::session::{ClusterHandle, Op};
use consensus_core::state_machine::{EventLog, RestoreError, StateMachine};
use consensus_types::{Command, NodeId, Operation};
use net::{NetCluster, NetConfig};

/// A state machine the repo does not ship: every `Put` **adds** its value
/// to the key's running total (think metering counters), and the output is
/// the new total. Deterministic, snapshot-able, and entirely unlike the
/// reference `KvStore`.
#[derive(Debug, Default)]
struct Accumulator {
    totals: BTreeMap<u64, u64>,
    applied: u64,
}

impl StateMachine for Accumulator {
    fn apply(&mut self, cmd: &Command) -> Option<u64> {
        self.applied += 1;
        match (cmd.operation(), cmd.key()) {
            (Operation::Put, Some(key)) => {
                let total = self.totals.entry(key).or_insert(0);
                *total += cmd.value();
                Some(*total)
            }
            (Operation::Get, Some(key)) => self.totals.get(&key).copied(),
            _ => None,
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        // Hand-rolled encoding: applied watermark, entry count, then
        // (key, total) pairs — a BTreeMap iterates deterministically.
        let mut out = Vec::with_capacity(16 + self.totals.len() * 16);
        out.extend_from_slice(&self.applied.to_le_bytes());
        out.extend_from_slice(&(self.totals.len() as u64).to_le_bytes());
        for (&key, &total) in &self.totals {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&total.to_le_bytes());
        }
        out
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), RestoreError> {
        let word = |i: usize| -> Result<u64, RestoreError> {
            snapshot
                .get(i * 8..i * 8 + 8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                .ok_or_else(|| RestoreError::new("snapshot truncated"))
        };
        let applied = word(0)?;
        let entries = word(1)? as usize;
        let mut totals = BTreeMap::new();
        for entry in 0..entries {
            totals.insert(word(2 + entry * 2)?, word(3 + entry * 2)?);
        }
        self.applied = applied;
        self.totals = totals;
        Ok(())
    }

    fn applied_through(&self) -> u64 {
        self.applied
    }

    fn fingerprint(&self) -> u64 {
        let mut acc = 0u64;
        for (&key, &total) in &self.totals {
            acc ^= key.rotate_left(17).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ total;
        }
        acc
    }

    fn kind(&self) -> &'static str {
        "accumulator"
    }
}

fn main() {
    let caesar = CaesarConfig::new(3).with_recovery_timeout(None);

    // --- the custom accumulator over real TCP -------------------------
    let cluster = NetCluster::start(
        NetConfig::new(3).with_state_machine(Arc::new(|_| Box::new(Accumulator::default()))),
        {
            let caesar = caesar.clone();
            move |id| CaesarReplica::new(id, caesar.clone())
        },
    )
    .expect("cluster starts");
    let client = cluster.client(NodeId(0));
    println!("accumulator state machine (output = running total per key):");
    for add in [10u64, 25, 7] {
        let reply = client
            .submit(Op::put(42, add))
            .expect("submits")
            .wait_timeout(Duration::from_secs(20))
            .expect("replies");
        println!("  put(42, +{add})  -> total {:?}", reply.output);
    }
    let read = client
        .submit(Op::get(42))
        .expect("submits")
        .wait_timeout(Duration::from_secs(20))
        .expect("replies");
    assert_eq!(read.output, Some(42), "10 + 25 + 7 accumulated");
    println!("  get(42)       -> {:?}", read.output);
    println!(
        "  replica p0: applied_through={} fingerprint={:#018x}",
        cluster.applied_through(NodeId(0)),
        cluster.state_fingerprint(NodeId(0)),
    );
    cluster.shutdown();

    // --- the built-in EventLog, same cluster API ----------------------
    let cluster = NetCluster::start(
        NetConfig::new(3).with_state_machine(Arc::new(|_| Box::new(EventLog::new()))),
        move |id| CaesarReplica::new(id, caesar.clone()),
    )
    .expect("cluster starts");
    let client = cluster.client(NodeId(1));
    println!("event-log state machine (output = 1-based log position):");
    for i in 1..=3u64 {
        let reply = client
            .submit(Op::put(7, i))
            .expect("submits")
            .wait_timeout(Duration::from_secs(20))
            .expect("replies");
        println!("  put(7, {i})     -> position {:?}", reply.output);
        assert_eq!(reply.output, Some(i));
    }
    cluster.shutdown();
    println!("both state machines served the identical consensus layer — pluggability works");
}
