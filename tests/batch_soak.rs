//! Batched throughput soak: 4096 virtual clients against one TCP replica.
//!
//! Eight submitter threads share replica p0 through cloned session
//! [`ClientHandle`]s, each keeping up to 128 commands in flight, for a
//! total of 4096 commands racing through the proposer batcher. The test
//! pins the end-to-end contract the batching layer must keep under
//! pressure: every individual ticket gets its own reply (fan-out from
//! batched decisions), every replica applies every inner command exactly
//! once, all replicas converge on one fingerprint, and the batcher
//! demonstrably coalesced (`batch.assembled` moved).
//!
//! Ignored by default — this is the bounded CI soak (`--ignored`), not a
//! unit test.

use std::time::{Duration, Instant};

use caesar::{CaesarConfig, CaesarReplica};
use consensus_core::session::{ClusterHandle, Op};
use consensus_types::NodeId;
use net::{NetCluster, NetConfig};

const NODES: usize = 3;
const THREADS: u64 = 8;
const PER_THREAD: u64 = 512;
/// Tickets a submitter holds before draining — 8 × 128 = 1024 commands in
/// flight cluster-wide, well under the 4096 session bound.
const WINDOW: u64 = 128;

#[test]
#[ignore = "bounded CI soak; run with `cargo test --release -- --ignored`"]
fn four_thousand_virtual_clients_batch_through_one_replica() {
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let config = NetConfig::new(NODES).with_batch(64);
    let cluster = NetCluster::start(config, move |id| CaesarReplica::new(id, caesar.clone()))
        .expect("cluster starts");

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let client = cluster.client(NodeId(0));
            scope.spawn(move || {
                // Disjoint key ranges per thread keep the final database
                // deterministic no matter how commands were batched.
                let base = 10_000 * (t + 1);
                let mut sent = 0u64;
                while sent < PER_THREAD {
                    let window = WINDOW.min(PER_THREAD - sent);
                    let tickets: Vec<_> = (0..window)
                        .map(|i| {
                            client.submit(Op::put(base + sent + i, sent + i)).unwrap_or_else(
                                |err| panic!("thread {t}: submit {} failed: {err}", sent + i),
                            )
                        })
                        .collect();
                    for (i, ticket) in tickets.into_iter().enumerate() {
                        ticket.wait_timeout(Duration::from_secs(60)).unwrap_or_else(|err| {
                            panic!("thread {t}: reply {} failed: {err}", sent + i as u64)
                        });
                    }
                    sent += window;
                }
            });
        }
    });

    // Every replica applies all 4096 inner commands ...
    let total = THREADS * PER_THREAD;
    let deadline = Instant::now() + Duration::from_secs(60);
    for node in NodeId::all(NODES) {
        while cluster.applied_through(node) < total {
            assert!(
                Instant::now() < deadline,
                "{node} stuck at {} of {total} applied",
                cluster.applied_through(node)
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // ... and converges on one state, batched or not.
    let reference = cluster.state_fingerprint(NodeId(0));
    for node in NodeId::all(NODES) {
        assert_eq!(cluster.state_fingerprint(node), reference, "{node} diverged");
    }
    // With 1024 commands in flight against one mailbox, coalescing is
    // certain: the proposer must have assembled multi-command batches.
    let snapshot = cluster.replica_registry(NodeId(0)).snapshot();
    let assembled = snapshot.counter("batch.assembled");
    let batched = snapshot.counter("batch.commands");
    assert!(assembled > 0, "no batches assembled under 1024-deep concurrency");
    assert!(
        batched > assembled,
        "batches must hold >1 command on average (assembled {assembled}, commands {batched})"
    );
    cluster.shutdown();
}
