//! Batched execution convergence, for **every** protocol: a five-replica
//! thread cluster driven with a conflict-heavy batched workload over a
//! six-key keyspace. Consensus fixes one total order per conflict class,
//! so every replica must land on the identical state-machine fingerprint
//! and the identical applied watermark.
//!
//! The workload is deliberately hostile to execution: commands are
//! submitted in concurrent waves (so the proposer batcher coalesces
//! multi-command units), and with only six live keys most co-batched
//! commands conflict and must apply in unit order. A mistake in intra-unit
//! ordering, batch unpacking or watermark accounting shows up as a
//! fingerprint split between replicas.

use std::time::{Duration, Instant};

use caesar::{CaesarConfig, CaesarReplica};
use cluster::{Cluster, ClusterConfig};
use consensus_core::session::{ClusterHandle, Op};
use consensus_types::NodeId;
use epaxos::{EpaxosConfig, EpaxosReplica};
use m2paxos::{M2PaxosConfig, M2PaxosReplica};
use mencius::{MenciusConfig, MenciusReplica};
use multipaxos::{MultiPaxosConfig, MultiPaxosReplica};
use simnet::{LatencyMatrix, Process};

const NODES: usize = 5;
/// All submissions go to p0 — the Multi-Paxos leader, and a valid proposer
/// for every other protocol.
const AT: NodeId = NodeId(0);
/// Concurrent waves × commands per wave; every command keyed into a
/// six-key space so conflicts are the rule, not the exception.
const WAVES: u64 = 6;
const WAVE_WIDTH: u64 = 16;
const KEYS: u64 = 6;

fn run_batched_matrix<P, F>(label: &str, make: F)
where
    P: Process + Send + 'static,
    P::Message: Send + 'static,
    F: FnMut(NodeId) -> P,
{
    let config =
        ClusterConfig::new(LatencyMatrix::ec2_five_sites()).with_latency_scale(0.005).with_batch(8);
    let cluster = Cluster::start(config, make);

    // Concurrent conflicting waves: every ticket of a wave is in flight
    // before the first is awaited, so the batcher can coalesce, and the
    // narrow keyspace makes most co-batched commands conflict.
    let client = cluster.client(AT);
    for wave in 0..WAVES {
        let tickets: Vec<_> = (0..WAVE_WIDTH)
            .map(|j| {
                let i = wave * WAVE_WIDTH + j;
                client
                    .submit(Op::put(50 + i % KEYS, i))
                    .unwrap_or_else(|err| panic!("[{label}] submit {i} failed: {err}"))
            })
            .collect();
        for (j, ticket) in tickets.into_iter().enumerate() {
            ticket
                .wait_timeout(Duration::from_secs(30))
                .unwrap_or_else(|err| panic!("[{label}] wave {wave} reply {j} failed: {err}"));
        }
    }

    // Every replica applies the whole workload ...
    let total = WAVES * WAVE_WIDTH;
    let deadline = Instant::now() + Duration::from_secs(30);
    for node in NodeId::all(NODES) {
        while cluster.applied_through(node) < total {
            assert!(
                Instant::now() < deadline,
                "[{label}] {node} stuck at {} of {total} applied",
                cluster.applied_through(node)
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // ... and every replica agrees on the resulting state.
    let reference = cluster.state_fingerprint(AT);
    for node in NodeId::all(NODES) {
        assert_eq!(cluster.state_fingerprint(node), reference, "[{label}] {node} diverged from p0");
    }
    cluster.shutdown();
}

#[test]
fn caesar_batched_execution_converges() {
    let config = CaesarConfig::new(NODES).with_recovery_timeout(None);
    run_batched_matrix("caesar", move |id| CaesarReplica::new(id, config.clone()));
}

#[test]
fn epaxos_batched_execution_converges() {
    let config = EpaxosConfig::new(NODES).with_recovery_timeout(None);
    run_batched_matrix("epaxos", move |id| EpaxosReplica::new(id, config.clone()));
}

#[test]
fn multipaxos_batched_execution_converges() {
    let config = MultiPaxosConfig::new(NODES, AT);
    run_batched_matrix("multipaxos", move |id| MultiPaxosReplica::new(id, config.clone()));
}

#[test]
fn mencius_batched_execution_converges() {
    let config = MenciusConfig::new(NODES);
    run_batched_matrix("mencius", move |id| MenciusReplica::new(id, config.clone()));
}

#[test]
fn m2paxos_batched_execution_converges() {
    let config = M2PaxosConfig::new(NODES);
    run_batched_matrix("m2paxos", move |id| M2PaxosReplica::new(id, config.clone()));
}
