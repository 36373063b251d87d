//! Proposer batching — the throughput experiment.
//!
//! A 3-node loopback `net` cluster serves 64, 512 and 4096 *virtual
//! clients* (concurrent in-flight commands through cloned session
//! handles), once with the proposer batcher disabled (the seed behaviour:
//! one consensus instance per command) and once with batching enabled
//! (`max_batch = 64`). Per protocol and point we record ops/s and
//! client-observed avg/p99 latency.
//!
//! The headline the numbers must show: with batching, throughput *rises*
//! with concurrency (more co-queued commands → bigger batches → fewer
//! quorum round-trips per command), instead of flattening at the
//! per-instance consensus rate.
//!
//! A second section measures **group commit**: the 512-client run with a
//! write-ahead log under `FsyncPolicy::PerBatch`, batching off vs. on.
//! Batching coalesces co-queued commands into one WAL append + fsync, so
//! the recorded `fsyncs / command` ratio collapses — durability at a
//! fraction of the per-command fsync price.
//!
//! Writes `BENCH_batching.json` at the workspace root.

use std::time::{Duration, Instant};

use bench::print_table;
use caesar::{CaesarConfig, CaesarReplica};
use consensus_core::session::{ClusterHandle, Op, Ticket};
use consensus_types::NodeId;
use criterion::{criterion_group, criterion_main, Criterion};
use epaxos::{EpaxosConfig, EpaxosReplica};
use harness::Table;
use m2paxos::{M2PaxosConfig, M2PaxosReplica};
use mencius::{MenciusConfig, MenciusReplica};
use multipaxos::{MultiPaxosConfig, MultiPaxosReplica};
use net::{FsyncPolicy, NetCluster, NetConfig};
use simnet::Process;
use wal::TempDir;

const NODES: usize = 3;
/// All submissions go to p0 — the Multi-Paxos leader, a valid proposer
/// everywhere else.
const AT: NodeId = NodeId(0);
const MAX_BATCH: usize = 64;
const CLIENT_POINTS: [usize; 3] = [64, 512, 4096];

#[derive(Clone)]
struct Point {
    protocol: &'static str,
    clients: usize,
    batching: bool,
    ops: usize,
    throughput: f64,
    avg_ms: f64,
    p99_ms: f64,
}

struct GroupCommitPoint {
    batching: bool,
    throughput: f64,
    p99_ms: f64,
    fsyncs: u64,
    commands: u64,
}

/// Ops per point, scaled so the 4096-client rounds still submit full
/// windows.
fn total_ops(clients: usize) -> usize {
    (2 * clients).max(1_024)
}

/// Batch cap per load point: an eighth of the offered concurrency,
/// floored at `MAX_BATCH`. A proposer sized for 64-deep queues starves at
/// 4096 virtual clients — the cap must scale with the load it is asked to
/// absorb, exactly like a production group-commit window.
fn batch_for(clients: usize) -> usize {
    (clients / 8).max(MAX_BATCH)
}

/// Drives `total_ops(clients)` distinct-key writes with `clients` commands
/// in flight at once (closed loop per slot: a reply immediately funds the
/// next submit), and returns ops/s plus client-observed latency.
fn drive<P>(cluster: &NetCluster<P>, clients: usize) -> (usize, f64, f64, f64)
where
    P: Process + Send + 'static,
    P::Message: serde::Serialize + serde::Deserialize + Send + 'static,
{
    let client = cluster.client(AT);
    let total = total_ops(clients);
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(total);
    let mut pending: Vec<(Instant, Ticket)> = Vec::with_capacity(clients);
    let mut submitted = 0usize;
    let started = Instant::now();
    let deadline = started + Duration::from_secs(180);
    while latencies_ms.len() < total {
        while submitted < total && pending.len() < clients {
            let key = 10_000 + submitted as u64;
            pending.push((
                Instant::now(),
                client.submit(Op::put(key, submitted as u64)).expect("submits"),
            ));
            submitted += 1;
        }
        pending.retain(|(at, ticket)| match ticket.try_wait() {
            Some(result) => {
                result.expect("reply");
                latencies_ms.push(at.elapsed().as_secs_f64() * 1_000.0);
                false
            }
            None => true,
        });
        assert!(Instant::now() < deadline, "replies stalled at {}", latencies_ms.len());
        if !pending.is_empty() && latencies_ms.len() < total {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    let wall = started.elapsed();
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let ops = latencies_ms.len();
    let avg = latencies_ms.iter().sum::<f64>() / ops.max(1) as f64;
    let p99 = latencies_ms
        .get(((ops as f64 * 0.99) as usize).min(ops.saturating_sub(1)))
        .copied()
        .unwrap_or_default();
    (ops, ops as f64 / wall.as_secs_f64(), avg, p99)
}

fn measure<P, F>(protocol: &'static str, make: F, clients: usize, batching: bool) -> Point
where
    P: Process + Send + 'static,
    P::Message: serde::Serialize + serde::Deserialize + Send + 'static,
    F: FnMut(NodeId) -> P,
{
    let mut config = NetConfig::new(NODES).with_max_in_flight(2 * clients.max(64));
    if batching {
        config = config.with_batch(batch_for(clients));
    }
    let cluster = NetCluster::start(config, make).expect("cluster starts");
    let (ops, throughput, avg_ms, p99_ms) = drive(&cluster, clients);
    cluster.shutdown();
    Point { protocol, clients, batching, ops, throughput, avg_ms, p99_ms }
}

/// The 512-client CAESAR run with a per-batch-fsync'd WAL: how many fsyncs
/// durability cost per command, batching off vs. on.
fn measure_group_commit(batching: bool) -> GroupCommitPoint {
    let caesar = CaesarConfig::new(NODES).with_recovery_timeout(None);
    let tmp = TempDir::new("bench-batching-wal").expect("tempdir");
    let mut config = NetConfig::new(NODES)
        .with_max_in_flight(2 * 512)
        .with_data_dir(tmp.path())
        .with_fsync(FsyncPolicy::PerBatch);
    if batching {
        config = config.with_batch(MAX_BATCH);
    }
    let cluster = NetCluster::start(config, move |id| CaesarReplica::new(id, caesar.clone()))
        .expect("cluster starts");
    let (ops, throughput, _avg, p99_ms) = drive(&cluster, 512);
    let fsyncs = cluster.replica_registry(AT).snapshot().counter("wal.fsyncs");
    cluster.shutdown();
    GroupCommitPoint { batching, throughput, p99_ms, fsyncs, commands: ops as u64 }
}

fn write_json(points: &[Point], group_commit: &[GroupCommitPoint]) {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"protocol\": \"{}\", \"clients\": {}, \"batching\": {}, \"ops\": {}, \
                 \"throughput_ops_per_s\": {:.1}, \"avg_ms\": {:.3}, \"p99_ms\": {:.3}}}",
                p.protocol, p.clients, p.batching, p.ops, p.throughput, p.avg_ms, p.p99_ms
            )
        })
        .collect();
    let gc_rows: Vec<String> = group_commit
        .iter()
        .map(|g| {
            format!(
                "    {{\"policy\": \"per-batch\", \"clients\": 512, \"batching\": {}, \
                 \"throughput_ops_per_s\": {:.1}, \"p99_ms\": {:.3}, \"fsyncs\": {}, \
                 \"commands\": {}, \"fsyncs_per_command\": {:.4}}}",
                g.batching,
                g.throughput,
                g.p99_ms,
                g.fsyncs,
                g.commands,
                g.fsyncs as f64 / g.commands.max(1) as f64
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"batching\",\n  \"runtime\": \"net (epoll reactor)\",\n  \
         \"nodes\": {NODES},\n  \"max_batch_policy\": \"max({MAX_BATCH}, clients/8)\",\n  \
         \"results\": [\n{}\n  ],\n  \"fsync_group_commit\": [\n{}\n  ]\n}}\n",
        rows.join(",\n"),
        gc_rows.join(",\n")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_batching.json");
    if let Err(err) = std::fs::write(&path, json) {
        eprintln!("could not write {}: {err}", path.display());
    } else {
        println!("recorded {}", path.display());
    }
}

fn protocol_points<P, F>(protocol: &'static str, mut make: F) -> Vec<Point>
where
    P: Process + Send + 'static,
    P::Message: serde::Serialize + serde::Deserialize + Send + 'static,
    F: FnMut(NodeId) -> P,
{
    let mut points = Vec::new();
    for &clients in &CLIENT_POINTS {
        for batching in [false, true] {
            points.push(measure(protocol, &mut make, clients, batching));
        }
    }
    points
}

fn point<'a>(points: &'a [Point], protocol: &str, clients: usize, batching: bool) -> &'a Point {
    points
        .iter()
        .find(|p| p.protocol == protocol && p.clients == clients && p.batching == batching)
        .expect("point measured")
}

fn benchmark(c: &mut Criterion) {
    let mut points = Vec::new();
    {
        let config = CaesarConfig::new(NODES).with_recovery_timeout(None);
        points.extend(protocol_points("caesar", move |id| CaesarReplica::new(id, config.clone())));
    }
    {
        let config = EpaxosConfig::new(NODES).with_recovery_timeout(None);
        points.extend(protocol_points("epaxos", move |id| EpaxosReplica::new(id, config.clone())));
    }
    {
        let config = MultiPaxosConfig::new(NODES, AT);
        points.extend(protocol_points("multipaxos", move |id| {
            MultiPaxosReplica::new(id, config.clone())
        }));
    }
    {
        let config = MenciusConfig::new(NODES);
        points
            .extend(protocol_points("mencius", move |id| MenciusReplica::new(id, config.clone())));
    }
    {
        let config = M2PaxosConfig::new(NODES);
        points
            .extend(protocol_points("m2paxos", move |id| M2PaxosReplica::new(id, config.clone())));
    }

    let mut table = Table::new(
        "Proposer batching: virtual clients vs. throughput (batch max(64, n/8))",
        &["protocol", "clients", "batching", "ops", "throughput (op/s)", "avg (ms)", "p99 (ms)"],
    );
    for p in &points {
        table.push_row(vec![
            p.protocol.to_string(),
            p.clients.to_string(),
            if p.batching { "on" } else { "off" }.to_string(),
            p.ops.to_string(),
            format!("{:.0}", p.throughput),
            format!("{:.3}", p.avg_ms),
            format!("{:.3}", p.p99_ms),
        ]);
    }
    print_table(&table);

    // The acceptance gates: batched throughput grows monotonically with the
    // client count, and at 512 clients batching buys ≥1.5× over the
    // unbatched baseline — on the paper's protocol and the classical one.
    for protocol in ["caesar", "multipaxos"] {
        let batched: Vec<f64> =
            CLIENT_POINTS.iter().map(|&n| point(&points, protocol, n, true).throughput).collect();
        assert!(
            batched.windows(2).all(|w| w[1] >= w[0]),
            "[{protocol}] batched throughput must rise 64 -> 512 -> 4096 clients, got {batched:?}"
        );
        let baseline = point(&points, protocol, 512, false).throughput;
        let batched_512 = point(&points, protocol, 512, true).throughput;
        assert!(
            batched_512 >= 1.5 * baseline,
            "[{protocol}] batching at 512 clients: {batched_512:.0} op/s is under 1.5x the \
             unbatched {baseline:.0} op/s"
        );
    }

    let group_commit = vec![measure_group_commit(false), measure_group_commit(true)];
    let mut table = Table::new(
        "Group commit: 512 clients, CAESAR, WAL fsync per batch",
        &["batching", "throughput (op/s)", "p99 (ms)", "fsyncs", "commands", "fsyncs/cmd"],
    );
    for g in &group_commit {
        table.push_row(vec![
            if g.batching { "on" } else { "off" }.to_string(),
            format!("{:.0}", g.throughput),
            format!("{:.3}", g.p99_ms),
            g.fsyncs.to_string(),
            g.commands.to_string(),
            format!("{:.4}", g.fsyncs as f64 / g.commands.max(1) as f64),
        ]);
    }
    print_table(&table);
    write_json(&points, &group_commit);

    let mut group = c.benchmark_group("batching");
    group.sample_size(10);
    group.bench_function("caesar_512_clients_batched", |b| {
        let config = CaesarConfig::new(NODES).with_recovery_timeout(None);
        let net_config = NetConfig::new(NODES).with_max_in_flight(1_024).with_batch(MAX_BATCH);
        let cluster =
            NetCluster::start(net_config, move |id| CaesarReplica::new(id, config.clone()))
                .expect("cluster starts");
        b.iter(|| drive(&cluster, 512));
        cluster.shutdown();
    });
    group.finish();
}

criterion_group!(benches, benchmark);
criterion_main!(benches);
