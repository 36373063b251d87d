//! The traced run's per-layer metrics.
//!
//! Three sources, each named after the layer it measures:
//! * scrape deltas: every replica's registry is scraped over the wire when
//!   the window opens and when it closes; counters are differenced and
//!   summed across replicas;
//! * span rings: the closing scrape's rings are joined into per-command
//!   traces (the rings hold only the most recent events, so the traces
//!   cover the end of the window; `span.evicted_per_op` says how much);
//! * timed calls into each layer's public functions on inputs built from
//!   the same workload and seed, run after the cluster has stopped so they
//!   do not compete with it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use caesar::CaesarMessage;
use consensus_core::session::Op;
use consensus_core::{Batcher, Executor};
use consensus_types::{Ballot, Command, CommandId, NodeId, Timestamp};
use harness::{run_closed_loop, ProtocolKind, RunConfig};
use kvstore::KvStore;
use net::wire::{frame_bytes, FrameBuffer, WireMessage};
use telemetry::{HistogramSnapshot, Registry, RegistrySnapshot, SpanRingSnapshot, TracePhase};
use wal::{FsyncPolicy, Wal, WalConfig};

use crate::cluster::Cluster;
use crate::drive::{self, Outcome, Sample, Window};
use crate::workloads::{self, Client, Spec};
use crate::{median, quantile, Metric};

/// `NetReplicaConfig::loopback`'s checkpoint interval: a memory-only
/// replica cuts a checkpoint every this many applied units.
const CHECKPOINT_INTERVAL: f64 = 64.0;
/// Commands generated as input for the timed layer calls.
const SAMPLE_OPS: usize = 4096;
/// Repetitions of each timed call; the median is reported.
const REPEATS: usize = 5;

/// Every replica's registry and span ring at one instant.
pub struct Scrape {
    registries: Vec<RegistrySnapshot>,
    rings: Vec<SpanRingSnapshot>,
    at: Instant,
    cpu_s: f64,
    /// Mean wall time of one replica's scrape.
    scrape_ms: f64,
}

impl Scrape {
    fn counter(&self, name: &str) -> u64 {
        self.registries.iter().map(|r| r.counter(name)).sum()
    }

    fn histogram(&self, name: &str) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for registry in &self.registries {
            if let Some(h) = registry.histograms.get(name) {
                merged.merge(h);
            }
        }
        merged
    }

    fn evicted(&self) -> u64 {
        self.rings.iter().map(|r| r.evicted).sum()
    }
}

/// Scrapes the replicas of a running cluster.
pub struct Probe {
    addrs: Vec<SocketAddr>,
}

impl Probe {
    pub fn new(cluster: &Cluster) -> Self {
        Self { addrs: cluster.replicas.iter().map(|r| r.local_addr()).collect() }
    }

    pub fn scrape(&self) -> Scrape {
        let at = Instant::now();
        let cpu_s = crate::host::cpu_seconds();
        let mut registries = Vec::with_capacity(self.addrs.len());
        let mut rings = Vec::with_capacity(self.addrs.len());
        let begin = Instant::now();
        for &addr in &self.addrs {
            match net::scrape_stats(addr) {
                Ok(scrape) => {
                    registries.push(scrape.snapshot);
                    rings.push(scrape.spans);
                }
                Err(err) => eprintln!("scrape of {addr} failed: {err}"),
            }
        }
        let scrape_ms = begin.elapsed().as_secs_f64() * 1e3 / self.addrs.len().max(1) as f64;
        Scrape { registries, rings, at, cpu_s, scrape_ms }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Bucket-wise difference of two snapshots of one histogram.
fn histogram_delta(end: &HistogramSnapshot, start: &HistogramSnapshot) -> HistogramSnapshot {
    let before: HashMap<u32, u64> = start.buckets.iter().copied().collect();
    let buckets = end
        .buckets
        .iter()
        .map(|&(i, n)| (i, n.saturating_sub(before.get(&i).copied().unwrap_or(0))))
        .filter(|&(_, n)| n > 0)
        .collect();
    HistogramSnapshot { buckets, sum: end.sum.saturating_sub(start.sum) }
}

/// Per-op lifecycle intervals at the command's origin replica, joined
/// from the span rings and the generator's own submit and reply times.
#[derive(Default)]
struct SpanIntervals {
    submit_propose: Vec<f64>,
    quorum: Vec<f64>,
    commit: Vec<f64>,
    execute: Vec<f64>,
    reply: Vec<f64>,
    outside: Vec<f64>,
}

/// Joins the rings into per-client-command intervals at the origin.
///
/// With batching, the protocol traces propose, quorum and commit under the
/// batch unit's id, while submit, execute and reply carry the client
/// command's id; a command joins the unit its origin proposed at the
/// instant the command was submitted (the batcher folds and proposes in
/// the same step, so both events share one timestamp).
///
/// The replica stamps submit and propose in one step, and execute and
/// reply in another, so the ring alone measures both of those intervals
/// as zero. The two edge intervals therefore start or end at the
/// generator's clock instead (the replicas stamp spans with the same host
/// wall clock): `submit_propose` runs from the client's submit call to the
/// origin's propose span (client write, event-loop decode, mailbox wait),
/// and `reply` from the origin's execute span to the generator seeing the
/// reply (WAL append and commit, reply frame, client read, poll).
fn span_intervals(rings: &[SpanRingSnapshot], samples: &[Sample]) -> SpanIntervals {
    let mut first: HashMap<(CommandId, TracePhase), u64> = HashMap::new();
    let mut units_at: HashMap<(NodeId, u64), CommandId> = HashMap::new();
    for ring in rings {
        for event in &ring.events {
            if event.node != event.command.origin() {
                continue;
            }
            let at = first.entry((event.command, event.phase)).or_insert(event.at);
            *at = (*at).min(event.at);
            if event.phase == TracePhase::Propose && event.command.is_batch() {
                units_at.entry((event.node, event.at)).or_insert(event.command);
            }
        }
    }
    let get = |id: CommandId, phase| first.get(&(id, phase)).map(|&at| at as f64);
    let gap = |a: Option<f64>, b: Option<f64>| a.zip(b).map(|(a, b)| b - a);
    let mut out = SpanIntervals::default();
    for sample in samples {
        let id = sample.command;
        let Some(submit) = get(id, TracePhase::Submit) else { continue };
        let unit = match get(id, TracePhase::Propose) {
            Some(_) => id,
            None => match units_at.get(&(id.origin(), submit as u64)) {
                Some(&unit) => unit,
                None => continue,
            },
        };
        let sent = sample.sent_wall_us as f64;
        let seen = sent + sample.latency_us as f64;
        let propose = get(unit, TracePhase::Propose);
        let quorum = get(unit, TracePhase::QuorumReached);
        let commit = get(unit, TracePhase::Commit);
        let execute = get(id, TracePhase::Execute);
        let reply = get(id, TracePhase::Reply);
        let pairs = [
            (&mut out.submit_propose, gap(Some(sent), propose)),
            (&mut out.quorum, gap(propose, quorum)),
            (&mut out.commit, gap(quorum, commit)),
            (&mut out.execute, gap(commit, execute)),
            (&mut out.reply, gap(execute, Some(seen))),
            (&mut out.outside, gap(Some(submit), reply).map(|inside| seen - sent - inside)),
        ];
        for (series, value) in pairs {
            if let Some(v) = value {
                series.push(v);
            }
        }
    }
    out
}

fn pct(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, q)
}

/// The median over `REPEATS` runs of `f`, which returns one sample.
fn repeat(mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..REPEATS).map(|_| f()).collect();
    median(&mut samples)
}

/// The workload's first `SAMPLE_OPS` commands, round-robin over its
/// clients, as the commands a replica would order (ids at the home
/// replica), folded into units of the workload's batch size.
fn sample_units(spec: &Spec, seed: u64) -> (Vec<Command>, Vec<Vec<Command>>) {
    let mut clients: Vec<Client> = (0..spec.clients).map(|i| Client::new(spec, seed, i)).collect();
    let mut seqs = vec![0u64; spec.nodes];
    let mut commands = Vec::with_capacity(SAMPLE_OPS);
    for n in 0..SAMPLE_OPS {
        let client = &mut clients[n % spec.clients];
        let planned = client.next();
        client.acknowledge(&planned);
        let seq = &mut seqs[client.home.index()];
        *seq += 1;
        commands.push(planned.op.command(CommandId::new(client.home, *seq)));
    }
    let groups = commands.chunks(spec.max_batch).map(<[Command]>::to_vec).collect();
    (commands, groups)
}

fn fast_propose(unit: &Command) -> WireMessage<CaesarMessage> {
    let from = unit.id().origin();
    WireMessage::Peer {
        from,
        msg: CaesarMessage::FastPropose {
            ballot: Ballot::initial(from),
            cmd: unit.clone(),
            time: Timestamp::new(unit.id().sequence(), from),
            whitelist: None,
        },
    }
}

/// Wire layer: the client-request frame of every command plus the
/// fast-propose frame of every unit, encoded with `frame_bytes` and decoded
/// (CRC check included) through `FrameBuffer::next_msg`. Returns encode and
/// decode nanoseconds per command.
fn wire_costs(commands: &[Command], units: &[Command]) -> (f64, f64) {
    let requests: Vec<WireMessage<()>> =
        commands.iter().map(|cmd| WireMessage::ClientRequest { cmd: cmd.clone() }).collect();
    let proposals: Vec<WireMessage<CaesarMessage>> = units.iter().map(fast_propose).collect();
    let ops = commands.len() as f64;
    let encode = repeat(|| {
        let begin = Instant::now();
        for msg in &requests {
            black_box(frame_bytes(msg).expect("request encodes"));
        }
        for msg in &proposals {
            black_box(frame_bytes(msg).expect("proposal encodes"));
        }
        begin.elapsed().as_nanos() as f64 / ops
    });
    let request_stream: Vec<u8> =
        requests.iter().flat_map(|msg| frame_bytes(msg).expect("request encodes")).collect();
    let proposal_stream: Vec<u8> =
        proposals.iter().flat_map(|msg| frame_bytes(msg).expect("proposal encodes")).collect();
    let decode = repeat(|| {
        let begin = Instant::now();
        let mut decoded = 0usize;
        let mut buffer = FrameBuffer::new();
        buffer.extend(&request_stream);
        while let Some(msg) = buffer.next_msg::<WireMessage<()>>().expect("request decodes") {
            black_box(msg);
            decoded += 1;
        }
        let mut buffer = FrameBuffer::new();
        buffer.extend(&proposal_stream);
        while let Some(msg) =
            buffer.next_msg::<WireMessage<CaesarMessage>>().expect("proposal decodes")
        {
            black_box(msg);
            decoded += 1;
        }
        assert_eq!(decoded, requests.len() + proposals.len(), "every frame decodes");
        begin.elapsed().as_nanos() as f64 / ops
    });
    (encode, decode)
}

/// `consensus_types::crc32` over 1 MiB of seeded bytes, in ns per KiB.
fn crc_ns_per_kib(seed: u64) -> f64 {
    let mut x = seed | 1;
    let bytes: Vec<u8> = (0..1 << 20)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u8
        })
        .collect();
    repeat(|| {
        let begin = Instant::now();
        black_box(consensus_types::crc32(black_box(&bytes)));
        begin.elapsed().as_nanos() as f64 / 1024.0
    })
}

/// `Batcher::coalesce` over the workload's groups, ns per command.
fn coalesce_ns_per_cmd(groups: &[Vec<Command>]) -> f64 {
    let cmds: usize = groups.iter().map(Vec::len).sum();
    repeat(|| {
        let inputs = groups.to_vec();
        let mut batcher = Batcher::new(NodeId(0));
        let begin = Instant::now();
        for group in inputs {
            black_box(batcher.coalesce(group));
        }
        begin.elapsed().as_nanos() as f64 / cmds as f64
    })
}

/// `Executor::apply_round` with the workload's worker count over its units,
/// eight units per round; ns per command.
fn apply_ns_per_cmd(spec: &Spec, units: &[Command]) -> f64 {
    let cmds: usize = units.iter().map(|u| u.leaves().len()).sum();
    repeat(|| {
        let executor =
            Executor::new(KvStore::factory(), NodeId(0), spec.exec_workers, &Registry::new());
        let begin = Instant::now();
        for round in units.chunks(8) {
            black_box(executor.apply_round(round));
        }
        begin.elapsed().as_nanos() as f64 / cmds as f64
    })
}

/// `Executor::snapshot` of a store holding `keys` keys, in ms.
fn snapshot_ms(spec: &Spec, keys: u64) -> f64 {
    let executor =
        Executor::new(KvStore::factory(), NodeId(0), spec.exec_workers, &Registry::new());
    let puts: Vec<Command> = (0..keys)
        .map(|k| Op::put(k, k ^ 0x5bd1_e995).command(CommandId::new(NodeId(0), k + 1)))
        .collect();
    for round in puts.chunks(1024) {
        executor.apply_round(round);
    }
    repeat(|| {
        let begin = Instant::now();
        black_box(executor.snapshot());
        begin.elapsed().as_secs_f64() * 1e3
    })
}

/// Commit rounds of the timed WAL calls.
const WAL_ROUNDS: usize = 256;

/// `Wal::append_command` of one workload unit plus `commit` under the
/// default per-batch fsync, in a directory inside the run's data root.
/// Returns the median µs per round and the log's own fsync histogram.
fn wal_rounds(units: &[Command], dir: &Path) -> (f64, HistogramSnapshot) {
    let registry = Registry::new();
    let config = WalConfig::new(dir.to_path_buf()).with_fsync(FsyncPolicy::PerBatch);
    let (mut wal, _) = match Wal::open(config, &registry) {
        Ok(opened) => opened,
        Err(err) => {
            eprintln!("wal open in {} failed: {err}", dir.display());
            return (0.0, HistogramSnapshot::default());
        }
    };
    let mut samples: Vec<f64> = units
        .iter()
        .cycle()
        .take(WAL_ROUNDS)
        .map(|unit| {
            let begin = Instant::now();
            wal.append_command(unit).expect("append");
            wal.commit().expect("commit");
            begin.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    let fsync = registry.snapshot().histograms.remove("wal.fsync_us").unwrap_or_default();
    (median(&mut samples), fsync)
}

/// lan3-hot's traffic against a single replica: what the pipeline does
/// without replication.
fn single_replica_throughput(seed: u64, data_root: &Path) -> f64 {
    let mut spec = workloads::spec("lan3-hot").expect("lan3-hot exists");
    spec.nodes = 1;
    let Ok((cluster, _)) = Cluster::start(&spec, data_root, usize::MAX) else {
        eprintln!("single-replica cluster failed to start");
        return 0.0;
    };
    let window = Window { warmup: Duration::from_millis(500), length: Duration::from_secs(2) };
    let outcome = drive::run(&spec, seed, &cluster, &window, || {}, || {});
    cluster.stop();
    ratio(outcome.completed_in_window as f64, outcome.window_s)
}

/// The per-layer metrics of a traced run whose window opened at `start`
/// and closed at `end`.
pub fn report(
    spec: &Spec,
    seed: u64,
    start: &Scrape,
    end: &Scrape,
    outcome: &Outcome,
    threads: u64,
    data_root: &Path,
) -> Vec<Metric> {
    let delta = |name: &str| end.counter(name).saturating_sub(start.counter(name)) as f64;
    let wall_s = (end.at - start.at).as_secs_f64();
    let ops = outcome.completed_in_window as f64;
    let led = delta("decisions.fast") + delta("decisions.slow");
    let client_cmds = delta("batch.commands") + (led - delta("batch.assembled")).max(0.0);
    let checkpoints_per_s = if spec.durable {
        delta("wal.checkpoints") / spec.nodes as f64 / wall_s
    } else {
        // Memory-only replicas do not count their checkpoints; each
        // replica applies every unit and cuts one per interval.
        led / CHECKPOINT_INTERVAL / wall_s
    };

    let mut spans = span_intervals(&end.rings, &outcome.latencies);
    let mut submit_us: Vec<f64> = outcome.submit_us.iter().map(|&us| f64::from(us)).collect();
    let per_second = &outcome.per_second;
    let decay = ratio(
        per_second.last().copied().unwrap_or(0) as f64,
        per_second.first().copied().unwrap_or(0) as f64,
    );

    let (commands, groups) = sample_units(spec, seed);
    let mut batcher = Batcher::new(NodeId(0));
    let units: Vec<Command> = groups.iter().map(|g| batcher.coalesce(g.clone())).collect();
    let (encode_ns, decode_ns) = wire_costs(&commands, &units);
    let (append_commit_us, micro_fsync) = wal_rounds(&units, &data_root.join("wal-micro"));
    // A memory-only workload has no live fsyncs; its figures then come from
    // the timed WAL calls on the same disk.
    let fsync = if spec.durable {
        histogram_delta(&end.histogram("wal.fsync_us"), &start.histogram("wal.fsync_us"))
    } else {
        micro_fsync
    };

    let sim_started = Instant::now();
    let sim =
        run_closed_loop(&RunConfig::latency_defaults(ProtocolKind::Caesar, 30.0).with_seed(seed));
    let sim_wall_ms = sim_started.elapsed().as_secs_f64() * 1e3;
    let sim_wait = sim.per_site_wait_ms.clone().unwrap_or_default();

    let mut m: BTreeMap<&'static str, (f64, &'static str)> = BTreeMap::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        m.insert(name, (value, unit));
    };
    put("session.submit_us_p50", pct(&mut submit_us, 0.5), "us");
    put("net.frames_per_op", ratio(delta("net.frames_sent"), ops), "count");
    put(
        "net.frames_per_flush",
        ratio(delta("net.frames_sent"), delta("net.batches_flushed")),
        "count",
    );
    put("net.wire_encode_ns_per_op", encode_ns, "ns");
    put("net.wire_decode_ns_per_op", decode_ns, "ns");
    put("net.crc32_ns_per_kib", crc_ns_per_kib(seed), "ns");
    put("span.submit_propose_us_p50", pct(&mut spans.submit_propose, 0.5), "us");
    put("span.quorum_us_p50", pct(&mut spans.quorum, 0.5), "us");
    put("span.quorum_us_p99", pct(&mut spans.quorum, 0.99), "us");
    put("span.commit_us_p50", pct(&mut spans.commit, 0.5), "us");
    put("span.execute_us_p50", pct(&mut spans.execute, 0.5), "us");
    put("span.execute_us_p99", pct(&mut spans.execute, 0.99), "us");
    put("span.reply_us_p50", pct(&mut spans.reply, 0.5), "us");
    put("span.outside_us_p50", pct(&mut spans.outside, 0.5), "us");
    put("span.evicted_per_op", ratio((end.evicted() - start.evicted()) as f64, ops), "count");
    put("span.traced_ops", spans.outside.len() as f64, "count");
    put("batch.mean_size", ratio(client_cmds, led), "count");
    put("batch.coalesce_ns_per_cmd", coalesce_ns_per_cmd(&groups), "ns");
    put("caesar.fast_ratio", ratio(delta("decisions.fast"), led), "ratio");
    put("caesar.propose_us_per_op", ratio(delta("caesar.propose_time_us"), led), "us");
    put("caesar.wait_us_per_op", ratio(delta("caesar.wait_time_us"), led), "us");
    put("caesar.retry_ratio", ratio(delta("caesar.decisions.slow_retry"), led), "ratio");
    put("caesar.nacks_per_op", ratio(delta("caesar.nacks_sent"), led), "count");
    put("caesar.wait_events_per_op", ratio(delta("caesar.wait_events"), led), "count");
    put("caesar.deliver_us_per_op", ratio(delta("caesar.deliver_time_us"), led), "us");
    put("sim.slow_path_pct", sim.slow_path_percent.unwrap_or(0.0), "%");
    put("sim.wait_ms", ratio(sim_wait.iter().sum(), sim_wait.len() as f64), "ms");
    put("sim.wall_ms", sim_wall_ms, "ms");
    put("exec.parallel_ratio", ratio(delta("exec.parallel_rounds"), delta("exec.rounds")), "ratio");
    put("exec.leaves_per_round", ratio(delta("exec.leaves"), delta("exec.rounds")), "count");
    put("exec.apply_ns_per_cmd", apply_ns_per_cmd(spec, &units), "ns");
    put("checkpoint.snapshot_ms", snapshot_ms(spec, outcome.store_keys), "ms");
    put("checkpoint.store_keys", outcome.store_keys as f64, "count");
    put("checkpoint.per_s", checkpoints_per_s, "1/s");
    put("gen.decay_ratio", decay, "ratio");
    put("gen.in_flight_mean", outcome.in_flight_mean, "count");
    put("wal.fsyncs_per_op", ratio(delta("wal.fsyncs"), ops), "count");
    put("wal.fsync_us_p50", fsync.percentile(0.5) as f64, "us");
    put("wal.fsync_us_p99", fsync.percentile(0.99) as f64, "us");
    put("wal.append_commit_us", append_commit_us, "us");
    put("wal.bytes_per_op", ratio(delta("wal.bytes_written"), ops), "B");
    put("proc.cpu_ms_per_kop", ratio((end.cpu_s - start.cpu_s) * 1e3, ops / 1e3), "ms");
    put("proc.cpu_util", ratio(end.cpu_s - start.cpu_s, wall_s), "cores");
    put("proc.threads", threads as f64, "count");
    put("telemetry.scrape_ms", (start.scrape_ms + end.scrape_ms) / 2.0, "ms");
    put("repl.base1_throughput_ops_s", single_replica_throughput(seed, data_root), "1/s");
    m.into_iter().map(|(name, (value, unit))| (name, value, unit)).collect()
}
