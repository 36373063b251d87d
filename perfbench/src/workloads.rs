//! The benchmark's workloads and the per-client command streams they send.
//!
//! Every workload is a closed loop: a virtual client sends its next command
//! only after the reply to its previous one arrived, as every session
//! client of the system does. Commands come from `workload`'s seeded
//! generator (the paper's conflict model: with the workload's conflict
//! probability a command writes one of the 100 shared keys, otherwise a key
//! private to its client).

use std::collections::HashMap;

use consensus_core::session::Op;
use consensus_types::NodeId;
use kvstore::KeySpace;
use workload::{WorkloadConfig, WorkloadGenerator};

/// One traffic mix and the cluster it runs against.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub nodes: usize,
    /// Scale of the paper's five-site EC2 latency matrix injected between
    /// replicas; `None` is plain loopback.
    pub wan_scale: Option<f64>,
    /// Proposer batch cap (`1` disables batching).
    pub max_batch: usize,
    pub exec_workers: usize,
    /// Virtual clients, which is also the number of commands in flight.
    pub clients: usize,
    pub conflict_percent: f64,
    /// Private keys each client cycles through; `None` writes a fresh key
    /// per put, so the store grows by one key per private write.
    pub private_keys_per_client: Option<u64>,
    /// Whether half of the commands are reads instead of writes.
    pub reads: bool,
    /// Whether each replica keeps a write-ahead log (default fsync policy).
    pub durable: bool,
}

pub fn spec(name: &str) -> Option<Spec> {
    match name {
        // The paper's headline point: five sites, 30% conflicts, ten
        // clients per site. Latency is set by quorum structure and conflict
        // handling, not CPU.
        "geo5-c30" => Some(Spec {
            name: "geo5-c30",
            nodes: 5,
            wan_scale: Some(0.1),
            max_batch: 1,
            exec_workers: 1,
            clients: 50,
            conflict_percent: 30.0,
            private_keys_per_client: Some(64),
            reads: false,
            durable: false,
        }),
        // CPU-bound: no injected delay, no WAL, a bounded working set
        // (256 clients × 16 keys = 4096 private keys), batching and a
        // sharded executor, so per-op cost in every layer shows up in
        // throughput.
        "lan3-hot" => Some(Spec {
            name: "lan3-hot",
            nodes: 3,
            wan_scale: None,
            max_batch: 64,
            exec_workers: 2,
            clients: 256,
            conflict_percent: 2.0,
            private_keys_per_client: Some(16),
            reads: false,
            durable: false,
        }),
        // The only workload that runs the WAL, checkpoint cost growing with
        // state, and reads beside writes in CAESAR's conflict index.
        "lan3-durable-grow" => Some(Spec {
            name: "lan3-durable-grow",
            nodes: 3,
            wan_scale: None,
            max_batch: 64,
            exec_workers: 1,
            clients: 64,
            conflict_percent: 30.0,
            private_keys_per_client: None,
            reads: true,
            durable: true,
        }),
        _ => None,
    }
}

/// How the reply to an operation is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The reply must carry exactly this output: the key is private to the
    /// client, which has one command in flight, so the value its last
    /// acknowledged write left there is known.
    Exactly(Option<u64>),
    /// A shared-pool key other clients write concurrently.
    Unchecked,
}

/// One planned operation of a virtual client.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub op: Op,
    pub expect: Expect,
}

/// A virtual client: a fixed home replica, its own seeded generator, and
/// the model of its private keys (the last acknowledged write of each).
pub struct Client {
    pub home: NodeId,
    /// Index of this client among its home replica's clients.
    local: u64,
    generator: WorkloadGenerator,
    keyspace: KeySpace,
    private_keys: Option<u64>,
    reads: bool,
    model: HashMap<u64, u64>,
    last_private_put: Option<u64>,
}

/// Per-client generator seed: the workload seed mixed with the client
/// index (splitmix64), so each client's stream is fixed by the seed alone,
/// whatever order replies arrive in.
fn client_seed(seed: u64, client: usize) -> u64 {
    let mut z = seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Client {
    pub fn new(spec: &Spec, seed: u64, index: usize) -> Self {
        let config = WorkloadConfig::new(spec.nodes).with_conflict_percent(spec.conflict_percent);
        Self {
            home: NodeId::from_index(index % spec.nodes),
            local: (index / spec.nodes) as u64,
            generator: WorkloadGenerator::new(config, client_seed(seed, index)),
            keyspace: config.keyspace,
            private_keys: spec.private_keys_per_client,
            reads: spec.reads,
            model: HashMap::new(),
            last_private_put: None,
        }
    }

    /// The next operation. A write keeps the generator's key and value; the
    /// low bit of the generated value picks a read instead when the
    /// workload has reads. A private read targets the client's latest
    /// acknowledged private write, so the check has a value to compare.
    pub fn next(&mut self) -> Planned {
        let cmd = self.generator.next_command(self.home, self.local);
        let key = cmd.key().expect("generated commands carry a key");
        let value = cmd.value();
        let read = self.reads && value & 1 == 1;
        if self.keyspace.is_shared(key) {
            let op = if read { Op::get(key) } else { Op::put(key, value) };
            return Planned { op, expect: Expect::Unchecked };
        }
        let key = match self.private_keys {
            Some(bound) => {
                let owner = self.home.index() as u64 * 10_000 + self.local;
                self.keyspace.private_key(owner, (key & ((1 << 20) - 1)) % bound)
            }
            None => key,
        };
        if read {
            let key = self.last_private_put.unwrap_or(key);
            let expect = Expect::Exactly(self.model.get(&key).copied());
            return Planned { op: Op::get(key), expect };
        }
        Planned { op: Op::put(key, value), expect: Expect::Exactly(self.model.get(&key).copied()) }
    }

    /// Records that `planned` was acknowledged with a checked reply.
    pub fn acknowledge(&mut self, planned: &Planned) {
        if planned.op.operation == consensus_types::Operation::Put
            && planned.expect != Expect::Unchecked
        {
            let key = planned.op.key.expect("puts carry a key");
            self.model.insert(key, planned.op.value);
            self.last_private_put = Some(key);
        }
    }
}

/// FNV-1a digest of the first `per_client` operations of every client's
/// stream, printed with the result: the same seed must give the same digest.
pub fn stream_digest(spec: &Spec, seed: u64, per_client: usize) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for index in 0..spec.clients {
        let mut client = Client::new(spec, seed, index);
        for _ in 0..per_client {
            let planned = client.next();
            let op = planned.op;
            for word in [op.operation as u64, op.key.unwrap_or(u64::MAX), op.value] {
                for byte in word.to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
            }
            client.acknowledge(&planned);
        }
    }
    hash
}
