//! The load generator: one thread holding every virtual client's command
//! in flight through the cluster's `ReplicaClient`s (one per replica), in a
//! closed loop, checking every reply it can against the client's model.

use std::time::{Duration, Instant};

use consensus_core::session::{Reply, SessionError, Ticket};
use consensus_types::CommandId;

use crate::cluster::Cluster;
use crate::workloads::{Client, Expect, Planned, Spec};

/// How long the generator sleeps after a pass over the in-flight tickets
/// found no reply. `ReplicaClient` offers no "any ticket done" wait, so the
/// single generator thread polls; this bounds both the CPU it takes from
/// the replicas and the delay it adds to each observed latency.
const IDLE_POLL: Duration = Duration::from_micros(50);

/// Operations per second the sample buffers are sized for.
const SAMPLES_PER_SECOND: usize = 250_000;

/// How long in-flight commands may take to finish once the window closed.
const DRAIN: Duration = Duration::from_secs(20);

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations submitted after set-up (warm-up and window).
    pub attempted: u64,
    /// Operations that failed, timed out, or whose reply failed its check.
    pub failed: u64,
    /// Replies whose output contradicted the client's model.
    pub mismatches: u64,
    /// Every operation submitted inside the window that succeeded.
    pub latencies: Vec<Sample>,
    /// Replies observed inside the window.
    pub completed_in_window: u64,
    /// Replies observed in each whole second of the window.
    pub per_second: Vec<u64>,
    pub window_s: f64,
    /// Time spent inside `ReplicaClient::submit`, per call (µs).
    pub submit_us: Vec<f32>,
    /// Mean number of commands in flight over the window, time-weighted.
    pub in_flight_mean: f64,
    /// Distinct keys written by acknowledged puts (the store's key count).
    pub store_keys: u64,
}

/// One successful operation of the window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub command: CommandId,
    /// Submit→reply latency as the generator observed it, in µs.
    pub latency_us: u64,
    /// The second of the window the operation was submitted in.
    pub second: usize,
    /// Wall-clock submit time in µs since the UNIX epoch, the clock the
    /// replicas stamp their spans with.
    pub sent_wall_us: u64,
}

struct InFlight {
    ticket: Ticket,
    planned: Planned,
    sent: Instant,
    sent_wall_us: u64,
}

/// Phases of a run, as offsets from the first submission.
pub struct Window {
    pub warmup: Duration,
    pub length: Duration,
}

/// Calls `at_window_start` and `at_window_end` on the generator thread at
/// the window edges (the traced run scrapes the replicas there).
pub fn run(
    spec: &Spec,
    seed: u64,
    cluster: &Cluster,
    window: &Window,
    mut at_window_start: impl FnMut(),
    mut at_window_end: impl FnMut(),
) -> Outcome {
    let mut clients: Vec<Client> = (0..spec.clients).map(|i| Client::new(spec, seed, i)).collect();
    let mut slots: Vec<Option<InFlight>> = (0..spec.clients).map(|_| None).collect();
    let seconds = window.length.as_secs().max(1) as usize;
    // Reserved up front: growing these by reallocation would add copy
    // spikes of the benchmark's own to the process's peak memory. Pages
    // stay non-resident until written.
    let expected = SAMPLES_PER_SECOND * (seconds + window.warmup.as_secs() as usize + 1);
    let mut out = Outcome {
        latencies: Vec::with_capacity(expected),
        submit_us: Vec::with_capacity(expected),
        per_second: vec![0; seconds],
        ..Outcome::default()
    };
    let mut keys = std::collections::HashSet::new();

    let begin = Instant::now();
    let window_start = begin + window.warmup;
    let window_end = window_start + window.length;
    let mut started = false;
    let mut busy_integral = 0.0f64;
    let mut last_tick = window_start;

    loop {
        let now = Instant::now();
        if !started && now >= window_start {
            started = true;
            at_window_start();
            last_tick = Instant::now();
        }
        let open = now < window_end;
        if !open && started && out.window_s == 0.0 {
            out.window_s = (now - window_start).as_secs_f64().max(1e-9);
            at_window_end();
        }
        let mut progressed = false;
        for (index, slot) in slots.iter_mut().enumerate() {
            if let Some(flight) = slot {
                let Some(result) = flight.ticket.try_wait() else { continue };
                let done = Instant::now();
                let flight = slot.take().expect("slot was busy");
                progressed = true;
                let ok = check(&result, &flight, &mut clients[index], &mut out, &mut keys);
                if ok && flight.sent >= window_start && flight.sent < window_end {
                    out.latencies.push(Sample {
                        command: flight.ticket.command(),
                        latency_us: (done - flight.sent).as_micros() as u64,
                        second: ((flight.sent - window_start).as_secs() as usize).min(seconds - 1),
                        sent_wall_us: flight.sent_wall_us,
                    });
                }
                if ok && done >= window_start && done < window_end {
                    out.completed_in_window += 1;
                    let second = ((done - window_start).as_secs() as usize).min(seconds - 1);
                    out.per_second[second] += 1;
                }
            }
            if slot.is_none() && open {
                let client = &mut clients[index];
                let planned = client.next();
                let handle = &cluster.clients[client.home.index()];
                let sent_wall_us = telemetry::wall_clock_us();
                let sent = Instant::now();
                let submitted = handle.submit(planned.op);
                out.submit_us.push(sent.elapsed().as_secs_f32() * 1e6);
                out.attempted += 1;
                match submitted {
                    Ok(ticket) => *slot = Some(InFlight { ticket, planned, sent, sent_wall_us }),
                    Err(err) => {
                        eprintln!("submit failed: {err}");
                        out.failed += 1;
                    }
                }
            }
        }
        let busy = slots.iter().filter(|s| s.is_some()).count();
        if started && open {
            let tick = Instant::now().min(window_end);
            busy_integral += busy as f64 * (tick - last_tick).as_secs_f64();
            last_tick = tick;
        }
        if !open && (busy == 0 || now >= window_end + DRAIN) {
            for flight in slots.iter().flatten() {
                eprintln!("command {} got no reply within the drain", flight.ticket.command());
                out.failed += 1;
            }
            break;
        }
        if !progressed {
            std::thread::sleep(IDLE_POLL);
        }
    }
    out.in_flight_mean = busy_integral / window.length.as_secs_f64();
    out.store_keys = keys.len() as u64;
    out
}

/// Checks one reply against the client's model; counts failures and
/// mismatches. Returns whether the operation succeeded.
fn check(
    result: &Result<Reply, SessionError>,
    flight: &InFlight,
    client: &mut Client,
    out: &mut Outcome,
    keys: &mut std::collections::HashSet<u64>,
) -> bool {
    let reply = match result {
        Ok(reply) => reply,
        Err(err) => {
            eprintln!("command {} failed: {err}", flight.ticket.command());
            out.failed += 1;
            return false;
        }
    };
    let routed = reply.command == flight.ticket.command() && reply.node == client.home;
    let expected = match flight.planned.expect {
        Expect::Exactly(value) => reply.output == value,
        Expect::Unchecked => true,
    };
    if !routed || !expected {
        eprintln!(
            "command {} ({:?}) replied {:?} from {}, expected {:?}",
            flight.ticket.command(),
            flight.planned.op,
            reply.output,
            reply.node,
            flight.planned.expect
        );
        out.mismatches += 1;
        out.failed += 1;
        return false;
    }
    client.acknowledge(&flight.planned);
    if flight.planned.op.operation == consensus_types::Operation::Put {
        keys.insert(flight.planned.op.key.expect("puts carry a key"));
    }
    true
}
