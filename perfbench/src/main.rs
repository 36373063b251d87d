//! Steady-state benchmark of CAESAR over the `net` runtime.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload lan3-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each run sets a cluster up several times (the median is `setup_s`),
//! keeps the last one, drives the workload through it for a warm-up plus
//! `--seconds`, drains, and checks that every replica converged to the
//! same applied count and state fingerprint. With `--trace 0` the last
//! line of standard output carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics (scrape deltas, span
//! rings, and timed calls into each layer). `BENCHMARK.json` at the
//! repository root lists both sets and the workloads.

mod cluster;
mod drive;
mod host;
mod layers;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use cluster::Cluster;
use drive::Window;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Traffic before the window opens, so connections, buffers and lazy
/// state are warm when timing starts.
const WARMUP: Duration = Duration::from_secs(1);
/// Latency quantiles printed with the window summary.
const QUANTILES: [f64; 10] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99];
/// How long the replicas get to agree once the last reply arrived.
const CONVERGE: Duration = Duration::from_secs(30);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Interquartile mean: the mean of the values between the first and the
/// third quartile. Over a window's one-second slices it averages the
/// steady part of the run (and, when throughput decays, the middle of the
/// decay) while ignoring seconds in which the host stalled the run.
fn interquartile_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let quarter = values.len() / 4;
    let middle = &values[quarter..values.len() - quarter];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Commits the file system's pending metadata (the journal, and with it
/// the block frees of deleted WAL segments) by syncing the working
/// directory. At exit this keeps the clean-up of one run from landing in
/// the next run's window; at start it waits out whatever ran before.
fn settle_disk() {
    if let Ok(dir) = std::fs::File::open(".") {
        let _ = dir.sync_all();
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    // Everything the run writes (WAL segments) stays inside the directory
    // it was started from.
    let data_root = PathBuf::from(".perfbench-data").join(std::process::id().to_string());
    settle_disk();
    let result = run(&spec, &args, &data_root);
    let _ = std::fs::remove_dir_all(&data_root);
    let _ = std::fs::remove_dir(".perfbench-data");
    settle_disk();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run(spec: &workloads::Spec, args: &Args, data_root: &std::path::Path) -> Result<(), String> {
    let digest = workloads::stream_digest(spec, args.seed, 64);
    println!("{}", host::provenance(spec.name, args.seed, args.seconds, args.trace, digest));

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for attempt in 0..SETUPS {
        let (cluster, seconds) = Cluster::start(spec, data_root, attempt)?;
        setup_s.push(seconds);
        if attempt + 1 == SETUPS {
            kept = Some(cluster);
        } else {
            cluster.stop();
        }
    }
    let cluster = kept.expect("the last set-up is kept");
    let setup_s = median(&mut setup_s);

    let window = Window { warmup: WARMUP, length: Duration::from_secs(args.seconds) };
    let probe = args.trace.then(|| layers::Probe::new(&cluster));
    let (mut start, mut end) = (None, None);
    let steal_before = host::steal_seconds();
    let outcome = drive::run(
        spec,
        args.seed,
        &cluster,
        &window,
        || start = probe.as_ref().map(layers::Probe::scrape),
        || end = probe.as_ref().map(layers::Probe::scrape),
    );
    let steal_s = host::steal_seconds() - steal_before;
    let disagreeing = cluster.converge(CONVERGE) as u64;
    let peak_rss_mb = host::peak_rss_mb();
    let threads = host::threads();
    cluster.stop();

    let correct = outcome.mismatches == 0 && disagreeing == 0;
    let failed = outcome.failed + disagreeing;
    let attempted = outcome.attempted.max(1);
    // The figures are interquartile means over the window's one-second
    // slices: a second in which the shared host stalls the run moves them
    // little.
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); outcome.per_second.len()];
    for sample in &outcome.latencies {
        slices[sample.second].push(sample.latency_us as f64 / 1_000.0);
    }
    let (mut p50, mut p99): (Vec<f64>, Vec<f64>) = slices
        .iter_mut()
        .map(|slice| {
            slice.sort_by(f64::total_cmp);
            (quantile(slice, 0.50), quantile(slice, 0.99))
        })
        .unzip();
    let mut latencies_ms = slices.concat();
    latencies_ms.sort_by(f64::total_cmp);
    let quantiles: Vec<String> =
        QUANTILES.iter().map(|&q| format!("{:.3}", quantile(&latencies_ms, q))).collect();
    let mut per_second: Vec<f64> = outcome.per_second.iter().map(|&n| n as f64).collect();
    println!(
        "{{\"window\": {{\"seconds\": {:.3}, \"latency_samples\": {}, \
         \"latency_quantiles\": {QUANTILES:?}, \"latency_ms\": [{}], \"per_second_ops\": {:?}, \
         \"in_flight_mean\": {:.2}, \"host_steal_s\": {steal_s:.2}, \
         \"replicas_disagreeing\": {disagreeing}, \
         \"mismatches\": {}}}}}",
        outcome.window_s,
        outcome.latencies.len(),
        quantiles.join(", "),
        outcome.per_second,
        outcome.in_flight_mean,
        outcome.mismatches
    );

    let metrics: Vec<Metric> = if let (Some(start), Some(end)) = (start, end) {
        layers::report(spec, args.seed, &start, &end, &outcome, threads, data_root)
    } else {
        vec![
            ("setup_s", setup_s, "s"),
            ("throughput_ops_s", interquartile_mean(&mut per_second), "1/s"),
            ("latency_p50_ms", interquartile_mean(&mut p50), "ms"),
            ("latency_p99_ms", interquartile_mean(&mut p99), "ms"),
            (
                "success_ratio",
                (attempted - failed.min(attempted)) as f64 / attempted as f64,
                "ratio",
            ),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    };
    print_result(correct, attempted, failed, &metrics);
    Ok(())
}
