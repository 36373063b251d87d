//! What the run executed on, and what the process cost while it ran.

use std::process::Command;

/// `/proc/<pid>/stat` reports CPU time in clock ticks of `USER_HZ`, which
/// the kernel fixes at 100 on every Linux architecture.
const USER_HZ: f64 = 100.0;

/// Runs `program args…` and returns its trimmed first line of output, or
/// `"unknown"` when the program is missing or fails.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(|l| l.trim().to_string()))
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The provenance record printed ahead of every result: seed, host and
/// build, so two results can be told apart without their logs.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool, stream: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    // The benchmark normally runs from an exported tree with no `.git`;
    // the revision is recorded whenever one is present. Git is not asked
    // otherwise, since it would search the parent directories.
    let rev = if std::path::Path::new(".git").exists() {
        first_line("git", &["rev-parse", "--short=12", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let rustc = first_line("rustc", &["--version"]);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"stream_digest\": \"{stream:016x}\", \"nproc\": {nproc}, \
         \"kernel\": {}, \"rustc\": {}, \"profile\": \"{profile}\", \"git_rev\": {}}}}}",
        json_str(workload),
        json_str(&kernel),
        json_str(&rustc),
        json_str(&rev)
    )
}

fn status_field(name: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Threads this process runs right now.
pub fn threads() -> u64 {
    status_field("Threads:").unwrap_or(0)
}

/// User plus system CPU seconds this process has used, across all threads.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) as f64 / USER_HZ
}

/// CPU time the hypervisor gave to other guests, summed over this
/// machine's CPUs, in seconds since boot (`steal` in `/proc/stat`). On a
/// shared virtual machine it explains most run-to-run spread.
pub fn steal_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return 0.0 };
    stat.lines()
        .find_map(|line| line.strip_prefix("cpu "))
        .and_then(|fields| fields.split_whitespace().nth(7))
        .and_then(|ticks| ticks.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}
