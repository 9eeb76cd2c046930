//! What the kernel accounts for this process, read from `/proc`:
//! per-thread run time and run-queue wait, process CPU time and
//! resident memory. Linux only.

use std::collections::HashMap;
use std::fs;

/// Kernel accounting for one thread at one instant.
#[derive(Debug, Clone)]
pub struct ThreadTimes {
    /// The thread's name (`comm`, at most 15 bytes).
    pub name: String,
    /// Nanoseconds spent running on a CPU.
    pub run_ns: u64,
    /// Nanoseconds spent runnable but waiting on a run queue.
    pub wait_ns: u64,
}

/// Every live thread of this process, keyed by thread id. A thread that
/// exits while the directory is walked is skipped.
pub fn threads() -> HashMap<u64, ThreadTimes> {
    let mut out = HashMap::new();
    let dir = fs::read_dir("/proc/self/task").expect("procfs is mounted");
    for entry in dir.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        let Ok(stat) = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")) else {
            continue;
        };
        let Ok(comm) = fs::read_to_string(format!("/proc/self/task/{tid}/comm")) else {
            continue;
        };
        let mut fields = stat
            .split_whitespace()
            .map(|f| f.parse::<u64>().unwrap_or(0));
        let run_ns = fields.next().unwrap_or(0);
        let wait_ns = fields.next().unwrap_or(0);
        out.insert(
            tid,
            ThreadTimes {
                name: comm.trim_end().to_string(),
                run_ns,
                wait_ns,
            },
        );
    }
    out
}

/// Run time summed over every live thread, in nanoseconds — the precise
/// process CPU clock while no thread exits.
pub fn threads_run_ns() -> u64 {
    threads().values().map(|t| t.run_ns).sum()
}

/// Per-group `(run, wait)` nanoseconds between two [`threads`]
/// snapshots. A thread born in between counts from zero; `group` maps a
/// thread name to its group.
pub fn group_deltas(
    before: &HashMap<u64, ThreadTimes>,
    after: &HashMap<u64, ThreadTimes>,
    group: impl Fn(&str) -> &'static str,
) -> HashMap<&'static str, (u64, u64)> {
    let mut out: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for (tid, t) in after {
        let (run0, wait0) = before.get(tid).map_or((0, 0), |b| (b.run_ns, b.wait_ns));
        let e = out.entry(group(&t.name)).or_default();
        e.0 += t.run_ns.saturating_sub(run0);
        e.1 += t.wait_ns.saturating_sub(wait0);
    }
    out
}

/// Process CPU time (user + system, every thread including exited ones)
/// in nanoseconds, from `/proc/self/stat`.
pub fn process_cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, so 11 and 12 after the name
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<u64> = rest
        .split_whitespace()
        .map(|f| f.parse::<u64>().unwrap_or(0))
        .collect();
    // USER_HZ is 100 on every Linux ABI
    (fields[11] + fields[12]) * 10_000_000
}

/// Resident set size in bytes, from `/proc/self/status`.
pub fn rss_bytes() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmRSS in /proc/self/status")
        * 1024
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs were runnable, summed over all CPUs, in nanoseconds, from
/// `/proc/stat`.
pub fn steal_ns() -> u64 {
    let stat = fs::read_to_string("/proc/stat").expect("procfs is mounted");
    let cpu = stat.lines().next().expect("/proc/stat has a cpu line");
    // cpu user nice system idle iowait irq softirq steal ...
    let steal = cpu
        .split_whitespace()
        .nth(8)
        .and_then(|f| f.parse::<u64>().ok())
        .unwrap_or(0);
    steal * 10_000_000
}
