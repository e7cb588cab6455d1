//! Process and host readings: CPU time, peak RSS, core count, and a fixed
//! CPU-only probe that tells a slow host apart from a slow engine.

use std::time::Instant;

/// On-CPU time of every thread of the process, from
/// `/proc/self/task/*/schedstat` (nanoseconds, user and system together).
/// `/proc/self/stat` counts in 10 ms ticks, too coarse for one-second
/// intervals at a few hundred events per second.
pub struct CpuSample(Vec<(u32, u64)>);

impl CpuSample {
    pub fn now() -> Self {
        let mut threads = Vec::new();
        for entry in std::fs::read_dir("/proc/self/task")
            .expect("read /proc/self/task")
            .flatten()
        {
            let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
                continue;
            };
            // A thread may exit between the listing and the read.
            if let Ok(stat) = std::fs::read_to_string(entry.path().join("schedstat")) {
                let ns = stat.split_whitespace().next().and_then(|v| v.parse().ok());
                threads.push((tid, ns.expect("schedstat starts with on-CPU ns")));
            }
        }
        CpuSample(threads)
    }

    /// CPU time the process used since `earlier`, in µs. A thread that
    /// exited in between loses only its time since `earlier`.
    pub fn us_since(&self, earlier: &CpuSample) -> f64 {
        let ns: u64 = self
            .0
            .iter()
            .map(|&(tid, ns)| {
                let before = earlier
                    .0
                    .iter()
                    .find(|&&(t, _)| t == tid)
                    .map_or(0, |&(_, b)| b);
                ns.saturating_sub(before)
            })
            .sum();
        ns as f64 / 1e3
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(steal, total)` CPU ticks of the whole machine, from the first line
/// of `/proc/stat`. Steal is time the hypervisor ran something else while
/// this machine's virtual CPUs wanted to run.
pub fn machine_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Stolen share of the machine's CPU time since `earlier`
/// ([`machine_ticks`]), in percent.
pub fn steal_pct_since(earlier: (u64, u64)) -> f64 {
    let (steal, total) = machine_ticks();
    let total = total.saturating_sub(earlier.1);
    if total == 0 {
        0.0
    } else {
        100.0 * steal.saturating_sub(earlier.0) as f64 / total as f64
    }
}

/// Time of a fixed CPU-only loop (integer mixing, no memory traffic), in
/// milliseconds: the median of five repeats. It moves with the host's CPU
/// speed and with nothing in the engine.
pub fn cpu_probe_ms() -> f64 {
    let mut times: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..4_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[2]
}
