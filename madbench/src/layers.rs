//! Per-layer accounting for the traced run: the benchmark's own spans
//! around its calls into the engine, and the engine's counters read at
//! the two boundaries of the measured phase.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use railgun_core::metrics::MetricsSnapshot;
use railgun_core::Session;
use railgun_types::Histogram;

/// One timed call. Spans of one request share its request id; `request`
/// spans (due time to reply claimed) are the parents of that request's
/// `frontend.*` spans. Set-up spans carry request id 0.
struct Span {
    name: &'static str,
    req: u64,
    start_ns: u64,
    dur_ns: u64,
}

/// In-memory span log, written out once the run ends.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    pub fn span(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            req,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    /// Mean duration of the spans called `name`, in µs (0 if none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, total) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u128), |(n, t), s| (n + 1, t + u128::from(s.dur_ns)));
        if n == 0 {
            0.0
        } else {
            total as f64 / n as f64 / 1e3
        }
    }

    /// Write every span as a tab-separated line:
    /// `name  request_id  parent  start_ns  duration_ns`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\trequest_id\tparent\tstart_ns\tduration_ns")?;
        for s in &self.spans {
            let parent = if s.name.starts_with("frontend.") {
                "request"
            } else {
                "-"
            };
            writeln!(
                out,
                "{}\t{}\t{parent}\t{}\t{}",
                s.name, s.req, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Counters summed over every task processor, plus the engine's metrics
/// snapshot, at one instant.
pub struct LayerCounts {
    pub metrics: MetricsSnapshot,
    pub events_processed: u64,
    pub state_reads: u64,
    pub state_writes: u64,
    pub evictions: u64,
    pub reservoir_bytes_written: u64,
    pub reservoir_chunk_misses: u64,
    pub reservoir_memory_bytes: u64,
    pub store_flushes: u64,
    pub store_compactions: u64,
}

impl LayerCounts {
    /// Read the counters. The units must be stopped (owned by their
    /// node), or the task sums read zero.
    pub fn read(session: &Session) -> Self {
        let mut c = LayerCounts {
            metrics: session.metrics(),
            events_processed: 0,
            state_reads: 0,
            state_writes: 0,
            evictions: 0,
            reservoir_bytes_written: 0,
            reservoir_chunk_misses: 0,
            reservoir_memory_bytes: 0,
            store_flushes: 0,
            store_compactions: 0,
        };
        for node in session.cluster().nodes() {
            for unit in node.units() {
                for tp in unit.active_tasks() {
                    let task = unit.task(tp).expect("active task is present");
                    let s = task.stats();
                    c.events_processed += s.events_processed;
                    c.state_reads += s.state_reads;
                    c.state_writes += s.state_writes;
                    c.evictions += s.evictions;
                    let r = task.reservoir_stats();
                    c.reservoir_bytes_written += r.bytes_written;
                    c.reservoir_chunk_misses += r.cache.misses;
                    c.reservoir_memory_bytes += r.memory_bytes as u64;
                    let d = task.store_stats();
                    c.store_flushes += d.flushes;
                    c.store_compactions += d.compactions;
                }
            }
        }
        c
    }
}

/// The samples a histogram gained between two snapshots of it.
#[derive(Debug, Clone, Copy, Default)]
pub struct HistDelta {
    pub count: u64,
    pub sum: f64,
    /// Largest new sample, to the histogram's bucket resolution (~1%).
    pub max: u64,
}

impl HistDelta {
    pub fn between(before: &Histogram, after: &Histogram) -> Self {
        let count = after.count() - before.count();
        let sum = after.mean() * after.count() as f64 - before.mean() * before.count() as f64;
        let max = if count == 0 {
            0
        } else if after.max() > before.max() {
            after.max()
        } else {
            // The maximum predates the phase: subtract the bucket counts
            // and take the highest bucket that grew.
            let old = buckets(before);
            buckets(after)
                .into_iter()
                .rev()
                .find(|&(v, n)| {
                    n > old
                        .iter()
                        .find(|&&(ov, _)| ov == v)
                        .map_or(0, |&(_, on)| on)
                })
                .map_or(0, |(v, _)| v)
        };
        HistDelta { count, sum, max }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// `(bucket value, count)` of every non-empty bucket, ascending, read
/// back through the percentile walk (the histogram keeps its buckets
/// private).
fn buckets(h: &Histogram) -> Vec<(u64, u64)> {
    let total = h.count();
    let at = |rank: u64| h.percentile((rank as f64 - 0.5) / total as f64);
    let mut out = Vec::new();
    let mut rank = 1;
    while rank <= total {
        let v = at(rank);
        // Largest rank still holding `v`: gallop, then bisect.
        let (mut lo, mut step) = (rank, 1);
        while lo + step <= total && at(lo + step) == v {
            lo += step;
            step *= 2;
        }
        let mut hi = (lo + step).min(total + 1);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if at(mid) == v {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        out.push((v, lo - rank + 1));
        rank = lo + 1;
    }
    out
}
