//! Boots the real threaded runtime, prefills it, and drives the measured
//! phase as an open loop.
//!
//! One generator thread offers events on a fixed schedule: event `i` is
//! due at `start + i / rate`. Whenever it wakes it sends every event that
//! is due, then claims replies from the head of its pending queue, then
//! parks on the bus until the next event is due or a reply lands. Each
//! request is timed from its *due* time, so a stall in the engine or in
//! the generator shows up in the latency of every event it delayed.
//! Claiming only at the head keeps the front-end pumps per wake-up
//! proportional to the replies claimed, not to the requests pending.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use railgun_core::{ClusterClient, ClusterConfig, QueryId, Session};
use railgun_messaging::MessageBus;
use railgun_types::{RailgunError, Result};

use crate::host::CpuSample;
use crate::layers::{LayerCounts, Trace};
use crate::reference::{reply_matches, Expected};
use crate::workload::{Payment, Workload, FIELDS};

/// The paper's MAD latency bound (p99.9 under 250 ms).
pub const SLO: Duration = Duration::from_millis(250);
/// A request still unanswered this long after its due time is abandoned
/// and counted as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// In-flight cap of the generator's front-end.
const MAX_IN_FLIGHT: usize = 8_192;
/// Requests in flight while prefilling (closed-loop pipelining).
const PREFILL_DEPTH: usize = 256;

/// A booted, prefilled engine.
pub struct Engine {
    session: Session,
    client: ClusterClient,
    bus: MessageBus,
    ids: Vec<QueryId>,
    dir: PathBuf,
}

/// Wall-clock breakdown of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Cluster boot through the end of the prefill.
    pub total_s: f64,
    /// All `Session::register` calls.
    pub register_ms: f64,
    pub prefill_s: f64,
}

/// Boot a one-node, one-unit cluster in `dir`, register the workload's
/// stream and queries, start the worker thread and send `prefill`.
pub fn boot(
    w: &Workload,
    dir: &Path,
    telemetry: bool,
    prefill: &[Payment],
    trace: Option<&mut Trace>,
) -> Result<(Engine, SetupTimes)> {
    let start = Instant::now();
    std::fs::remove_dir_all(dir).ok();
    let mut cfg = ClusterConfig {
        nodes: 1,
        units_per_node: 1,
        partitions: w.partitions,
        replication: 1,
        data_root: dir.to_path_buf(),
        checkpoint_every: w.checkpoint_every,
        max_in_flight: MAX_IN_FLIGHT,
        collect_timeout_ms: REPLY_TIMEOUT.as_millis() as u64,
        telemetry,
        ..ClusterConfig::default()
    };
    cfg.task.reservoir.cache_capacity_chunks = w.cache_chunks;
    cfg.task.reservoir.prefetch = w.prefetch;
    let mut session = Session::new(cfg)?;
    session.create_stream("payments", &FIELDS, w.partitioners)?;
    let register_start = Instant::now();
    let mut ids = Vec::new();
    for q in &w.queries {
        ids.push(session.register(q.to_query())?.id());
    }
    let register_end = Instant::now();
    session.cluster_mut().start()?;
    let mut client = session.cluster_mut().client()?;
    let bus = session.cluster().bus().clone();

    let prefill_start = Instant::now();
    let mut inflight = VecDeque::with_capacity(PREFILL_DEPTH);
    for (i, p) in prefill.iter().enumerate() {
        if inflight.len() >= PREFILL_DEPTH {
            client.collect(inflight.pop_front().expect("non-empty"))?;
        }
        inflight.push_back(client.send_async("payments", w.event_ts(i), p.values())?);
    }
    for id in inflight {
        client.collect(id)?;
    }
    let end = Instant::now();
    if let Some(t) = trace {
        t.span("plan.register", 0, register_start, register_end);
        t.span("setup.prefill", 0, prefill_start, end);
    }
    let times = SetupTimes {
        total_s: (end - start).as_secs_f64(),
        register_ms: (register_end - register_start).as_secs_f64() * 1e3,
        prefill_s: (end - prefill_start).as_secs_f64(),
    };
    let engine = Engine {
        session,
        client,
        bus,
        ids,
        dir: dir.to_path_buf(),
    };
    Ok((engine, times))
}

impl Engine {
    /// Stop the worker thread and read every task's counters, then
    /// restart it. Used at the phase boundaries, where the units must be
    /// back in the node's hands to be read.
    pub fn read_layers(&mut self) -> Result<LayerCounts> {
        self.session.cluster_mut().stop()?;
        let counts = LayerCounts::read(&self.session);
        self.session.cluster_mut().start()?;
        Ok(counts)
    }

    /// Stop the cluster and delete its data.
    pub fn shutdown(mut self) -> Result<LayerCounts> {
        self.session.cluster_mut().stop()?;
        let counts = LayerCounts::read(&self.session);
        let dir = self.dir.clone();
        drop(self);
        std::fs::remove_dir_all(&dir).ok();
        Ok(counts)
    }
}

/// One second of the measured phase: the requests due in it.
#[derive(Debug, Default)]
pub struct Interval {
    /// Due time to reply claimed, per answered request (ns).
    pub latency_ns: Vec<u64>,
    /// Process CPU time from the interval's start to the next one's (µs).
    pub cpu_us: f64,
    /// Requests due in the interval.
    pub offered: usize,
}

/// What one measured phase observed.
#[derive(Debug, Default)]
pub struct Measured {
    pub offered: usize,
    pub answered: usize,
    /// Replies equal to the reference.
    pub correct: usize,
    /// Sends refused with `Backpressure`.
    pub refused: usize,
    pub timed_out: usize,
    pub errors: usize,
    /// Answered within [`SLO`] of the due time.
    pub within_slo: usize,
    /// Per-second breakdown, by due time.
    pub intervals: Vec<Interval>,
    /// How late each send started after its due time (ns).
    pub late_ns: Vec<u64>,
    pub wall_s: f64,
    /// Mean of (claiming collect start − send end) per answered request,
    /// in µs; traced runs only.
    pub handoff_us_mean: f64,
}

impl Measured {
    pub fn failed(&self) -> usize {
        self.refused + self.timed_out + self.errors
    }

    /// Every latency sample of the phase, sorted (ns).
    pub fn latencies_sorted(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .intervals
            .iter()
            .flat_map(|s| s.latency_ns.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }
}

/// Offer `events` (the workload's events after the prefill) at the
/// workload's rate and check every reply against `expected`.
pub fn measure(
    w: &Workload,
    engine: &mut Engine,
    events: &[Payment],
    expected: &[Expected],
    mut trace: Option<&mut Trace>,
) -> Measured {
    let per_event = w.values_per_event();
    let period_ns = 1e9 / w.rate_eps as f64;
    let n = events.len();
    let rate = w.rate_eps as usize;
    let mut m = Measured {
        offered: n,
        intervals: (0..n.div_ceil(rate))
            .map(|s| Interval {
                offered: rate.min(n - s * rate),
                ..Interval::default()
            })
            .collect(),
        late_ns: Vec::with_capacity(n),
        ..Measured::default()
    };
    // (request id, event index, send end) per pending request.
    let mut pending: VecDeque<(u64, usize, Instant)> = VecDeque::new();
    let mut handoff_ns = 0u128;
    // Process CPU time at each interval boundary, read by the first
    // wake-up past it.
    let mut cpu_marks = vec![CpuSample::now()];
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_nanos((i as f64 * period_ns) as u64);
    let mut next = 0;
    loop {
        let seen = engine.bus.version();
        let now = Instant::now();
        if cpu_marks.len() < m.intervals.len()
            && now >= start + Duration::from_secs(cpu_marks.len() as u64)
        {
            cpu_marks.push(CpuSample::now());
        }
        while next < n && due(next) <= now {
            let send_start = if trace.is_some() { Instant::now() } else { now };
            m.late_ns.push((send_start - due(next)).as_nanos() as u64);
            let sent = engine.client.send_async(
                "payments",
                w.event_ts(w.prefill + next),
                events[next].values(),
            );
            let send_end = if trace.is_some() { Instant::now() } else { now };
            match sent {
                Ok(id) => {
                    if let Some(t) = trace.as_deref_mut() {
                        t.span("frontend.send", id, send_start, send_end);
                    }
                    pending.push_back((id, next, send_end));
                }
                Err(RailgunError::Backpressure(_)) => m.refused += 1,
                Err(_) => m.errors += 1,
            }
            next += 1;
        }
        while let Some(&(id, idx, sent_at)) = pending.front() {
            let collect_start = if trace.is_some() { Instant::now() } else { now };
            let got = engine.client.try_collect(id);
            let claimed = Instant::now();
            if let Some(t) = trace.as_deref_mut() {
                t.span("frontend.collect", id, collect_start, claimed);
            }
            match got {
                Ok(Some(reply)) => {
                    let latency = claimed - due(idx);
                    m.answered += 1;
                    m.intervals[idx / rate]
                        .latency_ns
                        .push(latency.as_nanos() as u64);
                    if latency <= SLO {
                        m.within_slo += 1;
                    }
                    let want = &expected[idx * per_event..(idx + 1) * per_event];
                    if reply_matches(&w.queries, &engine.ids, want, &reply) {
                        m.correct += 1;
                    }
                    if let Some(t) = trace.as_deref_mut() {
                        t.span("request", id, due(idx), claimed);
                        handoff_ns += (collect_start - sent_at).as_nanos();
                    }
                    pending.pop_front();
                }
                Ok(None) if claimed - due(idx) > REPLY_TIMEOUT => {
                    engine.client.cancel(id);
                    m.timed_out += 1;
                    pending.pop_front();
                }
                Ok(None) => break,
                Err(_) => {
                    engine.client.cancel(id);
                    m.errors += 1;
                    pending.pop_front();
                }
            }
        }
        if next == n && pending.is_empty() {
            break;
        }
        let now = Instant::now();
        let wake = if next < n {
            due(next)
        } else {
            now + Duration::from_millis(5)
        };
        if wake > now {
            engine.bus.wait_for_activity(seen, wake - now);
        }
    }
    m.wall_s = start.elapsed().as_secs_f64();
    cpu_marks.push(CpuSample::now());
    for (interval, mark) in m.intervals.iter_mut().zip(cpu_marks.windows(2)) {
        interval.cpu_us = mark[1].us_since(&mark[0]);
    }
    if m.answered > 0 {
        m.handoff_us_mean = handoff_ns as f64 / m.answered as f64 / 1e3;
    }
    m
}
