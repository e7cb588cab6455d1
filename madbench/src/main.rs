//! Command line of the open-loop MAD benchmark.
//!
//! ```text
//! madbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! madbench --steady <runs> [--workload <name>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! A run prints a detail line (host record, workload, tail latencies)
//! and, as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Steadiness mode runs the benchmark
//! `<runs>` times per workload, each with another seed, and prints each
//! metric's median and quartiles. Engine data and span logs live under
//! `.madbench/` in the working directory.

use std::path::{Path, PathBuf};
use std::process::Command;

use madbench::host;
use madbench::layers::{HistDelta, LayerCounts, Trace};
use madbench::reference::{expected_replies, Expected};
use madbench::runner::{boot, measure, Measured, SetupTimes};
use madbench::workload::{Payment, Workload, NAMES};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 30,
        trace: false,
        steady: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?)
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() {
    let result = parse_args().and_then(|args| match args.steady {
        Some(runs) => steady(&args, runs),
        None => {
            let name = args.workload.as_deref().ok_or("--workload is required")?;
            let w = Workload::by_name(name)
                .ok_or_else(|| format!("unknown workload `{name}` (known: {NAMES:?})"))?;
            run(&w, &args)
        }
    });
    if let Err(e) = result {
        eprintln!("madbench: {e}");
        std::process::exit(1);
    }
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn run(w: &Workload, args: &Args) -> Result<(), String> {
    let nproc = host::nproc();
    let probe_ms = host::cpu_probe_ms();
    let events = w.generate(args.seed, w.prefill + w.measured_events(args.seconds));
    let expected = expected_replies(w, &events, w.prefill);
    let (prefill, measured) = events.split_at(w.prefill);
    let root = PathBuf::from(".madbench");
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let dir = root.join(format!("data-{}", std::process::id()));
    let ticks = host::machine_ticks();
    let outcome = measure_workload(w, args, &dir, prefill, measured, &expected, probe_ms);
    std::fs::remove_dir_all(&dir).ok();
    let (m, metrics, setups) = outcome?;
    let steal_pct = host::steal_pct_since(ticks);

    let lat = m.latencies_sorted();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"rate_eps\": {}, \"host\": {{\"nproc\": {nproc}, \"cpu_probe_ms\": {probe_ms}, \"steal_pct\": {steal_pct}}}, \"setup_s\": {setups:?}, \"wall_s\": {}, \"answered\": {}, \"refused\": {}, \"timed_out\": {}, \"errors\": {}, \"latency_us\": {{\"samples\": {}, \"p95\": {}, \"p99\": {}, \"p999\": {}, \"max\": {}}}}}",
        w.name,
        args.seed,
        w.rate_eps,
        m.wall_s,
        m.answered,
        m.refused,
        m.timed_out,
        m.errors,
        lat.len(),
        percentile_us(&lat, 0.95),
        percentile_us(&lat, 0.99),
        percentile_us(&lat, 0.999),
        lat.last().map_or(0.0, |&v| v as f64 / 1e3),
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.answered > 0 && m.correct == m.answered,
        m.offered,
        m.failed(),
        body.join(", ")
    );
    Ok(())
}

/// Set up and measure one workload in `dir`. The untraced run sets up
/// `setup_reps` times and measures the last engine. The traced run does
/// the same first, as the base of the tracing overhead, then sets up once
/// more with telemetry on and measures with spans. Returns the reported
/// phase, its metrics and the untraced set-up times.
fn measure_workload(
    w: &Workload,
    args: &Args,
    dir: &Path,
    prefill: &[Payment],
    measured: &[Payment],
    expected: &[Expected],
    probe_ms: f64,
) -> Result<(Measured, Vec<Metric>, Vec<f64>), String> {
    let err = |e: railgun_types::RailgunError| format!("{}: {e}", w.name);
    let mut setups = Vec::new();
    let mut last = None;
    for rep in 0..w.setup_reps {
        let (engine, t) = boot(w, dir, false, prefill, None).map_err(err)?;
        setups.push(t.total_s);
        if rep + 1 < w.setup_reps {
            engine.shutdown().map_err(err)?;
        } else {
            last = Some(engine);
        }
    }
    let mut engine = last.expect("at least one set-up");
    // Stop and restart the unit at the phase boundary, as the traced
    // phase must to read its counters, so both phases start alike.
    engine.read_layers().map_err(err)?;
    let plain = measure(w, &mut engine, measured, expected, None);
    engine.shutdown().map_err(err)?;
    if !args.trace {
        let metrics = end_to_end(&plain, median(&mut setups.clone()));
        return Ok((plain, metrics, setups));
    }

    let mut trace = Trace::default();
    let (mut engine, setup) = boot(w, dir, true, prefill, Some(&mut trace)).map_err(err)?;
    let before = engine.read_layers().map_err(err)?;
    let m = measure(w, &mut engine, measured, expected, Some(&mut trace));
    let after = engine.shutdown().map_err(err)?;
    let path = dir.with_file_name(format!("trace-{}.tsv", w.name));
    trace
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let metrics = per_layer(&m, &plain, &setup, &trace, &before, &after, probe_ms);
    Ok((m, metrics, setups))
}

/// The end-to-end metrics. Latency percentiles and CPU cost are taken per
/// one-second interval of the measured phase and reported as the median
/// over the intervals, so one stall or host hiccup moves one interval,
/// not the result; the whole-phase tail is in the detail line.
fn end_to_end(m: &Measured, setup_s: f64) -> Vec<Metric> {
    let per_interval = |q: f64| {
        let mut v: Vec<f64> = m
            .intervals
            .iter()
            .filter(|s| !s.latency_ns.is_empty())
            .map(|s| {
                let mut lat = s.latency_ns.clone();
                lat.sort_unstable();
                percentile_us(&lat, q)
            })
            .collect();
        median(&mut v)
    };
    let mut cpu: Vec<f64> = m
        .intervals
        .iter()
        .map(|s| s.cpu_us / s.offered as f64)
        .collect();
    vec![
        metric("latency_p50_us", per_interval(0.50), "us"),
        metric("latency_p90_us", per_interval(0.90), "us"),
        metric(
            "slo_met_ratio",
            m.within_slo as f64 / m.offered as f64,
            "ratio",
        ),
        metric(
            "correct_ratio",
            m.correct as f64 / m.answered.max(1) as f64,
            "ratio",
        ),
        metric("cpu_us_per_event", median(&mut cpu), "us"),
        metric("setup_s", setup_s, "s"),
        metric("rss_peak_mb", host::peak_rss_mb(), "MiB"),
    ]
}

fn per_layer(
    m: &Measured,
    plain: &Measured,
    setup: &SetupTimes,
    trace: &Trace,
    before: &LayerCounts,
    after: &LayerCounts,
    probe_ms: f64,
) -> Vec<Metric> {
    let (b, a) = (&before.metrics, &after.metrics);
    let process = HistDelta::between(&b.stages.unit_process, &a.stages.unit_process);
    let poll = HistDelta::between(&b.stages.unit_poll, &a.stages.unit_poll);
    let append = HistDelta::between(&b.stages.reservoir_append, &a.stages.reservoir_append);
    let wal = HistDelta::between(&b.stages.store_wal_append, &a.stages.store_wal_append);
    let flush = HistDelta::between(&b.stages.store_flush, &a.stages.store_flush);
    let batch = HistDelta::between(&b.batching.batch_size, &a.batching.batch_size);
    let offered = m.offered as f64;
    let per_event = |after: u64, before: u64| (after - before) as f64 / offered;
    let task_events = after.events_processed - before.events_processed;
    let lat = m.latencies_sorted();
    let plain_lat = plain.latencies_sorted();
    let mut late = m.late_ns.clone();
    late.sort_unstable();
    vec![
        metric("plan.register_ms", setup.register_ms, "ms"),
        metric("setup.prefill_s", setup.prefill_s, "s"),
        metric(
            "frontend.send_us_mean",
            trace.mean_us("frontend.send"),
            "us",
        ),
        metric(
            "frontend.collect_us_mean",
            trace.mean_us("frontend.collect"),
            "us",
        ),
        metric("frontend.batch_events_mean", batch.mean(), "events"),
        metric(
            "frontend.refused",
            (m.refused + m.timed_out) as f64,
            "count",
        ),
        metric("unit.poll_us_mean", poll.mean(), "us"),
        metric(
            "handoff.residual_us_mean",
            m.handoff_us_mean - process.mean(),
            "us",
        ),
        metric("unit.process_us_mean", process.mean(), "us"),
        metric("unit.process_us_max", process.max as f64, "us"),
        metric(
            "unit.events_per_batch",
            task_events as f64 / process.count.max(1) as f64,
            "events",
        ),
        metric(
            "task.state_reads_per_event",
            per_event(after.state_reads, before.state_reads),
            "count",
        ),
        metric(
            "task.state_writes_per_event",
            per_event(after.state_writes, before.state_writes),
            "count",
        ),
        metric(
            "task.evictions_per_event",
            per_event(after.evictions, before.evictions),
            "count",
        ),
        metric(
            "agg.self_us_per_event",
            (process.sum - append.sum - wal.sum) / offered,
            "us",
        ),
        metric("reservoir.append_us_mean", append.mean(), "us"),
        metric(
            "reservoir.chunk_misses_per_kevent",
            1e3 * per_event(after.reservoir_chunk_misses, before.reservoir_chunk_misses),
            "count",
        ),
        metric(
            "reservoir.bytes_written_per_event",
            per_event(
                after.reservoir_bytes_written,
                before.reservoir_bytes_written,
            ),
            "B",
        ),
        metric(
            "reservoir.memory_mb",
            after.reservoir_memory_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        metric("store.wal_append_us_mean", wal.mean(), "us"),
        metric(
            "store.flushes",
            (after.store_flushes - before.store_flushes) as f64,
            "count",
        ),
        metric(
            "store.compactions",
            (after.store_compactions - before.store_compactions) as f64,
            "count",
        ),
        metric("store.flush_ms_max", flush.max as f64 / 1e3, "ms"),
        metric("store.flush_ms_total", flush.sum / 1e3, "ms"),
        metric("gen.late_p99_us", percentile_us(&late, 0.99), "us"),
        metric("latency.samples", lat.len() as f64, "count"),
        metric("latency.p95_us", percentile_us(&lat, 0.95), "us"),
        metric("latency.p99_us", percentile_us(&lat, 0.99), "us"),
        metric("latency.p999_us", percentile_us(&lat, 0.999), "us"),
        metric(
            "latency.max_us",
            lat.last().map_or(0.0, |&v| v as f64 / 1e3),
            "us",
        ),
        metric(
            "tracing.overhead_p50_us",
            percentile_us(&lat, 0.5) - percentile_us(&plain_lat, 0.5),
            "us",
        ),
        metric("host.nproc", host::nproc() as f64, "count"),
        metric("host.cpu_probe_ms", probe_ms, "ms"),
    ]
}

/// Nearest-rank percentile of sorted nanosecond samples, in µs.
fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e3
}

/// Median (0 for no values).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method). Needs at least two values.
fn quartiles(values: &mut [f64]) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let n = values.len() as i64;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1) - j * 4) as f64;
        let j = j as usize;
        *q = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    }
    out
}

/// Steadiness mode: rerun this binary `runs` times per workload, each
/// with another seed, and print every metric's median, quartiles and
/// interquartile spread as a share of the median.
fn steady(args: &Args, runs: usize) -> Result<(), String> {
    if runs < 2 {
        return Err("--steady needs at least 2 runs".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => NAMES.to_vec(),
    };
    for name in names {
        let mut table: Vec<(String, String, Vec<f64>)> = Vec::new();
        for seed in 1..=runs as u64 {
            let (detail, line) = run_child(&exe, name, seed, args)?;
            eprintln!("# {name} seed {seed}: {detail}");
            for (metric, value, unit) in parse_metrics(&line)? {
                match table.iter_mut().find(|(n, _, _)| *n == metric) {
                    Some((_, _, v)) => v.push(value),
                    None => table.push((metric, unit, vec![value])),
                }
            }
            eprintln!("# {name} seed {seed}: {line}");
        }
        println!("{name}: {runs} runs of {} s", args.seconds);
        println!(
            "  {:<36} {:>12} {:>12} {:>12} {:>8}",
            "metric", "q1", "median", "q3", "spread"
        );
        for (metric, unit, mut values) in table {
            let [q1, med, q3] = quartiles(&mut values);
            let spread = if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            };
            println!(
                "  {:<36} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>7.1}%  {unit}",
                metric,
                spread * 100.0
            );
        }
    }
    Ok(())
}

/// Run one child; returns its detail line and its result line.
fn run_child(exe: &Path, name: &str, seed: u64, args: &Args) -> Result<(String, String), String> {
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{name} seed {seed} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    match (lines.next(), lines.next()) {
        (Some(result), Some(detail)) => Ok((detail.to_owned(), result.to_owned())),
        _ => Err(format!("{name} seed {seed}: no result line")),
    }
}

/// `(name, value, unit)` of every metric in a result line.
fn parse_metrics(line: &str) -> Result<Vec<(String, f64, String)>, String> {
    let body = line
        .split_once("\"metrics\": {")
        .map(|(_, b)| b)
        .ok_or_else(|| format!("no metrics in `{line}`"))?;
    let mut out = Vec::new();
    for entry in body.split("}, ").map(|e| e.trim_end_matches('}')) {
        let bad = || format!("malformed metric `{entry}`");
        let (name, rest) = entry.split_once(": {\"value\": ").ok_or_else(bad)?;
        let (value, unit) = rest.split_once(", \"unit\": ").ok_or_else(bad)?;
        out.push((
            name.trim_matches('"').to_owned(),
            value.parse().map_err(|_| bad())?,
            unit.trim_matches('"').to_owned(),
        ));
    }
    Ok(out)
}
