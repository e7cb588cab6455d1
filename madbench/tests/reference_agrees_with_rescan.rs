//! The benchmark's incremental reference must agree with the engine
//! repository's accurate-but-quadratic rescan baseline on a prefix of
//! every workload: once with the workloads' own windows, and once with the
//! windows shrunk to a few dozen steps so that expiry, the `max` deque and
//! the `countDistinct` multiset are all exercised inside the prefix.

use std::path::{Path, PathBuf};

use madbench::reference::expected_replies;
use madbench::workload::{card_name, merchant_name, AggKind, Group, Payment, Workload, NAMES};
use railgun_baseline::{RescanConfig, RescanEngine};
use railgun_core::lang::AggFunc;
use railgun_store::DbOptions;
use railgun_types::{TimeDelta, Value};

const PREFIX: usize = 1_500;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("rescan-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Per event, the rescan engine's values for every aggregation of every
/// query, in the reference's layout.
fn rescan_replies(w: &Workload, events: &[Payment], dir: &Path) -> Vec<Value> {
    let mut engines: Vec<RescanEngine> = w
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let aggs = q
                .aggs
                .iter()
                .map(|a| match a {
                    AggKind::Sum => (AggFunc::Sum, Some(0)),
                    AggKind::Count => (AggFunc::Count, None),
                    AggKind::Avg => (AggFunc::Avg, Some(0)),
                    AggKind::Max => (AggFunc::Max, Some(0)),
                    AggKind::CountDistinct => (AggFunc::CountDistinct, Some(1)),
                })
                .collect();
            let cfg = RescanConfig {
                window: TimeDelta::from_millis(q.window_ms),
                aggs,
                store: DbOptions::default(),
                cleanup_every: 0,
            };
            RescanEngine::open(&dir.join(i.to_string()), cfg).expect("open rescan engine")
        })
        .collect();
    let mut out = Vec::new();
    for (i, p) in events.iter().enumerate() {
        for (q, engine) in w.queries.iter().zip(&mut engines) {
            let (key, other) = q.group.key_and_other(p);
            let other = match q.group {
                Group::Card => merchant_name(other),
                Group::Merchant => card_name(other),
            };
            let values = [Value::Float(p.amount()), Value::from(other)];
            let got = engine
                .process(q.group.name(key).as_bytes(), w.event_ts(i), &values)
                .expect("rescan");
            out.extend(got);
        }
    }
    out
}

fn assert_agrees(w: &Workload, tag: &str) {
    let events = w.generate(7, PREFIX);
    let expected = expected_replies(w, &events, 0);
    let rescan = rescan_replies(w, &events, &fresh_dir(tag));
    assert_eq!(
        expected.len(),
        rescan.len(),
        "{tag}: one value per aggregation"
    );
    let per_event = w.values_per_event();
    for (i, (want, got)) in expected.iter().zip(&rescan).enumerate() {
        assert!(
            want.matches(got),
            "{tag}: event {} value {}: reference {want:?}, rescan {got:?}",
            i / per_event,
            i % per_event
        );
    }
}

#[test]
fn reference_matches_rescan_on_workload_windows() {
    for name in NAMES {
        let w = Workload::by_name(name).expect("known workload");
        assert_agrees(&w, name);
    }
}

#[test]
fn reference_matches_rescan_with_expiring_windows() {
    for name in NAMES {
        let mut w = Workload::by_name(name).expect("known workload");
        let step = w.step_ms;
        for (i, q) in w.queries.iter_mut().enumerate() {
            // A few dozen events per window, never a whole number of steps.
            q.window_ms = (10 + 7 * i as i64) * step + step / 2;
        }
        assert_agrees(&w, &format!("{name}-short"));
    }
}
