//! Exact reference answers, computed from the generated inputs before any
//! timed phase.
//!
//! Per query and group key the reference keeps the key's events inside the
//! window, a running sum and count, a monotonic deque for `max` and a value
//! multiset for `countDistinct`. Event `i` at time `t` sees every event of
//! its key with a timestamp in `(t - ws, t]` — the engine's sliding-window
//! bound. Amounts are quarters, so sums are integers here and exact as
//! `f64` in the engine.

use std::collections::{HashMap, VecDeque};

use railgun_core::{QueryId, SendOutcome};
use railgun_types::Value;

use crate::workload::{AggKind, Payment, QuerySpec, Workload};

/// Tolerance for float aggregates, as in the engine's Figure 1 accuracy
/// test (`tests/figure1_accuracy.rs`).
pub const FLOAT_TOLERANCE: f64 = 1e-6;

/// One expected aggregation value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expected {
    Int(i64),
    Float(f64),
}

impl Expected {
    /// Whether `got` matches: integers exactly, floats within
    /// [`FLOAT_TOLERANCE`].
    pub fn matches(&self, got: &Value) -> bool {
        match (self, got) {
            (Expected::Int(want), Value::Int(v)) => v == want,
            (Expected::Float(want), Value::Float(v)) => (v - want).abs() < FLOAT_TOLERANCE,
            _ => false,
        }
    }
}

#[derive(Default)]
struct KeyWindow {
    /// `(ts, quarters, other id)` of the key's events still in the window.
    events: VecDeque<(i64, u32, u32)>,
    sum_quarters: i64,
    /// Monotonically decreasing `(ts, quarters)`; the front is the max.
    max: VecDeque<(i64, u32)>,
    distinct: HashMap<u32, u32>,
}

impl KeyWindow {
    fn push(&mut self, ts: i64, quarters: u32, other: u32, window_ms: i64) {
        let lower = ts - window_ms;
        while let Some(&(t, q, o)) = self.events.front() {
            if t > lower {
                break;
            }
            self.events.pop_front();
            self.sum_quarters -= i64::from(q);
            let left = self.distinct.get_mut(&o).expect("tracked value");
            *left -= 1;
            if *left == 0 {
                self.distinct.remove(&o);
            }
        }
        while self.max.front().is_some_and(|&(t, _)| t <= lower) {
            self.max.pop_front();
        }
        self.events.push_back((ts, quarters, other));
        self.sum_quarters += i64::from(quarters);
        while self.max.back().is_some_and(|&(_, q)| q <= quarters) {
            self.max.pop_back();
        }
        self.max.push_back((ts, quarters));
        *self.distinct.entry(other).or_insert(0) += 1;
    }

    fn value(&self, agg: AggKind) -> Expected {
        let count = self.events.len() as i64;
        let sum = self.sum_quarters as f64 / 4.0;
        match agg {
            AggKind::Sum => Expected::Float(sum),
            AggKind::Count => Expected::Int(count),
            AggKind::Avg => Expected::Float(sum / count as f64),
            AggKind::Max => Expected::Float(f64::from(self.max[0].1) / 4.0),
            AggKind::CountDistinct => Expected::Int(self.distinct.len() as i64),
        }
    }
}

/// Expected replies for events `from..` of `events`: for each event, one
/// value per aggregation of every query, in query order
/// ([`Workload::values_per_event`] values per event).
pub fn expected_replies(w: &Workload, events: &[Payment], from: usize) -> Vec<Expected> {
    let mut windows: Vec<HashMap<u32, KeyWindow>> =
        w.queries.iter().map(|_| HashMap::new()).collect();
    let mut out = Vec::with_capacity(events.len().saturating_sub(from) * w.values_per_event());
    for (i, p) in events.iter().enumerate() {
        let ts = w.event_ts(i).as_millis();
        for (q, keys) in w.queries.iter().zip(&mut windows) {
            let (key, other) = q.group.key_and_other(p);
            let win = keys.entry(key).or_default();
            win.push(ts, p.quarters, other, q.window_ms);
            if i >= from {
                out.extend(q.aggs.iter().map(|&a| win.value(a)));
            }
        }
    }
    out
}

/// Compare one reply with its expected values. `ids` are the registered
/// queries' ids, index-aligned with `Workload::queries`.
pub fn reply_matches(
    queries: &[QuerySpec],
    ids: &[QueryId],
    expected: &[Expected],
    reply: &SendOutcome,
) -> bool {
    let mut want = expected.iter();
    for (q, &id) in queries.iter().zip(ids) {
        for index in 0..q.aggs.len() {
            let Some(w) = want.next() else { return false };
            match reply.get(id, index) {
                Some(got) if w.matches(&got.value) => {}
                _ => return false,
            }
        }
    }
    true
}
