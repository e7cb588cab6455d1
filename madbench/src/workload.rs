//! The three workloads and their seeded input generator.
//!
//! Every workload uses the compact 3-field payments schema
//! (`cardId`, `merchantId`, `amount`). Event `i` carries the timestamp
//! `T0 + i * step_ms`, independent of wall time, so the replies are a pure
//! function of the seed and can be checked against an exact reference.
//! No window span is a multiple of a workload's step, so no event ever
//! sits exactly on a window's lower bound (the one instant where the
//! engine's half-open `(t - ws, t]` window and an inclusive rescan differ).

use railgun_core::lang::{millis, Agg, Query, Window};
use railgun_types::{FieldType, Timestamp, Value};

/// Event time of the first generated event (ms).
pub const T0_MS: i64 = 1_600_000_000_000;

const MIN_MS: i64 = 60_000;
const HOUR_MS: i64 = 60 * MIN_MS;
const DAY_MS: i64 = 24 * HOUR_MS;

/// The payments schema shared by every workload.
pub const FIELDS: [(&str, FieldType); 3] = [
    ("cardId", FieldType::Str),
    ("merchantId", FieldType::Str),
    ("amount", FieldType::Float),
];

/// One generated payment. Amounts are quarters (`amount = quarters / 4`),
/// so every window sum is exactly representable and exact in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Payment {
    pub card: u32,
    pub merchant: u32,
    pub quarters: u32,
}

impl Payment {
    pub fn amount(&self) -> f64 {
        f64::from(self.quarters) / 4.0
    }

    /// The event's field values, in [`FIELDS`] order.
    pub fn values(&self) -> Vec<Value> {
        vec![
            Value::from(card_name(self.card)),
            Value::from(merchant_name(self.merchant)),
            Value::Float(self.amount()),
        ]
    }
}

pub fn card_name(card: u32) -> String {
    format!("c{card}")
}

pub fn merchant_name(merchant: u32) -> String {
    format!("m{merchant}")
}

/// Which id field a query groups by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Card,
    Merchant,
}

impl Group {
    pub fn field(self) -> &'static str {
        match self {
            Group::Card => "cardId",
            Group::Merchant => "merchantId",
        }
    }

    /// The event's group key and the *other* id (the `countDistinct`
    /// input).
    pub fn key_and_other(self, p: &Payment) -> (u32, u32) {
        match self {
            Group::Card => (p.card, p.merchant),
            Group::Merchant => (p.merchant, p.card),
        }
    }

    pub fn name(self, key: u32) -> String {
        match self {
            Group::Card => card_name(key),
            Group::Merchant => merchant_name(key),
        }
    }
}

/// The aggregations the workloads use. `CountDistinct` counts the other
/// id field (merchants per card, cards per merchant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    Sum,
    Count,
    Avg,
    Max,
    CountDistinct,
}

/// One registered query: aggregations over one group-by and one sliding
/// window.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub group: Group,
    pub window_ms: i64,
    pub aggs: Vec<AggKind>,
}

impl QuerySpec {
    fn new(group: Group, window_ms: i64, aggs: &[AggKind]) -> Self {
        QuerySpec {
            group,
            window_ms,
            aggs: aggs.to_vec(),
        }
    }

    /// The engine query, built with the query builder.
    pub fn to_query(&self) -> Query {
        let other = match self.group {
            Group::Card => "merchantId",
            Group::Merchant => "cardId",
        };
        let spec = |a: AggKind| match a {
            AggKind::Sum => Agg::sum("amount"),
            AggKind::Count => Agg::count(),
            AggKind::Avg => Agg::avg("amount"),
            AggKind::Max => Agg::max("amount"),
            AggKind::CountDistinct => Agg::count_distinct(other),
        };
        let mut b = Query::select(spec(self.aggs[0]));
        for &a in &self.aggs[1..] {
            b = b.select(spec(a));
        }
        b.from("payments")
            .group_by([self.group.field()])
            .over(Window::sliding(millis(self.window_ms)))
            .build()
            .expect("workload queries are complete")
    }
}

/// A workload: input shape, offered rate and engine configuration.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Offered rate of the measured phase (events per wall second).
    pub rate_eps: u64,
    /// Event-time step between consecutive events (ms).
    pub step_ms: i64,
    /// Events sent during set-up so every window is full when the
    /// measured phase starts.
    pub prefill: usize,
    pub cards: u32,
    pub merchants: u32,
    /// Zipf exponent of the card and merchant populations (0 = flat).
    pub zipf_s: f64,
    /// Stream partitioners (one topic, and one task per partition, each).
    pub partitioners: &'static [&'static str],
    /// Partitions per partitioner topic.
    pub partitions: u32,
    pub queries: Vec<QuerySpec>,
    /// Per-task checkpoint cadence in events (0 = off).
    pub checkpoint_every: u64,
    /// Reservoir chunk-cache capacity per task, in chunks.
    pub cache_chunks: usize,
    /// Set-ups per untraced run (`setup_s` is their median): more where a
    /// set-up is short and its time noisy.
    pub setup_reps: usize,
    /// Reservoir read-ahead. Off, every chunk a tail cursor enters after
    /// it left the cache is a synchronous read on the unit thread.
    pub prefetch: bool,
}

/// Names of every workload, in report order.
pub const NAMES: [&str; 3] = ["hot-5m", "cold-7d", "fanout-16q"];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        use AggKind::*;
        use Group::*;
        let w = match name {
            // The paper's Q1 over a few thousand Zipf cards: state stays
            // in the memtable and every tail read hits the chunk cache.
            "hot-5m" => Workload {
                name: "hot-5m",
                rate_eps: 10_000,
                step_ms: 7,
                prefill: 5 * MIN_MS as usize / 7 + 1,
                cards: 4_000,
                merchants: 1_000,
                zipf_s: 1.0,
                partitioners: &["cardId"],
                partitions: 2,
                queries: vec![QuerySpec::new(Card, 5 * MIN_MS, &[Sum, Count])],
                checkpoint_every: 0,
                cache_chunks: 220,
                setup_reps: 15,
                prefetch: true,
            },
            // Week-long windows over a flat population on both
            // partitioners: state outgrows the memtable (flushes on the put
            // path), the tail cursors read evicted chunks, and scheduled
            // checkpoints run. Its service times have a long tail, so the
            // rate stays low: at 500 ev/s queueing made p95 swing 39 %
            // between runs.
            "cold-7d" => Workload {
                name: "cold-7d",
                rate_eps: 250,
                step_ms: 7 * DAY_MS / 30_000 + 1,
                prefill: 30_000,
                cards: 40_000,
                merchants: 8_000,
                zipf_s: 0.0,
                partitioners: &["cardId", "merchantId"],
                partitions: 1,
                queries: vec![
                    QuerySpec::new(Card, 7 * DAY_MS, &[Sum, Count]),
                    QuerySpec::new(Card, 7 * DAY_MS, &[Avg, Max]),
                    QuerySpec::new(Card, 7 * DAY_MS, &[CountDistinct]),
                    QuerySpec::new(Merchant, 7 * DAY_MS, &[Sum, Count]),
                    QuerySpec::new(Merchant, 7 * DAY_MS, &[CountDistinct]),
                ],
                checkpoint_every: 4_000,
                cache_chunks: 32,
                setup_reps: 3,
                prefetch: false,
            },
            // Sixteen queries, 1 minute to 1 day, on both group-bys, over
            // a key set small enough that the store never flushes.
            "fanout-16q" => {
                let mut queries = Vec::new();
                for window_ms in [MIN_MS, 5 * MIN_MS, HOUR_MS, DAY_MS] {
                    for group in [Card, Merchant] {
                        queries.push(QuerySpec::new(group, window_ms, &[Sum, Count]));
                        queries.push(QuerySpec::new(group, window_ms, &[Avg, Max]));
                    }
                }
                Workload {
                    name: "fanout-16q",
                    rate_eps: 1_000,
                    step_ms: DAY_MS / 20_000 + 1,
                    prefill: 20_000,
                    cards: 600,
                    merchants: 150,
                    zipf_s: 0.8,
                    partitioners: &["cardId", "merchantId"],
                    partitions: 1,
                    queries,
                    checkpoint_every: 0,
                    cache_chunks: 220,
                    setup_reps: 3,
                    prefetch: true,
                }
            }
            _ => return None,
        };
        for q in &w.queries {
            assert!(
                q.window_ms % w.step_ms != 0,
                "{}: window {} ms is a multiple of the {} ms step",
                w.name,
                q.window_ms,
                w.step_ms
            );
        }
        Some(w)
    }

    /// Events offered during a measured phase of `seconds`.
    pub fn measured_events(&self, seconds: u64) -> usize {
        (self.rate_eps * seconds) as usize
    }

    /// Event time of event `i`.
    pub fn event_ts(&self, i: usize) -> Timestamp {
        Timestamp::from_millis(T0_MS + i as i64 * self.step_ms)
    }

    /// Aggregation values per reply (sum over queries).
    pub fn values_per_event(&self) -> usize {
        self.queries.iter().map(|q| q.aggs.len()).sum()
    }

    /// Generate `n` payments from `seed`: the same seed gives the same
    /// inputs.
    pub fn generate(&self, seed: u64, n: usize) -> Vec<Payment> {
        let mut rng = SplitMix64(seed ^ fnv(self.name));
        let cards = Sampler::new(self.cards, self.zipf_s);
        let merchants = Sampler::new(self.merchants, self.zipf_s);
        (0..n)
            .map(|_| Payment {
                card: cards.sample(&mut rng),
                merchant: merchants.sample(&mut rng),
                // $1.00 to $1000.00 in quarter steps.
                quarters: 4 + (rng.next_u64() % 3_997) as u32,
            })
            .collect()
    }
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64: small, seedable, and fixed across toolchains.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Key sampler: flat when `s == 0`, else Zipf via a precomputed CDF.
struct Sampler {
    n: u32,
    cdf: Vec<f64>,
}

impl Sampler {
    fn new(n: u32, s: f64) -> Self {
        let cdf = if s == 0.0 {
            Vec::new()
        } else {
            let mut acc = 0.0;
            let mut cdf: Vec<f64> = (1..=n)
                .map(|k| {
                    acc += 1.0 / f64::from(k).powf(s);
                    acc
                })
                .collect();
            for c in &mut cdf {
                *c /= acc;
            }
            cdf
        };
        Sampler { n, cdf }
    }

    fn sample(&self, rng: &mut SplitMix64) -> u32 {
        if self.cdf.is_empty() {
            return (rng.next_u64() % u64::from(self.n)) as u32;
        }
        let u = rng.unit();
        (self.cdf.partition_point(|&c| c < u) as u32).min(self.n - 1)
    }
}
