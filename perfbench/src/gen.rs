//! Seeded workload generation, owned by the benchmark.
//!
//! Everything the program under test receives is drawn here: the request
//! pool (source/target attributes taken from the schemas' non-join
//! attributes, plus a constraint triple), the Zipf or uniform request
//! stream over that pool, the seller churn schedule and the wire sessions'
//! op streams. The same seed always yields the same inputs.

use dance::core::{AcquisitionRequest, Constraints};
use dance::market::{DatasetId, Request};
use dance::relation::hash::splitmix64;
use dance::relation::{AttrId, AttrSet, Table};
use std::collections::HashMap;

/// A small splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Attributes that appear in exactly one table — the candidates for request
/// sources and targets (join attributes are shared by name).
pub fn non_join_attrs(tables: &[Table]) -> Vec<(usize, AttrId)> {
    let mut seen: HashMap<AttrId, usize> = HashMap::new();
    for t in tables {
        for a in t.schema().attributes() {
            *seen.entry(a.id).or_insert(0) += 1;
        }
    }
    let mut out = Vec::new();
    for (ti, t) in tables.iter().enumerate() {
        for a in t.schema().attributes() {
            if seen[&a.id] == 1 {
                out.push((ti, a.id));
            }
        }
    }
    out
}

/// `size` distinct requests: a source and a target non-join attribute from
/// different tables, with a constraint triple. Half the requests leave α
/// unbounded, the rest cap it; the quality floor β is drawn in `[0, 0.2)`;
/// the budget stays unbounded (prices are reported, not constrained).
pub fn request_pool(tables: &[Table], size: usize, rng: &mut Rng) -> Vec<AcquisitionRequest> {
    let attrs = non_join_attrs(tables);
    let mut pairs: Vec<(AttrId, AttrId)> = Vec::new();
    for &(ts, s) in &attrs {
        for &(tt, t) in &attrs {
            if ts != tt {
                pairs.push((s, t));
            }
        }
    }
    // Partial Fisher-Yates: the first `size` entries are a uniform draw
    // without replacement.
    let size = size.min(pairs.len());
    for i in 0..size {
        let j = i + rng.below(pairs.len() - i);
        pairs.swap(i, j);
    }
    pairs
        .into_iter()
        .take(size)
        .map(|(s, t)| {
            let alpha = if rng.unit() < 0.5 {
                f64::INFINITY
            } else {
                6.0 + 6.0 * rng.unit()
            };
            let beta = 0.2 * rng.unit();
            AcquisitionRequest::new(AttrSet::singleton(s), AttrSet::singleton(t)).with_constraints(
                Constraints {
                    alpha,
                    beta,
                    budget: f64::INFINITY,
                },
            )
        })
        .collect()
}

/// One block of the request stream: pool index `i` appears
/// `round(block * p_i)` times (largest remainder, so counts sum to `block`),
/// where `p_i` is its Zipf(θ) probability — uniform for θ = 0.
pub fn request_block(pool: usize, theta: f64, block: usize) -> Vec<usize> {
    let w: Vec<f64> = (0..pool)
        .map(|r| 1.0 / ((r + 1) as f64).powf(theta))
        .collect();
    let total: f64 = w.iter().sum();
    let exact: Vec<f64> = w.iter().map(|x| x / total * block as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut rest: Vec<usize> = (0..pool).collect();
    rest.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = block - counts.iter().sum::<usize>();
    for &i in rest.iter().take(short) {
        counts[i] += 1;
    }
    counts
        .iter()
        .enumerate()
        .flat_map(|(i, &c)| std::iter::repeat_n(i, c))
        .collect()
}

/// The request stream: `blocks` copies of `block`, each shuffled by the
/// seed. Every block holds the same multiset of requests, so a run that
/// stops at a block boundary has issued each request its expected number
/// of times, in seeded order.
pub fn request_stream(block: &[usize], blocks: usize, rng: &mut Rng) -> Vec<usize> {
    let mut out = Vec::with_capacity(block.len() * blocks);
    for _ in 0..blocks {
        let mut b = block.to_vec();
        for i in (1..b.len()).rev() {
            b.swap(i, rng.below(i + 1));
        }
        out.extend(b);
    }
    out
}

/// One seller update in the churn schedule.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Dataset updated.
    pub dataset: u32,
    /// Seed of its `churn_delta`.
    pub seed: u64,
}

/// Churn schedule over the `sellers` largest datasets: every round of
/// `sellers` consecutive updates touches each of them once, in an order
/// drawn from `rng`. Seller `d`'s `r`-th delta is fixed (seeded by `d` and
/// `r` alone), so every run sees the same data evolution per seller and
/// only the interleaving differs.
pub fn churn_schedule(tables: &[Table], sellers: usize, len: usize, rng: &mut Rng) -> Vec<Churn> {
    let mut by_size: Vec<u32> = (0..tables.len() as u32).collect();
    by_size.sort_by_key(|&i| (std::cmp::Reverse(tables[i as usize].num_rows()), i));
    by_size.truncate(sellers.max(1));
    let mut out = Vec::with_capacity(len);
    for round in 0u64.. {
        if out.len() >= len {
            break;
        }
        let mut block = by_size.clone();
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        out.extend(block.into_iter().map(|dataset| Churn {
            dataset,
            seed: splitmix64(u64::from(dataset) << 32 | round),
        }));
    }
    out.truncate(len);
    out
}

/// One wire op of a session, before the session id is known.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `OpenSession` with this seed.
    Open {
        /// Session seed.
        seed: u64,
    },
    /// `Quote`.
    Quote(DatasetId, AttrSet),
    /// `QuoteBatch`.
    QuoteBatch(Vec<(DatasetId, AttrSet)>),
    /// `BuySample` at `rate`, keyed on the dataset's default key.
    BuySample(DatasetId, AttrSet, f64),
    /// `Execute`.
    Execute(DatasetId, AttrSet),
    /// `CloseSession`.
    Close,
}

impl Op {
    /// Index into the per-op-kind tables (`open, quote, quote_batch,
    /// buy_sample, execute, close`).
    pub fn kind(&self) -> usize {
        match self {
            Op::Open { .. } => 0,
            Op::Quote(..) => 1,
            Op::QuoteBatch(_) => 2,
            Op::BuySample(..) => 3,
            Op::Execute(..) => 4,
            Op::Close => 5,
        }
    }

    /// The wire request for session `session`.
    pub fn request(&self, shopper: u64, session: u64) -> Request {
        match self {
            Op::Open { seed } => Request::OpenSession {
                shopper,
                seed: *seed,
                budget: f64::INFINITY,
            },
            Op::Quote(d, a) => Request::Quote {
                session,
                dataset: d.0,
                attrs: a.clone(),
            },
            Op::QuoteBatch(items) => Request::QuoteBatch {
                session,
                items: items.clone(),
            },
            Op::BuySample(d, key, rate) => Request::BuySample {
                session,
                dataset: d.0,
                rate: *rate,
                key: key.clone(),
            },
            Op::Execute(d, a) => Request::Execute {
                session,
                dataset: d.0,
                attrs: a.clone(),
            },
            Op::Close => Request::CloseSession { session },
        }
    }
}

/// Names of the op kinds, aligned with [`Op::kind`].
pub const OP_KINDS: [&str; 6] = [
    "open",
    "quote",
    "quote_batch",
    "buy_sample",
    "execute",
    "close",
];

/// Session `k`'s op stream: open, `body` Try-Before-You-Buy ops — mostly
/// single quotes, plus one batch quote, one sample purchase and one
/// projection purchase at seeded positions — then close. The two purchases
/// cycle through the datasets with `k`, so every run buys from each dataset
/// equally often.
pub fn session_ops(tables: &[Table], body: usize, k: usize, rng: &mut Rng) -> Vec<Op> {
    let pick = |rng: &mut Rng| -> (DatasetId, AttrSet) {
        let d = rng.below(tables.len());
        let attrs = tables[d].schema().attributes();
        let a = attrs[rng.below(attrs.len())].id;
        let b = attrs[rng.below(attrs.len())].id;
        (DatasetId(d as u32), AttrSet::from_ids([a, b]))
    };
    let batch_at = rng.below(body);
    let sample_at = rng.below(body);
    let execute_at = rng.below(body);
    let mut ops = vec![Op::Open {
        seed: rng.next_u64(),
    }];
    for i in 0..body {
        if i == batch_at {
            let n = 2 + rng.below(3);
            ops.push(Op::QuoteBatch((0..n).map(|_| pick(rng)).collect()));
        }
        if i == sample_at {
            let d = k % tables.len();
            let key = AttrSet::singleton(tables[d].schema().attributes()[0].id);
            ops.push(Op::BuySample(DatasetId(d as u32), key, 0.1));
        }
        if i == execute_at {
            let d = (k + tables.len() / 2) % tables.len();
            let attrs = tables[d].schema().attributes();
            let a = attrs[rng.below(attrs.len())].id;
            ops.push(Op::Execute(DatasetId(d as u32), AttrSet::singleton(a)));
        }
        let (d, a) = pick(rng);
        ops.push(Op::Quote(d, a));
    }
    ops.push(Op::Close);
    ops
}

/// One window of wire sessions: the session `pool` (part of the workload,
/// drawn once from a fixed seed) in an order drawn from `rng`, each session
/// with a fresh seed. Every window issues the same ops, so windows and runs
/// differ only in their order, timing and the rows sampled.
pub fn wire_window(pool: &[Vec<Op>], rng: &mut Rng) -> Vec<Vec<Op>> {
    let mut w = pool.to_vec();
    for i in (1..w.len()).rev() {
        w.swap(i, rng.below(i + 1));
    }
    for ops in &mut w {
        if let Some(Op::Open { seed }) = ops.first_mut() {
            *seed = rng.next_u64();
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_follow_zipf_counts() {
        let b = request_block(24, 1.0, 120);
        assert_eq!(b.len(), 120);
        let count = |i| b.iter().filter(|&&x| x == i).count();
        assert!(count(0) > 2 * count(3) && count(3) >= count(23) && count(23) >= 1);
        let u = request_block(64, 0.0, 64);
        assert!((0..64).all(|i| u.iter().filter(|&&x| x == i).count() == 1));
        let s = request_stream(&b, 3, &mut Rng::new(5, 1));
        let mut first = s[..120].to_vec();
        first.sort_unstable();
        let mut sorted = b.clone();
        sorted.sort_unstable();
        assert_eq!(
            first, sorted,
            "each block is a permutation of the block multiset"
        );
    }

    #[test]
    fn streams_repeat_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
