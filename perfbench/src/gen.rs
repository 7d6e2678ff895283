//! Seeded input generators. The `--seed` argument is split into one
//! sub-seed per generator, so every input of a run follows from it and the
//! same seed always gives the same inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Each generator that consumes randomness, named so its sub-seed is
/// stable when generators are added.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// The RMAT / surrogate graph.
    Graph,
    /// `generate_workload`'s `R`, `Pre` and `Post` picks.
    Queries,
    /// The Zipf rank order of `serve_mixed`'s query pool.
    Order,
    /// The delta stream of `serve_mixed`.
    Deltas,
    /// Connection A's Zipf draws.
    ClientA,
    /// Connection B's Zipf draws and op mix.
    ClientB,
    /// The correctness gate's source and result samples.
    Check,
}

/// The sub-seed of one generator (a SplitMix64 step over seed and stream).
pub fn sub_seed(seed: u64, stream: Stream) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((stream as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded RNG for one generator.
pub fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, stream))
}

/// Zipf distribution over ranks `0..n` with exponent `s` (rank 0 is the
/// most popular), sampled by inverting the cumulative weights.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf law over `n >= 1` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The command kinds of `serve_mixed`'s connection B.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadKind {
    /// `query R` (a `RESULT-BIN` reply).
    Query,
    /// `ends SRC R` (product evaluator).
    Ends,
    /// `check SRC DST R` (witness search).
    Check,
}

/// Draws connection B's op kind: 80% query, 10% ends, 10% check.
pub fn read_kind(rng: &mut StdRng) -> ReadKind {
    match rng.gen_range(0..10u32) {
        0 => ReadKind::Ends,
        1 => ReadKind::Check,
        _ => ReadKind::Query,
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_stream_and_seed() {
        let streams = [
            Stream::Graph,
            Stream::Queries,
            Stream::Order,
            Stream::Deltas,
            Stream::ClientA,
            Stream::ClientB,
            Stream::Check,
        ];
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 1, 2, u64::MAX] {
            for s in streams {
                assert!(seen.insert(sub_seed(seed, s)), "{seed} {s:?}");
            }
        }
    }

    #[test]
    fn zipf_draws_are_deterministic_per_seed_and_skewed() {
        let z = Zipf::new(300, 1.0);
        let draw = |seed| {
            let mut r = rng(seed, Stream::ClientA);
            (0..2000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let d = draw(7);
        assert!(d.iter().all(|&k| k < 300));
        let head = d.iter().filter(|&&k| k == 0).count();
        let tail = d.iter().filter(|&&k| k == 299).count();
        assert!(head > 10 * tail.max(1), "head {head} tail {tail}");
        // More distinct ranks are drawn than a 256-entry cache holds.
        let distinct: std::collections::HashSet<_> = d.iter().collect();
        assert!(distinct.len() > 150, "{}", distinct.len());
    }

    #[test]
    fn op_mix_is_deterministic_and_near_80_10_10() {
        let mix = |seed| {
            let mut r = rng(seed, Stream::ClientB);
            (0..5000).map(|_| read_kind(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(mix(3), mix(3));
        assert_ne!(mix(3), mix(4));
        let m = mix(3);
        let share = |k| m.iter().filter(|&&x| x == k).count() as f64 / m.len() as f64;
        assert!((share(ReadKind::Query) - 0.8).abs() < 0.03);
        assert!((share(ReadKind::Ends) - 0.1).abs() < 0.03);
        assert!((share(ReadKind::Check) - 0.1).abs() < 0.03);
    }

    #[test]
    fn permutation_is_a_seeded_permutation() {
        let p = permutation(50, &mut rng(1, Stream::Order));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(p, permutation(50, &mut rng(1, Stream::Order)));
        assert_ne!(p, permutation(50, &mut rng(2, Stream::Order)));
    }
}
