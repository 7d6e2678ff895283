//! Result fingerprints for the correctness gate. While the clock runs,
//! each result is reduced to a pair count plus an order-independent hash,
//! both of the whole result and of its rows for a seeded sample of source
//! vertices. After the timed window the sampled rows of every result are
//! compared with `rpq_eval::ProductEvaluator` (the automaton evaluator,
//! which shares no code with the RTC path), and a seeded sample of whole
//! results with `rpq_eval::evaluate_algebraic` or, where that is too
//! slow, with the product evaluator run from every vertex.

use rand::Rng;
use rpq_eval::ProductEvaluator;
use rpq_graph::{LabeledMultigraph, PairSet, VertexId};
use rpq_regex::Regex;

/// Pair count and order-independent hash of a result relation.
pub type Fingerprint = (usize, u64);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fingerprint of raw `(source, target)` pairs, which must be distinct.
pub fn of_pairs(pairs: impl IntoIterator<Item = (u32, u32)>) -> Fingerprint {
    let mut count = 0;
    let mut hash = 0u64;
    for (s, d) in pairs {
        count += 1;
        hash = hash.wrapping_add(mix(((s as u64) << 32 | d as u64).wrapping_add(0x9e37)));
    }
    (count, hash)
}

/// Fingerprint of a result relation.
pub fn of_pair_set(result: &PairSet) -> Fingerprint {
    of_pairs(result.iter().map(|(s, d)| (s.raw(), d.raw())))
}

/// A seeded sample of source vertices whose result rows are checked.
#[derive(Clone, Debug)]
pub struct Sources(Vec<u32>);

impl Sources {
    /// Up to `k` distinct vertices of `0..n`, sorted.
    pub fn sample(n: usize, k: usize, rng: &mut rand::rngs::StdRng) -> Sources {
        let mut picked: Vec<u32> = (0..k.min(n)).map(|_| rng.gen_range(0..n as u32)).collect();
        picked.sort_unstable();
        picked.dedup();
        Sources(picked)
    }

    /// Every vertex of `0..n`: its fingerprint is the whole result's.
    pub fn all(n: usize) -> Sources {
        Sources((0..n as u32).collect())
    }

    /// Number of sampled sources.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no source was sampled.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Fingerprint of `result`'s rows for the sampled sources.
    pub fn of_pair_set(&self, result: &PairSet) -> Fingerprint {
        of_pairs(self.0.iter().flat_map(|&s| {
            result
                .ends_of(VertexId(s))
                .iter()
                .map(move |e| (s, e.raw()))
        }))
    }

    /// Fingerprint of the sampled sources' rows among raw pairs.
    pub fn of_pairs(&self, pairs: &[(u32, u32)]) -> Fingerprint {
        of_pairs(
            pairs
                .iter()
                .copied()
                .filter(|(s, _)| self.0.binary_search(s).is_ok()),
        )
    }

    /// The same fingerprint computed by the product-automaton evaluator.
    pub fn oracle(&self, graph: &LabeledMultigraph, query: &Regex) -> Fingerprint {
        let evaluator = ProductEvaluator::new(graph, query);
        of_pairs(self.0.iter().flat_map(|&s| {
            evaluator
                .ends_from(VertexId(s))
                .into_iter()
                .map(move |e| (s, e.raw()))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_independent_and_content_sensitive() {
        let a = of_pairs([(1, 2), (3, 4), (0, 9)]);
        assert_eq!(a, of_pairs([(0, 9), (1, 2), (3, 4)]));
        assert_ne!(a, of_pairs([(1, 2), (3, 4), (0, 8)]));
        assert_ne!(a, of_pairs([(1, 2), (3, 4)]));
        assert_ne!(of_pairs([(1, 2)]), of_pairs([(2, 1)]));
        let ps = PairSet::from_pairs(vec![(VertexId(3), VertexId(4)), (VertexId(1), VertexId(2))]);
        assert_eq!(of_pair_set(&ps), of_pairs([(1, 2), (3, 4)]));
    }

    #[test]
    fn sampled_rows_agree_with_the_product_evaluator() {
        let g = rpq_graph::fixtures::paper_graph();
        let q = Regex::parse("d.(b.c)+.c").unwrap();
        let full = rpq_eval::evaluate_algebraic(&g, &q);
        let mut rng = crate::gen::rng(1, crate::gen::Stream::Order);
        let sources = Sources::sample(g.vertex_count(), 10, &mut rng);
        assert_eq!(sources.of_pair_set(&full), sources.oracle(&g, &q));
        let raw: Vec<(u32, u32)> = full.iter().map(|(s, d)| (s.raw(), d.raw())).collect();
        assert_eq!(sources.of_pairs(&raw), sources.of_pair_set(&full));
        let all = Sources::all(g.vertex_count());
        assert_eq!(all.of_pair_set(&full), of_pair_set(&full));
    }
}
