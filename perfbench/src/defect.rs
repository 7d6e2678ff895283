//! A fixed replay of the known incremental-maintenance panic.
//!
//! `DynamicRtc` can panic with "no entry found for key" when a stale RTC
//! is refreshed after deltas that delete pairs. Under `serve_mixed`'s two
//! timed connections, which refresh meets which epochs depends on thread
//! timing, so the panic would drop a varying number of operations per
//! run. The timed stream therefore sends insert-only deltas, and every
//! `serve_mixed` run replays this single-threaded schedule instead: the
//! same graph, deltas and queries each time, independent of `--seed`, so
//! its count is the same on every run until the defect is fixed, when it
//! drops to 0.

use rpq_core::Engine;
use rpq_datasets::dynamic::{generate_dynamic_workload, DynamicWorkloadConfig};
use rpq_datasets::workload::{alphabet_of, generate_workload, WorkloadConfig};
use rpq_regex::Regex;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Deltas of the replay (the panic first shows after delta 31, on
/// `(l1.l1)+`).
pub const DELTAS: usize = 40;

/// What the replay saw.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Evaluations run.
    pub evaluations: u64,
    /// Evaluations that panicked.
    pub panics: u64,
    /// The delta after which, and the query on which, the first panic hit.
    pub first: Option<(usize, String)>,
}

/// Replays `Engine::new_dynamic(rmat_n_scaled(0, 9, 7))` under
/// [`DELTAS`] deltas of 8 edge operations (half deletions), evaluating
/// the default `generate_workload` pool (`R⁺` and ten `Pre·R⁺·Post` per
/// `R`) after each delta, and counts the evaluations that panic. Each
/// panic prints its message to stderr.
pub fn replay() -> Outcome {
    let graph = rpq_datasets::rmat::rmat_n_scaled(0, 9, 7);
    let pool: Vec<Regex> = generate_workload(&alphabet_of(&graph), &WorkloadConfig::default())
        .into_iter()
        .flat_map(|set| std::iter::once(Regex::plus(set.r.clone())).chain(set.queries))
        .collect();
    let deltas: Vec<_> = generate_dynamic_workload(
        &graph,
        &DynamicWorkloadConfig {
            rounds: DELTAS,
            updates_per_round: 8,
            ..DynamicWorkloadConfig::default()
        },
    )
    .deltas()
    .cloned()
    .collect();
    let mut engine = Engine::new_dynamic(graph);
    let mut outcome = Outcome::default();
    for (i, delta) in deltas.iter().enumerate() {
        engine.apply_delta(delta);
        for q in &pool {
            outcome.evaluations += 1;
            if catch_unwind(AssertUnwindSafe(|| engine.evaluate(q))).is_err() {
                outcome.panics += 1;
                outcome.first.get_or_insert_with(|| (i + 1, q.to_string()));
            }
        }
    }
    outcome
}
