//! The batch workloads `paper_sets` and `closure_sets`: multiple-RPQ sets,
//! each on a fresh single-threaded RTCSharing engine, one
//! `Engine::evaluate` per query. The traced run also replays Algorithm 1
//! per query through the crates' public stage functions and requires the
//! replay to reproduce the engine's result exactly.
//!
//! Query, set and set-up times are the process's CPU time ([`cpu_time`]):
//! the evaluation is single-threaded and in-process, so on a core of its
//! own that is its wall time, and on a shared host it leaves out the time
//! other processes hold the core. The end-to-end figures divide them by
//! the host's speed, measured by the reference kernel of [`speed`] once
//! before each set, and are in reference milliseconds; raw CPU and wall
//! times are noted beside them. The traced run's stage shares are of wall
//! time, as its spans are.

use crate::check::{self, Fingerprint, Sources};
use crate::gen::{self, Stream};
use crate::report::Report;
use crate::stats::{self, median, percentile};
use crate::trace::Tracer;
use crate::{cpu_time, ms, speed, Options, Size, Workload};
use rand::Rng;
use rpq_core::{
    eval_batch_unit_rtc, EliminationStats, Engine, EngineConfig, PreRelation, Strategy,
};
use rpq_datasets::workload::{alphabet_of, generate_workload, WorkloadConfig};
use rpq_eval::eval_label_names;
use rpq_graph::{LabeledMultigraph, PairSet, RowSetPolicy};
use rpq_reduction::Rtc;
use rpq_regex::{decompose, to_dnf_with_limit, ClosureKind, Regex, DEFAULT_CLAUSE_LIMIT};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries that share one closure body `R`.
#[derive(Clone, Debug)]
pub struct QuerySet {
    /// The shared closure body.
    pub r: Regex,
    /// The set's queries, evaluated in order on one fresh engine.
    pub queries: Vec<Regex>,
}

/// A batch workload's generated inputs.
pub struct BatchInputs {
    /// The data graph.
    pub graph: LabeledMultigraph,
    /// Query sets. The window stops only after whole passes over them, so
    /// every run times the same mix of queries.
    pub sets: Vec<QuerySet>,
}

/// `generate_workload` sets: `rs_per_length` distinct `R` per entry of
/// `lengths`, `queries_per_set` `Pre·R⁺·Post` queries each.
fn workload_sets(
    alphabet: &[String],
    lengths: &[usize],
    rs_per_length: usize,
    queries_per_set: usize,
    seed: u64,
) -> Vec<QuerySet> {
    let config = WorkloadConfig {
        rs_per_length,
        r_lengths: lengths.to_vec(),
        queries_per_set,
        use_star: false,
        seed: gen::sub_seed(seed, Stream::Queries),
    };
    generate_workload(alphabet, &config)
        .into_iter()
        .map(|set| QuerySet {
            r: set.r,
            queries: set.queries,
        })
        .collect()
}

/// `paper_sets` inputs: RMAT_3 (`2^scale` vertices, 8 edges per vertex,
/// 4 labels) and sets of ten `Pre·R⁺·Post` queries, `R` of 1, 2 or 3
/// labels.
pub fn paper_inputs(seed: u64, size: &Size) -> BatchInputs {
    let graph =
        rpq_datasets::rmat::rmat_n_scaled(3, size.paper_scale, gen::sub_seed(seed, Stream::Graph));
    let sets = workload_sets(
        &alphabet_of(&graph),
        &[1, 2, 3],
        size.paper_rs_per_length,
        10,
        seed,
    );
    BatchInputs { graph, sets }
}

/// `closure_sets` inputs: the Youtube surrogate (5 labels, scaled down by
/// `size.closure_denominator`) and, per `R`, the queries `R⁺`, `R*` and
/// `a·R⁺`.
///
/// `R` has 2 or 3 labels. The workload exists to time the `R_G` label
/// joins, which a one-label `R` does not have. The first query of a
/// length-3 set pays a join about ten times costlier than any other query;
/// at one query in six, p90 falls well inside that slow group rather than
/// on its edge.
pub fn closure_inputs(seed: u64, size: &Size) -> BatchInputs {
    let spec = &rpq_datasets::surrogate::SPECS[3];
    let graph = rpq_datasets::surrogate::spec_scaled(
        spec,
        size.closure_denominator,
        gen::sub_seed(seed, Stream::Graph),
    );
    let alphabet = alphabet_of(&graph);
    let mut rng = gen::rng(seed, Stream::Queries);
    let sets = workload_sets(&alphabet, &[2, 3], size.closure_rs_per_length, 1, seed)
        .into_iter()
        .map(|QuerySet { r, .. }| {
            let a = Regex::label(&alphabet[rng.gen_range(0..alphabet.len())]);
            let queries = vec![
                Regex::plus(r.clone()),
                Regex::star(r.clone()),
                Regex::concat(vec![a, Regex::plus(r.clone())]),
            ];
            QuerySet { r, queries }
        })
        .collect();
    BatchInputs { graph, sets }
}

fn inputs(workload: Workload, seed: u64, size: &Size) -> BatchInputs {
    match workload {
        Workload::PaperSets => paper_inputs(seed, size),
        Workload::ClosureSets => closure_inputs(seed, size),
        Workload::ServeMixed => unreachable!("serve_mixed is not a batch workload"),
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        strategy: Strategy::RtcSharing,
        threads: 1,
        ..EngineConfig::default()
    }
}

/// Stage totals of the traced replay.
#[derive(Default)]
struct ReplayTotals {
    stats: EliminationStats,
    rtc_pairs: Vec<f64>,
    rtc_sccs: Vec<f64>,
    replay_wall: Duration,
}

/// Algorithm 1 re-run from public stage functions, with one span per
/// stage call. Its closure cache lives for one set, like the fresh
/// engine's.
struct Replay<'a> {
    graph: &'a LabeledMultigraph,
    policy: RowSetPolicy,
    rtcs: HashMap<String, Arc<Rtc>>,
    tracer: &'a mut Tracer,
    totals: &'a mut ReplayTotals,
    request: u64,
    root: Option<usize>,
}

impl Replay<'_> {
    fn eval(&mut self, q: &Regex) -> PairSet {
        let (g, request, root) = (self.graph, self.request, self.root);
        let clauses = self
            .tracer
            .time("regex.dnf", request, root, || {
                to_dnf_with_limit(q, DEFAULT_CLAUSE_LIMIT)
            })
            .expect("benchmark queries stay within the DNF clause limit");
        let mut out = PairSet::new();
        for clause in &clauses {
            let unit = self
                .tracer
                .time("regex.dnf", request, root, || decompose(clause));
            let clause_g = match unit.closure {
                None => self.tracer.time("eval.label_seq", request, root, || {
                    eval_label_names(g, &unit.post)
                }),
                Some((r, kind)) => {
                    let pre = if unit.pre == Regex::Epsilon {
                        PreRelation::Identity(g.vertex_count())
                    } else {
                        PreRelation::Pairs(self.eval(&unit.pre))
                    };
                    let rtc = self.rtc(&r);
                    if matches!(pre, PreRelation::Identity(_)) && unit.post.is_empty() {
                        // Theorem 2: a bare closure is the expanded RTC.
                        self.tracer.time("reduction.rtc_expand", request, root, || {
                            let expanded = rtc.expand_parallel(1);
                            if kind == ClosureKind::Star {
                                expanded.union(&PairSet::identity(g.vertex_count()))
                            } else {
                                expanded
                            }
                        })
                    } else {
                        let start = Instant::now();
                        let unit_out = eval_batch_unit_rtc(
                            g,
                            &pre,
                            &rtc,
                            kind,
                            &unit.post,
                            &mut self.totals.stats,
                        );
                        let span = self.tracer.record(
                            "core.batch_unit",
                            request,
                            root,
                            start,
                            start.elapsed(),
                        );
                        self.tracer.record(
                            "core.pre_join",
                            request,
                            Some(span),
                            start,
                            unit_out.pre_join,
                        );
                        self.tracer.record(
                            "core.post",
                            request,
                            Some(span),
                            start + unit_out.pre_join,
                            unit_out.post,
                        );
                        unit_out.result
                    }
                }
            };
            self.tracer.time("core.union", request, root, || {
                out.union_in_place(&clause_g)
            });
        }
        out
    }

    fn rtc(&mut self, r: &Regex) -> Arc<Rtc> {
        let key = r.canonical_key();
        if let Some(rtc) = self.rtcs.get(&key) {
            return Arc::clone(rtc);
        }
        let r_g = self.eval(r);
        let policy = self.policy;
        let rtc = self
            .tracer
            .time("reduction.rtc_build", self.request, self.root, || {
                Arc::new(Rtc::from_pairs_with(&r_g, &policy))
            });
        self.totals.rtc_pairs.push(rtc.closure_pair_count() as f64);
        self.totals.rtc_sccs.push(rtc.scc_count() as f64);
        self.rtcs.insert(key, Arc::clone(&rtc));
        rtc
    }
}

/// What the timed window observed.
#[derive(Default)]
struct Window {
    /// Queries evaluated, failed ones included.
    evaluated: u64,
    /// Every `(set run, CPU time)` of each `(set, query)`; set runs are
    /// numbered in the order they ran.
    latencies_ms: BTreeMap<(usize, usize), Vec<(usize, f64)>>,
    /// Every `(set run, CPU response time)` of each set.
    set_ms: BTreeMap<usize, Vec<(usize, f64)>>,
    /// The reference kernel's time before each set run.
    kernel_ms: Vec<f64>,
    /// Wall time spent in `Engine::evaluate`, all passes.
    wall_ms: f64,
    /// Whole-result and sampled-row fingerprints seen per `(set, query)`.
    results: BTreeMap<(usize, usize), Vec<(Fingerprint, Fingerprint)>>,
    failed: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_stale: u64,
    result_hits: u64,
    result_misses: u64,
    result_evictions: u64,
    structural_bytes: Vec<f64>,
    shared_data: Duration,
    pre_join: Duration,
    remainder: Duration,
}

/// Runs one batch workload.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::new();
    // One set-up makes the inputs; the repeats run one before each later
    // pass, the rest after the window. A set-up takes a few milliseconds,
    // so repeats run back to back would all see the host's speed of one
    // moment; spread over the run, their median follows it as the query
    // timings do. Each is normalized by three kernel runs just before it.
    let mut setup = Vec::new();
    let mut setup_raw = Vec::new();
    let mut set_up = |setup: &mut Vec<f64>| {
        let (generated, raw, normalized) = speed::timed(|| {
            let generated = inputs(opts.workload, opts.seed, &opts.size);
            let engine = Engine::with_config(&generated.graph, engine_config());
            std::hint::black_box(&engine);
            drop(engine);
            generated
        });
        setup_raw.push(raw);
        setup.push(normalized);
        generated
    };
    let inputs = set_up(&mut setup);
    let g = &inputs.graph;
    report.note(format!(
        "{}: {} vertices, {} edges, {} labels, {} sets of {} queries, seed {}",
        opts.workload.name(),
        g.vertex_count(),
        g.edge_count(),
        g.label_count(),
        inputs.sets.len(),
        inputs.sets[0].queries.len(),
        opts.seed
    ));

    let sources = Sources::sample(
        g.vertex_count(),
        opts.size.source_sample,
        &mut gen::rng(opts.seed, Stream::Check),
    );
    let mut window = Window::default();
    let mut tracer = Tracer::new();
    let mut totals = ReplayTotals::default();
    let start = Instant::now();
    let mut next = 0usize;
    while !next.is_multiple_of(inputs.sets.len()) || start.elapsed() < opts.seconds {
        let set_idx = next % inputs.sets.len();
        if set_idx == 0 && next > 0 && setup.len() < opts.size.setup_repeats {
            set_up(&mut setup);
        }
        window.kernel_ms.push(speed::kernel_ms());
        run_set(
            g,
            (set_idx, next),
            &inputs.sets[set_idx],
            &sources,
            &mut window,
            opts.trace.then_some((&mut tracer, &mut totals)),
        );
        next += 1;
    }
    let wall = start.elapsed();
    let peak = crate::peak_rss_mb();
    while setup.len() < opts.size.setup_repeats {
        set_up(&mut setup);
    }

    let attempted = window.evaluated;
    let mismatches = oracle_check(
        g,
        &inputs.sets,
        &window.results,
        &sources,
        opts,
        &mut report,
    );
    report.attempted = attempted;
    report.failed = window.failed + mismatches;
    // An evaluation error is a wrong output as much as a wrong result.
    report.correct = mismatches == 0 && window.failed == 0;
    let busy_ms: f64 = window.latencies_ms.values().flatten().map(|t| t.1).sum();
    let wall_ms = window.wall_ms;
    // Each query's (and set's) fastest pass, its CPU time divided by the
    // host speed factor around its set run. Slow periods on this host can
    // span whole runs but leave fast moments in nearly every run; the
    // fastest normalized pass lands in one of them, while a median over
    // the passes follows the share of slow ones.
    let factors = speed::local_factors(&window.kernel_ms);
    let fastest = |timings: &[(usize, f64)], normalize: bool| -> f64 {
        let v: Vec<f64> = timings
            .iter()
            .map(|&(run, t)| if normalize { t / factors[run] } else { t })
            .collect();
        stats::min(&v)
    };
    let query_ms: Vec<f64> = window
        .latencies_ms
        .values()
        .map(|t| fastest(t, true))
        .collect();
    let raw_query_ms: Vec<f64> = window
        .latencies_ms
        .values()
        .map(|t| fastest(t, false))
        .collect();
    let set_ms: Vec<f64> = window.set_ms.values().map(|t| fastest(t, true)).collect();
    let n = attempted.max(1) as f64;
    report.note(format!(
        "{} queries in {} passes over {} sets, window {:.2} s, evaluating {:.2} s CPU / {:.2} s wall; latency samples: each of {} distinct queries' fastest pass, highest percentile with ten beyond: p{}",
        attempted,
        next / inputs.sets.len(),
        inputs.sets.len(),
        wall.as_secs_f64(),
        busy_ms / 1e3,
        wall_ms / 1e3,
        query_ms.len(),
        stats::tail_percentile(query_ms.len()).unwrap_or(0.0)
    ));
    report.note(format!(
        "host speed: reference kernel {:.4} ms median, {:.4} to {:.4} ms over the set runs; raw CPU latency p50 {:.4} ms, p90 {:.4} ms; raw CPU set-up {:.6} s",
        median(&window.kernel_ms),
        stats::min(&factors) * speed::REFERENCE_MS,
        factors.iter().copied().fold(0.0, f64::max) * speed::REFERENCE_MS,
        median(&raw_query_ms),
        percentile(&raw_query_ms, 90.0),
        median(&setup_raw)
    ));

    let failed_ratio = report.failed as f64 / n;
    if !opts.trace {
        // One pass at each query's fastest time, counting only the share
        // of queries that evaluated without error.
        let ok_share = (attempted - report.failed) as f64 / n;
        report.set(
            "ops_per_s",
            ok_share * query_ms.len() as f64 / (query_ms.iter().sum::<f64>() / 1e3),
        );
        report.set("latency_p50_ms", median(&query_ms));
        report.set("latency_p90_ms", percentile(&query_ms, 90.0));
        report.set("setup_s", median(&setup));
        report.note_metric("set_p50_ms", median(&set_ms));
        report.note_metric("failed_ratio", failed_ratio);
        report.note_metric("peak_rss_mb", peak);
        return report;
    }

    report.set("peak_rss_mb", peak);
    let t = |name: &str| tracer.total_ms(name) / n;
    report.set("set_p50_ms", median(&set_ms));
    report.set("failed_ratio", failed_ratio);
    report.set("core.post_ms", t("core.post"));
    report.set(
        "core.post_share",
        stats::ratio(tracer.total_ms("core.post"), wall_ms),
    );
    report.set("core.pre_join_ms", t("core.pre_join"));
    report.set("core.union_ms", t("core.union"));
    report.set(
        "core.res9_tuples",
        totals.stats.useless2_unchecked_inserts as f64 / n,
    );
    report.set("eval.label_seq_ms", t("eval.label_seq"));
    report.set("reduction.rtc_build_ms", t("reduction.rtc_build"));
    report.set("reduction.rtc_expand_ms", t("reduction.rtc_expand"));
    report.set("reduction.shared_pairs", stats::mean(&totals.rtc_pairs));
    report.set("reduction.sccs", stats::mean(&totals.rtc_sccs));
    report.set(
        "core.cache.hit_ratio",
        stats::ratio(
            window.cache_hits as f64,
            (window.cache_hits + window.cache_misses) as f64,
        ),
    );
    report.set("core.cache.stale_hits", window.cache_stale as f64);
    report.set(
        "core.result_cache.hit_ratio",
        stats::ratio(
            window.result_hits as f64,
            (window.result_hits + window.result_misses) as f64,
        ),
    );
    report.set(
        "core.result_cache.evictions",
        window.result_evictions as f64,
    );
    report.set(
        "core.structural_bytes",
        stats::mean(&window.structural_bytes),
    );
    report.set("core.breakdown.shared_data_ms", ms(window.shared_data) / n);
    report.set("core.breakdown.pre_join_ms", ms(window.pre_join) / n);
    report.set("core.breakdown.remainder_ms", ms(window.remainder) / n);
    report.set("regex.dnf_ms", t("regex.dnf"));
    let covered: f64 = [
        "regex.dnf",
        "eval.label_seq",
        "reduction.rtc_build",
        "reduction.rtc_expand",
        "core.batch_unit",
        "core.union",
    ]
    .iter()
    .map(|s| tracer.total_ms(s))
    .sum();
    report.set("trace.coverage", stats::ratio(covered, wall_ms));
    report.set(
        "trace.overhead_ratio",
        stats::ratio(ms(totals.replay_wall), wall_ms),
    );
    report.note(format!(
        "stage split of engine latency: post {:.1}%, pre_join {:.1}%, R_G label joins {:.1}%, rtc build {:.1}%, rtc expand {:.1}%, union {:.1}%, dnf {:.2}%",
        100.0 * stats::ratio(tracer.total_ms("core.post"), wall_ms),
        100.0 * stats::ratio(tracer.total_ms("core.pre_join"), wall_ms),
        100.0 * stats::ratio(tracer.total_ms("eval.label_seq"), wall_ms),
        100.0 * stats::ratio(tracer.total_ms("reduction.rtc_build"), wall_ms),
        100.0 * stats::ratio(tracer.total_ms("reduction.rtc_expand"), wall_ms),
        100.0 * stats::ratio(tracer.total_ms("core.union"), wall_ms),
        100.0 * stats::ratio(tracer.total_ms("regex.dnf"), wall_ms),
    ));
    let path = opts.out_dir.join(format!(
        "trace-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    match tracer.write_jsonl(&path) {
        Ok(()) => report.note(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => report.note(format!("could not write spans to {}: {e}", path.display())),
    }
    report
}

/// Evaluates one set on a fresh engine; in traced runs each engine result
/// is followed by the stage replay, which must reproduce it.
fn run_set(
    g: &LabeledMultigraph,
    (set_idx, run): (usize, usize),
    set: &QuerySet,
    sources: &Sources,
    window: &mut Window,
    mut trace: Option<(&mut Tracer, &mut ReplayTotals)>,
) {
    let engine = Engine::with_config(g, engine_config());
    let mut rtcs = HashMap::new();
    let mut set_ms = 0.0;
    for (q_idx, q) in set.queries.iter().enumerate() {
        let (t, cpu) = (Instant::now(), cpu_time());
        let result = engine.evaluate(q);
        let latency = ms(cpu_time() - cpu);
        window.wall_ms += ms(t.elapsed());
        set_ms += latency;
        window.evaluated += 1;
        window
            .latencies_ms
            .entry((set_idx, q_idx))
            .or_default()
            .push((run, latency));
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("query {q} failed: {e}");
                window.failed += 1;
                continue;
            }
        };
        window
            .results
            .entry((set_idx, q_idx))
            .or_default()
            .push((check::of_pair_set(&result), sources.of_pair_set(&result)));
        if let Some((tracer, totals)) = trace.as_mut() {
            let (tracer, totals): (&mut Tracer, &mut ReplayTotals) = (tracer, totals);
            let request = window.evaluated;
            let start = Instant::now();
            let root = tracer.record("query", request, None, start, Duration::ZERO);
            let mut replay = Replay {
                graph: g,
                policy: engine.config().representation,
                rtcs: std::mem::take(&mut rtcs),
                tracer,
                totals,
                request,
                root: Some(root),
            };
            let replayed = replay.eval(q);
            rtcs = std::mem::take(&mut replay.rtcs);
            let wall = start.elapsed();
            totals.replay_wall += wall;
            tracer.set_len(root, wall);
            // Stage numbers from a replay that computes something else
            // would describe another program: fail the run instead.
            assert!(
                replayed == result,
                "stage replay drifted from Engine::evaluate on {q}"
            );
        }
    }
    window
        .set_ms
        .entry(set_idx)
        .or_default()
        .push((run, set_ms));
    window.cache_hits += engine.cache().hits();
    window.cache_misses += engine.cache().misses();
    window.cache_stale += engine.cache().stale_hits();
    window.result_hits += engine.results().view_hits();
    window.result_misses += engine.results().misses();
    window.result_evictions += engine.results().evictions();
    window
        .structural_bytes
        .push(engine.structural_heap_bytes() as f64);
    let b = engine.breakdown();
    window.shared_data += b.shared_data;
    window.pre_join += b.pre_join;
    window.remainder += b.remainder();
}

/// Compares the sampled rows of every result with the product-automaton
/// evaluator, and a seeded sample of whole results with
/// `evaluate_algebraic` (on `closure_sets`, with the product evaluator run
/// from every vertex; see [`Size::whole_sample`]); returns the number of
/// mismatching results.
fn oracle_check(
    g: &LabeledMultigraph,
    sets: &[QuerySet],
    results: &BTreeMap<(usize, usize), Vec<(Fingerprint, Fingerprint)>>,
    sources: &Sources,
    opts: &Options,
    report: &mut Report,
) -> u64 {
    let keys: Vec<&(usize, usize)> = results.keys().collect();
    let order = gen::permutation(keys.len(), &mut gen::rng(opts.seed, Stream::Check));
    let whole = opts.size.whole_sample[opts.workload.index()].min(keys.len());
    let every_vertex =
        (opts.workload == Workload::ClosureSets).then(|| Sources::all(g.vertex_count()));
    let whole_oracle = match every_vertex {
        Some(_) => "ProductEvaluator from every vertex",
        None => "evaluate_algebraic",
    };
    let t = Instant::now();
    let mut mismatches = 0;
    let mut checked = 0;
    for (rank, &k) in order.iter().enumerate() {
        let &(s, q) = keys[k];
        let query = &sets[s].queries[q];
        let rows = sources.oracle(g, query);
        let full = (rank < whole).then(|| match &every_vertex {
            Some(all) => all.oracle(g, query),
            None => check::of_pair_set(&rpq_eval::evaluate_algebraic(g, query)),
        });
        for (fp_full, fp_rows) in &results[keys[k]] {
            checked += 1;
            if *fp_rows != rows || full.is_some_and(|f| f != *fp_full) {
                eprintln!("wrong result for {query}: rows {fp_rows:?} vs {rows:?}, whole {fp_full:?} vs {full:?}");
                mismatches += 1;
            }
        }
    }
    report.note(format!(
        "oracle check: {checked} results of {} distinct queries: rows of {} sampled sources vs ProductEvaluator, {whole} whole results vs {whole_oracle}; {:.2} s, {mismatches} mismatches",
        keys.len(),
        sources.len(),
        t.elapsed().as_secs_f64()
    ));
    mismatches
}
