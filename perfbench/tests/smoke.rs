//! End-to-end self-tests of the benchmark at smoke size: every workload
//! runs traced and untraced in seconds, reports every registered metric,
//! and every generator follows the seed.

use rpq_perfbench::report::{END_TO_END, PER_LAYER};
use rpq_perfbench::{batch, run, serve, Options, Size, Workload};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn smoke(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 5,
        seconds: Duration::from_millis(300),
        trace,
        size: Size::smoke(),
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.bench_out/smoke"),
    }
}

#[test]
fn every_workload_runs_traced_and_untraced_in_seconds() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let start = Instant::now();
            let report = run(&smoke(workload, trace));
            let took = start.elapsed();
            assert!(report.correct, "{workload:?} trace={trace}: wrong results");
            assert!(report.attempted > 0, "{workload:?} attempted nothing");
            assert!(took < Duration::from_secs(30), "{workload:?} took {took:?}");
            let line = report.json_line(trace);
            let registry = if trace { PER_LAYER } else { END_TO_END };
            for metric in registry {
                assert!(
                    line.contains(&format!("\"{}\": {{\"value\": ", metric.name)),
                    "{workload:?} lacks {}",
                    metric.name
                );
            }
            if !trace {
                for metric in END_TO_END {
                    let v = report.get(metric.name).unwrap();
                    assert!(v > 0.0, "{workload:?}: {} is {v}", metric.name);
                }
            }
        }
    }
}

#[test]
fn traced_batch_runs_split_latency_into_stages() {
    let report = run(&smoke(Workload::PaperSets, true));
    let post = report.get("core.post_share").unwrap();
    assert!(post > 0.0 && post < 1.0, "post share {post}");
    let coverage = report.get("trace.coverage").unwrap();
    assert!(coverage > 0.5, "stages cover {coverage} of engine time");
    // closure_sets has no Post labels: what `core.post` still times there
    // is the empty stage's hand-off of the result.
    let closure = run(&smoke(Workload::ClosureSets, true));
    let closure_post = closure.get("core.post_share").unwrap();
    assert!(
        closure_post < post,
        "post share {closure_post} vs paper_sets {post}"
    );
    assert!(closure.get("reduction.rtc_expand_ms").unwrap() > 0.0);
}

fn edges(g: &rpq_graph::LabeledMultigraph) -> Vec<(u32, u32, u32)> {
    g.all_edges()
        .map(|(s, l, d)| (s.raw(), l.raw(), d.raw()))
        .collect()
}

#[test]
fn the_seed_reaches_every_generator() {
    let size = Size::smoke();
    let strings = |sets: &[batch::QuerySet]| -> Vec<String> {
        sets.iter()
            .flat_map(|s| s.queries.iter().map(|q| q.to_string()))
            .collect()
    };
    let (p1, p1b, p2) = (
        batch::paper_inputs(1, &size),
        batch::paper_inputs(1, &size),
        batch::paper_inputs(2, &size),
    );
    assert_eq!(edges(&p1.graph), edges(&p1b.graph));
    assert_eq!(strings(&p1.sets), strings(&p1b.sets));
    assert_ne!(edges(&p1.graph), edges(&p2.graph));
    assert_ne!(strings(&p1.sets), strings(&p2.sets));

    let (c1, c2) = (
        batch::closure_inputs(1, &size),
        batch::closure_inputs(2, &size),
    );
    assert_ne!(edges(&c1.graph), edges(&c2.graph));
    assert_ne!(strings(&c1.sets), strings(&c2.sets));

    let (s1, s1b, s2) = (
        serve::inputs(1, &size, 20),
        serve::inputs(1, &size, 20),
        serve::inputs(2, &size, 20),
    );
    let deltas = |i: &serve::ServeInputs| -> Vec<String> {
        i.deltas.iter().map(serve::delta_command).collect()
    };
    assert_eq!(s1.pool, s1b.pool);
    assert_eq!(deltas(&s1), deltas(&s1b));
    assert_ne!(edges(&s1.graph), edges(&s2.graph));
    assert_ne!(s1.pool, s2.pool);
    assert_ne!(deltas(&s1), deltas(&s2));
}

#[test]
fn serve_pool_outgrows_the_result_cache() {
    let pool = serve::inputs(9, &Size::full(), 1).pool;
    assert!(pool.len() > 256, "{} distinct queries", pool.len());
}

#[test]
fn batch_sets_cover_every_r_length() {
    let size = Size::smoke();
    let sets = batch::paper_inputs(3, &size).sets;
    let len = |r: &rpq_regex::Regex| r.to_string().matches('.').count() + 1;
    for want in 1..=3 {
        let n = sets.iter().filter(|s| len(&s.r) == want).count();
        assert_eq!(n, size.paper_rs_per_length, "R of {want} labels");
    }
    for set in &sets {
        assert_eq!(set.queries.len(), 10);
    }
}

#[test]
fn batch_workloads_hold_enough_distinct_queries_for_p90() {
    // Batch latency percentiles are taken over each distinct query's mean
    // timing, so p90 needs that many distinct queries to leave ten beyond.
    let size = Size::full();
    for inputs in [
        batch::paper_inputs(1, &size),
        batch::closure_inputs(1, &size),
    ] {
        let distinct: usize = inputs.sets.iter().map(|s| s.queries.len()).sum();
        assert!(
            distinct >= rpq_perfbench::stats::samples_needed(90.0),
            "{distinct}"
        );
    }
}

#[test]
fn serve_deltas_only_insert() {
    let inputs = serve::inputs(4, &Size::smoke(), 30);
    assert_eq!(inputs.deltas.len(), 30);
    for delta in &inputs.deltas {
        assert_eq!(
            delta.deletes().count(),
            0,
            "{}",
            serve::delta_command(delta)
        );
        assert!(delta.inserts().count() > 0);
    }
}

#[test]
fn defect_replay_is_the_same_on_every_run() {
    let first = rpq_perfbench::defect::replay();
    assert!(first.evaluations > 0);
    assert_eq!(first, rpq_perfbench::defect::replay());
}
