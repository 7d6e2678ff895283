//! The `serve_mixed` workload: an in-process `rpq_server::serve` on a
//! loopback listener, driven by two closed-loop clients in binary mode.
//!
//! * Connection A sends Zipf-drawn `query` commands, and every 20th op a
//!   `delta` of 8 edge insertions from `generate_dynamic_workload`.
//! * Connection B sends Zipf-drawn `query` (80%), `ends` (10%) and
//!   `check` (10%) commands.
//!
//! The benchmark keeps a mirror of the graph at every epoch. After the
//! timed window each read is checked on the mirror at the epochs that
//! could have served it: the sampled rows of every `query` result against
//! the product-automaton evaluator, a seeded sample of whole `query`
//! results against `evaluate_algebraic`, and every `ends`/`check` reply
//! (which the server answers with the product evaluator) against a fresh
//! RTCSharing engine's full result.
//!
//! The deltas only insert: deletions reach a known `DynamicRtc` panic
//! whose count per run would follow thread timing. Every run replays that
//! defect on a fixed single-threaded schedule instead ([`crate::defect`]).

use crate::check::{self, Fingerprint, Sources};
use crate::client::{self, Client, Failure, Reply};
use crate::gen::{self, ReadKind, Stream, Zipf};
use crate::report::Report;
use crate::stats::{self, median, percentile};
use crate::trace::Tracer;
use crate::{defect, ms, speed, Options, Size};
use rand::Rng;
use rpq_datasets::dynamic::{generate_dynamic_workload, DynamicWorkloadConfig};
use rpq_datasets::workload::{alphabet_of, generate_workload, WorkloadConfig};
use rpq_graph::{GraphDelta, GraphView, LabeledMultigraph, PairSet, VersionedGraph, VertexId};
use rpq_regex::Regex;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Connection A sends a delta every this many ops.
pub const DELTA_EVERY: u64 = 20;
/// Edge insertions per delta.
pub const DELTA_OPS: usize = 8;
/// Zipf exponent of the query draws. Breslau et al., "Web Caching and
/// Zipf-like Distributions: Evidence and Implications" (INFOCOM 1999),
/// measured request popularity in six web proxy traces as Zipf-like with
/// exponents from 0.64 to 0.83; 0.8 sits in that range.
pub const ZIPF_S: f64 = 0.8;

/// `serve_mixed`'s generated inputs.
pub struct ServeInputs {
    /// RMAT_0 with `2^scale` vertices and as many edges, 4 labels.
    pub graph: LabeledMultigraph,
    /// `(seed, scale)` the server's `gen rmat 0` command regenerates it from.
    pub gen_seed: u64,
    /// Distinct query strings, in Zipf rank order.
    pub pool: Vec<String>,
    /// The closure bodies `R` of the pool (warmed with `prepare`).
    pub bodies: Vec<String>,
    /// The delta stream, in order.
    pub deltas: Vec<GraphDelta>,
    /// Vertices with an out-edge, the sources of `ends` and `check`.
    pub sources: Vec<u32>,
}

/// Generates `serve_mixed`'s inputs: the graph, a query pool of `R⁺` and
/// ten `Pre·R⁺·Post` per `R` (more distinct strings than the result
/// cache's 256 entries), and the delta stream.
pub fn inputs(seed: u64, size: &Size, rounds: usize) -> ServeInputs {
    let gen_seed = gen::sub_seed(seed, Stream::Graph);
    let graph = rpq_datasets::rmat::rmat_n_scaled(0, size.serve_scale, gen_seed);
    let config = WorkloadConfig {
        rs_per_length: size.serve_rs_per_length,
        r_lengths: vec![1, 2, 3],
        queries_per_set: 10,
        use_star: false,
        seed: gen::sub_seed(seed, Stream::Queries),
    };
    let mut pool: Vec<String> = Vec::new();
    let mut bodies: Vec<String> = Vec::new();
    for set in generate_workload(&alphabet_of(&graph), &config) {
        let body = set.r.to_string();
        if !bodies.contains(&body) {
            bodies.push(body);
        }
        for q in std::iter::once(Regex::plus(set.r.clone())).chain(set.queries) {
            let text = q.to_string();
            if !pool.contains(&text) {
                pool.push(text);
            }
        }
    }
    let order = gen::permutation(pool.len(), &mut gen::rng(seed, Stream::Order));
    let pool = order.into_iter().map(|i| pool[i].clone()).collect();
    let deltas = generate_dynamic_workload(
        &graph,
        &DynamicWorkloadConfig {
            rounds,
            updates_per_round: DELTA_OPS,
            insert_fraction: 1.0,
            reinsert_fraction: 0.0,
            seed: gen::sub_seed(seed, Stream::Deltas),
            ..DynamicWorkloadConfig::default()
        },
    )
    .deltas()
    .cloned()
    .collect();
    let mut sources: Vec<u32> = graph.all_edges().map(|(s, _, _)| s.raw()).collect();
    sources.sort_unstable();
    sources.dedup();
    ServeInputs {
        graph,
        gen_seed,
        pool,
        bodies,
        deltas,
        sources,
    }
}

/// The `delta` command for one batch.
pub fn delta_command(delta: &GraphDelta) -> String {
    let mut line = String::from("delta");
    for (s, l, d) in delta.deletes() {
        line.push_str(&format!(" del {s} {l} {d}"));
    }
    for (s, l, d) in delta.inserts() {
        line.push_str(&format!(" ins {s} {l} {d}"));
    }
    line
}

/// Starts a server over a fresh default session on an ephemeral loopback
/// port. The accept loop runs until the process exits.
fn start_server() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let shared = rpq_server::shared(rpq_server::Session::new());
    std::thread::spawn(move || rpq_server::serve(listener, shared));
    addr
}

fn expect_ok(client: &mut Client, line: &str) -> Reply {
    match client.call(line) {
        Ok(reply) if reply.ok => reply,
        Ok(reply) => panic!("set-up command '{line}' failed: {}", reply.status),
        Err(e) => panic!("set-up command '{line}' failed: {e:?}"),
    }
}

/// Loads the generated graph into the server (`gen rmat`, which replaces
/// any earlier graph and drops its caches), checks it matches the mirror,
/// and warms the structural cache with every closure body of the pool.
fn load_and_warm(admin: &mut Client, inputs: &ServeInputs, size: &Size) {
    let loaded = expect_ok(
        admin,
        &format!("gen rmat 0 {} {}", size.serve_scale, inputs.gen_seed),
    );
    let expect = format!(
        "{} vertices, {} edges",
        inputs.graph.vertex_count(),
        inputs.graph.edge_count()
    );
    assert!(
        loaded.status.contains(&expect),
        "server graph '{}' differs from the mirror ({expect})",
        loaded.status
    );
    for body in &inputs.bodies {
        expect_ok(admin, &format!("prepare ({body})+"));
    }
    expect_ok(admin, "reset metrics");
}

/// The benchmark's copy of the graph at every epoch.
struct Mirror {
    graph: VersionedGraph,
    views: Vec<Arc<GraphView>>,
    apply_ms: Vec<f64>,
}

/// State both connections share during the window.
struct Shared<'a> {
    inputs: &'a ServeInputs,
    mirror: Mutex<Mirror>,
    /// Latest epoch whose delta was acknowledged.
    acked: AtomicU64,
    /// Latest epoch a sent delta may have published.
    pending: AtomicU64,
    deadline: Instant,
    /// Reads answered so far, so the window can run on (up to twice its
    /// length) until p99 has ten samples beyond it.
    reads: AtomicU64,
    sources: Sources,
    trace: bool,
    origin: Instant,
}

/// What a read returned, kept for the oracle check.
#[derive(Clone, Debug)]
enum Outcome {
    Query {
        whole: Fingerprint,
        rows: Fingerprint,
    },
    Ends {
        src: u32,
        count: usize,
        listed: Vec<u32>,
    },
    Check {
        src: u32,
        dst: u32,
        found: bool,
    },
}

#[derive(Clone, Debug)]
struct ReadRecord {
    query: usize,
    lo: u64,
    hi: u64,
    outcome: Outcome,
}

/// One connection's observations.
#[derive(Default)]
struct Log {
    attempted: u64,
    failed: u64,
    drops: u64,
    errors: Vec<String>,
    protocol_errors: u64,
    epoch_mismatches: u64,
    reads: Vec<ReadRecord>,
    read_ms: Vec<f64>,
    ends_ms: Vec<f64>,
    check_ms: Vec<f64>,
    delta_ms: Vec<f64>,
    query_count: u64,
    eval_ms: Vec<f64>,
    transport_ms: Vec<f64>,
    query_bytes: Vec<f64>,
    reconnects: u64,
    trace_time: Duration,
    tracer: Option<Tracer>,
}

impl Log {
    fn fail(&mut self, what: &str, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(format!("{what}: {why}"));
        }
    }
}

fn ends_of_reply(reply: &Reply) -> Option<(usize, Vec<u32>)> {
    let count = reply.status.split_whitespace().next()?.parse().ok()?;
    let listed = reply
        .lines
        .iter()
        .flat_map(|l| l.split_whitespace())
        .take_while(|t| *t != "...")
        .filter_map(|t| t.strip_prefix('v')?.parse().ok())
        .collect();
    Some((count, listed))
}

fn read_op(
    shared: &Shared<'_>,
    client: &mut Client,
    log: &mut Log,
    request: u64,
    kind: ReadKind,
    query: usize,
    rng: &mut rand::rngs::StdRng,
) {
    let inputs = shared.inputs;
    let text = &inputs.pool[query];
    let (line, src, dst) = match kind {
        ReadKind::Query => (format!("query {text}"), 0, 0),
        ReadKind::Ends => {
            let src = inputs.sources[rng.gen_range(0..inputs.sources.len())];
            (format!("ends {src} {text}"), src, 0)
        }
        ReadKind::Check => {
            let src = inputs.sources[rng.gen_range(0..inputs.sources.len())];
            let dst = rng.gen_range(0..inputs.graph.vertex_count() as u32);
            (format!("check {src} {dst} {text}"), src, dst)
        }
    };
    let lo = shared.acked.load(Ordering::SeqCst);
    log.attempted += 1;
    let start = Instant::now();
    let result = client.call(&line);
    let rtt = start.elapsed();
    let hi = shared.pending.load(Ordering::SeqCst);
    let reply = match result {
        Ok(reply) if reply.ok => reply,
        Ok(reply) => return log.fail(&line, format!("ERR {}", reply.status)),
        Err(Failure::Dropped(why)) => {
            log.drops += 1;
            return log.fail(&line, format!("connection dropped: {why}"));
        }
        Err(Failure::Protocol(why)) => {
            log.protocol_errors += 1;
            return log.fail(&line, format!("protocol error: {why}"));
        }
    };
    let rtt_ms = ms(rtt);
    let (outcome, span) = match kind {
        ReadKind::Query => {
            let Some(pairs) = reply.pairs.as_ref() else {
                log.protocol_errors += 1;
                return log.fail(&line, "query reply without a RESULT-BIN frame".into());
            };
            log.query_count += 1;
            let outcome = Outcome::Query {
                whole: check::of_pairs(pairs.iter().copied()),
                rows: shared.sources.of_pairs(pairs),
            };
            (outcome, "client.query")
        }
        ReadKind::Ends => {
            let Some((count, listed)) = ends_of_reply(&reply) else {
                log.protocol_errors += 1;
                return log.fail(&line, format!("unreadable ends reply '{}'", reply.status));
            };
            log.ends_ms.push(rtt_ms);
            (Outcome::Ends { src, count, listed }, "client.ends")
        }
        ReadKind::Check => {
            log.check_ms.push(rtt_ms);
            let found = reply.status.starts_with("found");
            (Outcome::Check { src, dst, found }, "client.check")
        }
    };
    log.read_ms.push(rtt_ms);
    shared.reads.fetch_add(1, Ordering::Relaxed);
    if shared.trace {
        let t = Instant::now();
        let tracer = log.tracer.as_mut().expect("traced runs carry a tracer");
        let root = tracer.record(span, request, None, start, rtt);
        if kind == ReadKind::Query {
            let eval = client::eval_ms_of_status(&reply.status).unwrap_or(0.0);
            let eval_len = Duration::from_secs_f64(eval / 1e3);
            tracer.record("server.eval", request, Some(root), start, eval_len);
            log.eval_ms.push(eval);
            log.transport_ms.push((rtt_ms - eval).max(0.0));
            log.query_bytes.push(reply.bytes as f64);
        }
        log.trace_time += t.elapsed();
    }
    log.reads.push(ReadRecord {
        query,
        lo,
        hi,
        outcome,
    });
}

impl Shared<'_> {
    /// Whether the timed window is still open.
    fn open(&self) -> bool {
        let now = Instant::now();
        now < self.deadline
            || (self.reads.load(Ordering::Relaxed) < stats::samples_needed(99.0) as u64
                && now < self.deadline + (self.deadline - self.origin))
    }
}

/// Applies the delta to the mirror and acknowledges epoch `epoch`.
fn acknowledge(shared: &Shared<'_>, delta: &GraphDelta, epoch: u64) {
    let mut mirror = shared.mirror.lock().expect("mirror lock is never poisoned");
    let t = Instant::now();
    let summary = mirror.graph.apply(delta);
    let view = mirror.graph.freeze();
    let apply = ms(t.elapsed());
    mirror.apply_ms.push(apply);
    assert_eq!(summary.epoch, epoch, "mirror epoch follows the server's");
    mirror.views.push(view);
    shared.acked.store(epoch, Ordering::SeqCst);
}

fn delta_op(shared: &Shared<'_>, client: &mut Client, log: &mut Log, delta: &GraphDelta) {
    let epoch = shared.acked.load(Ordering::SeqCst) + 1;
    shared.pending.store(epoch, Ordering::SeqCst);
    log.attempted += 1;
    let start = Instant::now();
    let result = client.call(&delta_command(delta));
    let rtt = start.elapsed();
    match result {
        Ok(reply) if reply.ok => {
            log.delta_ms.push(ms(rtt));
            let served: Option<u64> = reply
                .status
                .strip_prefix("epoch ")
                .and_then(|s| s.split(':').next())
                .and_then(|s| s.parse().ok());
            if served != Some(epoch) {
                log.epoch_mismatches += 1;
                log.fail(
                    "delta",
                    format!(
                        "server reported '{}', mirror expects epoch {epoch}",
                        reply.status
                    ),
                );
            }
            acknowledge(shared, delta, epoch);
        }
        other => {
            match other {
                Ok(reply) => log.fail("delta", format!("ERR {}", reply.status)),
                Err(e) => {
                    log.drops += u64::from(matches!(e, Failure::Dropped(_)));
                    log.fail("delta", format!("{e:?}"));
                }
            }
            // Whether the server applied it is unknown: ask.
            let served = (0..50).find_map(|_| {
                client
                    .call("epoch")
                    .ok()
                    .and_then(|r| r.status.strip_prefix("epoch ")?.trim().parse::<u64>().ok())
            });
            match served {
                Some(e) if e == epoch => acknowledge(shared, delta, epoch),
                Some(e) if e + 1 == epoch => shared.pending.store(e, Ordering::SeqCst),
                _ => {
                    log.epoch_mismatches += 1;
                    log.fail("delta", "server epoch unknown after a failed delta".into());
                }
            }
        }
    }
}

fn connection_a(shared: &Shared<'_>, addr: SocketAddr, seed: u64) -> Log {
    let mut log = Log {
        tracer: shared.trace.then(|| Tracer::with_origin(shared.origin)),
        ..Log::default()
    };
    let zipf = Zipf::new(shared.inputs.pool.len(), ZIPF_S);
    let mut rng = gen::rng(seed, Stream::ClientA);
    let mut client = Client::connect(addr, &["binary on"]).expect("connection A connects");
    let mut next_delta = 0;
    let mut op = 0u64;
    while shared.open() {
        op += 1;
        if op.is_multiple_of(DELTA_EVERY) && next_delta < shared.inputs.deltas.len() {
            delta_op(
                shared,
                &mut client,
                &mut log,
                &shared.inputs.deltas[next_delta],
            );
            next_delta += 1;
        } else {
            let q = zipf.sample(&mut rng);
            read_op(
                shared,
                &mut client,
                &mut log,
                op * 2,
                ReadKind::Query,
                q,
                &mut rng,
            );
        }
    }
    log.reconnects = client.reconnects;
    log
}

fn connection_b(shared: &Shared<'_>, addr: SocketAddr, seed: u64) -> Log {
    let mut log = Log {
        tracer: shared.trace.then(|| Tracer::with_origin(shared.origin)),
        ..Log::default()
    };
    let zipf = Zipf::new(shared.inputs.pool.len(), ZIPF_S);
    let mut rng = gen::rng(seed, Stream::ClientB);
    let mut client = Client::connect(addr, &["binary on"]).expect("connection B connects");
    let mut op = 0u64;
    while shared.open() {
        op += 1;
        let kind = gen::read_kind(&mut rng);
        let q = zipf.sample(&mut rng);
        read_op(shared, &mut client, &mut log, op * 2 + 1, kind, q, &mut rng);
    }
    log.reconnects = client.reconnects;
    log
}

/// Reference results per `(epoch, query)`, computed on demand.
struct Oracle<'a> {
    views: &'a [Arc<GraphView>],
    queries: Vec<Regex>,
    sources: &'a Sources,
    rows: HashMap<(u64, usize), Fingerprint>,
    engine: HashMap<(u64, usize), PairSet>,
}

impl Oracle<'_> {
    /// Whether `record` matches the mirror at `epoch`; `whole` also
    /// compares a whole `query` result with `evaluate_algebraic`.
    fn matches(&mut self, epoch: u64, record: &ReadRecord, whole: bool) -> bool {
        let key = (epoch, record.query);
        let query = &self.queries[record.query];
        match &record.outcome {
            Outcome::Query { whole: fp, rows } => {
                let graph = self.views[epoch as usize].graph();
                let oracle_rows = *self
                    .rows
                    .entry(key)
                    .or_insert_with(|| self.sources.oracle(graph, query));
                oracle_rows == *rows
                    && (!whole
                        || check::of_pair_set(&rpq_eval::evaluate_algebraic(graph, query)) == *fp)
            }
            Outcome::Ends { src, count, listed } => {
                let result = self.engine_result(key);
                let ends = result.ends_of(VertexId(*src));
                ends.len() == *count && listed.iter().all(|&v| ends.contains(VertexId(v)))
            }
            Outcome::Check { src, dst, found } => {
                self.engine_result(key)
                    .contains(VertexId(*src), VertexId(*dst))
                    == *found
            }
        }
    }

    fn engine_result(&mut self, key: (u64, usize)) -> &PairSet {
        let graph = self.views[key.0 as usize].graph();
        let query = &self.queries[key.1];
        self.engine.entry(key).or_insert_with(|| {
            rpq_core::Engine::new(graph)
                .evaluate(query)
                .expect("reference evaluation of a pool query")
        })
    }
}

/// Runs `serve_mixed`.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::new();
    let rounds = (opts.seconds.as_secs_f64() * 100.0).ceil() as usize + 50;
    // Set-up: input generation, server start (first round only), graph
    // load and cache warm-up, repeated on the one server; timed in process
    // CPU time, which covers the in-process server's threads, and
    // normalized by the host's speed (`speed::timed`).
    let mut setup = Vec::new();
    let mut setup_raw = Vec::new();
    let mut server: Option<(SocketAddr, Client)> = None;
    let mut prepared = None;
    for _ in 0..opts.size.setup_repeats.max(1) {
        let (inputs, raw, normalized) = speed::timed(|| {
            let inputs = inputs(opts.seed, &opts.size, rounds);
            let (_, admin) = server.get_or_insert_with(|| {
                let addr = start_server();
                let admin = Client::connect(addr, &[]).expect("connect to the fresh server");
                (addr, admin)
            });
            load_and_warm(admin, &inputs, &opts.size);
            inputs
        });
        setup_raw.push(raw);
        setup.push(normalized);
        prepared = Some(inputs);
    }
    let inputs = prepared.expect("set-up ran at least once");
    let addr = server.expect("set-up started the server").0;
    report.note(format!(
        "serve_mixed: {} vertices, {} edges, {} labels, {} distinct queries, {} deltas of {DELTA_OPS} insertions available, seed {}; raw CPU set-up {:.6} s",
        inputs.graph.vertex_count(),
        inputs.graph.edge_count(),
        inputs.graph.label_count(),
        inputs.pool.len(),
        inputs.deltas.len(),
        opts.seed,
        median(&setup_raw)
    ));

    let graph = VersionedGraph::new(inputs.graph.clone());
    let first_view = graph.freeze();
    let origin = Instant::now();
    let shared = Shared {
        inputs: &inputs,
        mirror: Mutex::new(Mirror {
            graph,
            views: vec![first_view],
            apply_ms: Vec::new(),
        }),
        acked: AtomicU64::new(0),
        pending: AtomicU64::new(0),
        deadline: origin + opts.seconds,
        reads: AtomicU64::new(0),
        sources: Sources::sample(
            inputs.graph.vertex_count(),
            opts.size.source_sample,
            &mut gen::rng(opts.seed, Stream::Check),
        ),
        trace: opts.trace,
        origin,
    };
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| connection_a(&shared, addr, opts.seed));
        let b = s.spawn(|| connection_b(&shared, addr, opts.seed));
        (
            a.join().expect("connection A thread panicked"),
            b.join().expect("connection B thread panicked"),
        )
    });
    let wall = origin.elapsed();
    let peak = crate::peak_rss_mb();
    let mirror = shared
        .mirror
        .into_inner()
        .expect("mirror lock is never poisoned");

    // Correctness, outside the timed window.
    let t = Instant::now();
    let mut oracle = Oracle {
        views: &mirror.views,
        queries: inputs
            .pool
            .iter()
            .map(|q| Regex::parse(q).expect("pool queries parse"))
            .collect(),
        sources: &shared.sources,
        rows: HashMap::new(),
        engine: HashMap::new(),
    };
    let reads: Vec<&ReadRecord> = a.reads.iter().chain(&b.reads).collect();
    let whole_sample = opts.size.whole_sample[opts.workload.index()];
    let mut whole_left = whole_sample;
    let mut wrong = 0u64;
    for &k in &gen::permutation(reads.len(), &mut gen::rng(opts.seed, Stream::Check)) {
        let record = reads[k];
        let whole = whole_left > 0 && matches!(record.outcome, Outcome::Query { .. });
        whole_left -= usize::from(whole);
        // A delta whose outcome stayed unknown has no mirror epoch.
        let hi = record.hi.min(mirror.views.len() as u64 - 1);
        if !(record.lo..=hi).any(|e| oracle.matches(e, record, whole)) {
            if wrong < 5 {
                eprintln!(
                    "wrong result for '{}' at epochs {}..={}: {:?}",
                    inputs.pool[record.query], record.lo, record.hi, record.outcome
                );
            }
            wrong += 1;
        }
    }
    report.note(format!(
        "oracle check on the mirror graph: {} reads; rows of {} sampled sources vs ProductEvaluator, {} whole results vs evaluate_algebraic, {} ends/check replies vs a fresh engine ({} reference results); {:.2} s, {wrong} wrong",
        reads.len(),
        shared.sources.len(),
        whole_sample - whole_left,
        reads.iter().filter(|r| !matches!(r.outcome, Outcome::Query { .. })).count(),
        oracle.engine.len(),
        t.elapsed().as_secs_f64()
    ));
    for e in a.errors.iter().chain(&b.errors) {
        report.note(format!("failed op: {e}"));
    }
    // Known defect, outside the window and the operation counts.
    let t = Instant::now();
    let replay = defect::replay();
    report.note(format!(
        "known defect replay (fixed schedule, not counted in failed): {} of {} evaluations panicked in DynamicRtc maintenance{}; {:.2} s",
        replay.panics,
        replay.evaluations,
        replay
            .first
            .as_ref()
            .map(|(d, q)| format!(", first after delta {d} on {q}"))
            .unwrap_or_default(),
        t.elapsed().as_secs_f64()
    ));

    let attempted = a.attempted + b.attempted;
    let failed = a.failed + b.failed + wrong;
    report.attempted = attempted;
    report.failed = failed;
    report.correct = wrong == 0
        && a.protocol_errors + b.protocol_errors == 0
        && a.epoch_mismatches + b.epoch_mismatches == 0;
    let read_ms: Vec<f64> = a.read_ms.iter().chain(&b.read_ms).copied().collect();
    let delta_ms = &a.delta_ms;
    report.note(format!(
        "{attempted} ops in {:.2} s ({} reads, {} deltas, {} failed, {} dropped connections, {} reconnects); {} read latency samples, highest percentile with ten beyond: p{}",
        wall.as_secs_f64(),
        read_ms.len(),
        delta_ms.len(),
        failed,
        a.drops + b.drops,
        a.reconnects + b.reconnects,
        read_ms.len(),
        stats::tail_percentile(read_ms.len()).unwrap_or(0.0)
    ));
    let failed_ratio = stats::ratio(failed as f64, attempted as f64);
    if !opts.trace {
        report.set(
            "ops_per_s",
            (attempted - failed) as f64 / wall.as_secs_f64(),
        );
        report.set("latency_p50_ms", median(&read_ms));
        report.set("latency_p90_ms", percentile(&read_ms, 90.0));
        report.set("setup_s", median(&setup));
        report.note_metric("latency_p99_ms", percentile(&read_ms, 99.0));
        report.note_metric("delta_p50_ms", median(delta_ms));
        report.note_metric("failed_ratio", failed_ratio);
        report.note_metric("peak_rss_mb", peak);
        return report;
    }

    report.set("peak_rss_mb", peak);
    report.set("latency_p99_ms", percentile(&read_ms, 99.0));
    report.set("delta_p50_ms", median(delta_ms));
    report.set("failed_ratio", failed_ratio);
    report.set("defect.dynamic_rtc_panics", replay.panics as f64);
    let merged =
        |f: fn(&Log) -> &Vec<f64>| -> Vec<f64> { f(&a).iter().chain(f(&b)).copied().collect() };
    let eval_ms = merged(|l| &l.eval_ms);
    let rtt_query_ms: f64 =
        merged(|l| &l.transport_ms).iter().sum::<f64>() + eval_ms.iter().sum::<f64>();
    report.set("serve.ends_p50_ms", median(&b.ends_ms));
    report.set("serve.check_p50_ms", median(&b.check_ms));
    report.set("server.eval_ms_p50", median(&eval_ms));
    let transport_ms = merged(|l| &l.transport_ms);
    report.set("server.transport_ms_p50", median(&transport_ms));
    report.set("server.transport_ms_p90", percentile(&transport_ms, 90.0));
    report.set(
        "wire.bytes_per_query",
        stats::mean(&merged(|l| &l.query_bytes)),
    );
    report.set("graph.delta_apply_ms", stats::mean(&mirror.apply_ms));
    let queries = (a.query_count + b.query_count).max(1) as f64;
    // The server's stages run inside the server and are not traced from
    // outside: no DNF time, no stage spans to cover the round trip. Both
    // read 0, as for a layer the workload does not run; the round trip is
    // split by the server-reported eval time instead.
    report.set("regex.dnf_ms", 0.0);
    report.set("trace.coverage", 0.0);
    let eval_share = stats::ratio(eval_ms.iter().sum(), rtt_query_ms);
    report.note(format!(
        "query round trip: server-reported eval {:.1}%, transport {:.1}%",
        100.0 * eval_share,
        100.0 * (1.0 - eval_share)
    ));
    let traced = a.trace_time + b.trace_time;
    report.set(
        "trace.overhead_ratio",
        stats::ratio(
            2.0 * wall.as_secs_f64(),
            2.0 * wall.as_secs_f64() - traced.as_secs_f64(),
        ),
    );
    server_counters(addr, queries, &mut report);

    let mut tracer = a.tracer.expect("traced runs carry a tracer");
    tracer.absorb(b.tracer.expect("traced runs carry a tracer"));
    let path = opts
        .out_dir
        .join(format!("trace-serve_mixed-{}.jsonl", opts.seed));
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

/// Reads the server's `metrics` and `cache` counters after the window.
fn server_counters(addr: SocketAddr, queries: f64, report: &mut Report) {
    let mut admin = Client::connect(addr, &[]).expect("connect for counters");
    let metrics = expect_ok(&mut admin, "metrics").lines;
    let cache = expect_ok(&mut admin, "cache").lines;
    let line = |lines: &[String], prefix: &str| -> String {
        lines
            .iter()
            .find(|l| l.trim_start().starts_with(prefix))
            .cloned()
            .unwrap_or_default()
    };
    let num = |s: Option<&str>| s.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    let dur = |s: Option<&str>| s.and_then(client::parse_duration_ms).unwrap_or(0.0);
    // Counts written as "<n> <word>" inside a line, e.g. "12 hits,".
    let count_before = |l: &str, word: &str| -> f64 {
        let tokens: Vec<&str> = l
            .split_whitespace()
            .map(|t| t.trim_matches(|c| "(),:".contains(c)))
            .collect();
        tokens
            .windows(2)
            .find(|w| w[1] == word)
            .and_then(|w| w[0].parse().ok())
            .unwrap_or(0.0)
    };

    let breakdown = line(&metrics, "breakdown:");
    report.set(
        "core.breakdown.shared_data_ms",
        dur(client::field(&breakdown, "shared_data")) / queries,
    );
    report.set(
        "core.breakdown.pre_join_ms",
        dur(client::field(&breakdown, "pre_join")) / queries,
    );
    report.set(
        "core.breakdown.remainder_ms",
        dur(client::field(&breakdown, "remainder")) / queries,
    );
    let maintenance = line(&metrics, "maintenance:");
    let incremental = num(client::field(&maintenance, "incremental"));
    report.set("reduction.incremental_refreshes", incremental);
    report.set(
        "reduction.rebuild_refreshes",
        num(client::field(&maintenance, "rebuild")),
    );
    report.set(
        "reduction.incremental_ms",
        stats::ratio(dur(client::field(&maintenance, "inc_time")), incremental),
    );
    let serving = line(&metrics, "serving:");
    let publish_mean = serving
        .split("mean ")
        .nth(1)
        .and_then(|s| s.split(')').next());
    report.set("server.publish_mean_ms", dur(publish_mean));
    let memory = line(&metrics, "memory:");
    report.set(
        "core.structural_bytes",
        num(client::field(&memory, "structural")),
    );

    let entries = line(&cache, "entries:");
    let rtcs = count_before(&entries, "rtc");
    report.set(
        "reduction.shared_pairs",
        stats::ratio(count_before(&entries, "pairs"), rtcs),
    );
    report.set(
        "reduction.sccs",
        stats::ratio(count_before(&entries, "sccs"), rtcs),
    );
    let lookups = line(&cache, "lookups:");
    let (hits, misses) = (
        count_before(&lookups, "hits"),
        count_before(&lookups, "misses"),
    );
    report.set("core.cache.hit_ratio", stats::ratio(hits, hits + misses));
    report.set("core.cache.stale_hits", count_before(&lookups, "stale"));
    let results = line(&cache, "results:");
    let (view_hits, result_misses) = (
        count_before(&results, "view"),
        count_before(&results, "result"),
    );
    report.set(
        "core.result_cache.hit_ratio",
        stats::ratio(view_hits, view_hits + result_misses),
    );
    report.set(
        "core.result_cache.evictions",
        count_before(&results, "evicted"),
    );
    report.note(format!("server counters: {}", metrics.join(" |")));
    report.note(format!("server cache: {}", cache.join(" |")));
}
