//! End-to-end and per-layer benchmark of the RTC-RPQ engine and server.
//!
//! Three workloads, each run in its own process by `perfbench --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>`:
//!
//! * `paper_sets` — the paper's Experiment 2: sets of ten `Pre·R⁺·Post`
//!   queries sharing one `R`, a fresh RTCSharing engine per set.
//! * `closure_sets` — `R⁺`, `R*` and `a·R⁺` per `R` on the Youtube
//!   surrogate: no `Post` stage, so the time moves to `R_G`, the RTC and
//!   its expansion.
//! * `serve_mixed` — an in-process `rpq_server::serve` on loopback under
//!   two closed-loop binary-mode clients mixing queries, `ends`, `check`
//!   and deltas.
//!
//! The system is driven only through public functions. Untraced runs
//! report the end-to-end metrics of [`report::END_TO_END`]; traced runs
//! add spans around each layer call and report [`report::PER_LAYER`].
//! `perfbench/README.md` maps each layer metric to the end-to-end metric
//! and workload it should move.

pub mod batch;
pub mod check;
pub mod client;
pub mod defect;
pub mod gen;
pub mod report;
pub mod serve;
pub mod speed;
pub mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Duration;

/// The workloads, by their fixed names.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Multiple-RPQ `Pre·R⁺·Post` sets on RMAT_3.
    PaperSets,
    /// Closure-only sets on the Youtube surrogate.
    ClosureSets,
    /// The TCP server under a query/delta stream.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSets,
        Workload::ClosureSets,
        Workload::ServeMixed,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSets => "paper_sets",
            Workload::ClosureSets => "closure_sets",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Position in [`Workload::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Size::full`] is the benchmark's one size, the only one
/// the command line runs; [`Size::smoke`] exists for the self-tests, which
/// run every workload end to end at it in a second or two.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// `log2 |V|` of the `paper_sets` RMAT_3 graph.
    pub paper_scale: u32,
    /// Distinct `R` per length (1, 2, 3) in `paper_sets`.
    pub paper_rs_per_length: usize,
    /// Divisor of the Youtube surrogate's `|V|` and `|E|` in `closure_sets`.
    pub closure_denominator: usize,
    /// Distinct `R` per length (1, 2, 3) in `closure_sets`.
    pub closure_rs_per_length: usize,
    /// Source vertices whose result rows are checked for every result.
    pub source_sample: usize,
    /// Whole results compared with a reference evaluator per run, by
    /// workload: `evaluate_algebraic`, except on `closure_sets`, where its
    /// semi-naive closure took ~26 s for one query and the product
    /// evaluator run from every vertex takes well under a second.
    pub whole_sample: [usize; 3],
    /// `log2 |V|` of the `serve_mixed` RMAT_0 graph.
    pub serve_scale: u32,
    /// Distinct `R` per length in the `serve_mixed` query pool (ten
    /// `Pre·R⁺·Post` queries plus `R⁺` each).
    pub serve_rs_per_length: usize,
    /// Times the set-up is repeated (its median is `setup_s`).
    pub setup_repeats: usize,
}

impl Size {
    /// The benchmark's sizes.
    pub fn full() -> Size {
        Size {
            paper_scale: 9,
            paper_rs_per_length: 10,
            closure_denominator: 4,
            closure_rs_per_length: 25,
            source_sample: 32,
            whole_sample: [8, 8, 8],
            serve_scale: 12,
            serve_rs_per_length: 20,
            setup_repeats: 15,
        }
    }

    /// Tiny inputs for the self-tests (`tests/smoke.rs`).
    pub fn smoke() -> Size {
        Size {
            paper_scale: 7,
            paper_rs_per_length: 2,
            closure_denominator: 50,
            closure_rs_per_length: 2,
            source_sample: 8,
            whole_sample: [2, 1, 4],
            serve_scale: 8,
            serve_rs_per_length: 3,
            setup_repeats: 2,
        }
    }
}

/// One run's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Directory for the span dump of traced runs.
    pub out_dir: PathBuf,
}

/// Runs one workload and returns its report.
pub fn run(opts: &Options) -> report::Report {
    match opts.workload {
        Workload::PaperSets | Workload::ClosureSets => batch::run(opts),
        Workload::ServeMixed => serve::run(opts),
    }
}

/// The process's peak resident set (`VmHWM`) in MB, 0 where unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the process has used so far, over all its threads (Linux's
/// `CLOCK_PROCESS_CPUTIME_ID`). A single-threaded evaluation's CPU time
/// equals its wall time on a core it has to itself, and leaves out the
/// time other processes hold the core.
pub fn cpu_time() -> Duration {
    use std::ffi::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
