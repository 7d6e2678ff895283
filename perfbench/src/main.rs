//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload, prints every metric by name with its unit, and ends
//! with one JSON line `{"correct", "attempted", "failed", "metrics"}`.
//! Exits non-zero when an output was wrong.
//!
//! `--workload all` runs every workload in a child process of its own, one
//! after another, relays their output and exits non-zero if any did.

use rpq_perfbench::{report::Report, run, Options, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload paper_sets|closure_sets|serve_mixed|all --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload '{value}'"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        size: Size::full(),
        out_dir: PathBuf::from(".bench_out"),
    })
}

/// Runs every workload as `perfbench` with the same flags in a child
/// process of its own; each child's lines are relayed with its name.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find the perfbench binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    for workload in Workload::ALL {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed")
            + 1;
        child_args[at] = workload.name().to_string();
        let output = match std::process::Command::new(&exe).args(&child_args).output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("cannot run {}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        };
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            println!("[{}] {line}", workload.name());
        }
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let ok = output.status.success();
        println!(
            "[{}] exit: {}",
            workload.name(),
            if ok { "ok" } else { "FAILED" }
        );
        all_ok &= ok;
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .windows(2)
        .any(|w| w[0] == "--workload" && w[1] == "all")
    {
        return run_all(&args);
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report: Report = run(&opts);
    for line in report.human(opts.trace) {
        println!("{line}");
    }
    println!("{}", report.json_line(opts.trace));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
