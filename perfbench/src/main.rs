//! `perfbench` — runs one benchmark workload and prints its result.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Progress goes to stderr; the last line of stdout is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The exit code is 0 only for a correct run; a run whose outputs fail a
//! check prints its result and exits 1; bad arguments or a failed
//! set-up exit 2 without a result.

use perfbench::report::{render, valid_name};
use perfbench::{run_workload, RunArgs, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut run = RunArgs {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(run.seconds > 0.0 && run.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload =
        workload.ok_or_else(|| format!("--workload is required: one of {WORKLOADS:?}"))?;
    Ok((workload, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        ">> {workload}: seed {}, {} s, trace {}, {cores} cores",
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    let out = match run_workload(&workload, &run, false) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(bad) = out.metrics.iter().find(|m| !valid_name(m.name)) {
        eprintln!("error: invalid metric name {:?}", bad.name);
        return ExitCode::from(2);
    }
    for m in &out.metrics {
        eprintln!("   {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &out.problems {
        eprintln!("   FAILED CHECK: {p}");
    }
    println!("{}", render(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
