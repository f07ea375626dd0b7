//! One benchmark for the four planner paths.
//!
//! | workload | operation | layer doing most of the work |
//! |---|---|---|
//! | `cold_dense` | cold BC-OPT `PlanContext::plan`, n = 4,000 | Candidates |
//! | `serve_paper` | `PlanService::call`, closed loop, n = 200 | Tighten (artifacts cached) |
//! | `lifetime_fleet` | `run_campaign`, 3 chargers, 2,400 h | DES event loop |
//! | `lifetime_faults` | `run_campaign`, faults + replans, 96 h | planning under `des.run` |
//!
//! With `trace = false` a run times its operations with tracing off and
//! reports every end-to-end metric of [`report::END_TO_END`]. With
//! `trace = true` it runs the same inputs untraced and then under
//! `bc_obs::tree::SpanTreeRecorder`, and reports every per-layer metric of
//! [`report::PER_LAYER`], read from the program's own spans.

pub mod cold_dense;
pub mod inputs;
pub mod lifetime;
pub mod report;
pub mod serve_paper;
pub mod trace;

use report::{median, Outcome};
use std::time::{Duration, Instant};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "cold_dense",
    "serve_paper",
    "lifetime_fleet",
    "lifetime_faults",
];

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// Measuring budget in seconds.
    pub seconds: f64,
    /// Run the traced pass instead of the end-to-end one.
    pub trace: bool,
}

impl RunArgs {
    /// The measuring budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Runs a workload at its benchmark size, or at its smoke size when
/// `tiny` is set.
///
/// # Errors
///
/// An unknown workload name, or a set-up that could not complete.
pub fn run_workload(name: &str, args: &RunArgs, tiny: bool) -> Result<Outcome, String> {
    use lifetime::Size as Life;
    fn pick<T>(tiny: bool, full: T, small: T) -> T {
        if tiny {
            small
        } else {
            full
        }
    }
    let mut out = match name {
        "cold_dense" => cold_dense::run(
            &pick(tiny, cold_dense::Size::FULL, cold_dense::Size::TINY),
            args,
        ),
        "serve_paper" => serve_paper::run(
            &pick(tiny, serve_paper::Size::FULL, serve_paper::Size::TINY),
            args,
        ),
        "lifetime_fleet" => lifetime::run(&pick(tiny, Life::FLEET, Life::TINY_FLEET), args),
        "lifetime_faults" => lifetime::run(&pick(tiny, Life::FAULTS, Life::TINY_FAULTS), args),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }?;
    if args.trace {
        out.conform(&report::PER_LAYER, true);
    } else {
        out.conform(&report::END_TO_END, false);
    }
    Ok(out)
}

/// Runs `setup` `times` times (at least once), keeping the last result,
/// and returns it with the median set-up seconds.
///
/// # Errors
///
/// The first set-up error.
pub fn timed_setups<T>(
    times: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        // Release the previous set-up before building the next one.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    let value = last.ok_or("no set-up ran")?;
    Ok((value, median(&secs).unwrap_or(f64::NAN)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_benchcheck::json::parse;

    /// Every workload at its smoke size, end-to-end and traced: correct,
    /// every listed metric present, and the result line parses.
    #[test]
    fn smoke_all_workloads() {
        // The layer each workload was chosen for reads above 0 there.
        let busy: [(&str, &[&str]); 4] = [
            (
                "cold_dense",
                &["core.candidates.s", "core.candidates.count"],
            ),
            ("serve_paper", &["core.tighten.s", "serve.plan_ms"]),
            ("lifetime_fleet", &["des.engine.self_s", "des.events"]),
            ("lifetime_faults", &["des.plan.s", "des.replans"]),
        ];
        for (name, layers) in busy {
            // Long enough for the smoke-size clients to send the requests
            // a p95 needs.
            let seconds = if name == "serve_paper" { 2.0 } else { 0.2 };
            for trace in [false, true] {
                let args = RunArgs {
                    seed: 3,
                    seconds,
                    trace,
                };
                let out = run_workload(name, &args, true).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(out.correct(), "{name} (trace {trace}): {:?}", out.problems);
                let list = if trace {
                    &report::PER_LAYER[..]
                } else {
                    &report::END_TO_END[..]
                };
                assert_eq!(out.metrics.len(), list.len(), "{name}");
                for m in &out.metrics {
                    assert!(m.value.is_finite(), "{name}: {} = {}", m.name, m.value);
                    if !trace {
                        assert!(m.value > 0.0, "{name}: {} = {}", m.name, m.value);
                    }
                }
                if trace {
                    for m in layers {
                        let v = out.metric(m).unwrap_or_else(|| panic!("{name}: no {m}"));
                        assert!(v > 0.0, "{name}: {m} = {v}");
                    }
                }
                let line = report::render(&out);
                parse(&line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));
            }
            // The exact quality guard repeats for the same seed.
            let args = RunArgs {
                seed: 3,
                seconds,
                trace: false,
            };
            let a = run_workload(name, &args, true).expect("rerun");
            let b = run_workload(name, &args, true).expect("rerun");
            assert_eq!(
                a.metric("energy_kj").map(f64::to_bits),
                b.metric("energy_kj").map(f64::to_bits),
                "{name}: energy_kj changed between runs"
            );
        }
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let args = RunArgs {
            seed: 1,
            seconds: 1.0,
            trace: false,
        };
        assert!(run_workload("nope", &args, true).is_err());
    }

    #[test]
    fn workload_names_are_valid() {
        assert!(WORKLOADS.iter().all(|w| report::valid_name(w)));
    }
}
