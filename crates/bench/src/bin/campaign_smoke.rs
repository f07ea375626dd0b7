//! `campaign_smoke` — the bc-campaign trend benchmark.
//!
//! ```text
//! campaign_smoke [--full] [--pending N] [--hold-ops N] [--seeds N]
//!                [--sensors N] [--horizon-hours H] [--workers W]
//!                [--trace-dir DIR] [--trace-max-bytes B]
//!                [--out FILE] [--snapshot FILE]
//! ```
//!
//! Runs the shared [`bc_campaign::smoke`] harness and writes two
//! artifacts: the `BENCH_campaign.json` trend document (queue-backend
//! events/sec head-to-head, SoA bytes/sensor, campaign seeds/sec, and
//! the merge-determinism hash) and the full deterministic campaign
//! snapshot (per-seed results + merged stats), which CI byte-compares
//! across runs. Defaults to the reduced CI scale; `--full` switches to
//! the 10⁶-pending benchmark scale the committed baseline uses.

use std::path::PathBuf;
use std::process::ExitCode;

use bc_campaign::{run_smoke, SmokeOptions};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: campaign_smoke [--full] [--pending N] [--hold-ops N] [--seeds N] \
                 [--sensors N] [--horizon-hours H] [--workers W] [--trace-dir DIR] \
                 [--trace-max-bytes B] [--out FILE] [--snapshot FILE]"
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut opts = SmokeOptions::reduced();
    let mut out = PathBuf::from("BENCH_campaign.json");
    let mut snapshot = PathBuf::from("campaign_snapshot.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => opts = SmokeOptions::full(),
            "--pending" => opts.pending = parse_next(args, &mut i)?,
            "--hold-ops" => opts.hold_ops = parse_next(args, &mut i)?,
            "--seeds" => opts.seeds = parse_next(args, &mut i)?,
            "--sensors" => opts.sensors = parse_next(args, &mut i)?,
            "--horizon-hours" => opts.horizon_hours = parse_next(args, &mut i)?,
            "--workers" => opts.workers = parse_next(args, &mut i)?,
            "--trace-dir" => opts.trace_dir = Some(PathBuf::from(next_value(args, &mut i)?)),
            "--trace-max-bytes" => opts.trace_max_bytes = parse_next(args, &mut i)?,
            "--out" => out = PathBuf::from(next_value(args, &mut i)?),
            "--snapshot" => snapshot = PathBuf::from(next_value(args, &mut i)?),
            flag => return Err(format!("unknown flag {flag}")),
        }
        i += 1;
    }
    if opts.pending == 0 || opts.seeds == 0 {
        return Err("--pending and --seeds must be positive".into());
    }

    eprintln!(
        ">> queue hold workload: {} pending, {} hold ops, both backends",
        opts.pending, opts.hold_ops
    );
    eprintln!(
        ">> campaign: {} seeds x {} sensors x {} h on {} workers",
        opts.seeds, opts.sensors, opts.horizon_hours, opts.workers
    );
    let report = run_smoke(&opts).map_err(|e| e.to_string())?;

    for q in &report.queue {
        eprintln!(
            "   {:<12} {:>12.0} events/sec  (checksum {})",
            q.backend.label(),
            q.events_per_sec,
            q.checksum
        );
    }
    eprintln!(
        "   calendar/heap {:.3}x, {:.3} bytes/sensor, {:.3} seeds/sec, merge hash {}",
        report.calendar_vs_heap,
        report.state_bytes_per_sensor,
        report.seeds_per_sec,
        report.merge_hash
    );
    if report.trace_files > 0 {
        eprintln!(
            "   {} rotated trace files, {} validated JSONL lines",
            report.trace_files, report.trace_lines
        );
    }

    std::fs::write(&out, report.bench_json())
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!("   wrote {}", out.display());
    std::fs::write(&snapshot, &report.snapshot_json)
        .map_err(|e| format!("writing {}: {e}", snapshot.display()))?;
    eprintln!("   wrote {}", snapshot.display());
    Ok(())
}

fn next_value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
}

fn parse_next<T: std::str::FromStr>(args: &[String], i: &mut usize) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let flag = args[*i].clone();
    next_value(args, i)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}
