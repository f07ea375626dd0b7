//! `repro` — regenerate the paper's figures from the command line.
//!
//! ```text
//! repro <check|des|campaign|obs|serve|profile|fig6|ablations|lifetime|faults|fig10|fig11|fig12|fig13|fig14|fig16|timings|all> [--runs N] [--seed S] [--out DIR]
//! ```
//!
//! Prints each figure's data table and writes a CSV per table into the
//! output directory (default `results/`). The `des` subcommand is a
//! discrete-event-engine smoke benchmark: it runs a 3-charger fleet
//! scenario on `bc-des` and writes `BENCH_des.json` (events/sec, replan
//! count, fleet utilization) for the CI `des-smoke` artifact. The
//! `campaign` subcommand runs the shared `bc-campaign` smoke harness at
//! reduced scale — queue-backend hold benchmark, seed sweep with rotated
//! JSONL traces, merge-determinism check — writing `BENCH_campaign.json`
//! (trend lines), `campaign_snapshot.json` (byte-stable merged
//! snapshot) and `campaign_traces/` for the CI `campaign-smoke`
//! artifact. The `obs`
//! subcommand exercises the `bc-obs` tracing layer end to end — planner
//! stages, executor rounds, and a DES run under a stats + JSONL recorder
//! fanout — writing `BENCH_obs.json` and `obs_trace.jsonl` for the CI
//! `obs-smoke` artifact. The `serve` subcommand runs the `bc-serve`
//! chaos harness — seeded stall/failure/panic injection at saturating
//! load — writing `BENCH_serve.json` and `serve_trace.jsonl` for the CI
//! `serve-smoke` artifact. The `profile` subcommand runs BC-OPT under
//! the causal span-tree profiler and writes `span_tree.json` (folded
//! tree with self-time accounting, critical path, work-attribution
//! counters) plus `profile.folded` (collapsed stacks — feed straight
//! into `flamegraph.pl` or speedscope); it fails unless at least 90% of
//! the tighten stage's wall time is attributed to named child spans.

use std::path::PathBuf;
use std::process::ExitCode;

use bc_sim::figures::{self, ExpConfig};
use bc_sim::Table;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: repro <check|des|campaign|obs|serve|profile|fig6|ablations|lifetime|faults|fig10|fig11|fig12|fig13|fig14|fig16|timings|all> \
                 [--runs N] [--seed S] [--out DIR]"
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut which: Option<String> = None;
    let mut exp = ExpConfig::default();
    let mut out = PathBuf::from("results");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--runs" => {
                exp.runs = next_value(args, &mut i)?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if exp.runs == 0 {
                    return Err("--runs must be positive".into());
                }
            }
            "--seed" => {
                exp.base_seed = next_value(args, &mut i)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => {
                out = PathBuf::from(next_value(args, &mut i)?);
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}"));
            }
            name => {
                if which.replace(name.to_owned()).is_some() {
                    return Err("more than one figure named".into());
                }
            }
        }
        i += 1;
    }
    let which = which.ok_or_else(|| "no figure named".to_owned())?;

    if which == "check" {
        eprintln!(">> reproduction self-check ({} runs/point)", exp.runs);
        let results = bc_sim::checks::run_all(&exp);
        let (text, all) = bc_sim::checks::report(&results);
        print!("{text}");
        return if all {
            Ok(())
        } else {
            Err("some claims failed to reproduce".into())
        };
    }

    if which == "des" {
        return des_smoke(&exp, &out);
    }

    if which == "campaign" {
        return campaign_smoke(&out);
    }

    if which == "obs" {
        return obs_smoke(&exp, &out);
    }

    if which == "serve" {
        return serve_smoke(&exp, &out);
    }

    if which == "profile" {
        return profile(&exp, &out);
    }

    type Job = (&'static str, fn(&ExpConfig) -> Vec<Table>);
    let jobs: Vec<Job> = vec![
        ("fig6", figures::fig6::tables),
        ("ablations", figures::ablations::tables),
        ("lifetime", bc_sim::lifetime::table),
        ("faults", figures::faults::tables),
        ("fig10", figures::fig10::tables),
        ("fig11", figures::fig11::tables),
        ("fig12", figures::fig12::tables),
        ("fig13", figures::fig13::tables),
        ("fig14", figures::fig14::tables),
        ("fig16", figures::fig16::tables),
        ("timings", figures::timings::tables),
    ];
    let selected: Vec<_> = if which == "all" {
        jobs
    } else {
        let job = jobs
            .into_iter()
            .find(|(name, _)| *name == which)
            .ok_or_else(|| format!("unknown figure {which}"))?;
        vec![job]
    };

    for (name, f) in selected {
        eprintln!(">> {name} ({} runs/point, seed {})", exp.runs, exp.base_seed);
        let started = std::time::Instant::now();
        let tables = f(&exp);
        for t in &tables {
            println!("{t}");
            let path = t
                .save_csv(&out)
                .map_err(|e| format!("saving {}: {e}", t.title))?;
            eprintln!("   wrote {}", path.display());
        }
        if name == "fig10" {
            // Fig. 10 is a picture; emit the SVG renderings too.
            let paths = figures::fig10::save_figures(&exp, &out)
                .map_err(|e| format!("rendering fig10: {e}"))?;
            for p in paths {
                eprintln!("   wrote {}", p.display());
            }
        }
        eprintln!("   {name} done in {:.1?}", started.elapsed());
    }
    if which == "all" {
        let path = bc_sim::html::write_report_from_dir(&out, "Bundle Charging — reproduction report")
            .map_err(|e| format!("writing report: {e}"))?;
        eprintln!("   wrote {}", path.display());
    }
    Ok(())
}

/// The `des` subcommand: run a 3-charger fleet scenario on the
/// discrete-event engine and emit `BENCH_des.json` into `out`.
fn des_smoke(exp: &ExpConfig, out: &std::path::Path) -> Result<(), String> {
    use bc_core::planner::Algorithm;
    use bc_des::{DispatchPolicy, Scenario};
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    const N: usize = 60;
    const FLEET: usize = 3;
    let seed = exp.base_seed;
    eprintln!(">> des smoke: {N} sensors, {FLEET} chargers (bundle-partition), seed {seed}");

    let net = deploy::uniform(N, Aabb::square(300.0), 2.0, seed);
    let scenario = Scenario::paper_sim(net, 25.0, Algorithm::BcOpt)
        .with_fleet(FLEET, DispatchPolicy::BundlePartition);

    let started = std::time::Instant::now();
    let report = bc_des::run(&scenario).map_err(|e| format!("des run: {e:?}"))?;
    let elapsed_s = started.elapsed().as_secs_f64();
    report
        .check_fleet_ledger()
        .map_err(|e| format!("fleet ledger imbalance: {e:?}"))?;

    let events_per_sec = report.events_processed as f64 / elapsed_s.max(1e-12); // cast-ok: event count into a rate
    eprintln!(
        "   {} events in {elapsed_s:.3} s ({events_per_sec:.0} events/s), \
         {} rounds, {} replans, fleet {:.1}% utilized, {} trace records dropped",
        report.events_processed,
        report.rounds,
        report.replans,
        100.0 * report.fleet_utilization,
        report.trace_dropped
    );

    let ledgers: Vec<String> = report
        .fleet
        .iter()
        .map(|l| {
            format!(
                "    {{\"charger\": {}, \"distance_m\": {:.3}, \"busy_s\": {:.3}, \
                 \"move_energy_j\": {:.3}, \"charge_energy_j\": {:.3}, \
                 \"stops_served\": {}, \"sensors_charged\": {}}}",
                l.charger,
                l.distance_m.get(),
                l.busy_s.get(),
                l.move_energy_j.get(),
                l.charge_energy_j.get(),
                l.stops_served,
                l.sensors_charged
            )
        })
        .collect();
    let provenance =
        bc_obs::provenance::Provenance::capture().with_queue_backend(scenario.queue.label());
    let json = format!(
        "{{\n  \"bench\": \"des_smoke\",\n  \"n\": {N},\n  \"seed\": {seed},\n  \
         \"provenance\": {prov},\n  \
         \"fleet\": {FLEET},\n  \"dispatch\": \"{dispatch}\",\n  \
         \"horizon_s\": {horizon:.1},\n  \"elapsed_s\": {elapsed_s:.6},\n  \
         \"events_processed\": {events},\n  \"events_scheduled\": {scheduled},\n  \
         \"events_per_sec\": {events_per_sec:.1},\n  \"rounds\": {rounds},\n  \
         \"replans\": {replans},\n  \"base_returns\": {base_returns},\n  \
         \"charger_energy_j\": {energy:.3},\n  \"fleet_utilization\": {util:.6},\n  \
         \"sensors_ever_dead\": {dead},\n  \"trace_dropped\": {dropped},\n  \
         \"fleet_ledgers\": [\n{ledgers}\n  ]\n}}\n",
        prov = provenance.to_json(),
        dispatch = scenario.fleet.dispatch.label(),
        horizon = scenario.horizon_s.get(),
        events = report.events_processed,
        scheduled = report.events_scheduled,
        rounds = report.rounds,
        replans = report.replans,
        base_returns = report.base_returns,
        energy = report.charger_energy_j.get(),
        util = report.fleet_utilization,
        dead = report.sensors_ever_dead,
        dropped = report.trace_dropped,
        ledgers = ledgers.join(",\n"),
    );
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let path = out.join("BENCH_des.json");
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("   wrote {}", path.display());
    Ok(())
}

/// The `campaign` subcommand: the shared `bc-campaign` smoke harness at
/// reduced (CI) scale, with rotated trace streaming enabled so the CI
/// job has trace artifacts to validate and upload. Writes
/// `BENCH_campaign.json`, `campaign_snapshot.json` and `campaign_traces/`
/// into `out`.
fn campaign_smoke(out: &std::path::Path) -> Result<(), String> {
    use bc_campaign::{run_smoke, SmokeOptions};

    let mut opts = SmokeOptions::reduced();
    opts.trace_dir = Some(out.join("campaign_traces"));
    eprintln!(
        ">> campaign smoke: {} pending / {} hold ops per queue backend; \
         {} seeds x {} sensors x {} h on {} workers",
        opts.pending, opts.hold_ops, opts.seeds, opts.sensors, opts.horizon_hours, opts.workers
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
        "   calendar/heap {:.3}x, {:.3} bytes/sensor, {} seeds ok / {} failed, \
         {:.3} seeds/sec, merge hash {}, {} trace files ({} lines)",
        report.calendar_vs_heap,
        report.state_bytes_per_sensor,
        report.seeds_completed,
        report.seeds_failed,
        report.seeds_per_sec,
        report.merge_hash,
        report.trace_files,
        report.trace_lines
    );

    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let bench_path = out.join("BENCH_campaign.json");
    std::fs::write(&bench_path, report.bench_json())
        .map_err(|e| format!("writing {}: {e}", bench_path.display()))?;
    eprintln!("   wrote {}", bench_path.display());
    let snap_path = out.join("campaign_snapshot.json");
    std::fs::write(&snap_path, &report.snapshot_json)
        .map_err(|e| format!("writing {}: {e}", snap_path.display()))?;
    eprintln!("   wrote {}", snap_path.display());
    Ok(())
}

/// The `obs` subcommand: exercise the `bc-obs` layer end to end.
///
/// Installs a fanout of a [`StatsRecorder`] (aggregates) and a
/// [`JsonlRecorder`] (event stream), then drives all three instrumented
/// subsystems — the staged planner across every algorithm, the fault
/// executor across several rounds, and a fleet scenario on the DES
/// engine. The JSONL stream is validated line by line before anything is
/// written, so a malformed trace fails this run rather than CI's
/// artifact consumers. Writes `BENCH_obs.json` (per-stage wall time,
/// event counts, histogram summaries) and `obs_trace.jsonl` into `out`.
fn obs_smoke(exp: &ExpConfig, out: &std::path::Path) -> Result<(), String> {
    use std::sync::Arc;

    use bc_core::context::PlanContext;
    use bc_core::planner::Algorithm;
    use bc_core::{Executor, FaultModel, PlannerConfig, RecoveryPolicy};
    use bc_des::{DispatchPolicy, Scenario};
    use bc_geom::Aabb;
    use bc_obs::recorders::{FanoutRecorder, JsonlRecorder, StatsRecorder};
    use bc_obs::Recorder;
    use bc_wsn::deploy;

    const N: usize = 50;
    const ROUNDS: u64 = 3;
    let seed = exp.base_seed;
    eprintln!(">> obs smoke: {N} sensors, planner + executor + des under fanout recorder, seed {seed}");

    let stats = Arc::new(StatsRecorder::new());
    let jsonl = Arc::new(JsonlRecorder::new(Vec::new()));
    bc_obs::install(Arc::new(FanoutRecorder::new(vec![
        Arc::clone(&stats) as Arc<dyn Recorder>,
        Arc::clone(&jsonl) as Arc<dyn Recorder>,
    ])));

    let started = std::time::Instant::now();
    let net = deploy::uniform(N, Aabb::square(250.0), 2.0, seed);
    let cfg = PlannerConfig::paper_sim(25.0);

    // Planner: every algorithm through the staged pipeline (stage spans,
    // artifact-build counters, cache hit/miss fields).
    let ctx = PlanContext::new(net.clone(), cfg.clone());
    let mut bc_opt_plan = None;
    for algo in Algorithm::ALL {
        let staged = ctx
            .plan(algo)
            .map_err(|e| format!("planning {}: {e:?}", algo.name()))?;
        if algo == Algorithm::BcOpt {
            bc_opt_plan = Some(staged.plan);
        }
    }
    let plan = bc_opt_plan.ok_or_else(|| "BC-OPT plan missing".to_owned())?;

    // Executor: a few faulty rounds (per-stop events, dwell histogram,
    // fault deaths, replans).
    let executor = Executor::new(&net, &cfg).with_policy(RecoveryPolicy::ReplanRemaining);
    for round in 0..ROUNDS {
        let faults = FaultModel::with_rate(seed.wrapping_add(round), 0.05);
        executor
            .execute(&plan, &faults, round)
            .map_err(|e| format!("executor round {round}: {e:?}"))?;
    }

    // DES: a 2-charger fleet scenario (run-loop event bridge,
    // battery-generation invalidations, dispatch rounds).
    let des_net = deploy::uniform(40, Aabb::square(250.0), 2.0, seed);
    let scenario = Scenario::paper_sim(des_net, 25.0, Algorithm::BcOpt)
        .with_fleet(2, DispatchPolicy::BundlePartition);
    let des_report = bc_des::run(&scenario).map_err(|e| format!("des run: {e:?}"))?;
    let elapsed_s = started.elapsed().as_secs_f64();

    bc_obs::uninstall();
    let jsonl = Arc::try_unwrap(jsonl)
        .map_err(|_| "JSONL recorder still shared after uninstall".to_owned())?;
    let trace = String::from_utf8(jsonl.into_inner())
        .map_err(|e| format!("JSONL stream is not UTF-8: {e}"))?;
    let jsonl_events = bc_obs::json::validate_jsonl(&trace)
        .map_err(|(line, e)| format!("invalid JSONL trace at line {line}: {e}"))?;

    let snapshot = stats.snapshot();
    eprintln!(
        "   {jsonl_events} events across {} series in {elapsed_s:.3} s \
         ({} des events bridged, {} executor stops)",
        snapshot.series_count(),
        des_report.events_processed,
        snapshot.event_count("exec.stop")
    );

    let bench = format!(
        "{{\n  \"bench\": \"obs_smoke\",\n  \"n\": {N},\n  \"seed\": {seed},\n  \
         \"rounds\": {ROUNDS},\n  \"elapsed_s\": {elapsed_s:.6},\n  \
         \"jsonl_events\": {jsonl_events},\n  \"series\": {series},\n  \
         \"des_events_processed\": {des_events},\n  \"stats\": {stats_json}}}\n",
        series = snapshot.series_count(),
        des_events = des_report.events_processed,
        stats_json = snapshot.to_json(),
    );
    bc_obs::json::validate_line(bench.trim_end())
        .map_err(|e| format!("BENCH_obs.json failed self-validation: {e}"))?;

    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let trace_path = out.join("obs_trace.jsonl");
    std::fs::write(&trace_path, &trace)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    eprintln!("   wrote {}", trace_path.display());
    let bench_path = out.join("BENCH_obs.json");
    std::fs::write(&bench_path, bench)
        .map_err(|e| format!("writing {}: {e}", bench_path.display()))?;
    eprintln!("   wrote {}", bench_path.display());
    Ok(())
}

fn serve_smoke(exp: &ExpConfig, out: &std::path::Path) -> Result<(), String> {
    use std::sync::Arc;

    use bc_obs::recorders::{FanoutRecorder, JsonlRecorder, StatsRecorder};
    use bc_obs::Recorder;
    use bc_serve::{loadgen, LoadProfile};

    let seed = exp.base_seed;
    let profile = LoadProfile::chaos(seed);
    eprintln!(
        ">> serve chaos smoke: seed {seed}, {} clients x {} requests, \
         stall/fail/panic injection + {}-slot queue",
        profile.clients, profile.requests_per_client, profile.serve.queue_capacity
    );

    let stats = Arc::new(StatsRecorder::new());
    let jsonl = Arc::new(JsonlRecorder::new(Vec::new()));
    bc_obs::install(Arc::new(FanoutRecorder::new(vec![
        Arc::clone(&stats) as Arc<dyn Recorder>,
        Arc::clone(&jsonl) as Arc<dyn Recorder>,
    ])));
    let report = loadgen::run(&profile);
    bc_obs::uninstall();
    let report = report.map_err(|e| format!("serve load run: {e}"))?;

    let jsonl = Arc::try_unwrap(jsonl)
        .map_err(|_| "JSONL recorder still shared after uninstall".to_owned())?;
    let trace = String::from_utf8(jsonl.into_inner())
        .map_err(|e| format!("JSONL stream is not UTF-8: {e}"))?;
    let jsonl_events = bc_obs::json::validate_jsonl(&trace)
        .map_err(|(line, e)| format!("invalid JSONL trace at line {line}: {e}"))?;

    eprintln!(
        "   {} responses: {} full, {} degraded, {} shed, {} deadline, {} failed; \
         {} panics caught, {} rebuilds; p99 {:.1} ms",
        report.responses_seen,
        report.ok_full,
        report.ok_degraded,
        report.shed,
        report.deadline,
        report.failed,
        report.stats.panics_caught,
        report.rebuilds,
        report.latency.p99_ms,
    );
    if !report.invariants_hold() {
        return Err(format!(
            "availability invariants violated: {} lost, {} poisoned, {} invalid plans",
            report.lost_responses, report.poisoned_entries, report.invalid_plans
        ));
    }

    let mut bench = report.to_json();
    bench.truncate(bench.len() - 1);
    bench.push_str(&format!(
        ",\"jsonl_events\":{jsonl_events},\"obs\":{}}}\n",
        stats.snapshot().to_json()
    ));
    bc_obs::json::validate_line(bench.trim_end())
        .map_err(|e| format!("BENCH_serve.json failed self-validation: {e}"))?;

    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let trace_path = out.join("serve_trace.jsonl");
    std::fs::write(&trace_path, &trace)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    eprintln!("   wrote {}", trace_path.display());
    let bench_path = out.join("BENCH_serve.json");
    std::fs::write(&bench_path, bench)
        .map_err(|e| format!("writing {}: {e}", bench_path.display()))?;
    eprintln!("   wrote {}", bench_path.display());
    Ok(())
}

/// The `profile` subcommand: run BC-OPT under the causal span-tree
/// profiler and write `span_tree.json` + `profile.folded` into `out`.
///
/// The run fails unless the tighten subtree attributes at least
/// [`TIGHTEN_ATTRIBUTION_FLOOR`] of its wall time to named child spans —
/// the acceptance floor for the profiler's usefulness: a tighten stage
/// that is mostly unexplained self-time means the sub-span
/// instrumentation has rotted.
fn profile(exp: &ExpConfig, out: &std::path::Path) -> Result<(), String> {
    use std::sync::Arc;

    use bc_core::context::PlanContext;
    use bc_core::planner::Algorithm;
    use bc_core::PlannerConfig;
    use bc_geom::Aabb;
    use bc_obs::tree::SpanTreeRecorder;
    use bc_wsn::deploy;

    /// Minimum share of the tighten stage's wall time that must land in
    /// named child spans.
    const TIGHTEN_ATTRIBUTION_FLOOR: f64 = 0.90;
    const N: usize = 100;
    let seed = exp.base_seed;
    eprintln!(">> profile: BC-OPT on {N} sensors under the span-tree profiler, seed {seed}");

    let net = deploy::uniform(N, Aabb::square(300.0), 2.0, seed);
    let cfg = PlannerConfig::paper_sim(25.0);
    let tree = Arc::new(SpanTreeRecorder::new());
    let started = std::time::Instant::now();
    bc_obs::with_local(tree.clone(), || {
        let ctx = PlanContext::new(net, cfg);
        ctx.plan(Algorithm::BcOpt).map(|_| ()).map_err(|e| format!("BC-OPT: {e}"))
    })?;
    let elapsed_s = started.elapsed().as_secs_f64();

    let snap = tree.snapshot();
    let critical: Vec<String> = snap
        .critical_path()
        .iter()
        .map(|n| {
            let mut s = String::new();
            bc_obs::json::escape_into(&mut s, &n.name);
            s
        })
        .collect();
    let tighten = snap
        .node(&["plan.run", "plan.stage.tighten"])
        .ok_or("span tree is missing the plan.run -> plan.stage.tighten path")?;
    let attribution = 1.0 - tighten.self_s / tighten.total_s.max(1e-12);
    // Work counters attach to the innermost open span (the sweep), so
    // sum them over the whole tighten subtree.
    fn subtree_counter(node: &bc_obs::tree::TreeNode, key: &str) -> u64 {
        node.counters.get(key).copied().unwrap_or(0)
            + node.children.iter().map(|c| subtree_counter(c, key)).sum::<u64>()
    }
    let gs_evals = subtree_counter(tighten, "plan.tighten.gs_evals");
    eprintln!(
        "   {} folded nodes in {elapsed_s:.3} s; critical path {}; \
         tighten attribution {:.1}% ({} golden-section evals)",
        snap.node_count(),
        snap.critical_path()
            .iter()
            .map(|n| n.name.as_str())
            .collect::<Vec<_>>()
            .join(" -> "),
        attribution * 100.0,
        gs_evals,
    );
    if attribution < TIGHTEN_ATTRIBUTION_FLOOR {
        return Err(format!(
            "tighten attribution {:.1}% is below the {:.0}% floor — \
             sub-span instrumentation no longer covers the stage",
            attribution * 100.0,
            TIGHTEN_ATTRIBUTION_FLOOR * 100.0
        ));
    }

    let provenance = bc_obs::provenance::Provenance::capture();
    let doc = format!(
        "{{\n  \"bench\": \"profile\",\n  \"n\": {N},\n  \"seed\": {seed},\n  \
         \"elapsed_s\": {elapsed_s:.6},\n  \"provenance\": {prov},\n  \
         \"nodes\": {nodes},\n  \"critical_path\": [{critical}],\n  \
         \"tighten_attribution_ratio\": {attribution:.4},\n  \
         \"gs_evals\": {gs_evals},\n  \
         \"tree\": {tree_json}\n}}\n",
        prov = provenance.to_json(),
        nodes = snap.node_count(),
        critical = critical.join(", "),
        tree_json = snap.to_json(),
    );
    bc_obs::json::validate_line(doc.trim_end())
        .map_err(|e| format!("span_tree.json failed self-validation: {e}"))?;

    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let tree_path = out.join("span_tree.json");
    std::fs::write(&tree_path, &doc)
        .map_err(|e| format!("writing {}: {e}", tree_path.display()))?;
    eprintln!("   wrote {}", tree_path.display());
    let folded_path = out.join("profile.folded");
    std::fs::write(&folded_path, snap.collapsed())
        .map_err(|e| format!("writing {}: {e}", folded_path.display()))?;
    eprintln!("   wrote {}", folded_path.display());
    eprintln!("   flamegraph: flamegraph.pl {} > flame.svg", folded_path.display());
    Ok(())
}

fn next_value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
}
