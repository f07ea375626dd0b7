//! `pipeline_smoke` — quick-mode pipeline benchmark for CI.
//!
//! ```text
//! pipeline_smoke [--n N] [--seed S] [--out FILE]
//! ```
//!
//! Two measurements, written as a small hand-rolled JSON document
//! (default `BENCH_pipeline.json`) that the CI bench-smoke job uploads
//! as an artifact:
//!
//! 1. **Candidate enumeration** at `--n` sensors (default 1000) on the
//!    bench suite's 300 m dense field: serial (`workers = 1`) vs
//!    parallel (all cores) wall-time and the resulting speedup. The two families are
//!    asserted identical first — the speedup is only meaningful if the
//!    parallel path is bit-for-bit equivalent.
//! 2. **Per-stage pipeline timings** for every algorithm on the Section
//!    VI-A default scenario (n = 100, 300 m field, r = 10 m), one fresh
//!    [`PlanContext`] per algorithm so each is billed its own artifact
//!    builds.
//! 3. **Observability overhead**: the BC-OPT pipeline with a
//!    `bc-obs` `NullRecorder` installed vs. no recorder at all. The two
//!    plans and their metrics must be identical (instrumentation may
//!    never perturb results) and the thread-local span stack must stay
//!    empty (the causal profiler may not even allocate ids when
//!    disabled); the wall-time ratio is reported so CI can flag a
//!    disabled-path regression.
//! 4. **Span-tree shape**: one BC-OPT run under a `SpanTreeRecorder`,
//!    reporting the folded node count and the fraction of the tighten
//!    stage's wall time attributed to named child spans — the
//!    acceptance floor for the causal profiler is 90%.
//!
//! The document carries a `provenance` stamp (package version, cargo
//! profile, cores, workers) so `cargo xtask bench-check` can tell a
//! real regression from a machine-shape change.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bc_bench::dense_network;
use bc_core::context::{default_workers, StageTimings};
use bc_core::planner::Algorithm;
use bc_core::{CandidateFamily, PlanContext, PlannerConfig};

/// Bundle radius (m) used throughout.
const RADIUS_M: f64 = 10.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: pipeline_smoke [--n N] [--seed S] [--out FILE]");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut n = 1000usize;
    let mut seed = 1000u64;
    let mut out = PathBuf::from("BENCH_pipeline.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => n = parse_next(args, &mut i)?,
            "--seed" => seed = parse_next(args, &mut i)?,
            "--out" => out = PathBuf::from(next_value(args, &mut i)?),
            flag => return Err(format!("unknown flag {flag}")),
        }
        i += 1;
    }
    if n == 0 {
        return Err("--n must be positive".into());
    }

    // The speedup figure is meaningless at workers = 1 (serial vs
    // serial): on single-core CI boxes `default_workers()` is 1, so the
    // parallel leg always runs at least two workers, and the JSON
    // records both the cores seen and the workers actually used.
    let cores = default_workers();
    let workers = cores.max(2);
    eprintln!(">> candidate enumeration: n = {n}, cores = {cores}, workers = {workers}");
    let net = dense_network(n, seed);

    let t0 = Instant::now();
    let serial = CandidateFamily::pair_intersection_par(&net, RADIUS_M, 1);
    let serial_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let parallel = CandidateFamily::pair_intersection_par(&net, RADIUS_M, workers);
    let parallel_s = t1.elapsed().as_secs_f64();
    if serial.candidates != parallel.candidates {
        return Err("parallel candidate family differs from serial".into());
    }
    let speedup = serial_s / parallel_s.max(1e-12);
    eprintln!(
        "   serial {serial_s:.3} s, parallel {parallel_s:.3} s, speedup {speedup:.2}x, {} candidates",
        serial.candidates.len()
    );

    eprintln!(">> per-stage timings: Section VI-A default scenario");
    let cfg = PlannerConfig::paper_sim(RADIUS_M);
    let default_net = dense_network(100, seed);
    let mut stage_json = Vec::new();
    for algo in Algorithm::ALL {
        let ctx = PlanContext::new(default_net.clone(), cfg.clone());
        let staged = ctx
            .plan(algo)
            .map_err(|e| format!("{algo}: {e}"))?;
        eprintln!("   {algo}: total {:.3} s", staged.timings.total().0);
        stage_json.push(timings_json(algo.name(), &staged.timings));
    }

    eprintln!(">> null-recorder overhead: BC-OPT, {OVERHEAD_REPS} reps each way");
    let (bare_s, bare_plan) = plan_bc_opt_reps(&default_net, &cfg)?;
    let null_recorder: std::sync::Arc<dyn bc_obs::Recorder> =
        std::sync::Arc::new(bc_obs::recorders::NullRecorder);
    let (null_s, null_plan) = bc_obs::with_local(null_recorder, || {
        if bc_obs::active() {
            return Err("NullRecorder left the emission path active".to_owned());
        }
        let out = plan_bc_opt_reps(&default_net, &cfg)?;
        // Inertness extends to the causal profiler: with emission
        // disabled no span may have pushed the thread-local stack.
        if bc_obs::span_stack_depth() != 0 {
            return Err("span stack grew under NullRecorder — ScopedSpan is not inert".to_owned());
        }
        Ok(out)
    })?;
    if null_plan != bare_plan {
        return Err("plan differs under NullRecorder — instrumentation is not inert".into());
    }
    if null_plan.metrics(&cfg.energy) != bare_plan.metrics(&cfg.energy) {
        return Err("metrics differ under NullRecorder — instrumentation is not inert".into());
    }
    let overhead_ratio = null_s / bare_s.max(1e-12);
    eprintln!(
        "   bare {bare_s:.3} s, null-recorder {null_s:.3} s, ratio {overhead_ratio:.4} \
         (plans and metrics identical, span stack untouched)"
    );

    eprintln!(">> span-tree shape: BC-OPT under SpanTreeRecorder");
    let tree = std::sync::Arc::new(bc_obs::tree::SpanTreeRecorder::new());
    let tree_plan = bc_obs::with_local(tree.clone(), || {
        let ctx = PlanContext::new(default_net.clone(), cfg.clone());
        ctx.plan(Algorithm::BcOpt).map_err(|e| format!("BC-OPT (traced): {e}"))
    })?;
    if tree_plan.plan != bare_plan {
        return Err("plan differs under SpanTreeRecorder — instrumentation is not inert".into());
    }
    let snap = tree.snapshot();
    let tighten = snap
        .node(&["plan.run", "plan.stage.tighten"])
        .ok_or("span tree is missing the plan.run -> plan.stage.tighten path")?;
    let tighten_attribution = 1.0 - tighten.self_s / tighten.total_s.max(1e-12);
    eprintln!(
        "   {} folded nodes, tighten attribution {:.1}%",
        snap.node_count(),
        tighten_attribution * 100.0
    );

    let provenance = bc_bench::Provenance::capture().with_workers(workers);
    let json = format!
        (
        "{{\n  \"bench\": \"pipeline_smoke\",\n  \"n\": {n},\n  \"seed\": {seed},\n  \
         \"cores\": {cores},\n  \"workers\": {workers},\n  \"radius_m\": {RADIUS_M},\n  \
         \"provenance\": {prov},\n  \
         \"num_candidates\": {nc},\n  \"candidates_serial_s\": {serial_s:.6},\n  \
         \"candidates_parallel_s\": {parallel_s:.6},\n  \"candidates_speedup\": {speedup:.3},\n  \
         \"null_recorder\": {{\"bare_s\": {bare_s:.6}, \"null_s\": {null_s:.6}, \
         \"overhead_ratio\": {overhead_ratio:.4}, \"plans_identical\": true}},\n  \
         \"span_tree\": {{\"nodes\": {nodes}, \
         \"tighten_attribution_ratio\": {tighten_attribution:.4}}},\n  \
         \"stage_timings\": {{\n{stages}\n  }}\n}}\n",
        prov = provenance.to_json(),
        nc = serial.candidates.len(),
        nodes = snap.node_count(),
        stages = stage_json.join(",\n"),
    );
    std::fs::write(&out, json).map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!("   wrote {}", out.display());
    Ok(())
}

/// Repetitions for the null-recorder overhead comparison.
const OVERHEAD_REPS: usize = 3;

/// Plans BC-OPT [`OVERHEAD_REPS`] times on fresh contexts, returning the
/// fastest wall time (least noise-sensitive) and the last plan.
fn plan_bc_opt_reps(
    net: &bc_wsn::Network,
    cfg: &PlannerConfig,
) -> Result<(f64, bc_core::ChargingPlan), String> {
    let mut best_s = f64::INFINITY;
    let mut plan = None;
    for _ in 0..OVERHEAD_REPS {
        let ctx = PlanContext::new(net.clone(), cfg.clone());
        let t = Instant::now();
        let staged = ctx
            .plan(Algorithm::BcOpt)
            .map_err(|e| format!("BC-OPT: {e}"))?;
        best_s = best_s.min(t.elapsed().as_secs_f64());
        plan = Some(staged.plan);
    }
    plan.map(|p| (best_s, p))
        .ok_or_else(|| "no BC-OPT plan produced".to_owned())
}

fn timings_json(name: &str, t: &StageTimings) -> String {
    format!(
        "    \"{name}\": {{\"candidates_s\": {:.6}, \"cover_s\": {:.6}, \"order_s\": {:.6}, \
         \"tighten_s\": {:.6}, \"total_s\": {:.6}}}",
        t.candidates_s.0,
        t.cover_s.0,
        t.order_s.0,
        t.tighten_s.0,
        t.total().0
    )
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
