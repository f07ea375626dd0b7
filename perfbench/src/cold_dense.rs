//! `cold_dense`: cold BC-OPT plans of large networks at constant density.
//!
//! Each operation is one `PlanContext::plan(BcOpt)` on a fresh context,
//! so every artifact (candidate family, power table) is built inside the
//! timed call. This is the cold-plan path at the scale where the
//! Candidates stage dominates.

use crate::inputs::{self, RADIUS_M, WORKERS};
use crate::report::{median, with_peak_rss, Outcome};
use crate::{timed_setups, RunArgs};
use bc_core::planner::Algorithm;
use bc_core::{ChargingPlan, PlanContext, PlannerConfig};
use bc_obs::tree::SpanTreeRecorder;
use bc_wsn::Network;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Sensors per network.
    pub sensors: usize,
    /// Field side (m).
    pub side_m: f64,
    /// Distinct networks per run; every pass plans each once.
    pub networks: usize,
    /// Sensors of the warm-up plan (same density).
    pub warmup_sensors: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Size {
    /// The benchmark's size: n = 4,000 at 1,000 sensors per 300 m square.
    pub const FULL: Size = Size {
        sensors: 4000,
        side_m: 600.0,
        networks: 2,
        warmup_sensors: 250,
        setups: 15,
    };
    /// A seconds-long smoke size.
    pub const TINY: Size = Size {
        sensors: 300,
        side_m: 164.3,
        networks: 2,
        warmup_sensors: 50,
        setups: 2,
    };
}

struct Inputs {
    nets: Vec<Network>,
    pairs: u64,
}

fn cfg() -> PlannerConfig {
    PlannerConfig::paper_sim(RADIUS_M)
}

fn setup(size: &Size, seed: u64) -> Result<Inputs, String> {
    let nets: Vec<Network> = (0..size.networks)
        .map(|k| inputs::uniform(size.sensors, size.side_m, inputs::mix(seed, k as u64)))
        .collect();
    let pairs = nets
        .iter()
        .map(|n| inputs::pairs_within(n, 2.0 * RADIUS_M))
        .sum();
    // Warm-up: one small cold plan at the same density, so the first timed
    // plan does not pay for faulting in code and allocator arenas.
    let side = inputs::side_at_density(size.warmup_sensors, size.sensors, size.side_m);
    let warm = inputs::uniform(size.warmup_sensors, side, inputs::mix(seed, 1000));
    let (plan, _) = cold_plan(&warm)?;
    plan.validate(&warm, &cfg().charging)
        .map_err(|e| format!("warm-up plan invalid: {e}"))?;
    Ok(Inputs { nets, pairs })
}

/// One cold BC-OPT plan on a fresh context; returns the plan, the family
/// size and the wall time of the `plan` call alone.
fn cold_plan(net: &Network) -> Result<(ChargingPlan, Duration), String> {
    let ctx = PlanContext::new(net.clone(), cfg()).with_workers(WORKERS);
    let t = Instant::now();
    let staged = ctx
        .plan(Algorithm::BcOpt)
        .map_err(|e| format!("BC-OPT plan failed: {e}"))?;
    Ok((staged.plan, t.elapsed()))
}

/// Checks a plan against its network and against earlier plans of the
/// same network (planning is deterministic).
fn check(
    out: &mut Outcome,
    k: usize,
    net: &Network,
    plan: ChargingPlan,
    seen: &mut [Option<ChargingPlan>],
) {
    if let Err(e) = plan.validate(net, &cfg().charging) {
        out.fail(format!("network {k}: plan invalid: {e}"));
        return;
    }
    match &seen[k] {
        Some(first) if *first != plan => {
            out.fail(format!("network {k}: replan differs from first plan"))
        }
        Some(_) => {}
        None => seen[k] = Some(plan),
    }
}

/// Runs the workload.
pub fn run(size: &Size, args: &RunArgs) -> Result<Outcome, String> {
    if args.trace {
        return run_traced(size, args);
    }
    let (inp, setup_s) = timed_setups(size.setups, || setup(size, args.seed))?;
    let mut out = Outcome::default();
    let mut seen: Vec<Option<ChargingPlan>> = vec![None; inp.nets.len()];
    let mut times = Vec::new();
    let mut rss = Vec::new();
    let start = Instant::now();
    // Whole passes over the networks, so every network is planned equally
    // often; another pass starts only if it should end within the budget.
    loop {
        let pass = Instant::now();
        for (k, net) in inp.nets.iter().enumerate() {
            out.attempted += 1;
            let (result, peak_mb) = with_peak_rss(|| cold_plan(net));
            rss.push(peak_mb);
            match result {
                Ok((plan, dt)) => {
                    times.push(dt.as_secs_f64());
                    check(&mut out, k, net, plan, &mut seen);
                }
                Err(e) => out.fail(format!("network {k}: {e}")),
            }
        }
        if start.elapsed() + pass.elapsed() > args.budget() {
            break;
        }
    }
    let plans: Vec<&ChargingPlan> = seen.iter().flatten().collect();
    let energy = cfg().energy;
    let stops: usize = plans.iter().map(|p| p.num_charging_stops()).sum();
    let energy_kj: f64 = plans
        .iter()
        .map(|p| p.metrics(&energy).total_energy_j.0)
        .sum::<f64>()
        / 1e3;
    eprintln!(
        "   {} networks x {} sensors, {} pairs within 2r, {} stops; op_ms_p50 over {} plans {:?}",
        inp.nets.len(),
        size.sensors,
        inp.pairs,
        stops,
        times.len(),
        times
    );
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mb", median(&rss).unwrap_or(f64::NAN), "MB");
    out.push("op_ms_p50", median(&times).unwrap_or(f64::NAN) * 1e3, "ms");
    out.push(
        "throughput_per_s",
        times.len() as f64 / times.iter().sum::<f64>(),
        "1/s",
    );
    out.push("energy_kj", energy_kj, "kJ");
    Ok(out)
}

/// The traced pass: the run's first network is planned untraced, then
/// again under a thread-local span-tree recorder (the plan's stage spans
/// all run on the calling thread). One network keeps the pass within the
/// time of an untraced run.
fn run_traced(size: &Size, args: &RunArgs) -> Result<Outcome, String> {
    let (inp, _) = timed_setups(1, || setup(size, args.seed))?;
    let mut out = Outcome::default();
    let tree = Arc::new(SpanTreeRecorder::new());
    let net = &inp.nets[0];
    out.attempted += 2;
    let (bare, bare_dt) = cold_plan(net)?;
    let ctx = PlanContext::new(net.clone(), cfg()).with_workers(WORKERS);
    let t = Instant::now();
    let staged = bc_obs::with_local(tree.clone(), || ctx.plan(Algorithm::BcOpt))
        .map_err(|e| format!("traced BC-OPT plan failed: {e}"))?;
    let traced_s = t.elapsed().as_secs_f64();
    if staged.plan != bare {
        out.fail("traced plan differs from untraced plan".into());
    }
    if let Err(e) = staged.plan.validate(net, &cfg().charging) {
        out.fail(format!("plan invalid: {e}"));
    }
    // Already built by the plan: reading it is a cache hit.
    let family = ctx.candidates().candidates.len();
    let family_bytes = family * net.len().div_ceil(64) * 8;
    let picks = staged.plan.num_charging_stops();
    let tour_m = staged.plan.tour_length().0;
    let snap = tree.snapshot();
    crate::trace::log_critical_path("cold_dense", &snap);
    crate::trace::push_stage_times(&snap, &mut out);
    out.push("core.candidates.count", family as f64, "count");
    out.push("core.candidates.bytes", family_bytes as f64, "B");
    out.push("setcover.picks", picks as f64, "count");
    out.push("tsp.tour_m", tour_m, "m");
    out.push(
        "obs.trace_overhead_ratio",
        traced_s / bare_dt.as_secs_f64(),
        "ratio",
    );
    Ok(out)
}
