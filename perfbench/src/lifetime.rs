//! `lifetime_fleet` and `lifetime_faults`: multi-seed DES lifetime
//! campaigns.
//!
//! Each operation is one `bc_campaign::run_campaign` over the run's seeds.
//! The fleet variant plans once per seed and then spends its time in the
//! DES event loop; the faults variant runs the single-charger executor
//! with recovery replans, so planning dominates.

use crate::inputs::{self, RADIUS_M, WORKERS};
use crate::report::{median, with_peak_rss, Outcome};
use crate::trace::{self, BUILD_CANDIDATES, DES_RUN, PLAN_RUN};
use crate::{timed_setups, RunArgs};
use bc_campaign::{run_campaign, CampaignConfig, CampaignReport};
use bc_core::execute::RecoveryPolicy;
use bc_core::faults::FaultModel;
use bc_core::par::par_map;
use bc_core::planner::Algorithm;
use bc_des::{DesReport, DispatchPolicy, QueueBackend, Scenario};
use bc_obs::tree::SpanTreeRecorder;
use std::sync::Arc;
use std::time::Instant;

/// Workload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Campaign seeds per run.
    pub seeds: usize,
    /// Sensors per seed's network.
    pub sensors: usize,
    /// Field side (m).
    pub side_m: f64,
    /// Simulated horizon (h).
    pub horizon_h: f64,
    /// Chargers, dispatched by bundle partition.
    pub fleet: usize,
    /// Fault rate for `FaultModel::with_rate` with replan-remaining
    /// recovery; `None` runs fault-free.
    pub fault_rate: Option<f64>,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Size {
    /// Three chargers, 2,400 h, no faults: the event loop dominates.
    pub const FLEET: Size = Size {
        seeds: 8,
        sensors: 200,
        side_m: 300.0,
        horizon_h: 2400.0,
        fleet: 3,
        fault_rate: None,
        setups: 9,
    };
    /// One charger, 96 h, fault rate 0.05: recovery replans dominate.
    pub const FAULTS: Size = Size {
        seeds: 8,
        sensors: 200,
        side_m: 300.0,
        horizon_h: 96.0,
        fleet: 1,
        fault_rate: Some(0.05),
        setups: 3,
    };
    /// Seconds-long smoke size of the fleet variant.
    pub const TINY_FLEET: Size = Size {
        seeds: 2,
        sensors: 40,
        side_m: 120.0,
        horizon_h: 96.0,
        ..Size::FLEET
    };
    /// Seconds-long smoke size of the faults variant.
    pub const TINY_FAULTS: Size = Size {
        seeds: 2,
        sensors: 40,
        side_m: 120.0,
        horizon_h: 24.0,
        ..Size::FAULTS
    };
}

/// Horizon of the warm-up run in set-up (h).
const WARMUP_H: f64 = 24.0;

struct Inputs {
    seeds: Vec<u64>,
    scenarios: Vec<Scenario>,
}

fn scenario(size: &Size, seed: u64, horizon_h: f64) -> Scenario {
    let net = inputs::uniform(size.sensors, size.side_m, seed);
    let mut s = Scenario::paper_sim(net, RADIUS_M, Algorithm::BcOpt)
        .with_fleet(size.fleet, DispatchPolicy::BundlePartition)
        .with_queue(QueueBackend::Calendar);
    s.horizon_s = bc_des::clock::hours(horizon_h);
    s.trace_capacity = 0;
    if let Some(rate) = size.fault_rate {
        s = s.with_faults(
            FaultModel::with_rate(seed, rate),
            RecoveryPolicy::ReplanRemaining,
        );
    }
    s
}

fn setup(size: &Size, seed: u64) -> Result<Inputs, String> {
    let seeds: Vec<u64> = (0..size.seeds)
        .map(|i| inputs::mix(seed, 300 + i as u64))
        .collect();
    let scenarios: Vec<Scenario> = seeds
        .iter()
        .map(|&s| scenario(size, s, size.horizon_h))
        .collect();
    // Warm-up: a short run of the first seed's scenario.
    let warm = scenario(size, seeds[0], WARMUP_H.min(size.horizon_h));
    let report = bc_des::run(&warm).map_err(|e| format!("warm-up run failed: {e}"))?;
    report
        .check_fleet_ledger()
        .map_err(|e| format!("warm-up ledger: {e}"))?;
    Ok(Inputs { seeds, scenarios })
}

fn campaign(inp: &Inputs) -> Result<CampaignReport, String> {
    run_campaign(&inp.seeds, &CampaignConfig::new(WORKERS), |seed| {
        let i = inp.seeds.iter().position(|&s| s == seed).unwrap_or(0);
        inp.scenarios[i].clone()
    })
    .map_err(|e| format!("campaign rejected: {e}"))
}

/// Checks one seed's engine report: ledgers balance, quantities in range.
fn check_report(r: &DesReport, scenario: &Scenario) -> Result<(), String> {
    r.check_fleet_ledger().map_err(|e| e.to_string())?;
    let sane = r.rounds > 0
        && r.events_processed > 0
        && r.events_processed <= r.events_scheduled
        && (0.0..=1.0).contains(&r.availability)
        && (0.0..=1.0).contains(&r.fleet_utilization)
        && r.charger_energy_j.0 > 0.0
        && r.fleet.len() == scenario.fleet.size
        && r.min_battery_j.0 >= 0.0
        && r.max_battery_j <= scenario.battery_j;
    if sane {
        Ok(())
    } else {
        Err(format!(
            "implausible report: {} rounds, {} events, availability {}, utilization {}",
            r.rounds, r.events_processed, r.availability, r.fleet_utilization
        ))
    }
}

/// Runs every seed straight through `bc_des::run` on the campaign's
/// worker pool; returns each report with its own wall seconds.
fn direct(inp: &Inputs) -> Vec<(Result<DesReport, String>, f64)> {
    par_map(inp.scenarios.len(), WORKERS, |i| {
        let t = Instant::now();
        let r = bc_des::run(&inp.scenarios[i]).map_err(|e| e.to_string());
        (r, t.elapsed().as_secs_f64())
    })
}

/// Checks direct reports, and that they agree with the campaign's
/// summaries of the same seeds.
fn verify(
    out: &mut Outcome,
    inp: &Inputs,
    reports: &[(Result<DesReport, String>, f64)],
    campaign: Option<&CampaignReport>,
) {
    out.attempted += reports.len() as u64;
    for (i, (r, _)) in reports.iter().enumerate() {
        let seed = inp.seeds[i];
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("seed {seed}: run failed: {e}"));
                continue;
            }
        };
        if let Err(e) = check_report(r, &inp.scenarios[i]) {
            out.fail(format!("seed {seed}: {e}"));
            continue;
        }
        let Some(c) = campaign else { continue };
        let same = c
            .summaries()
            .find(|(s, _)| *s == seed)
            .is_some_and(|(_, sum)| {
                sum.rounds == r.rounds
                    && sum.replans == r.replans
                    && sum.events_processed == r.events_processed
                    && sum.charger_energy_j.0.to_bits() == r.charger_energy_j.0.to_bits()
            });
        if !same {
            out.fail(format!(
                "seed {seed}: campaign summary differs from a direct engine run"
            ));
        }
    }
}

/// Runs the workload.
pub fn run(size: &Size, args: &RunArgs) -> Result<Outcome, String> {
    if args.trace {
        return run_traced(size, args);
    }
    let (inp, setup_s) = timed_setups(size.setups, || setup(size, args.seed))?;
    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut rss = Vec::new();
    let mut first: Option<CampaignReport> = None;
    let start = Instant::now();
    // At least two campaigns, so their merged snapshots can be compared;
    // another starts only if it should end within the budget.
    loop {
        let t = Instant::now();
        let (report, peak_mb) = with_peak_rss(|| campaign(&inp));
        let report = report?;
        let dt = t.elapsed();
        walls.push(dt.as_secs_f64());
        rss.push(peak_mb);
        out.attempted += inp.seeds.len() as u64;
        for (seed, f) in report.failures() {
            out.fail(format!("seed {seed}: {f}"));
        }
        match &first {
            None => first = Some(report),
            Some(f) if f.merge_hash() != report.merge_hash() => {
                out.problem(format!(
                    "merge hash {} != {}",
                    report.merge_hash(),
                    f.merge_hash()
                ));
            }
            Some(_) => {}
        }
        if walls.len() >= 2 && start.elapsed() + dt > args.budget() {
            break;
        }
    }
    let first = first.ok_or("no campaign ran")?;
    verify(&mut out, &inp, &direct(&inp), Some(&first));
    let energy_kj: f64 = first
        .summaries()
        .map(|(_, s)| s.charger_energy_j.0)
        .sum::<f64>()
        / 1e3;
    eprintln!(
        "   {} seeds x {} sensors, {} h, fleet {}: {} events, {} replans; op_ms_p50 over {} campaigns {:?}",
        inp.seeds.len(),
        size.sensors,
        size.horizon_h,
        size.fleet,
        first.events_processed_total(),
        first.summaries().map(|(_, s)| s.replans).sum::<usize>(),
        walls.len(),
        walls
    );
    let wall_s = median(&walls).unwrap_or(f64::NAN);
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mb", median(&rss).unwrap_or(f64::NAN), "MB");
    out.push("op_ms_p50", wall_s * 1e3, "ms");
    out.push("throughput_per_s", inp.seeds.len() as f64 / wall_s, "1/s");
    out.push("energy_kj", energy_kj, "kJ");
    Ok(out)
}

/// The traced pass: every seed straight through `bc_des::run` on the
/// campaign's worker pool, first untraced, then with a span-tree recorder
/// installed process-wide. (`run_campaign` gives each seed a thread-local
/// stats recorder, which would hide a process-wide one.)
fn run_traced(size: &Size, args: &RunArgs) -> Result<Outcome, String> {
    let (inp, _) = timed_setups(1, || setup(size, args.seed))?;
    let mut out = Outcome::default();
    let t = Instant::now();
    let bare = direct(&inp);
    let bare_s = t.elapsed().as_secs_f64();
    verify(&mut out, &inp, &bare, None);

    let tree = Arc::new(SpanTreeRecorder::new());
    bc_obs::install(tree.clone());
    let t = Instant::now();
    let traced = direct(&inp);
    let traced_s = t.elapsed().as_secs_f64();
    bc_obs::uninstall();
    verify(&mut out, &inp, &traced, None);
    for (i, ((a, _), (b, _))) in bare.iter().zip(&traced).enumerate() {
        if a.as_ref().ok() != b.as_ref().ok() {
            out.fail(format!(
                "seed {}: traced report differs from untraced",
                inp.seeds[i]
            ));
        }
    }
    let reports: Vec<&DesReport> = traced.iter().filter_map(|(r, _)| r.as_ref().ok()).collect();
    let seed_s: f64 = traced.iter().map(|(_, s)| s).sum();
    let snap = tree.snapshot();
    trace::log_critical_path(
        if size.fault_rate.is_some() {
            "lifetime_faults"
        } else {
            "lifetime_fleet"
        },
        &snap,
    );
    let des = trace::named(&snap, DES_RUN);
    if des.count != inp.seeds.len() as u64 {
        out.problem(format!(
            "{} des.run spans for {} seeds",
            des.count,
            inp.seeds.len()
        ));
    }
    // The first plan of a seed is made before its `des.run` span opens,
    // so planning is every `plan.run`, and the engine's own time is
    // `des.run` less the replans inside it.
    let engine_s = des.total_s - trace::named_within(&snap, DES_RUN, PLAN_RUN).total_s;
    let events: u64 = reports.iter().map(|r| r.events_processed).sum();
    trace::push_stage_times(&snap, &mut out);
    out.push("des.engine.self_s", engine_s, "s");
    out.push("des.events", events as f64, "count");
    out.push("des.events_per_s", events as f64 / engine_s, "1/s");
    out.push("des.plan.s", trace::named(&snap, PLAN_RUN).total_s, "s");
    out.push(
        "des.replans",
        reports.iter().map(|r| r.replans).sum::<usize>() as f64,
        "count",
    );
    out.push(
        "des.candidate_builds",
        trace::named(&snap, BUILD_CANDIDATES).count as f64,
        "count",
    );
    out.push(
        "campaign.idle_share",
        1.0 - seed_s / (WORKERS as f64 * traced_s),
        "ratio",
    );
    out.push("obs.trace_overhead_ratio", traced_s / bare_s, "ratio");
    Ok(out)
}
