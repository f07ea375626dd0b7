//! Bundle Charging with tour optimization (BC-OPT, Algorithm 3).
//!
//! Starting from the BC plan, every anchor `C_i` is iteratively relocated
//! toward the chord between its tour neighbours `C_{i-1}` and `C_{i+1}`.
//! For each candidate displacement radius `d` (Algorithm 3's
//! `for d = 0 : max` loop), the best relocated position on the circle
//! `|P - C_i| = d` is the ellipse tangency point of Theorem 4, located by
//! the logarithmic search that Theorem 5's bisector property enables
//! (implemented in [`bc_geom::tangency`]).
//!
//! A relocation is accepted only when it lowers the *total* operating
//! energy: the movement saved on the two adjacent tour legs must exceed
//! the extra charging energy caused by the now-longer worst charging
//! distance (the Eq. 7–8 trade-off, evaluated exactly rather than through
//! the paper's first-order approximation).

use bc_geom::{tangency, Disk, Point, Segment};
use bc_units::{Joules, Meters};
use bc_wsn::Network;

use crate::{ChargingBundle, ChargingPlan, PlannerConfig, Stop};

/// Applies the Algorithm 3 anchor-relocation sweeps to an ordered plan,
/// in place, with the per-anchor `d`-sweep evaluations fanned out over
/// `workers` scoped threads. The Gauss–Seidel outer structure (anchor
/// `i` sees its neighbours' already-relocated positions) is inherently
/// sequential; only the independent candidate evaluations within one
/// anchor's sweep run in parallel, and they are reduced in step order,
/// so the result is identical for any worker count.
pub(crate) fn optimize_tour_with_workers(
    plan: &mut ChargingPlan,
    net: &Network,
    cfg: &PlannerConfig,
    workers: usize,
) {
    let n = plan.stops.len();
    if n < 2 {
        return;
    }
    // The relocation circles stay centred on each bundle's original
    // (smallest-enclosing-disk) center, per Theorem 4.
    let centers: Vec<Point> = plan
        .stops
        .iter()
        .map(|s| {
            if s.bundle.is_empty() {
                s.anchor()
            } else {
                let pts: Vec<Point> =
                    s.bundle.sensors.iter().map(|&i| net.sensor(i).pos).collect();
                bc_geom::sed::smallest_enclosing_disk(&pts).center
            }
        })
        .collect();

    for _round in 0..cfg.opt_max_rounds {
        // Causal profiling: one child span per Gauss–Seidel round under
        // the owning stage span, carrying the per-round relocation count.
        // Gated on `active()` so the disabled path does not even read the
        // wall clock per round (the NullRecorder inertness bench).
        let mut round_span =
            bc_obs::active().then(|| bc_obs::ScopedSpan::enter("plan", "tighten.round"));
        let mut changed = false;
        let mut relocations = 0u64;
        #[allow(clippy::needless_range_loop)] // i indexes stops, centers and cyclic neighbours
        for i in 0..n {
            if plan.stops[i].bundle.is_empty() {
                continue; // never move the base way-point
            }
            let prev = plan.stops[(i + n - 1) % n].anchor();
            let next = plan.stops[(i + 1) % n].anchor();
            if let Some((anchor, _gain)) =
                best_relocation(&plan.stops[i], centers[i], prev, next, net, cfg, workers)
            {
                let members = plan.stops[i].bundle.sensors.clone();
                let bundle = ChargingBundle::with_anchor(members, anchor, net);
                plan.stops[i] = Stop::for_bundle(bundle, net, &cfg.charging);
                changed = true;
                relocations += 1;
            }
        }
        if let Some(mut span) = round_span.take() {
            bc_obs::counter("plan", "tighten.relocations", relocations, &[]);
            span.add_field("relocations", relocations);
            span.add_field("changed", changed);
            span.finish();
        }
        if !changed {
            break;
        }
    }
}

/// Evaluates the `d`-sweep for one stop and returns the best relocated
/// anchor with its energy gain, or `None` when no relocation beats the
/// current position.
fn best_relocation(
    stop: &Stop,
    center: Point,
    prev: Point,
    next: Point,
    net: &Network,
    cfg: &PlannerConfig,
    workers: usize,
) -> Option<(Point, Joules)> {
    let energy = &cfg.energy;
    let current_legs = prev.distance(stop.anchor()) + stop.anchor().distance(next);
    let current_cost =
        energy.movement_energy(Meters(current_legs)) + energy.charging_energy(stop.dwell);

    // Sweeping past the chord between the neighbours can never help: the
    // movement term is already minimal at the chord's closest approach.
    let d_max = Segment::new(prev, next).distance_to_point(center);
    if d_max <= bc_geom::EPS {
        bc_obs::counter("plan", "tighten.anchors_pruned", 1, &[]);
        return None;
    }
    let steps = cfg.opt_distance_steps.max(1);
    // One span per anchor's d-sweep (they fold by name in the tree
    // recorder), opened on this orchestrator thread only — the par_map
    // worker closures stay emission-free, which is what keeps span-tree
    // snapshots byte-identical across worker counts.
    let sweep_span =
        bc_obs::active().then(|| bc_obs::ScopedSpan::enter("plan", "tighten.sweep"));
    // Fan out only when one sweep is expensive enough to amortise the
    // thread spawns; the gate changes throughput, never the result.
    let eff_workers = if workers > 1 && stop.bundle.sensors.len() * steps >= 192 {
        workers
    } else {
        1
    };
    let evals: Vec<(Point, Joules)> = crate::par::par_map(steps, eff_workers, |idx| {
        let k = idx + 1;
        let d = d_max * k as f64 / steps as f64; // cast-ok: sweep-step ratio
        let t = tangency::min_focal_sum_on_circle(prev, next, &Disk::new(center, d));
        let bundle = ChargingBundle::with_anchor(stop.bundle.sensors.clone(), t.point, net);
        let dwell = bundle.dwell_time(net, &cfg.charging);
        let cost = energy.movement_energy(Meters(t.focal_sum)) + energy.charging_energy(dwell);
        (t.point, cost)
    });
    if let Some(span) = sweep_span {
        // Work attribution for the tighten hotspot: candidate anchors
        // examined and the golden-section evaluations behind them
        // (Theorem 5's search does a fixed number per candidate).
        let as_u64 = |v: usize| u64::try_from(v).unwrap_or(u64::MAX);
        bc_obs::counter("plan", "tighten.candidates", as_u64(steps), &[]);
        bc_obs::counter(
            "plan",
            "tighten.gs_evals",
            as_u64(steps * tangency::EVALS_PER_SEARCH),
            &[],
        );
        span.finish();
    }
    let mut best: Option<(Point, Joules)> = None;
    for (point, cost) in evals {
        let gain = current_cost - cost;
        if gain > Joules(1e-9) && best.as_ref().is_none_or(|&(_, g)| gain > g) {
            best = Some((point, gain));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{try_run, Algorithm};
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    fn plan(algo: Algorithm, net: &Network, cfg: &PlannerConfig) -> ChargingPlan {
        try_run(algo, net, cfg).unwrap()
    }

    fn plan_energy(plan: &ChargingPlan, cfg: &PlannerConfig) -> Joules {
        plan.metrics(&cfg.energy).total_energy_j
    }

    #[test]
    fn never_worse_than_bc() {
        for seed in [1u64, 2, 3, 4, 5] {
            let net = deploy::uniform(50, Aabb::square(800.0), 2.0, seed);
            let cfg = PlannerConfig::paper_sim(40.0);
            let e_bc = plan_energy(&plan(Algorithm::Bc, &net, &cfg), &cfg);
            let e_opt = plan_energy(&plan(Algorithm::BcOpt, &net, &cfg), &cfg);
            assert!(
                e_opt <= e_bc + Joules(1e-6),
                "seed {seed}: BC-OPT {e_opt} worse than BC {e_bc}"
            );
        }
    }

    #[test]
    fn stays_feasible_after_optimization() {
        let net = deploy::uniform(60, Aabb::square(600.0), 2.0, 23);
        let cfg = PlannerConfig::paper_sim(50.0);
        let plan = plan(Algorithm::BcOpt, &net, &cfg);
        assert!(plan.validate(&net, &cfg.charging).is_ok());
    }

    #[test]
    fn relocation_shortens_tour_at_cost_of_dwell() {
        // Three far-apart bundles in a wide triangle: the middle one
        // should slide toward the chord.
        let net = deploy::from_coords(
            &[(0.0, 0.0), (500.0, 300.0), (1000.0, 0.0)],
            Aabb::square(1000.0),
            2.0,
        );
        let cfg = PlannerConfig::paper_sim(10.0);
        let bc = plan(Algorithm::Bc, &net, &cfg);
        let opt = plan(Algorithm::BcOpt, &net, &cfg);
        assert!(opt.tour_length() < bc.tour_length() - Meters(1.0));
        assert!(opt.total_dwell() > bc.total_dwell());
        assert!(plan_energy(&opt, &cfg) < plan_energy(&bc, &cfg));
        assert!(opt.validate(&net, &cfg.charging).is_ok());
    }

    #[test]
    fn two_stop_case_moves_anchors_together() {
        // The Section V-B two-bundle discussion: with expensive movement,
        // both anchors slide toward each other.
        let net = deploy::from_coords(&[(0.0, 0.0), (400.0, 0.0)], Aabb::square(1000.0), 2.0);
        let cfg = PlannerConfig::paper_sim(10.0);
        let bc = plan(Algorithm::Bc, &net, &cfg);
        let opt = plan(Algorithm::BcOpt, &net, &cfg);
        assert!(opt.tour_length() < bc.tour_length());
        assert!(plan_energy(&opt, &cfg) < plan_energy(&bc, &cfg));
    }

    #[test]
    fn single_stop_is_untouched() {
        let net = deploy::from_coords(&[(10.0, 10.0), (12.0, 10.0)], Aabb::square(100.0), 2.0);
        let cfg = PlannerConfig::paper_sim(20.0);
        let bc = plan(Algorithm::Bc, &net, &cfg);
        let opt = plan(Algorithm::BcOpt, &net, &cfg);
        assert_eq!(opt.num_charging_stops(), 1);
        assert_eq!(opt, bc);
        assert!(opt.validate(&net, &cfg.charging).is_ok());
    }

    #[test]
    fn grid_strategy_runs() {
        let net = deploy::uniform(30, Aabb::square(400.0), 2.0, 3);
        let mut cfg = PlannerConfig::paper_sim(30.0);
        cfg.bundle_strategy = crate::BundleStrategy::Grid;
        let bc = plan(Algorithm::Bc, &net, &cfg);
        let opt = plan(Algorithm::BcOpt, &net, &cfg);
        assert!(opt.validate(&net, &cfg.charging).is_ok());
        assert!(plan_energy(&opt, &cfg) <= plan_energy(&bc, &cfg) + Joules(1e-6));
    }
}
