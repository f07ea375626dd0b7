//! Multi-round lifetime simulation — perpetual operation under a
//! recharging policy.
//!
//! The paper's introduction promises that with wireless recharging "the
//! lifetime of a WRSN can be extended infinitely for perpetual
//! operations", and its network model triggers a charging round when
//! sensors run low. This module closes that loop: sensors drain
//! continuously, a charging round is dispatched when enough of them fall
//! below a threshold, the mobile charger executes the configured
//! planner's tour in real time (driving and dwelling while everything
//! keeps draining), and the simulation reports deaths, downtime and
//! charger energy over a long horizon.
//!
//! It is the system-level experiment the per-tour figures cannot show:
//! a planner with cheaper tours can afford more frequent rounds and keeps
//! the network alive with less energy.
//!
//! Since the `bc-des` migration, [`simulate`] runs on the discrete-event
//! engine ([`bc_des::run`]) behind the same API and panics. The original
//! fixed-interval integrator survives as [`simulate_reference`]: it is the
//! oracle for the DES equivalence suite (sensor-death times within one
//! legacy timestep, see `tests/des_equivalence.rs`).

use bc_core::planner::{try_run, Algorithm};
use bc_core::{Executor, FaultModel, PlannerConfig, RecoveryPolicy};
use bc_des::{DesError, FleetConfig, Scenario};
use bc_units::{Joules, Meters, MetersPerSecond, Seconds, Watts};
use bc_wsn::Network;

/// Configuration of a lifetime simulation.
#[derive(Debug, Clone)]
pub struct LifetimeConfig {
    /// Simulated wall-clock horizon.
    pub horizon_s: Seconds,
    /// Continuous drain per sensor.
    pub drain_w: Watts,
    /// Usable battery capacity per sensor. Batteries start full.
    pub battery_j: Joules,
    /// A round is dispatched when this many sensors fall below
    /// `trigger_level_j`.
    pub trigger_count: usize,
    /// Battery level below which a sensor counts as "low".
    pub trigger_level_j: Joules,
    /// Charger driving speed.
    pub speed_mps: MetersPerSecond,
    /// Planner used for every round.
    pub algorithm: Algorithm,
    /// Planner configuration (bundle radius, models).
    pub planner: PlannerConfig,
    /// Fault model executed against every round (`None` = perfect
    /// execution, the original behaviour). Hardware deaths persist
    /// across rounds; a dead sensor stops being charged and counts as
    /// downtime for the rest of the horizon.
    pub faults: Option<FaultModel>,
    /// Recovery policy used when `faults` is set.
    pub recovery: RecoveryPolicy,
}

impl LifetimeConfig {
    /// A sustainable default scenario on the paper's simulation models:
    /// 2 J batteries draining at 0.2 mW (a battery lasts ~2.8 h), with a
    /// round dispatched once a quarter of the network falls to half
    /// charge — early enough that the slow WISP-scale tour (an hour of
    /// driving and dwelling) completes before anyone runs dry.
    pub fn paper_sim(n_sensors: usize, radius: f64, algorithm: Algorithm) -> Self {
        LifetimeConfig {
            horizon_s: Seconds(24.0 * 3600.0),
            drain_w: Watts(2e-4),
            battery_j: Joules(2.0),
            trigger_count: (n_sensors / 4).max(1),
            trigger_level_j: Joules(1.0),
            speed_mps: MetersPerSecond(1.0),
            algorithm,
            planner: PlannerConfig::paper_sim(radius),
            faults: None,
            recovery: RecoveryPolicy::SkipAndContinue,
        }
    }

    /// Injects faults into every round of the simulation.
    pub fn with_faults(mut self, faults: FaultModel, recovery: RecoveryPolicy) -> Self {
        self.faults = Some(faults);
        self.recovery = recovery;
        self
    }
}

/// Outcome of a lifetime simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeReport {
    /// Charging rounds dispatched within the horizon.
    pub rounds: usize,
    /// Total charger energy across all rounds.
    pub charger_energy_j: Joules,
    /// Sensor-seconds spent dead (battery at zero).
    pub downtime_sensor_s: Seconds,
    /// Fraction of sensor-time alive, in `[0, 1]`.
    pub availability: f64,
    /// Number of sensors that ever died.
    pub sensors_ever_dead: usize,
    /// Lowest battery level observed anywhere.
    pub min_battery_j: Joules,
    /// Sensors permanently lost to injected hardware faults.
    pub fault_deaths: usize,
    /// Sum over rounds of live sensors the round failed to charge.
    pub stranded_sensor_rounds: usize,
    /// Total time spent recovering from faults across all rounds.
    pub recovery_latency_s: Seconds,
    /// Total energy spent above the fault-free cost of each round.
    pub extra_energy_j: Joules,
    /// Mid-tour replans performed across all rounds.
    pub replans: usize,
    /// Recovery visits to the base station across all rounds.
    pub base_returns: usize,
    /// Highest battery level observed anywhere. Recharges are clamped at
    /// capacity, so this never exceeds `battery_j`.
    pub max_battery_j: Joules,
    /// Per-sensor instant of first death (battery or hardware), if any.
    pub first_death_s: Vec<Option<Seconds>>,
}

/// Runs the lifetime simulation on the `bc-des` discrete-event engine.
///
/// Semantics match [`simulate_reference`]: the tour is planned once with
/// each sensor's demand equal to the full battery capacity, a round is
/// dispatched when the low-battery trigger fires, and recharges are
/// clamped at capacity. The event engine skips quiescent stretches
/// instead of integrating through them.
///
/// # Panics
///
/// Panics if the configuration is degenerate (non-positive horizon,
/// speed, or battery), if planning fails, or if fault-injected execution
/// fails — the same conditions as the reference integrator.
pub fn simulate(net: &Network, cfg: &LifetimeConfig) -> LifetimeReport {
    assert!(cfg.horizon_s.0 > 0.0, "horizon must be positive");
    assert!(cfg.speed_mps.0 > 0.0, "speed must be positive");
    assert!(cfg.battery_j.0 > 0.0, "battery must be positive");
    let scenario = Scenario {
        net: net.clone(),
        horizon_s: cfg.horizon_s,
        drain_w: cfg.drain_w,
        battery_j: cfg.battery_j,
        trigger_count: cfg.trigger_count,
        trigger_level_j: cfg.trigger_level_j,
        speed_mps: cfg.speed_mps,
        algorithm: cfg.algorithm,
        planner: cfg.planner.clone(),
        faults: cfg.faults.clone(),
        recovery: cfg.recovery,
        fleet: FleetConfig::single(),
        trace_capacity: 0,
        queue: bc_des::QueueBackend::BinaryHeap,
    };
    let rep = bc_des::run(&scenario).unwrap_or_else(|e| match e {
        DesError::Plan(pe) => panic!("lifetime planning failed: {pe}"),
        DesError::Exec(ee) => panic!("fault execution failed: {ee}"),
        DesError::Scenario(se) => panic!("invalid lifetime configuration: {se}"),
    });
    LifetimeReport {
        rounds: rep.rounds,
        charger_energy_j: rep.charger_energy_j,
        downtime_sensor_s: rep.downtime_sensor_s,
        availability: rep.availability,
        sensors_ever_dead: rep.sensors_ever_dead,
        min_battery_j: rep.min_battery_j,
        fault_deaths: rep.fault_deaths,
        stranded_sensor_rounds: rep.stranded_sensor_rounds,
        recovery_latency_s: rep.recovery_latency_s,
        extra_energy_j: rep.extra_energy_j,
        replans: rep.replans,
        base_returns: rep.base_returns,
        max_battery_j: rep.max_battery_j,
        first_death_s: rep.first_death_s,
    }
}

/// The original fixed-interval integrator, kept as the oracle for the
/// DES equivalence suite.
///
/// The tour is planned once (the deployment is static) with each
/// sensor's demand equal to the full battery capacity, and replayed
/// every round; during a round, every sensor keeps draining while
/// members of the current stop harvest at their modelled rate, capped at
/// capacity.
///
/// # Panics
///
/// Panics if the configuration is degenerate (non-positive horizon,
/// speed, or battery).
pub fn simulate_reference(net: &Network, cfg: &LifetimeConfig) -> LifetimeReport {
    // The replay loops below are dense scalar arithmetic; work in raw f64
    // locals and re-wrap into quantities at the report boundary.
    let horizon = cfg.horizon_s.0;
    let drain = cfg.drain_w.0;
    let capacity = cfg.battery_j.0;
    let trigger_level = cfg.trigger_level_j.0;
    let speed = cfg.speed_mps.0;
    assert!(horizon > 0.0, "horizon must be positive");
    assert!(speed > 0.0, "speed must be positive");
    assert!(capacity > 0.0, "battery must be positive");
    let n = net.len();
    if n == 0 {
        return LifetimeReport {
            rounds: 0,
            charger_energy_j: Joules(0.0),
            downtime_sensor_s: Seconds(0.0),
            availability: 1.0,
            sensors_ever_dead: 0,
            min_battery_j: Joules(0.0),
            fault_deaths: 0,
            stranded_sensor_rounds: 0,
            recovery_latency_s: Seconds(0.0),
            extra_energy_j: Joules(0.0),
            replans: 0,
            base_returns: 0,
            max_battery_j: Joules(0.0),
            first_death_s: Vec::new(),
        };
    }

    // Plan once with demand = full battery (worst-case top-up).
    let mut demand_net = net.clone();
    let plan = {
        let sensors: Vec<_> = demand_net
            .sensors()
            .iter()
            .map(|s| bc_wsn::Sensor::new(s.id, s.pos, capacity))
            .collect();
        demand_net = Network::new(sensors, net.field(), net.base());
        try_run(cfg.algorithm, &demand_net, &cfg.planner)
            .unwrap_or_else(|e| panic!("lifetime planning failed: {e}"))
    };

    let mut battery = vec![capacity; n];
    let mut ever_dead = vec![false; n];
    let mut first_death: Vec<Option<f64>> = vec![None; n];
    let mut downtime = 0.0;
    let mut min_battery = capacity;
    let mut max_battery = capacity;
    let mut charger_energy = 0.0;
    let mut rounds = 0usize;
    let mut now = 0.0f64;

    // Fault execution state: permanent hardware deaths plus accumulated
    // recovery metrics.
    let executor = Executor::new(&demand_net, &cfg.planner)
        .with_speed(speed)
        .with_policy(cfg.recovery);
    let mut hw_dead: Vec<usize> = Vec::new();
    let mut is_hw_dead = vec![false; n];
    let mut stranded_rounds = 0usize;
    let mut recovery_latency = 0.0;
    let mut extra_energy = 0.0;
    let mut replans = 0usize;
    let mut base_returns = 0usize;

    // Advance all batteries by dt of pure drain starting at `start`,
    // tracking downtime and first-death instants.
    let drain_all = |battery: &mut [f64],
                         ever_dead: &mut [bool],
                         first_death: &mut [Option<f64>],
                         downtime: &mut f64,
                         min_battery: &mut f64,
                         start: f64,
                         dt: f64| {
        for (i, b) in battery.iter_mut().enumerate() {
            let depleted_after = (*b - drain * dt).max(0.0);
            if *b <= 0.0 {
                *downtime += dt;
            } else if depleted_after <= 0.0 {
                // Died partway through the interval.
                let time_alive = *b / drain;
                *downtime += (dt - time_alive).max(0.0);
                ever_dead[i] = true;
                if first_death[i].is_none() {
                    first_death[i] = Some(start + time_alive);
                }
            }
            *b = depleted_after;
            *min_battery = min_battery.min(*b);
        }
    };

    while now < horizon {
        // Time until `trigger_count` sensors are low: simulate drain until
        // the trigger fires or the horizon ends.
        // Hardware-dead sensors never trigger a round (they cannot be
        // revived); with too few survivors the network just coasts out.
        let mut lows: Vec<f64> = battery
            .iter()
            .zip(&is_hw_dead)
            .map(|(&b, &hw)| {
                if hw {
                    f64::INFINITY
                } else {
                    ((b - trigger_level) / drain).max(0.0)
                }
            })
            .collect();
        lows.sort_by(f64::total_cmp);
        let k = cfg.trigger_count.min(n) - 1;
        let wait = lows[k];
        let dt = wait.min(horizon - now);
        drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, dt);
        now += dt;
        if now >= horizon {
            break;
        }

        // Dispatch a round: replay the planned tour in real time.
        rounds += 1;
        if let Some(fm) = &cfg.faults {
            // Execute the round against this round's fault schedule and
            // replay the realized timeline (stall-stretched legs, retry
            // backoff, degradation-stretched dwells) against the drain.
            let round_seed = u64::try_from(rounds - 1).unwrap_or(u64::MAX);
            let report = executor
                .execute_with_dead(&plan, fm, round_seed, &hw_dead)
                .unwrap_or_else(|e| panic!("fault execution failed: {e}"));
            let mut replayed_m = 0.0;
            let mut replayed_s = 0.0;
            for e in &report.timeline {
                if now >= horizon {
                    break;
                }
                let drive_t = e.drive_s.0.min(horizon - now);
                drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, drive_t);
                now += drive_t;
                let frac = if e.drive_s.0 > 0.0 { drive_t / e.drive_s.0 } else { 1.0 };
                charger_energy += cfg.planner.energy.movement_energy(e.drive_m * frac).0;
                if now >= horizon {
                    break;
                }
                let wait_t = e.backoff_s.0.min(horizon - now);
                drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, wait_t);
                now += wait_t;
                if now >= horizon {
                    break;
                }
                let dwell = e.dwell_s.0.min(horizon - now);
                drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, dwell);
                if dwell >= e.dwell_s.0 {
                    // Full dwell: every served member got its demand.
                    for &s in &e.served {
                        battery[s] = capacity;
                        max_battery = max_battery.max(battery[s]);
                    }
                } else {
                    // Horizon cut the dwell short: proportional harvest,
                    // clamped at capacity.
                    for &s in &e.served {
                        let d = net.sensor(s).pos.distance(e.anchor);
                        let harvested = cfg
                            .planner
                            .charging
                            .delivered_energy(Meters(d), Seconds(dwell))
                            .0
                            * e.efficiency;
                        battery[s] = (battery[s] + harvested).min(capacity);
                        max_battery = max_battery.max(battery[s]);
                    }
                }
                now += dwell;
                charger_energy += cfg.planner.energy.charging_energy(Seconds(dwell)).0;
                replayed_m += e.drive_m.0;
                replayed_s += (e.drive_s + e.backoff_s + e.dwell_s).0;
            }
            // The closing leg is in the report totals but not the
            // timeline; replay whatever of it fits the horizon.
            let close_s_full = (report.duration_s.0 - replayed_s).max(0.0);
            let close_s = close_s_full.min((horizon - now).max(0.0));
            if close_s > 0.0 {
                drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, close_s);
                now += close_s;
                let frac = if close_s_full > 0.0 { close_s / close_s_full } else { 1.0 };
                charger_energy += cfg
                    .planner
                    .energy
                    .movement_energy(Meters((report.distance_m.0 - replayed_m).max(0.0) * frac))
                    .0;
            }
            // Hardware deaths are permanent: the sensor goes dark now
            // and stays dark.
            for &s in &report.fault_deaths {
                if !is_hw_dead[s] {
                    is_hw_dead[s] = true;
                    hw_dead.push(s);
                    battery[s] = 0.0;
                    ever_dead[s] = true;
                    min_battery = 0.0;
                    if first_death[s].is_none() {
                        first_death[s] = Some(now);
                    }
                }
            }
            stranded_rounds += report.stranded.len();
            recovery_latency += report.recovery_latency_s.0;
            extra_energy += report.extra_energy_j.0;
            replans += report.replans;
            base_returns += report.base_returns;
            continue;
        }
        let stops = &plan.stops;
        let m = stops.len();
        for (i, stop) in stops.iter().enumerate() {
            if now >= horizon {
                break;
            }
            // Drive from the previous stop.
            let prev = stops[(i + m - 1) % m].anchor();
            let leg = prev.distance(stop.anchor());
            let drive_t = (leg / speed).min(horizon - now);
            drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, drive_t);
            now += drive_t;
            charger_energy += cfg.planner.energy.movement_energy(Meters(drive_t * speed)).0;
            if now >= horizon {
                break;
            }
            // Park and charge: members harvest while everyone drains.
            let dwell = stop.dwell.0.min(horizon - now);
            drain_all(&mut battery, &mut ever_dead, &mut first_death, &mut downtime, &mut min_battery, now, dwell);
            for &j in &stop.bundle.sensors {
                let d = net.sensor(j).pos.distance(stop.anchor());
                let harvested = cfg
                    .planner
                    .charging
                    .delivered_energy(Meters(d), Seconds(dwell))
                    .0;
                battery[j] = (battery[j] + harvested).min(capacity);
                max_battery = max_battery.max(battery[j]);
            }
            now += dwell;
            charger_energy += cfg.planner.energy.charging_energy(Seconds(dwell)).0;
        }
    }

    let total_sensor_time = n as f64 * horizon; // cast-ok: sensor count to sensor-time
    LifetimeReport {
        rounds,
        charger_energy_j: Joules(charger_energy),
        downtime_sensor_s: Seconds(downtime),
        availability: 1.0 - downtime / total_sensor_time,
        sensors_ever_dead: ever_dead.iter().filter(|&&d| d).count(),
        min_battery_j: Joules(min_battery),
        fault_deaths: hw_dead.len(),
        stranded_sensor_rounds: stranded_rounds,
        recovery_latency_s: Seconds(recovery_latency),
        extra_energy_j: Joules(extra_energy),
        replans,
        base_returns,
        max_battery_j: Joules(max_battery),
        first_death_s: first_death.iter().map(|t| t.map(Seconds)).collect(),
    }
}

/// The lifetime comparison as a [`crate::Table`]: one row per planner on
/// a shared 60-node deployment (the `repro lifetime` subcommand).
///
/// `exp.runs` seeds are averaged; columns are rounds dispatched, total
/// charger energy, availability (%), and sensors that ever died.
pub fn table(exp: &crate::figures::ExpConfig) -> Vec<crate::Table> {
    use bc_geom::Aabb;
    let mut t = crate::Table::new(
        "lifetime_24h",
        &["algorithm", "rounds", "charger_energy_j", "availability_pct", "ever_dead"],
    );
    for (ai, algo) in Algorithm::ALL.iter().enumerate() {
        let rows: Vec<LifetimeReport> = crate::repeat(exp.runs, exp.base_seed, |seed| {
            let net = bc_wsn::deploy::uniform(60, Aabb::square(250.0), 2.0, seed);
            let cfg = LifetimeConfig::paper_sim(60, 25.0, *algo);
            simulate(&net, &cfg)
        });
        let mean = |f: &dyn Fn(&LifetimeReport) -> f64| {
            rows.iter().map(f).sum::<f64>() / rows.len().max(1) as f64 // cast-ok: run count to divisor
        };
        t.push_row(&[
            ai as f64,                                 // cast-ok: algorithm index
            mean(&|r| r.rounds as f64),                // cast-ok: round count
            mean(&|r| r.charger_energy_j.0),
            100.0 * mean(&|r| r.availability),
            mean(&|r| r.sensors_ever_dead as f64), // cast-ok: sensor count
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_geom::Aabb;
    use bc_wsn::deploy;

    fn small_net() -> Network {
        deploy::uniform(30, Aabb::square(200.0), 2.0, 3)
    }

    #[test]
    fn charger_keeps_network_alive() {
        let net = small_net();
        let cfg = LifetimeConfig::paper_sim(30, 30.0, Algorithm::BcOpt);
        let rep = simulate(&net, &cfg);
        assert!(rep.rounds > 0, "no rounds dispatched");
        assert!(
            rep.availability > 0.99,
            "availability {} with {} deaths",
            rep.availability,
            rep.sensors_ever_dead
        );
    }

    #[test]
    fn no_charging_when_drain_is_negligible() {
        let net = small_net();
        let mut cfg = LifetimeConfig::paper_sim(30, 30.0, Algorithm::Bc);
        cfg.drain_w = Watts(1e-9); // batteries outlast the horizon
        let rep = simulate(&net, &cfg);
        assert_eq!(rep.rounds, 0);
        assert_eq!(rep.charger_energy_j, Joules(0.0));
        assert_eq!(rep.availability, 1.0);
    }

    #[test]
    fn heavier_drain_needs_more_rounds() {
        let net = small_net();
        let mut light = LifetimeConfig::paper_sim(30, 30.0, Algorithm::Bc);
        light.horizon_s = Seconds(6.0 * 3600.0);
        let mut heavy = light.clone();
        heavy.drain_w = heavy.drain_w * 3.0;
        let r_light = simulate(&net, &light);
        let r_heavy = simulate(&net, &heavy);
        assert!(r_heavy.rounds > r_light.rounds);
        assert!(r_heavy.charger_energy_j > r_light.charger_energy_j);
    }

    #[test]
    fn efficient_planner_spends_less_over_the_horizon() {
        let net = deploy::uniform(60, Aabb::square(250.0), 2.0, 9);
        let mut sc = LifetimeConfig::paper_sim(60, 25.0, Algorithm::Sc);
        sc.horizon_s = Seconds(6.0 * 3600.0);
        let mut opt = sc.clone();
        opt.algorithm = Algorithm::BcOpt;
        let r_sc = simulate(&net, &sc);
        let r_opt = simulate(&net, &opt);
        assert!(
            r_opt.charger_energy_j < r_sc.charger_energy_j,
            "BC-OPT {} vs SC {}",
            r_opt.charger_energy_j,
            r_sc.charger_energy_j
        );
    }

    #[test]
    fn empty_network_trivial_report() {
        let net = deploy::uniform(0, Aabb::square(10.0), 2.0, 0);
        let clean = LifetimeConfig::paper_sim(1, 10.0, Algorithm::Bc);
        let faulty = clean
            .clone()
            .with_faults(FaultModel::with_rate(3, 0.2), RecoveryPolicy::ReplanRemaining);
        for cfg in [clean, faulty] {
            let rep = simulate(&net, &cfg);
            assert_eq!(rep.rounds, 0);
            assert_eq!(rep.availability, 1.0);
            assert_eq!(rep, simulate_reference(&net, &cfg));
        }
    }

    #[test]
    fn zero_fault_model_matches_perfect_execution() {
        let net = small_net();
        let mut base = LifetimeConfig::paper_sim(30, 30.0, Algorithm::Bc);
        base.horizon_s = Seconds(12.0 * 3600.0);
        let faulty = base
            .clone()
            .with_faults(FaultModel::none(), RecoveryPolicy::ReplanRemaining);
        let a = simulate(&net, &base);
        let b = simulate(&net, &faulty);
        assert_eq!(a.rounds, b.rounds);
        // Per complete round the two replay paths spend identical energy;
        // they only differ in where the horizon clips the final round
        // (the legacy path drives the closing leg first, the executor
        // drives it last), so allow a fraction-of-a-round tolerance.
        assert!(
            (a.charger_energy_j - b.charger_energy_j).abs() / a.charger_energy_j < 0.05,
            "perfect {} vs zero-fault {}",
            a.charger_energy_j,
            b.charger_energy_j
        );
        assert!(b.extra_energy_j.abs() < Joules(1e-6));
        assert_eq!(b.fault_deaths, 0);
        assert_eq!(b.stranded_sensor_rounds, 0);
    }

    #[test]
    fn faulty_rounds_report_recovery_metrics() {
        let net = small_net();
        let mut cfg = LifetimeConfig::paper_sim(30, 30.0, Algorithm::Bc)
            .with_faults(FaultModel::with_rate(7, 0.4), RecoveryPolicy::SkipAndContinue);
        cfg.horizon_s = Seconds(12.0 * 3600.0);
        let rep = simulate(&net, &cfg);
        assert!(rep.rounds > 0);
        assert!(
            rep.recovery_latency_s > Seconds(0.0),
            "a 40% fault rate must cost recovery time"
        );
        assert!(rep.charger_energy_j.is_finite() && rep.charger_energy_j > Joules(0.0));
        assert!(rep.availability.is_finite());
    }

    #[test]
    fn hardware_deaths_are_permanent() {
        let net = small_net();
        let mut cfg = LifetimeConfig::paper_sim(30, 30.0, Algorithm::Bc).with_faults(
            FaultModel {
                death_prob: 0.5,
                ..FaultModel::none()
            },
            RecoveryPolicy::ReplanRemaining,
        );
        cfg.horizon_s = Seconds(12.0 * 3600.0);
        let rep = simulate(&net, &cfg);
        assert!(rep.fault_deaths > 0, "50% per-round death rate must kill");
        // Battery depletion can kill more (survivors coast out after the
        // trigger stops firing), but never fewer than the hardware deaths.
        assert!(rep.sensors_ever_dead >= rep.fault_deaths);
        assert!(
            rep.availability < 0.99,
            "dead sensors must show up as downtime, got {}",
            rep.availability
        );
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn bad_horizon_panics() {
        let net = small_net();
        let mut cfg = LifetimeConfig::paper_sim(30, 30.0, Algorithm::Bc);
        cfg.horizon_s = Seconds(0.0);
        let _ = simulate(&net, &cfg);
    }

    #[test]
    fn recharges_never_overfill_batteries() {
        // Regression: recharged energy must be clamped at capacity, in both
        // the DES path and the reference integrator.
        let net = small_net();
        let cfg = LifetimeConfig::paper_sim(30, 30.0, Algorithm::BcOpt);
        for rep in [simulate(&net, &cfg), simulate_reference(&net, &cfg)] {
            assert!(
                rep.max_battery_j <= cfg.battery_j + Joules(1e-9),
                "battery overfilled: {} > capacity {}",
                rep.max_battery_j,
                cfg.battery_j
            );
            assert!(rep.max_battery_j > Joules(0.0));
        }
    }

    #[test]
    fn des_agrees_with_reference_integrator() {
        // The fine-grained equivalence sweep lives in
        // tests/des_equivalence.rs; this is the quick in-crate check.
        let net = small_net();
        let cfg = LifetimeConfig::paper_sim(30, 30.0, Algorithm::Bc);
        let des = simulate(&net, &cfg);
        let reference = simulate_reference(&net, &cfg);
        assert_eq!(des.rounds, reference.rounds);
        assert_eq!(des.sensors_ever_dead, reference.sensors_ever_dead);
        let rel = (des.charger_energy_j.get() - reference.charger_energy_j.get()).abs()
            / reference.charger_energy_j.get().max(1.0);
        assert!(
            rel < 1e-6,
            "energy mismatch: des {} vs reference {}",
            des.charger_energy_j,
            reference.charger_energy_j
        );
    }
}
