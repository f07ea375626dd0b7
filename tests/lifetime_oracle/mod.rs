//! The reference lifetime integrator: the oracle `bc-des` is checked
//! against.
//!
//! It replays the planned tour round by round over fixed intervals,
//! resolving battery crossings analytically, with one charger. For
//! single-charger, fault-free scenarios the event engine must agree with
//! it (see `des_equivalence.rs`).

use bundle_charging::core::planner::try_run;
use bundle_charging::core::Executor;
use bundle_charging::des::{DesReport, Scenario};
use bundle_charging::units::{Joules, Meters, Seconds};
use bundle_charging::wsn::{Network, Sensor};

/// Outcome of a reference lifetime run: the [`DesReport`] fields the
/// integrator can produce.
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

/// The fixed-interval lifetime integrator `bc-des` replaced, kept as the
/// oracle for the DES equivalence suite. It models one charger only.
///
/// The tour is planned once (the deployment is static) with each
/// sensor's demand equal to the full battery capacity, and replayed
/// every round; during a round, every sensor keeps draining while
/// members of the current stop harvest at their modelled rate, capped at
/// capacity.
///
/// # Panics
///
/// Panics if the scenario has more than one charger or is degenerate
/// (non-positive horizon, speed, or battery).
pub fn simulate_reference(cfg: &Scenario) -> LifetimeReport {
    assert_eq!(cfg.fleet.size, 1, "the reference integrator models one charger");
    let net = &cfg.net;
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
    let sensors: Vec<_> = net
        .sensors()
        .iter()
        .map(|s| Sensor::new(s.id, s.pos, capacity))
        .collect();
    let demand_net = Network::new(sensors, net.field(), net.base());
    let plan = try_run(cfg.algorithm, &demand_net, &cfg.planner)
        .unwrap_or_else(|e| panic!("lifetime planning failed: {e}"));

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

impl From<&DesReport> for LifetimeReport {
    /// The engine report restricted to the fields the oracle produces.
    fn from(rep: &DesReport) -> Self {
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
            first_death_s: rep.first_death_s.clone(),
        }
    }
}
