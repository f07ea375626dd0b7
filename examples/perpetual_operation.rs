//! Perpetual operation: a day in the life of a rechargeable network.
//!
//! The paper's promise is that wireless recharging keeps a WRSN alive
//! indefinitely. This example runs the multi-round lifetime simulation:
//! sensors drain continuously, a charging round is dispatched whenever a
//! quarter of them fall to half charge, and the mobile charger replays
//! the planner's tour in real time. It also applies the cross-stop
//! dwell-tightening extension and shows what it saves per round.
//!
//! ```text
//! cargo run --release --example perpetual_operation
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // demo binary: panics are fine
use bundle_charging::core::tighten;
use bundle_charging::des::{self, Scenario};
use bundle_charging::prelude::*;

fn main() {
    let n = 60;
    let net = deploy::uniform(n, Aabb::square(250.0), 2.0, 23);
    println!("{n} sensors, 250 m x 250 m, 2 J batteries, 0.2 mW drain, 24 h horizon\n");

    println!(
        "{:>8} {:>7} {:>14} {:>13} {:>9} {:>12}",
        "planner", "rounds", "energy (J)", "availability", "deaths", "min batt (J)"
    );
    for algo in Algorithm::ALL {
        let scenario = Scenario::paper_sim(net.clone(), 25.0, algo);
        let rep = des::run(&scenario).expect("valid scenario");
        println!(
            "{:>8} {:>7} {:>14.0} {:>12.2}% {:>9} {:>12.3}",
            algo.name(),
            rep.rounds,
            rep.charger_energy_j,
            100.0 * rep.availability,
            rep.sensors_ever_dead,
            rep.min_battery_j,
        );
    }

    // The Eq. 3 extension: credit sensors for energy received from every
    // stop of the tour, then shrink dwells to the minimal feasible point.
    let cfg = PlannerConfig::paper_sim(25.0);
    let mut plan = planner::try_run(Algorithm::BcOpt, &net, &cfg).expect("valid inputs");
    let before = plan.metrics(&cfg.energy);
    let report = tighten::tighten_dwells(&mut plan, &net, &cfg.charging, 50);
    let after = plan.metrics(&cfg.energy);
    println!(
        "\ncross-stop dwell tightening ({} sweeps): dwell {:.0} s -> {:.0} s \
         ({:.1}% saved), round energy {:.0} J -> {:.0} J",
        report.sweeps,
        report.dwell_before_s.0,
        report.dwell_after_s.0,
        100.0 * report.saving(),
        before.total_energy_j.0,
        after.total_energy_j.0,
    );
    tighten::validate_cross_credit(&plan, &net, &cfg.charging)
        .expect("tightened plan must still fully charge everyone");
    println!("tightened plan verified: every sensor still reaches its demand.");
}
