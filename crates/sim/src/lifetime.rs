//! Multi-round lifetime experiment — perpetual operation under a
//! recharging policy.
//!
//! The paper's introduction promises that with wireless recharging "the
//! lifetime of a WRSN can be extended infinitely for perpetual
//! operations", and its network model triggers a charging round when
//! sensors run low. The `bc-des` engine closes that loop: sensors drain
//! continuously, a charging round is dispatched when enough of them fall
//! below a threshold, the mobile charger executes the configured
//! planner's tour in real time (driving and dwelling while everything
//! keeps draining), and the run reports deaths, downtime and charger
//! energy over a long horizon.
//!
//! It is the system-level experiment the per-tour figures cannot show:
//! a planner with cheaper tours can afford more frequent rounds and keeps
//! the network alive with less energy. Scenarios are built with
//! [`bc_des::Scenario::paper_sim`] and run with [`bc_des::run`].

use bc_core::planner::Algorithm;
use bc_des::{DesReport, Scenario};

/// The lifetime comparison as a [`crate::Table`]: one row per planner on
/// a shared 60-node deployment (the `repro lifetime` subcommand).
///
/// `exp.runs` seeds are averaged; columns are rounds dispatched, total
/// charger energy, availability (%), and sensors that ever died.
///
/// # Panics
///
/// Panics if a lifetime run fails (a planning or execution error).
pub fn table(exp: &crate::figures::ExpConfig) -> Vec<crate::Table> {
    use bc_geom::Aabb;
    let mut t = crate::Table::new(
        "lifetime_24h",
        &["algorithm", "rounds", "charger_energy_j", "availability_pct", "ever_dead"],
    );
    for (ai, algo) in Algorithm::ALL.iter().enumerate() {
        let rows: Vec<DesReport> = crate::repeat(exp.runs, exp.base_seed, |seed| {
            let net = bc_wsn::deploy::uniform(60, Aabb::square(250.0), 2.0, seed);
            bc_des::run(&Scenario::paper_sim(net, 25.0, *algo))
                .unwrap_or_else(|e| panic!("{algo} lifetime run failed: {e}"))
        });
        let mean = |f: &dyn Fn(&DesReport) -> f64| {
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
