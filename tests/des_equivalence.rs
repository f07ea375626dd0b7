//! DES ↔ reference-integrator equivalence.
//!
//! Lifetime runs go through `bc_des::run`; `simulate_reference` is the
//! legacy fixed-interval integrator kept as an oracle. For single-charger,
//! fault-free scenarios the two must agree: same round count, same death
//! set, sensor death times within one legacy timestep, and charger energy
//! within 1%.

mod lifetime_oracle;

use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{FaultModel, RecoveryPolicy};
use bundle_charging::des::{run, Scenario};
use bundle_charging::geom::Aabb;
use bundle_charging::units::{Joules, Seconds};
use bundle_charging::wsn::deploy;
use lifetime_oracle::{simulate_reference, LifetimeReport};

/// One legacy timestep: the reference integrator advances round by round,
/// but resolves battery crossings analytically, so agreement should be
/// far tighter than this. 1 s is the paper-scale replay granularity.
const DEATH_TOL_S: f64 = 1.0;

#[test]
fn des_matches_reference_on_ten_seeds() {
    for seed in 0..10u64 {
        let n = 12 + usize::try_from(seed % 3).unwrap() * 6; // 12, 18, 24 sensors
        let net = deploy::uniform(n, Aabb::square(250.0), 2.0, seed);
        let mut sc = Scenario::paper_sim(net, 25.0, Algorithm::Bc);
        sc.horizon_s = Seconds(6.0 * 3600.0);

        let des = run(&sc).expect("des run");
        let reference = simulate_reference(&sc);

        assert_eq!(
            des.rounds, reference.rounds,
            "seed {seed}: round counts diverge"
        );
        assert_eq!(
            des.sensors_ever_dead, reference.sensors_ever_dead,
            "seed {seed}: death sets diverge"
        );
        assert_eq!(
            des.base_returns, reference.base_returns,
            "seed {seed}: base returns diverge"
        );

        let e_des = des.charger_energy_j.get();
        let e_ref = reference.charger_energy_j.get();
        let rel = (e_des - e_ref).abs() / e_ref.max(1e-12);
        assert!(
            rel < 0.01,
            "seed {seed}: charger energy diverges: des {e_des} vs ref {e_ref}"
        );

        assert_eq!(des.first_death_s.len(), reference.first_death_s.len());
        for (i, (d, r)) in des
            .first_death_s
            .iter()
            .zip(&reference.first_death_s)
            .enumerate()
        {
            match (d, r) {
                (None, None) => {}
                (Some(td), Some(tr)) => {
                    let dt = (td.get() - tr.get()).abs();
                    assert!(
                        dt <= DEATH_TOL_S,
                        "seed {seed}: sensor {i} death time off by {dt} s \
                         (des {td}, ref {tr})"
                    );
                }
                (d, r) => panic!(
                    "seed {seed}: sensor {i} death mismatch: des {d:?}, ref {r:?}"
                ),
            }
        }

        let da = des.availability;
        let ra = reference.availability;
        assert!(
            (da - ra).abs() < 1e-3,
            "seed {seed}: availability diverges: des {da} vs ref {ra}"
        );
    }
}

/// The downtime and minimum-battery accounting must agree too — these are
/// the quantities the paper's lifetime figures plot.
#[test]
fn des_matches_reference_downtime_accounting() {
    let net = deploy::uniform(20, Aabb::square(300.0), 2.0, 77);
    let mut sc = Scenario::paper_sim(net.clone(), 30.0, Algorithm::BcOpt);
    // Short horizon with an undersized trigger so some sensors actually die.
    sc.horizon_s = Seconds(8.0 * 3600.0);

    let des = run(&sc).expect("des run");
    let reference = simulate_reference(&sc);

    let dt = (des.downtime_sensor_s.get() - reference.downtime_sensor_s.get()).abs();
    assert!(
        dt <= DEATH_TOL_S * net.len() as f64,
        "downtime diverges by {dt} s"
    );
    let db = (des.min_battery_j.get() - reference.min_battery_j.get()).abs();
    assert!(db < 1e-6, "min battery diverges by {db} J");
    assert!(
        (des.max_battery_j.get() - reference.max_battery_j.get()).abs() < 1e-6,
        "max battery diverges"
    );
}

fn small_scenario(algorithm: Algorithm) -> Scenario {
    Scenario::paper_sim(deploy::uniform(30, Aabb::square(200.0), 2.0, 3), 30.0, algorithm)
}

#[test]
fn empty_network_trivial_report() {
    let net = deploy::uniform(0, Aabb::square(10.0), 2.0, 0);
    let clean = Scenario::paper_sim(net, 10.0, Algorithm::Bc);
    let faulty = clean
        .clone()
        .with_faults(FaultModel::with_rate(3, 0.2), RecoveryPolicy::ReplanRemaining);
    for sc in [clean, faulty] {
        let rep = run(&sc).expect("des run");
        assert_eq!(rep.rounds, 0);
        assert_eq!(rep.availability, 1.0);
        assert_eq!(LifetimeReport::from(&rep), simulate_reference(&sc));
    }
}

#[test]
fn recharges_never_overfill_batteries() {
    // Regression: recharged energy must be clamped at capacity, in both
    // the DES path and the reference integrator.
    let sc = small_scenario(Algorithm::BcOpt);
    let des = LifetimeReport::from(&run(&sc).expect("des run"));
    for rep in [des, simulate_reference(&sc)] {
        assert!(
            rep.max_battery_j <= sc.battery_j + Joules(1e-9),
            "battery overfilled: {} > capacity {}",
            rep.max_battery_j,
            sc.battery_j
        );
        assert!(rep.max_battery_j > Joules(0.0));
    }
}

#[test]
fn des_agrees_with_reference_integrator() {
    // The quick check at the default 24 h horizon; the seed sweep above
    // is the fine-grained one.
    let sc = small_scenario(Algorithm::Bc);
    let des = run(&sc).expect("des run");
    let reference = simulate_reference(&sc);
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
