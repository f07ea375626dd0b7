//! Determinism properties of the `bc-des` discrete-event engine.
//!
//! The engine's contract is that a [`Scenario`] is the *only* input: two
//! equal scenarios must produce byte-identical event traces and equal
//! reports, simultaneous events must resolve by scheduling sequence (not
//! heap internals or insertion luck), and fleet dispatch must break ties
//! deterministically.

use proptest::prelude::*;

use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{FaultModel, RecoveryPolicy};
use bundle_charging::des::{
    assign_stops, run, DispatchPolicy, EventQueue, Scenario, Time,
};
use bundle_charging::geom::{Aabb, Point};
use bundle_charging::units::Seconds;
use bundle_charging::wsn::deploy;

fn policy(pick: usize) -> DispatchPolicy {
    match pick % 3 {
        0 => DispatchPolicy::NearestIdle,
        1 => DispatchPolicy::RoundRobin,
        _ => DispatchPolicy::BundlePartition,
    }
}

/// A small, fast scenario: short horizon so proptest cases stay cheap.
fn scenario(seed: u64, n: usize, fleet: usize, pick: usize, faulty: bool) -> Scenario {
    let net = deploy::uniform(n, Aabb::square(200.0), 2.0, seed);
    let mut sc = Scenario::paper_sim(net, 25.0, Algorithm::Bc)
        .with_fleet(fleet, policy(pick));
    sc.horizon_s = Seconds(3.0 * 3600.0);
    if faulty {
        sc = sc.with_faults(FaultModel::with_rate(seed, 0.2), RecoveryPolicy::SkipAndContinue);
    }
    sc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Running the same scenario twice gives (a) an equal report down to
    /// every field, and (b) a byte-identical Debug rendering of the event
    /// trace — the strongest equality we can observe from outside.
    #[test]
    fn identical_scenarios_replay_byte_identical_traces(
        seed in 0u64..1_000,
        n in 6usize..18,
        fleet in 1usize..4,
        pick in 0usize..3,
        faulty in 0u32..2,
    ) {
        let a = run(&scenario(seed, n, fleet, pick, faulty == 1)).expect("run a");
        let b = run(&scenario(seed, n, fleet, pick, faulty == 1)).expect("run b");
        prop_assert_eq!(&a, &b);
        let trace_a = format!("{:?}", a.trace);
        let trace_b = format!("{:?}", b.trace);
        prop_assert_eq!(trace_a.as_bytes(), trace_b.as_bytes());
        prop_assert_eq!(a.events_processed, b.events_processed);
    }

    /// The event queue pops in `(time, sequence)` order for arbitrary
    /// schedules: sorted by time, and FIFO within a timestamp.
    #[test]
    fn queue_pops_sorted_by_time_then_sequence(
        times in prop::collection::vec(0.0f64..1e6, 1..64),
    ) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(Time::at(Seconds(t)), bundle_charging::des::Event::Dispatch);
        }
        let mut prev: Option<(Time, u64)> = None;
        while let Some(s) = q.pop() {
            if let Some((pt, ps)) = prev {
                prop_assert!(pt < s.at || (pt == s.at && ps < s.seq),
                    "queue popped out of (time, seq) order");
            }
            prev = Some((s.at, s.seq));
        }
    }

    /// Fleet stop assignment is a pure function of its arguments: same
    /// inputs, same partition — and every stop is assigned exactly once.
    #[test]
    fn dispatch_assignment_is_deterministic_and_total(
        pts in prop::collection::vec((0.0f64..300.0, 0.0f64..300.0), 1..24),
        fleet in 1usize..5,
        pick in 0usize..3,
    ) {
        let anchors: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let base = Point::new(0.0, 0.0);
        let a = assign_stops(policy(pick), &anchors, fleet, base);
        let b = assign_stops(policy(pick), &anchors, fleet, base);
        prop_assert_eq!(&a, &b);
        let mut seen: Vec<usize> = a.iter().flatten().copied().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..anchors.len()).collect::<Vec<_>>());
    }
}

/// Simultaneous events fire in the order they were scheduled — the
/// sequence number, not the heap's internal layout, is the tie-break.
#[test]
fn simultaneous_events_resolve_by_sequence_number() {
    use bundle_charging::des::Event;
    let t = Time::at(Seconds(42.0));
    let mut q = EventQueue::new();
    let events = [
        Event::Dispatch,
        Event::Returned { charger: 2 },
        Event::FaultDeath { sensor: 7 },
        Event::Returned { charger: 0 },
        Event::Dispatch,
    ];
    // Interleave with events at other times to exercise the heap.
    q.schedule(Time::at(Seconds(99.0)), Event::Dispatch);
    for &e in &events {
        q.schedule(t, e);
    }
    q.schedule(Time::at(Seconds(1.0)), Event::Returned { charger: 9 });

    let first = q.pop().expect("non-empty");
    assert_eq!(first.at, Time::at(Seconds(1.0)));
    let mut at_t = Vec::new();
    while let Some(s) = q.pop() {
        if s.at == t {
            at_t.push(s.event);
        }
    }
    assert_eq!(at_t, events, "same-time events must pop in scheduling order");
}

/// Acceptance check: a 3-charger scenario completes, and the per-charger
/// ledgers sum to the fleet total (the engine's contract check passes).
#[test]
fn three_charger_ledgers_sum_to_fleet_total() {
    for pick in 0..3 {
        let sc = scenario(11, 24, 3, pick, false);
        let rep = run(&sc).expect("3-charger run");
        rep.check_fleet_ledger().unwrap_or_else(|e| {
            panic!("{} ledger imbalance: {e:?}", policy(pick).label())
        });
        assert_eq!(rep.fleet.len(), 3);
        assert!(rep.rounds > 0, "short horizon must still trigger rounds");
    }
}

/// FNV-1a over the report fields every lifetime consumer reads, plus a
/// hash of the trace tail's Debug text, so one constant pins a run.
fn report_digest(rep: &bundle_charging::des::DesReport) -> u64 {
    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    let mut trace = 0xcbf2_9ce4_8422_2325;
    fnv(&mut trace, format!("{:?}", rep.trace).as_bytes());
    let count = |n: usize| u64::try_from(n).unwrap_or(u64::MAX);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for word in [
        count(rep.rounds),
        rep.charger_energy_j.get().to_bits(),
        rep.downtime_sensor_s.get().to_bits(),
        rep.availability.to_bits(),
        count(rep.replans),
        count(rep.base_returns),
        count(rep.fault_deaths),
        rep.events_processed,
        trace,
    ] {
        fnv(&mut h, &word.to_le_bytes());
    }
    h
}

/// The golden-digest scenario: 30 sensors on a 200 m field, r = 30 m,
/// BC, 12 h horizon.
fn golden_scenario() -> Scenario {
    let net = deploy::uniform(30, Aabb::square(200.0), 2.0, 21);
    let mut sc = Scenario::paper_sim(net, 30.0, Algorithm::Bc);
    sc.horizon_s = Seconds(12.0 * 3600.0);
    sc
}

/// One charger fault-free, one charger faulty under each recovery
/// policy, and a fault-free 3-charger fleet under each dispatch policy:
/// every report must keep its digest bit for bit.
#[test]
fn des_reports_match_golden_digests() {
    let faulty = |policy| {
        golden_scenario().with_faults(FaultModel::with_rate(11, 0.3), policy)
    };
    let fleet = |pick| golden_scenario().with_fleet(3, policy(pick));
    let cases: [(&str, Scenario, u64); 7] = [
        ("single fault-free", golden_scenario(), 0xca92_22b7_562f_e219),
        ("single skip", faulty(RecoveryPolicy::SkipAndContinue), 0xbb55_2892_68a3_d654),
        ("single replan", faulty(RecoveryPolicy::ReplanRemaining), 0x4a8d_580f_c06c_fead),
        ("single return-to-base", faulty(RecoveryPolicy::ReturnToBase), 0xcc62_a909_23ae_bef7),
        ("fleet nearest-idle", fleet(0), 0xcd28_ad15_8961_7087),
        ("fleet round-robin", fleet(1), 0x641b_cea4_ded2_bb20),
        ("fleet bundle-partition", fleet(2), 0xe2ee_dff8_3d70_429b),
    ];
    for (name, sc, want) in cases {
        let got = report_digest(&run(&sc).expect("golden run"));
        assert_eq!(got, want, "{name}: report digest {got:#018x}, golden {want:#018x}");
    }
}
