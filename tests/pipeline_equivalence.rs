//! Acceptance tests for the staged planning pipeline: its plans must
//! stay bit-for-bit equal to golden digests on the Section VI-A default
//! scenario, independent of the worker count, and a shared
//! [`PlanContext`] must build each expensive artifact exactly once no
//! matter how many algorithms consume it.

use bundle_charging::core::context::{ContextCache, PlanContext};
use bundle_charging::core::planner::Algorithm;
use bundle_charging::core::{contracts, PlannerConfig};
use bundle_charging::geom::Aabb;
use bundle_charging::wsn::{deploy, Network};

/// Section VI-A default scenario: n = 100 sensors on a 300 m dense
/// field (see `bc_sim::figures` for the density note), r = 10 m.
const N_SENSORS: usize = 100;
const FIELD_SIDE_M: f64 = 300.0;
const RADIUS_M: f64 = 10.0;
const BASE_SEED: u64 = 1000;

/// `ChargingPlan::digest` per seed of every algorithm's plan, in
/// `Algorithm::ALL` order (SC, CSS, BC, BC-OPT). Captured from the
/// one-shot reference planners when they were retired; identical in
/// debug and release builds and for any worker count.
const GOLDEN: [(u64, [u64; 4]); 10] = [
    (1000, [0xf6444ed9c88d0fd1, 0x180cb1430d5247b0, 0x9738b86127bf4ab2, 0xc0ddf2f2bdc529a0]),
    (1001, [0x621daf66de98660d, 0x7f5b9738066230d3, 0xe813f479a7318cbb, 0xd76d6f8bf73bbf05]),
    (1002, [0x0031661a4ceb80f7, 0x32cee71a6d262685, 0x2713947d28d83511, 0xb79b32102b956a35]),
    (1003, [0xf99f38728755cb05, 0x24c382e670453710, 0xa92577ed8f5e782b, 0x362b878b3c12f3dc]),
    (1004, [0x4b4b9f81f33c9f68, 0xdc71cd1db10c55ff, 0xd9bfb7d340ce1cc2, 0x3e6ce765812a159f]),
    (1005, [0x29fecaca237a5a6b, 0x6d959abfd62eb0e7, 0x4a32d26535fc83ad, 0x08f8298a1b6ba2d3]),
    (1006, [0x1878553650d4aef7, 0x46e32a644fe556b6, 0x7aea48c01e841364, 0xd20062888ac3ad69]),
    (1007, [0x9a0c123949112bdf, 0x0e2c535014d0bc98, 0x2378dcf55200ded7, 0x16134bc02f15dea3]),
    (1008, [0x2875b18f591ce54d, 0x502d87cedea2a7ad, 0xb5b42832268fcf8a, 0xe4cf2a34eef9c302]),
    (1009, [0x1bdc4cb3aa8cf901, 0x8c694eecb4e4dd7a, 0x64a337c3e7dc2006, 0x9d1826b807109be4]),
];

fn scenario(seed: u64) -> (Network, PlannerConfig) {
    let net = deploy::uniform(N_SENSORS, Aabb::square(FIELD_SIDE_M), 2.0, seed);
    (net, PlannerConfig::paper_sim(RADIUS_M))
}

/// All four algorithms, ten seeds: the staged pipeline reproduces the
/// golden plans exactly, with one worker and with many.
#[test]
fn pipeline_matches_golden_digests_on_default_scenario() {
    for (seed, digests) in GOLDEN {
        let (net, cfg) = scenario(seed);
        let serial = PlanContext::new(net.clone(), cfg.clone()).with_workers(1);
        let parallel = PlanContext::new(net, cfg).with_workers(8);
        for (algo, want) in Algorithm::ALL.into_iter().zip(digests) {
            for (workers, ctx) in [(1, &serial), (8, &parallel)] {
                let got = ctx.plan(algo).expect("pipeline plan").plan.digest();
                assert_eq!(
                    got, want,
                    "{algo} seed {seed}, {workers} worker(s): plan digest {got:#018x} \
                     differs from the golden plan"
                );
            }
        }
    }
}

/// One shared context serving all four algorithms builds the candidate
/// family, the distance matrix and the receive-power table exactly once.
#[test]
fn shared_context_builds_artifacts_once() {
    let (net, cfg) = scenario(BASE_SEED);
    let ctx = PlanContext::new(net, cfg);
    for algo in Algorithm::ALL {
        ctx.plan(algo).expect("pipeline plan");
    }
    assert_eq!(ctx.counters().candidate_builds(), 1, "candidate family rebuilt");
    assert_eq!(ctx.counters().matrix_builds(), 1, "distance matrix rebuilt");
    assert_eq!(ctx.counters().power_table_builds(), 1, "power table rebuilt");
}

/// A [`ContextCache`] advances its revision on every network mutation
/// and its counters accumulate one candidate build per revision that
/// planned a bundle algorithm.
#[test]
fn cache_revisions_track_network_mutations() {
    let (net, cfg) = scenario(BASE_SEED + 1);
    let mut cache = ContextCache::new(net, cfg);
    assert_eq!(cache.revision(), 0);
    let plan = cache.plan(Algorithm::Bc).expect("initial plan").plan;
    assert_eq!(cache.counters().candidate_builds(), 1);
    let plan2 = cache.remove_sensor(&plan, 0).expect("replan after removal");
    assert_eq!(cache.revision(), 1);
    contracts::check_cover(&plan2, cache.network()).expect("replan covers every sensor");
    // The next full plan on the new revision rebuilds once, not twice.
    cache.plan(Algorithm::Bc).expect("replan on revision 1");
    assert_eq!(cache.counters().candidate_builds(), 2);
}
