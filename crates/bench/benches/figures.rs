//! One benchmark per figure pipeline, plus planner and ablation benches.
//!
//! Each `fig*` benchmark times the regeneration of that figure's data
//! series at a reduced run count (criterion needs many iterations; the
//! statistical averaging lives in the `repro` binary instead). The
//! `planner` group times one planning pass per algorithm at the paper's
//! densest setting, and the `ablation` group isolates the design choices
//! DESIGN.md calls out: greedy vs grid bundles under BC-OPT, and the
//! effect of the Or-opt pass.

use std::hint::black_box;

use bc_bench::dense_network;
use bc_core::planner::{self, Algorithm};
use bc_core::{BundleStrategy, ChargingPlan, PlannerConfig};
use bc_sim::figures::{self, ExpConfig};
use bc_wsn::Network;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

/// Reduced-run experiment config for timing.
fn quick() -> ExpConfig {
    ExpConfig {
        runs: 2,
        base_seed: 1000,
    }
}

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(10));
    g.bench_function("fig6_tradeoff", |b| {
        b.iter(|| figures::fig6::tables(black_box(&quick())))
    });
    g.bench_function("fig10_configurations", |b| {
        b.iter(|| figures::fig10::tables(black_box(&quick())))
    });
    g.bench_function("fig11_bundle_generation", |b| {
        b.iter(|| figures::fig11::tables(black_box(&quick())))
    });
    g.bench_function("fig12_radius_sweep", |b| {
        b.iter(|| figures::fig12::tables(black_box(&quick())))
    });
    g.bench_function("fig13_density_sweep", |b| {
        b.iter(|| figures::fig13::tables(black_box(&quick())))
    });
    g.bench_function("fig14_optimal_radius", |b| {
        b.iter(|| figures::fig14::tables(black_box(&quick())))
    });
    g.bench_function("fig16_testbed", |b| {
        b.iter(|| figures::fig16::tables(black_box(&quick())))
    });
    g.finish();
}

fn bench_planners(c: &mut Criterion) {
    let mut g = c.benchmark_group("planner_n200_r30");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(5));
    let net = dense_network(200, 42);
    let cfg = PlannerConfig::paper_sim(30.0);
    for algo in Algorithm::ALL {
        g.bench_function(algo.name(), |b| {
            b.iter(|| {
                planner::try_run(black_box(algo), &net, &cfg)
                    .unwrap_or_else(|e| panic!("{algo}: {e}"))
            })
        });
    }
    g.finish();
}

/// One cold BC-OPT plan through the staged pipeline.
fn bc_opt(net: &Network, cfg: &PlannerConfig) -> ChargingPlan {
    planner::try_run(Algorithm::BcOpt, black_box(net), cfg)
        .unwrap_or_else(|e| panic!("BC-OPT: {e}"))
}

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(5));
    let net = dense_network(150, 7);
    let cfg = PlannerConfig::paper_sim(30.0);

    // Bundle strategy under the full BC-OPT pipeline.
    for (name, strategy) in [
        ("bcopt_greedy_bundles", BundleStrategy::Greedy),
        ("bcopt_grid_bundles", BundleStrategy::Grid),
    ] {
        let mut c2 = cfg.clone();
        c2.bundle_strategy = strategy;
        g.bench_function(name, |b| b.iter(|| bc_opt(&net, &c2)));
    }

    // TSP improvement ablation.
    let mut no_oropt = cfg.clone();
    no_oropt.tsp.or_opt = false;
    g.bench_function("bcopt_no_oropt", |b| b.iter(|| bc_opt(&net, &no_oropt)));

    // Anchor-sweep resolution ablation.
    for steps in [4usize, 24, 96] {
        let mut c2 = cfg.clone();
        c2.opt_distance_steps = steps;
        g.bench_function(format!("bcopt_steps_{steps}"), |b| b.iter(|| bc_opt(&net, &c2)));
    }
    g.finish();
}

criterion_group!(benches, bench_figures, bench_planners, bench_ablations);
criterion_main!(benches);
