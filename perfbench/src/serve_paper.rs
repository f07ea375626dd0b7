//! `serve_paper`: a closed loop of clients against a fault-free
//! `PlanService` holding paper-scale networks.
//!
//! Each client waits for its reply before sending the next request. The
//! mix is BC-OPT-heavy (SC/CSS/BC/BC-OPT at 1/1/2/6 in 10) and every
//! `mutate_every`-th request of a client removes a sensor, which installs
//! a new network revision and so forces a cold artifact rebuild. Each
//! client owns its networks, so it can mirror every revision and check
//! each returned plan against the exact network it was planned for.

use crate::inputs::{self, Rng, RADIUS_M, WORKERS};
use crate::report::{median, percentile, with_peak_rss, Outcome};
use crate::trace::{self, BUILD_CANDIDATES, SERVE_REQUEST, SERVE_RUNG};
use crate::{timed_setups, RunArgs};
use bc_core::planner::Algorithm;
use bc_core::PlannerConfig;
use bc_obs::tree::SpanTreeRecorder;
use bc_serve::{NetworkId, PlanRequest, PlanService, ServeConfig};
use bc_wsn::{Network, Sensor};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Workload dimensions.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Registered networks (a multiple of `clients`).
    pub networks: usize,
    /// Sensors per network.
    pub sensors: usize,
    /// Field side (m).
    pub side_m: f64,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Every this-many-th request of a client is a sensor removal.
    pub mutate_every: u64,
    /// Requests of each client whose plans' energy is summed into
    /// `energy_kj`; a client runs past the time budget until it has made
    /// them, so the sum covers the same requests in every run of a seed.
    pub prefix: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Size {
    /// The benchmark's size: four n = 200 networks on 300 m fields.
    pub const FULL: Size = Size {
        networks: 4,
        sensors: 200,
        side_m: 300.0,
        clients: 2,
        mutate_every: 10,
        prefix: 200,
        setups: 5,
    };
    /// A seconds-long smoke size.
    pub const TINY: Size = Size {
        networks: 2,
        sensors: 40,
        side_m: 120.0,
        clients: 2,
        mutate_every: 10,
        prefix: 100,
        setups: 1,
    };
}

/// The request mix: SC, CSS, BC, BC-OPT at 1/1/2/6 in 10. BC-OPT is the
/// slowest algorithm by far; were it exactly half the mix, the median
/// latency would sit on the edge between the fast and the slow requests
/// and jump between them from seed to seed.
const MIX: [Algorithm; 10] = [
    Algorithm::Sc,
    Algorithm::Css,
    Algorithm::Bc,
    Algorithm::Bc,
    Algorithm::BcOpt,
    Algorithm::BcOpt,
    Algorithm::BcOpt,
    Algorithm::BcOpt,
    Algorithm::BcOpt,
    Algorithm::BcOpt,
];

fn cfg() -> PlannerConfig {
    PlannerConfig::paper_sim(RADIUS_M)
}

/// One registered network and the client-side mirror of its current
/// revision.
struct Owned {
    id: NetworkId,
    net: Network,
    revision: u64,
}

struct Served {
    svc: PlanService,
    nets: Vec<Owned>,
}

fn setup(size: &Size, seed: u64) -> Result<Served, String> {
    let svc = PlanService::start(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("service start failed: {e}"))?;
    let mut nets = Vec::with_capacity(size.networks);
    for k in 0..size.networks {
        let net = inputs::uniform(size.sensors, size.side_m, inputs::mix(seed, 100 + k as u64));
        let id = svc.register(net.clone(), cfg());
        // One planning thread per service worker: two workers then use the
        // two cores without nesting the planner's own fan-out, which would
        // stall both in-flight requests whenever one core is taken away.
        if let Some(entry) = svc.registry().get(id) {
            entry.with_cache_mut(|cache| cache.set_workers(1));
        }
        nets.push(Owned {
            id,
            net,
            revision: 0,
        });
    }
    // Warm-up: every algorithm once per network, so the timed loop starts
    // with every artifact cached.
    for owned in &nets {
        for algo in Algorithm::ALL {
            let resp = svc
                .call(PlanRequest::plan(owned.id, algo))
                .map_err(|e| format!("warm-up {algo} failed: {e}"))?;
            resp.plan
                .validate(&owned.net, &cfg().charging)
                .map_err(|e| format!("warm-up {algo} plan invalid: {e}"))?;
        }
    }
    Ok(Served { svc, nets })
}

/// The network without sensor `idx`, indices above it shifted down — the
/// same network `bc_core::replan::remove_sensor` installs.
fn without(net: &Network, idx: usize) -> Network {
    let sensors: Vec<Sensor> = net
        .sensors()
        .iter()
        .filter(|s| s.id.0 != idx)
        .copied()
        .collect();
    Network::new(sensors, net.field(), net.base())
}

/// What one closed-loop phase observed.
#[derive(Debug, Default)]
struct Phase {
    /// Client-side latency (ms) of every request; a failed request is
    /// `+inf`, so it misses any latency limit.
    latencies_ms: Vec<f64>,
    attempted: u64,
    problems: Vec<String>,
    wall_s: f64,
    /// Summed total energy (J) of the plans of each client's first
    /// `prefix` requests.
    prefix_energy_j: f64,
}

impl Phase {
    fn ok(&self) -> usize {
        self.latencies_ms.iter().filter(|l| l.is_finite()).count()
    }
}

/// When a client stops: at `deadline` once it has sent `prefix`
/// requests, and at `hard_stop` regardless.
struct Until {
    deadline: Instant,
    hard_stop: Instant,
    prefix: u64,
}

impl Until {
    fn reached(&self, sent: u64) -> bool {
        let now = Instant::now();
        now >= self.hard_stop || (now >= self.deadline && sent >= self.prefix)
    }
}

/// One client: sends requests to its own networks until the phase ends.
fn client(
    svc: &PlanService,
    owned: &mut [&mut Owned],
    mut rng: Rng,
    mutate_every: u64,
    until: &Until,
) -> Phase {
    let PlannerConfig {
        charging, energy, ..
    } = cfg();
    let mut log = Phase::default();
    let mut i = 0u64;
    while !until.reached(i) {
        i += 1;
        let target = &mut *owned[rng.below(owned.len())];
        let algo = MIX[rng.below(MIX.len())];
        let removal = (i.is_multiple_of(mutate_every) && target.net.len() > 1)
            .then(|| rng.below(target.net.len()));
        let req = match removal {
            Some(s) => PlanRequest::remove_sensor(target.id, algo, s),
            None => PlanRequest::plan(target.id, algo),
        };
        log.attempted += 1;
        let t = Instant::now();
        let result = svc.call(req);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(s) = removal {
            if result.is_ok() {
                target.net = without(&target.net, s);
                target.revision += 1;
            }
        }
        let verdict = match result {
            Err(e) => Err(format!("request failed: {e}")),
            Ok(resp) if resp.degrade_level != 0 || resp.achieved != algo || resp.tighten_cut => {
                Err(format!("{algo} request degraded to {}", resp.achieved))
            }
            Ok(resp) if resp.revision != target.revision => Err(format!(
                "response for revision {} but the network is at {}",
                resp.revision, target.revision
            )),
            Ok(resp) => {
                if i <= until.prefix {
                    log.prefix_energy_j += resp.plan.metrics(&energy).total_energy_j.0;
                }
                resp.plan
                    .validate(&target.net, &charging)
                    .map_err(|e| format!("{algo} plan invalid: {e}"))
            }
        };
        match verdict {
            Ok(()) => log.latencies_ms.push(ms),
            Err(why) => {
                log.latencies_ms.push(f64::INFINITY);
                if log.problems.len() < 5 {
                    log.problems.push(why);
                }
            }
        }
    }
    if i < until.prefix {
        log.problems
            .push(format!("stopped after {i} of {} requests", until.prefix));
    }
    log
}

/// Runs the clients for `budget` (and on, up to three budgets, until each
/// has sent `prefix` requests); `phase` separates request streams.
fn closed_loop(
    served: &mut Served,
    size: &Size,
    seed: u64,
    phase: u64,
    budget: Duration,
    prefix: u64,
) -> Phase {
    let start = Instant::now();
    let until = Until {
        deadline: start + budget,
        hard_stop: start + 3 * budget,
        prefix,
    };
    let svc = &served.svc;
    let mut groups: Vec<Vec<&mut Owned>> = (0..size.clients).map(|_| Vec::new()).collect();
    for (k, owned) in served.nets.iter_mut().enumerate() {
        groups[k % size.clients].push(owned);
    }
    let logs: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .into_iter()
            .enumerate()
            .map(|(c, mut mine)| {
                let rng = Rng::new(inputs::mix(seed, 200 + 16 * phase + c as u64));
                let until = &until;
                scope.spawn(move || client(svc, &mut mine, rng, size.mutate_every, until))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| Phase {
                    problems: vec!["client panicked".into()],
                    ..Phase::default()
                })
            })
            .collect()
    });
    let mut all = Phase {
        wall_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for log in logs {
        all.latencies_ms.extend(log.latencies_ms);
        all.attempted += log.attempted;
        all.problems.extend(log.problems);
        all.prefix_energy_j += log.prefix_energy_j;
    }
    all
}

/// Folds a phase's failures and the service's own failure counters into
/// the outcome.
fn account(out: &mut Outcome, phase: &Phase, served: &Served) {
    out.attempted += phase.attempted;
    out.failed += (phase.latencies_ms.len() - phase.ok()) as u64;
    for p in &phase.problems {
        out.problem(p.clone());
    }
    let s = served.svc.stats();
    if s.shed + s.deadline_miss + s.failed + s.unknown_network + s.panics_caught != 0 {
        out.problem(format!("service reported failures: {s:?}"));
    }
    if served.svc.poisoned_entries() != 0 {
        out.problem("service left poisoned registry entries".into());
    }
}

/// Runs the workload.
pub fn run(size: &Size, args: &RunArgs) -> Result<Outcome, String> {
    if args.trace {
        return run_traced(size, args);
    }
    let (mut served, setup_s) = timed_setups(size.setups, || setup(size, args.seed))?;
    let mut out = Outcome::default();
    let (phase, peak_mb) =
        with_peak_rss(|| closed_loop(&mut served, size, args.seed, 0, args.budget(), size.prefix));
    account(&mut out, &phase, &served);
    let lat = &phase.latencies_ms;
    let stats = served.svc.stats();
    eprintln!(
        "   {} requests ({} removals) by {} clients in {:.2} s; p50 over {} samples, p99 {:?} ms",
        phase.attempted,
        stats.replans,
        size.clients,
        phase.wall_s,
        lat.len(),
        percentile(lat, 99.0)
    );
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mb", peak_mb, "MB");
    out.push("op_ms_p50", median(lat).unwrap_or(f64::NAN), "ms");
    out.push("throughput_per_s", phase.ok() as f64 / phase.wall_s, "1/s");
    out.push("energy_kj", phase.prefix_energy_j / 1e3, "kJ");
    Ok(out)
}

/// The traced pass: half the budget untraced, then half with a span-tree
/// recorder installed process-wide (requests run on the service's worker
/// threads, where a thread-local recorder would not reach).
fn run_traced(size: &Size, args: &RunArgs) -> Result<Outcome, String> {
    let (mut served, _) = timed_setups(1, || setup(size, args.seed))?;
    let mut out = Outcome::default();
    let half = args.budget() / 2;
    // At least `prefix` requests per client, enough for the p95.
    let bare = closed_loop(&mut served, size, args.seed, 1, half, size.prefix);
    account(&mut out, &bare, &served);
    let tree = Arc::new(SpanTreeRecorder::new());
    bc_obs::install(tree.clone());
    let traced = closed_loop(&mut served, size, args.seed, 2, half, 0);
    bc_obs::uninstall();
    account(&mut out, &traced, &served);
    let snap = tree.snapshot();
    trace::log_critical_path("serve_paper", &snap);
    let requests = traced.latencies_ms.len().max(1) as f64;
    let client_ms: f64 = traced.latencies_ms.iter().sum();
    let request = trace::named(&snap, SERVE_REQUEST);
    if request.count != traced.latencies_ms.len() as u64 {
        out.problem(format!(
            "{} serve.request spans for {} requests",
            request.count,
            traced.latencies_ms.len()
        ));
    }
    trace::push_stage_times(&snap, &mut out);
    // The tail of the untraced half, which a recorder does not slow.
    let p95 = percentile(&bare.latencies_ms, 95.0);
    if p95.is_none() {
        out.problem(format!(
            "{} untraced requests are too few for a p95",
            bare.latencies_ms.len()
        ));
    }
    out.push("serve.latency_ms_p95", p95.unwrap_or(f64::NAN), "ms");
    out.push(
        "serve.queue_wait_ms",
        (client_ms - request.total_s * 1e3) / requests,
        "ms",
    );
    out.push(
        "serve.plan_ms",
        trace::named(&snap, SERVE_RUNG).total_s * 1e3 / requests,
        "ms",
    );
    out.push(
        "core.cache.builds_per_request",
        trace::named(&snap, BUILD_CANDIDATES).count as f64 / requests,
        "ratio",
    );
    let per_req = |p: &Phase| p.wall_s / p.latencies_ms.len().max(1) as f64;
    out.push(
        "obs.trace_overhead_ratio",
        per_req(&traced) / per_req(&bare),
        "ratio",
    );
    Ok(out)
}
