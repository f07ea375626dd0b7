//! The shared campaign smoke harness behind `repro campaign` and the
//! `campaign_smoke` bench bin.
//!
//! Three measurements, rendered as the hand-rolled `BENCH_campaign.json`
//! trend document by [`SmokeReport::bench_json`]:
//!
//! 1. **Queue throughput** — each [`QueueBackend`] is driven through the
//!    classic *hold* workload (fill to `pending` events, then pop +
//!    reschedule at steady state, then drain) and reports events/sec.
//!    Both backends fold their pop sequence into an FNV-1a checksum; the
//!    checksums must agree, or the speed numbers are meaningless.
//! 2. **State footprint** — [`SensorBank::bytes_per_sensor`], the SoA
//!    layout's per-sensor cost, recorded so regressions show up as a
//!    trend-line step.
//! 3. **Campaign throughput and determinism** — a seed sweep over small
//!    paper-style scenarios on the calendar backend: seeds/sec, total
//!    events, and a merge-determinism check (the sweep is re-run on one
//!    worker and the merged snapshot JSON must be byte-identical; its
//!    FNV-1a hash is the trend line). Rotated trace files, when enabled,
//!    are re-validated line by line with [`bc_obs::json::validate_jsonl`].

use crate::driver::{run_campaign, CampaignConfig, CampaignError, TraceConfig};
use bc_core::context::default_workers;
use bc_core::planner::Algorithm;
use bc_des::clock::{self, Time};
use bc_des::{Event, EventQueue, QueueBackend, Scenario, SensorBank};
use bc_geom::Aabb;
use bc_obs::wall;
use bc_wsn::deploy;
use std::fmt;
use std::path::PathBuf;

/// Span (s) the initial fill spreads events over.
const FILL_SPAN_S: f64 = 1.0e6;
/// Span (s) of the uniform hold increment added to each popped time.
const HOLD_SPAN_S: f64 = 1.0e6;

/// Knobs for one smoke run.
#[derive(Debug, Clone)]
pub struct SmokeOptions {
    /// Pending events held in the queue benchmark.
    pub pending: usize,
    /// Pop + reschedule operations at steady state.
    pub hold_ops: usize,
    /// Campaign seeds to sweep.
    pub seeds: usize,
    /// Sensors per campaign scenario.
    pub sensors: usize,
    /// Scenario horizon (hours).
    pub horizon_hours: f64,
    /// Worker threads for the seed fan-out.
    pub workers: usize,
    /// Stream per-seed traces under this directory (`None` = stats only).
    pub trace_dir: Option<PathBuf>,
    /// Size cap per rotated trace file.
    pub trace_max_bytes: u64,
}

impl SmokeOptions {
    /// CI scale: small enough for a debug-build smoke job.
    #[must_use]
    pub fn reduced() -> Self {
        SmokeOptions {
            pending: 50_000,
            hold_ops: 100_000,
            seeds: 4,
            sensors: 25,
            horizon_hours: 6.0,
            workers: default_workers().max(2),
            trace_dir: None,
            trace_max_bytes: 64 * 1024,
        }
    }

    /// Benchmark scale: 10⁶ pending events, the regime the calendar
    /// queue exists for.
    #[must_use]
    pub fn full() -> Self {
        SmokeOptions {
            pending: 1_000_000,
            hold_ops: 2_000_000,
            seeds: 8,
            sensors: 40,
            horizon_hours: 12.0,
            workers: default_workers().max(2),
            trace_dir: None,
            trace_max_bytes: 64 * 1024,
        }
    }
}

/// Why a smoke run failed outright (campaign-level problems; per-seed
/// failures are *reported*, not raised).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmokeError {
    /// The two queue backends popped different sequences.
    BackendMismatch {
        /// Checksum of the binary-heap pop sequence.
        heap: String,
        /// Checksum of the calendar pop sequence.
        calendar: String,
    },
    /// The campaign driver rejected its configuration.
    Campaign(CampaignError),
    /// A rotated trace file failed JSONL validation.
    Trace(String),
    /// The one-worker re-run produced different merged JSON.
    MergeMismatch,
}

impl fmt::Display for SmokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmokeError::BackendMismatch { heap, calendar } => write!(
                f,
                "queue backends disagree: binary-heap {heap} vs calendar {calendar}"
            ),
            SmokeError::Campaign(e) => write!(f, "campaign: {e}"),
            SmokeError::Trace(msg) => write!(f, "trace validation: {msg}"),
            SmokeError::MergeMismatch => {
                write!(f, "merged snapshot differs between worker counts")
            }
        }
    }
}

impl std::error::Error for SmokeError {}

impl From<CampaignError> for SmokeError {
    fn from(e: CampaignError) -> Self {
        SmokeError::Campaign(e)
    }
}

/// One backend's hold-workload measurement.
#[derive(Debug, Clone)]
pub struct QueueBench {
    /// Which backend ran.
    pub backend: QueueBackend,
    /// Schedule + pop operations performed.
    pub ops: u64,
    /// Wall time for the whole workload.
    pub elapsed_s: f64,
    /// `ops / elapsed_s`.
    pub events_per_sec: f64,
    /// FNV-1a hash of the `(time, seq)` pop sequence.
    pub checksum: String,
}

/// Everything one smoke run measured.
#[derive(Debug, Clone)]
pub struct SmokeReport {
    /// Logical cores visible to the process.
    pub cores: usize,
    /// Worker threads the campaign actually used.
    pub workers: usize,
    /// Options the run used (recorded for the trend line).
    pub options: SmokeOptions,
    /// Per-backend queue results, in [`QueueBackend::ALL`] order.
    pub queue: Vec<QueueBench>,
    /// Calendar events/sec over binary-heap events/sec.
    pub calendar_vs_heap: f64,
    /// [`SensorBank::bytes_per_sensor`].
    pub state_bytes_per_sensor: f64,
    /// Seeds that completed.
    pub seeds_completed: usize,
    /// Seeds recorded as typed failures.
    pub seeds_failed: usize,
    /// Campaign wall time.
    pub campaign_elapsed_s: f64,
    /// Completed seeds per second.
    pub seeds_per_sec: f64,
    /// Events processed across completed seeds.
    pub events_total: u64,
    /// Whether the one-worker re-run merged byte-identically (always
    /// `true` on success; a mismatch raises [`SmokeError::MergeMismatch`]).
    pub merge_deterministic: bool,
    /// FNV-1a hash of the campaign snapshot JSON.
    pub merge_hash: String,
    /// Rotated trace files written (0 without a trace dir).
    pub trace_files: usize,
    /// Validated JSONL lines across those files.
    pub trace_lines: usize,
    /// The full deterministic campaign snapshot document.
    pub snapshot_json: String,
}

impl SmokeReport {
    /// Renders the `BENCH_campaign.json` trend document.
    #[must_use]
    pub fn bench_json(&self) -> String {
        let mut queues = String::new();
        for (i, q) in self.queue.iter().enumerate() {
            if i > 0 {
                queues.push_str(",\n");
            }
            queues.push_str(&format!(
                "    \"{}\": {{\"events_per_sec\": {:.0}, \"ops\": {}, \
                 \"elapsed_s\": {:.6}, \"checksum\": \"{}\"}}",
                q.backend.label(),
                q.events_per_sec,
                q.ops,
                q.elapsed_s,
                q.checksum
            ));
        }
        let provenance = bc_obs::provenance::Provenance::capture()
            .with_workers(self.workers)
            .with_queue_backend("calendar");
        format!(
            "{{\n  \"bench\": \"campaign_smoke\",\n  \"cores\": {cores},\n  \
             \"provenance\": {prov},\n  \
             \"workers\": {workers},\n  \"pending\": {pending},\n  \
             \"hold_ops\": {hold_ops},\n  \"queue\": {{\n{queues}\n  }},\n  \
             \"calendar_vs_heap\": {ratio:.3},\n  \
             \"state_bytes_per_sensor\": {bps:.3},\n  \"campaign\": {{\n    \
             \"seeds\": {seeds}, \"completed\": {completed}, \"failed\": {failed},\n    \
             \"sensors\": {sensors}, \"horizon_hours\": {hh},\n    \
             \"elapsed_s\": {ce:.6}, \"seeds_per_sec\": {sps:.3},\n    \
             \"events_total\": {events},\n    \
             \"merge_deterministic\": {md}, \"merge_hash\": \"{mh}\",\n    \
             \"trace_files\": {tf}, \"trace_lines\": {tl}\n  }}\n}}\n",
            prov = provenance.to_json(),
            cores = self.cores,
            workers = self.workers,
            pending = self.options.pending,
            hold_ops = self.options.hold_ops,
            ratio = self.calendar_vs_heap,
            bps = self.state_bytes_per_sensor,
            seeds = self.options.seeds,
            completed = self.seeds_completed,
            failed = self.seeds_failed,
            sensors = self.options.sensors,
            hh = self.options.horizon_hours,
            ce = self.campaign_elapsed_s,
            sps = self.seeds_per_sec,
            events = self.events_total,
            md = self.merge_deterministic,
            mh = self.merge_hash,
            tf = self.trace_files,
            tl = self.trace_lines,
        )
    }
}

/// SplitMix64: tiny, deterministic, seedable — the workload generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let bits = (self.next() >> 11) as f64; // cast-ok: 53 bits fit an f64 mantissa exactly
        bits / 9_007_199_254_740_992.0
    }
}

fn fnv_fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Drives one backend through fill → hold → drain and measures
/// events/sec plus a pop-sequence checksum.
#[must_use]
pub fn bench_queue(backend: QueueBackend, pending: usize, hold_ops: usize, seed: u64) -> QueueBench {
    let mut fill = SplitMix(seed);
    let mut hold = SplitMix(seed ^ 0x5851_f42d_4c95_7f2d);
    let mut q = EventQueue::with_backend(backend);
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    let t0 = wall::now();
    for _ in 0..pending {
        q.schedule(Time::at(clock::seconds(fill.next_f64() * FILL_SPAN_S)), Event::Dispatch);
    }
    for _ in 0..hold_ops {
        let Some(sch) = q.pop() else { break };
        fnv_fold(&mut checksum, &sch.at.seconds().get().to_bits().to_le_bytes());
        fnv_fold(&mut checksum, &sch.seq.to_le_bytes());
        let at = sch.at.advance(clock::seconds(hold.next_f64() * HOLD_SPAN_S));
        q.schedule(at, sch.event);
    }
    while let Some(sch) = q.pop() {
        fnv_fold(&mut checksum, &sch.at.seconds().get().to_bits().to_le_bytes());
        fnv_fold(&mut checksum, &sch.seq.to_le_bytes());
    }
    let elapsed_s = t0.elapsed().as_secs_f64().max(1e-12);
    let ops = 2 * (pending as u64 + hold_ops as u64); // cast-ok: op counts fit u64
    #[allow(clippy::cast_precision_loss)]
    let events_per_sec = ops as f64 / elapsed_s; // cast-ok: throughput estimate, precision loss immaterial
    QueueBench {
        backend,
        ops,
        elapsed_s,
        events_per_sec,
        checksum: format!("{checksum:016x}"),
    }
}

/// The campaign scenario for one smoke seed: a paper-style uniform
/// deployment with a shortened horizon, calendar-queue backend, and the
/// in-memory trace ring disabled (traces stream through bc-obs instead).
#[must_use]
pub fn smoke_scenario(sensors: usize, horizon_hours: f64, seed: u64) -> Scenario {
    let net = deploy::uniform(sensors, Aabb::square(200.0), 2.0, seed);
    let mut sc = Scenario::paper_sim(net, 30.0, Algorithm::BcOpt)
        .with_queue(QueueBackend::Calendar);
    sc.horizon_s = clock::hours(horizon_hours);
    sc.trace_capacity = 0;
    sc
}

/// Runs the whole smoke: queue bench, state footprint, campaign sweep,
/// determinism re-run, trace validation.
///
/// # Errors
///
/// A [`SmokeError`] on backend disagreement, invalid campaign config,
/// merged-snapshot mismatch between worker counts, or a trace file that
/// fails JSONL validation. Per-seed failures do *not* error — they are
/// counted in the report.
pub fn run_smoke(opts: &SmokeOptions) -> Result<SmokeReport, SmokeError> {
    let queue: Vec<QueueBench> = QueueBackend::ALL
        .iter()
        .map(|&b| bench_queue(b, opts.pending, opts.hold_ops, 0xb0bc_a11e))
        .collect();
    if let [heap, calendar] = queue.as_slice() {
        if heap.checksum != calendar.checksum {
            return Err(SmokeError::BackendMismatch {
                heap: heap.checksum.clone(),
                calendar: calendar.checksum.clone(),
            });
        }
    }
    let calendar_vs_heap = match queue.as_slice() {
        [heap, calendar] => calendar.events_per_sec / heap.events_per_sec.max(1e-12),
        _ => 1.0,
    };

    let seeds: Vec<u64> = (0..opts.seeds as u64).map(|i| 1000 + i).collect(); // cast-ok: seed count is small
    let make = |seed: u64| smoke_scenario(opts.sensors, opts.horizon_hours, seed);

    let mut cfg = CampaignConfig::new(opts.workers);
    if let Some(dir) = &opts.trace_dir {
        cfg = cfg.with_trace(TraceConfig::new(dir, opts.trace_max_bytes));
    }
    let t0 = wall::now();
    let report = run_campaign(&seeds, &cfg, make)?;
    let campaign_elapsed_s = t0.elapsed().as_secs_f64().max(1e-12);

    // Determinism check: the same sweep on one worker, stats-only, must
    // merge to byte-identical JSON (trace paths are excluded from it).
    let rerun = run_campaign(&seeds, &CampaignConfig::new(1), make)?;
    if rerun.snapshot_json() != report.snapshot_json() {
        return Err(SmokeError::MergeMismatch);
    }

    let mut trace_files = 0;
    let mut trace_lines = 0;
    for path in report.trace_files() {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| SmokeError::Trace(format!("{}: {e}", path.display())))?;
        let lines = bc_obs::json::validate_jsonl(&text).map_err(|(line, e)| {
            SmokeError::Trace(format!("{} line {line}: {e}", path.display()))
        })?;
        trace_files += 1;
        trace_lines += lines;
    }

    let completed = report.completed();
    #[allow(clippy::cast_precision_loss)]
    let seeds_per_sec = completed as f64 / campaign_elapsed_s; // cast-ok: throughput estimate
    Ok(SmokeReport {
        cores: default_workers(),
        workers: report.workers,
        options: opts.clone(),
        queue,
        calendar_vs_heap,
        state_bytes_per_sensor: SensorBank::bytes_per_sensor(),
        seeds_completed: completed,
        seeds_failed: report.failed(),
        campaign_elapsed_s,
        seeds_per_sec,
        events_total: report.events_processed_total(),
        merge_deterministic: true,
        merge_hash: report.merge_hash(),
        trace_files,
        trace_lines,
        snapshot_json: report.snapshot_json(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hold_workload_checksums_agree_across_backends() {
        let heap = bench_queue(QueueBackend::BinaryHeap, 2000, 4000, 7);
        let cal = bench_queue(QueueBackend::Calendar, 2000, 4000, 7);
        assert_eq!(heap.checksum, cal.checksum);
        assert_eq!(heap.ops, 12_000);
        assert!(heap.events_per_sec > 0.0);
    }

    #[test]
    fn tiny_smoke_runs_end_to_end() {
        let opts = SmokeOptions {
            pending: 500,
            hold_ops: 1000,
            seeds: 2,
            sensors: 12,
            horizon_hours: 2.0,
            workers: 2,
            trace_dir: None,
            trace_max_bytes: 4096,
        };
        let report = run_smoke(&opts).unwrap();
        assert_eq!(report.seeds_completed, 2);
        assert_eq!(report.seeds_failed, 0);
        assert!(report.merge_deterministic);
        assert!(report.events_total > 0);
        let json = report.bench_json();
        assert!(json.contains("\"bench\": \"campaign_smoke\""));
        assert!(json.contains("\"merge_deterministic\": true"));
    }
}
