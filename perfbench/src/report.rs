//! Run results: metrics, the percentile rule, and the one-line JSON
//! result the benchmark prints last.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit label, e.g. `s`, `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the run (plans, requests or seeds).
    pub attempted: u64,
    /// Operations that failed: errors, refusals, invalid outputs.
    pub failed: u64,
    /// Problems found by the correctness checks, one line each.
    pub problems: Vec<String>,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records one failed operation and why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problem(why);
    }

    /// Records a failed check that is not tied to one operation.
    pub fn problem(&mut self, why: String) {
        // Keep the output readable when something fails everywhere.
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// True when every operation succeeded and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Puts the metrics in the order and units of `list`. A listed metric
    /// the run did not record reads 0 when `absent_is_zero` is set, and is
    /// a failed check otherwise; a recorded metric that is not listed, or
    /// has another unit, is a failed check.
    pub fn conform(&mut self, list: &[(&'static str, &'static str)], absent_is_zero: bool) {
        let mut recorded = std::mem::take(&mut self.metrics);
        for &(name, unit) in list {
            let value = match recorded.iter().position(|m| m.name == name) {
                Some(i) => {
                    let m = recorded.remove(i);
                    if m.unit != unit {
                        self.problem(format!("{name} recorded in {} not {unit}", m.unit));
                    }
                    m.value
                }
                None if absent_is_zero => 0.0,
                None => {
                    self.problem(format!("{name} was not measured"));
                    f64::NAN
                }
            };
            self.push(name, value, unit);
        }
        for m in recorded {
            self.problem(format!("{} is not a listed metric", m.name));
        }
    }

    /// The metric of that name, if recorded.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The end-to-end metrics every workload prints with tracing off, in
/// `BENCHMARK.json` order: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"),
    ("throughput_per_s", "1/s"),
    ("energy_kj", "kJ"),
];

/// The per-layer metrics every workload prints in its traced pass, in
/// `BENCHMARK.json` order. A layer a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("core.candidates.s", "s"),
    ("core.candidates.count", "count"),
    ("core.candidates.bytes", "B"),
    ("setcover.cover.s", "s"),
    ("setcover.picks", "count"),
    ("tsp.order.s", "s"),
    ("tsp.tour_m", "m"),
    ("core.tighten.s", "s"),
    ("core.tighten.rounds", "count"),
    ("core.tighten.relocations", "count"),
    ("core.build.matrix.s", "s"),
    ("wpt.power_table.s", "s"),
    ("serve.latency_ms_p95", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.plan_ms", "ms"),
    ("core.cache.builds_per_request", "ratio"),
    ("des.engine.self_s", "s"),
    ("des.events", "count"),
    ("des.events_per_s", "1/s"),
    ("des.plan.s", "s"),
    ("des.replans", "count"),
    ("des.candidate_builds", "count"),
    ("campaign.idle_share", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// Samples a reported percentile must leave above it.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Nearest-rank `p`-th percentile (`0 < p < 100`), reported only when at
/// least [`TAIL_SAMPLES`] samples lie beyond it; `None` otherwise.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if !(p > 0.0 && p < 100.0) || xs.is_empty() {
        return None;
    }
    let n = xs.len();
    // Nearest rank: the smallest rank r with r / n >= p / 100.
    let rank = (p * n as f64 / 100.0).ceil().max(1.0) as usize;
    if n - rank < TAIL_SAMPLES {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`, each
/// metric as `{"value": v, "unit": u}`. Values print with every digit
/// (Rust's shortest round-trip form); a non-finite value prints as
/// `null`, which only a failed run can produce.
pub fn render(out: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted,
        out.failed
    );
    for (i, m) in out.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Runs `op` with the process's peak resident set size reset to its
/// current size first (Linux `clear_refs`), and returns the peak in MB
/// reached by the end of `op` (`NaN` where the platform has no `VmHWM`).
///
/// A peak per operation, not per process: freed memory stays in the
/// allocator's per-thread arenas, so the high-water mark of a whole run
/// depends on which thread happened to free what, and varies by a quarter
/// between identical runs.
pub fn with_peak_rss<T>(op: impl FnOnce() -> T) -> (T, f64) {
    // Unsupported resets leave the process-wide peak, which is still a
    // valid (larger) bound.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let value = op();
    (value, peak_rss_mb().unwrap_or(f64::NAN))
}

/// Peak resident set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_benchcheck::json::{parse, Json};

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank ceil(0.5 * 100) = 50; ceil(0.9 * 100) = 90.
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), Some(90.0));
        // A fractional rank rounds up: ceil(0.25 * 99) = 25.
        assert_eq!(percentile(&xs[..99], 25.0), Some(25.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000: rank 990, exactly 10 beyond — reportable.
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        // p99 of 999: rank 990, only 9 beyond — not reportable.
        assert_eq!(percentile(&xs[..999], 99.0), None);
        // p90 needs 100 samples, p50 needs 20.
        assert_eq!(percentile(&xs[..100], 90.0), Some(90.0));
        assert_eq!(percentile(&xs[..99], 90.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&xs[..19], 50.0), None);
        // Out-of-range percentiles and empty inputs never report.
        assert_eq!(percentile(&xs, 0.0), None);
        assert_eq!(percentile(&xs, 100.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn name_charset() {
        for ok in [
            "setup_s",
            "core.candidates.s",
            "latency_ms_p99",
            "9lives",
            "a-b.c_d",
        ] {
            assert!(valid_name(ok), "{ok} should be valid");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "-lead",
            "has space",
            "slash/name",
            "uni\u{e9}",
            "q\"uote",
        ] {
            assert!(!valid_name(bad), "{bad:?} should be invalid");
        }
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
    }

    #[test]
    fn rendered_result_parses_with_the_in_tree_reader() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.push("plan_s_p50", 7.123_456_789_012_345, "s");
        out.push("plan_stops", 2512.0, "count");
        out.push("tiny", 1.5e-7, "s");
        let line = render(&out);
        let doc = parse(&line).expect("result line must be valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted"), Some(&Json::Num(3.0)));
        assert_eq!(doc.get("failed"), Some(&Json::Num(0.0)));
        let metrics = doc.get("metrics").expect("metrics object");
        let p50 = metrics.get("plan_s_p50").expect("plan_s_p50");
        // Every digit survives the round trip.
        assert_eq!(p50.get("value"), Some(&Json::Num(7.123_456_789_012_345)));
        assert_eq!(p50.get("unit"), Some(&Json::Str("s".into())));
        let tiny = metrics.get("tiny").and_then(|m| m.get("value"));
        assert_eq!(tiny, Some(&Json::Num(1.5e-7)));
        match metrics {
            Json::Obj(members) => assert_eq!(members.len(), 3),
            other => panic!("metrics is not an object: {other:?}"),
        }
    }

    #[test]
    fn conform_orders_fills_and_flags() {
        let list = [("a", "s"), ("b", "count"), ("c", "ms")];
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.push("c", 3.0, "ms");
        out.push("a", 1.0, "s");
        out.conform(&list, true);
        assert!(out.correct(), "{:?}", out.problems);
        let got: Vec<_> = out.metrics.iter().map(|m| (m.name, m.value)).collect();
        assert_eq!(got, [("a", 1.0), ("b", 0.0), ("c", 3.0)]);
        // Without zero-filling a gap is a failed check, as are an unlisted
        // metric and a wrong unit.
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        out.push("a", 1.0, "ms");
        out.push("z", 1.0, "s");
        out.conform(&list, false);
        assert_eq!(out.problems.len(), 4, "{:?}", out.problems);
        assert_eq!(out.metrics.len(), 3);
    }

    /// The lists here and the manifest at the repository root agree.
    #[test]
    fn lists_match_the_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(entries)) = doc.get(key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            let names: Vec<(String, String)> = entries
                .iter()
                .map(|e| {
                    let field = |k| match e.get(k) {
                        Some(Json::Str(s)) => s.clone(),
                        other => panic!("{key} entry {k}: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(names, expected, "{key} differs from BENCHMARK.json");
            assert!(list.iter().all(|(n, _)| valid_name(n)));
        }
    }

    #[test]
    fn peak_rss_covers_the_operation() {
        let (len, peak) = with_peak_rss(|| {
            let v = vec![1u8; 64 << 20];
            std::hint::black_box(&v).len()
        });
        assert_eq!(len, 64 << 20);
        if cfg!(target_os = "linux") {
            assert!(peak >= 64.0, "peak {peak} MB misses the 64 MB buffer");
        }
    }

    #[test]
    fn failed_run_is_not_correct_and_still_parses() {
        let mut out = Outcome {
            attempted: 2,
            ..Outcome::default()
        };
        out.fail("plan 1 invalid".into());
        out.push("latency_ms_p99", f64::INFINITY, "ms");
        assert!(!out.correct());
        let doc = parse(&render(&out)).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("failed"), Some(&Json::Num(1.0)));
        // No operation attempted is never a correct run.
        assert!(!Outcome::default().correct());
    }
}
