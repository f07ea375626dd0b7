//! Reading per-layer figures out of a `bc_obs` span tree.
//!
//! The traced pass installs `bc_obs::tree::SpanTreeRecorder` around the
//! calls into each layer, so every figure here comes from spans and
//! counters the program already emits.

use bc_obs::tree::{SpanTreeSnapshot, TreeNode};

/// Span names the program emits, as the tree folds them.
pub const PLAN_RUN: &str = "plan.run";
pub const STAGE_CANDIDATES: &str = "plan.stage.candidates";
pub const STAGE_COVER: &str = "plan.stage.cover";
pub const STAGE_ORDER: &str = "plan.stage.order";
pub const STAGE_TIGHTEN: &str = "plan.stage.tighten";
pub const TIGHTEN_ROUND: &str = "plan.tighten.round";
pub const BUILD_CANDIDATES: &str = "plan.build.candidates";
pub const BUILD_MATRIX: &str = "plan.build.matrix";
pub const BUILD_POWER_TABLE: &str = "plan.build.power_table";
pub const SERVE_REQUEST: &str = "serve.request";
pub const SERVE_RUNG: &str = "serve.rung";
pub const DES_RUN: &str = "des.run";
/// Counter of anchors BC-OPT moved, one increment per tighten round.
pub const RELOCATIONS: &str = "plan.tighten.relocations";

/// Summed wall seconds and completions of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Summed wall seconds.
    pub total_s: f64,
    /// Completions folded in.
    pub count: u64,
}

/// Adds every node named `name` in `nodes` and below to `acc`. A match is
/// not searched further, so a span nested in one of its own name counts
/// once.
fn add_named(nodes: &[TreeNode], name: &str, acc: &mut Span) {
    for n in nodes {
        if n.name == name {
            acc.total_s += n.total_s;
            acc.count += n.count;
        } else {
            add_named(&n.children, name, acc);
        }
    }
}

/// Every node named `name`, wherever it hangs.
pub fn named(snap: &SpanTreeSnapshot, name: &str) -> Span {
    let mut acc = Span::default();
    add_named(&snap.roots, name, &mut acc);
    acc
}

/// Nodes named `inner` anywhere below nodes named `outer`.
pub fn named_within(snap: &SpanTreeSnapshot, outer: &str, inner: &str) -> Span {
    fn walk(nodes: &[TreeNode], outer: &str, inner: &str, acc: &mut Span) {
        for n in nodes {
            if n.name == outer {
                add_named(&n.children, inner, acc);
            } else {
                walk(&n.children, outer, inner, acc);
            }
        }
    }
    let mut acc = Span::default();
    walk(&snap.roots, outer, inner, &mut acc);
    acc
}

/// Total of counter `key` over the whole tree, unattributed emissions
/// included.
pub fn counter(snap: &SpanTreeSnapshot, key: &str) -> u64 {
    fn walk(nodes: &[TreeNode], key: &str) -> u64 {
        nodes
            .iter()
            .map(|n| n.counters.get(key).copied().unwrap_or(0) + walk(&n.children, key))
            .sum()
    }
    walk(&snap.roots, key) + snap.unattributed.get(key).copied().unwrap_or(0)
}

/// The four stage times, the tighten work counts and the two artifact
/// builds, pushed under their per-layer names.
pub fn push_stage_times(snap: &SpanTreeSnapshot, out: &mut crate::report::Outcome) {
    out.push(
        "core.candidates.s",
        named(snap, STAGE_CANDIDATES).total_s,
        "s",
    );
    out.push("setcover.cover.s", named(snap, STAGE_COVER).total_s, "s");
    out.push("tsp.order.s", named(snap, STAGE_ORDER).total_s, "s");
    out.push("core.tighten.s", named(snap, STAGE_TIGHTEN).total_s, "s");
    out.push(
        "core.tighten.rounds",
        named(snap, TIGHTEN_ROUND).count as f64,
        "count",
    );
    out.push(
        "core.tighten.relocations",
        counter(snap, RELOCATIONS) as f64,
        "count",
    );
    // Only the SC and CSS plans build these two artifacts.
    out.push(
        "core.build.matrix.s",
        named(snap, BUILD_MATRIX).total_s,
        "s",
    );
    out.push(
        "wpt.power_table.s",
        named(snap, BUILD_POWER_TABLE).total_s,
        "s",
    );
}

/// Prints the heaviest path of the tree to stderr, for a reader of the
/// run log.
pub fn log_critical_path(label: &str, snap: &SpanTreeSnapshot) {
    let path: Vec<String> = snap
        .critical_path()
        .iter()
        .map(|n| format!("{} {:.3}s (self {:.3}s)", n.name, n.total_s, n.self_s))
        .collect();
    eprintln!("   {label} critical path: {}", path.join(" > "));
}

#[cfg(test)]
mod tests {
    use super::*;
    use bc_obs::tree::SpanTreeRecorder;
    use bc_obs::{counter as emit_counter, with_local, ScopedSpan};
    use std::sync::Arc;

    #[test]
    fn sums_by_name_and_within() {
        let tree = Arc::new(SpanTreeRecorder::deterministic());
        with_local(tree.clone(), || {
            for _ in 0..2 {
                let run = ScopedSpan::enter("des", "run");
                for _ in 0..3 {
                    let plan = ScopedSpan::enter("plan", "run");
                    emit_counter("plan", "tighten.relocations", 2, &[]);
                    plan.finish();
                }
                run.finish();
            }
            let outside = ScopedSpan::enter("plan", "run");
            outside.finish();
            emit_counter("plan", "tighten.relocations", 1, &[]);
        });
        let snap = tree.snapshot();
        assert_eq!(named(&snap, DES_RUN).count, 2);
        assert_eq!(named(&snap, PLAN_RUN).count, 7);
        assert_eq!(named_within(&snap, DES_RUN, PLAN_RUN).count, 6);
        assert_eq!(counter(&snap, RELOCATIONS), 13);
        assert_eq!(named(&snap, "nope"), Span::default());
    }
}
