//! `bc-lint` — the token-aware static-analysis engine behind
//! `cargo xtask lint`.
//!
//! The workspace's guarantees (byte-identical plans across worker
//! counts, deterministic DES traces, chaos-proof serving) rest on
//! determinism properties that tests can only sample. This crate makes
//! the *sources* of non-determinism and panic-cascade hazards
//! unrepresentable in library code, by scanning every `src/` tree with
//! a [minimal Rust lexer](lexer) so rules match real code — never
//! string literals or comments — and escape markers only count when
//! they trail the code they excuse.
//!
//! Three passes run over the same engine (see [`rules::RuleId`]):
//!
//! * **core** — the audit rules for casts, panicking extractors, raw
//!   quantity fields, raw DES time, prints and naked locks;
//! * **determinism** — unordered collections in plan-affecting crates,
//!   wall-clock acquisition outside `bc_obs::wall`, ad-hoc
//!   `thread::spawn` outside `bc_core::par`;
//! * **concurrency** — raw lock acquisition in `bc-serve` outside
//!   `bc_serve::sync`, and `static mut` anywhere.
//!
//! A fourth, reflexive rule — `stale-escape` — reports any escape
//! marker that no longer suppresses a finding, so the escape inventory
//! can only shrink. [`workspace::run_workspace`] drives the passes over
//! the whole tree and returns a [`Report`] whose JSON rendering is
//! byte-stable; [`corpus`] carries the seeded self-test corpus (one
//! positive, one negative, one escape case per rule) that the root test
//! suite runs in tier 1.
//!
//! The crate is dependency-free: it sits below `bc-obs` in the build
//! graph, and the xtask driver cross-validates its JSON output with
//! `bc_obs::json`.

pub mod corpus;
pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod workspace;

pub use report::{Report, SCHEMA};
pub use rules::{scan_file, Diagnostic, RuleId};
pub use workspace::run_workspace;

#[cfg(test)]
mod tests {
    use crate::lexer::{tokenize, SourceFile, TokKind};
    use crate::report::Report;
    use crate::rules::{Diagnostic, RuleId};

    #[test]
    fn lexer_classifies_comments_strings_chars() {
        let src = "let a = 'x'; // trail\nlet b: &'a str = \"s\"; /* block */\n";
        let kinds: Vec<TokKind> = tokenize(src).iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&TokKind::Char));
        assert!(kinds.contains(&TokKind::Lifetime));
        assert!(kinds.contains(&TokKind::LineComment));
        assert!(kinds.contains(&TokKind::BlockComment));
        assert!(kinds.contains(&TokKind::Str));
    }

    #[test]
    fn lexer_handles_nested_block_comments_and_raw_strings() {
        let src = "/* a /* b */ c */ fn f() { r#\"x \" y\"# }\n";
        let toks = tokenize(src);
        assert_eq!(toks[0].kind, TokKind::BlockComment);
        assert_eq!(&src[toks[0].start..toks[0].end], "/* a /* b */ c */");
        let raw = toks
            .iter()
            .find(|t| t.kind == TokKind::RawStr)
            .map(|t| &src[t.start..t.end]);
        assert_eq!(raw, Some("r#\"x \" y\"#"));
    }

    #[test]
    fn sanitized_lines_blank_literals_preserving_columns() {
        let src = "call(\".unwrap()\"); // as f64\n";
        let sf = SourceFile::parse(src);
        assert_eq!(sf.code[0].len(), src.len() - 1);
        assert!(!sf.code[0].contains(".unwrap()"));
        assert!(!sf.code[0].contains("as f64"));
        assert!(sf.code[0].starts_with("call("));
    }

    #[test]
    fn markers_attach_to_trailing_comments_only() {
        let src = "// cast-ok: leading\nlet x = 1; // cast-ok: trailing\n\"cast-ok: literal\";\n";
        let sf = SourceFile::parse(src);
        assert!(sf.markers_on(1).is_empty());
        assert_eq!(sf.markers_on(2), ["cast-ok:"]);
        assert!(sf.markers_on(3).is_empty());
    }

    #[test]
    fn test_mask_covers_module_and_resumes_after() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn b() {}\n";
        let sf = SourceFile::parse(src);
        assert_eq!(sf.test_mask, [false, true, true, true, true, false]);
    }

    #[test]
    fn report_json_is_byte_stable_and_sorted() {
        let d = |file: &str, line: usize| Diagnostic {
            file: file.to_string(),
            line,
            col: 1,
            rule: RuleId::PrintBan,
            excerpt: "println!(\"x\")".to_string(),
        };
        let a = Report::new(2, vec![d("b.rs", 3), d("a.rs", 9)]);
        let b = Report::new(2, vec![d("a.rs", 9), d("b.rs", 3)]);
        assert_eq!(a.render_json(), b.render_json());
        assert_eq!(a.diagnostics[0].file, "a.rs");
        let json = a.render_json();
        assert!(json.contains("\"schema\": \"bc-lint-report/v1\""));
        assert!(json.contains("\"total_violations\": 2"));
    }

    #[test]
    fn rule_catalog_names_are_unique_and_escapes_recognized() {
        let mut names: Vec<&str> = RuleId::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), RuleId::ALL.len());
        for rule in RuleId::ALL {
            if let Some(marker) = rule.escape() {
                assert!(
                    crate::lexer::MARKERS.contains(&marker),
                    "{marker} missing from lexer::MARKERS"
                );
            }
        }
    }
}
