//! Integration tests: each rule against its intentionally-bad fixture
//! under `tests/fixtures/`, asserting the exact violations found and
//! that inline suppressions and allowlist entries are honoured.

use ppep_lint::{lint_source, Allowlist};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// `(rule, line)` pairs for one rule name, in file order.
fn hits(src: &str, crate_name: &str, rule: &str) -> Vec<u32> {
    lint_source("fixtures/test.rs", crate_name, src, &Allowlist::default())
        .into_iter()
        .filter(|d| d.rule == rule)
        .map(|d| d.line)
        .collect()
}

#[test]
fn l1_fixture_exact_violations() {
    let src = fixture("l1_panic_paths.rs");
    assert_eq!(hits(&src, "ppep-sim", "unwrap"), vec![5]);
    assert_eq!(hits(&src, "ppep-sim", "expect"), vec![9]);
    assert_eq!(hits(&src, "ppep-sim", "panic"), vec![14]);
    assert_eq!(hits(&src, "ppep-sim", "index-arith"), vec![19]);
}

#[test]
fn l1_suppression_and_test_code_are_exempt() {
    let src = fixture("l1_panic_paths.rs");
    // Only line 5 is flagged: the unwrap on line 23 carries a trailing
    // `// ppep-lint: allow(unwrap)` and the one in `mod tests` is test
    // code.
    assert_eq!(hits(&src, "ppep-sim", "unwrap"), vec![5]);
}

#[test]
fn l1_only_fires_in_runtime_crates() {
    let src = fixture("l1_panic_paths.rs");
    assert!(hits(&src, "ppep-experiments", "unwrap").is_empty());
    assert!(hits(&src, "ppep-lint", "panic").is_empty());
}

#[test]
fn l2_fixture_exact_violations() {
    let src = fixture("l2_raw_f64.rs");
    // Line 4: bare `f64` parameter. Line 8: bare `f64` return. The
    // signature on line 12 is suppressed inline; `fine` is unit-typed.
    assert_eq!(hits(&src, "ppep-models", "raw-f64"), vec![4, 8]);
}

#[test]
fn l2_only_fires_in_unit_api_crates() {
    let src = fixture("l2_raw_f64.rs");
    assert!(hits(&src, "ppep-sim", "raw-f64").is_empty());
}

#[test]
fn l2_allowlist_entry_exempts_named_item_only() {
    let src = fixture("l2_raw_f64.rs");
    let allow =
        Allowlist::parse("raw-f64 fixtures/test.rs bad_param -- dimensionless in this fixture")
            .expect("well-formed allowlist");
    let lines: Vec<u32> = lint_source("fixtures/test.rs", "ppep-models", &src, &allow)
        .into_iter()
        .filter(|d| d.rule == "raw-f64")
        .map(|d| d.line)
        .collect();
    assert_eq!(
        lines,
        vec![8],
        "bad_param exempted, bad_return still flagged"
    );
}

#[test]
fn allowlist_without_reason_is_rejected() {
    assert!(Allowlist::parse("raw-f64 fixtures/test.rs bad_param").is_err());
    assert!(Allowlist::parse("raw-f64 fixtures/test.rs bad_param --").is_err());
}

#[test]
fn l3_fixture_exact_violations() {
    let src = fixture("l3_wildcard.rs");
    // Line 8: `_` arm. Line 15: lone lowercase binding. Line 22 is
    // suppressed; the `SmallKind` match is not a domain enum.
    assert_eq!(hits(&src, "ppep-sim", "wildcard-match"), vec![8, 15]);
}

#[test]
fn l4_fixture_exact_violations() {
    let src = fixture("l4_unguarded.rs");
    // Line 5: unguarded `Result<Watts>`. The guarded sibling, the
    // trivial accessor, and the wrapper suppressed from the preceding
    // line are all exempt.
    assert_eq!(hits(&src, "ppep-models", "unguarded-output"), vec![5]);
}

#[test]
fn l4_only_fires_in_the_model_crate() {
    let src = fixture("l4_unguarded.rs");
    assert!(hits(&src, "ppep-core", "unguarded-output").is_empty());
}

#[test]
fn l5_fixture_catches_the_seeded_stale_projection_bug() {
    let src = fixture("l5_stale_projection.rs");
    let diags: Vec<_> = lint_source("fixtures/test.rs", "ppep-core", &src, &Allowlist::default())
        .into_iter()
        .filter(|d| d.rule == "stale-projection")
        .collect();
    // Exactly one firing: `stale_report` reads the projection on
    // line 9 after the line-8 apply; `fresh_report` re-projects.
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.group, "L5");
    assert_eq!(d.line, 9, "points at the stale read");
    // The rustc-style rendering names BOTH sites: the stale use
    // (primary span) and the killing apply() (the `= note:` line).
    let rendered = d.to_string();
    assert!(rendered.contains("--> fixtures/test.rs:9:"), "{rendered}");
    assert!(
        rendered.contains("= note: invalidated by the `apply(..)` at line 8"),
        "{rendered}"
    );
}

#[test]
fn l5_tracks_buffers_refilled_by_project_into() {
    let src = fixture("l5_refilled_projection.rs");
    let diags: Vec<_> = lint_source("fixtures/test.rs", "ppep-core", &src, &Allowlist::default())
        .into_iter()
        .filter(|d| d.rule == "stale-projection")
        .collect();
    // `buf` is refilled on line 7; the read on line 10 follows the
    // line-9 apply.
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].line, 10, "points at the stale read");
    assert!(
        diags[0]
            .to_string()
            .contains("= note: invalidated by the `apply(..)` at line 9"),
        "{}",
        diags[0]
    );
}

#[test]
fn l5_refilling_a_stale_buffer_is_not_a_read() {
    let src = fixture("l5_refilled_projection_clean.rs");
    assert!(hits(&src, "ppep-core", "stale-projection").is_empty());
}

#[test]
fn l7_fixture_flags_the_held_guard_only() {
    let src = fixture("l7_lock_boundary.rs");
    // `bad_hold` carries the guard into `handle_frame` on line 7;
    // `scoped_hold` releases it at the inner scope end before the
    // `write_all` boundary.
    assert_eq!(hits(&src, "ppep-serve", "lock-across-boundary"), vec![7]);
}

#[test]
fn l8_fixture_flags_both_discard_shapes() {
    let src = fixture("l8_dropped_transient.rs");
    // Line 7: `let _ = platform.sample()`. Line 8: `.ok()` chained
    // onto `resample()`. The `is_transient()` triage match is clean.
    assert_eq!(hits(&src, "ppep-core", "dropped-transient"), vec![7, 8]);
}

#[test]
fn temporal_rules_only_fire_in_ppep_crates() {
    for name in [
        "l5_stale_projection.rs",
        "l5_refilled_projection.rs",
        "l7_lock_boundary.rs",
        "l8_dropped_transient.rs",
    ] {
        let src = fixture(name);
        let diags = lint_source("fixtures/test.rs", "proptest", &src, &Allowlist::default());
        assert!(
            diags.is_empty(),
            "{name} flagged outside ppep crates: {diags:?}"
        );
    }
}

/// Every `L*` group alias documented in the crate doc-comment's rule
/// table must expand to a non-empty subset of `ALL_RULES` — a table
/// row whose alias expands to nothing is dead documentation, and an
/// alias the table omits is an undocumented escape hatch.
#[test]
fn every_documented_group_alias_expands() {
    let doc = include_str!("../src/lib.rs");
    let mut groups = Vec::new();
    for line in doc.lines() {
        let Some(rest) = line.strip_prefix("//! | L") else {
            continue;
        };
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if !digits.is_empty() {
            groups.push(format!("L{digits}"));
        }
    }
    assert!(
        groups.len() >= 8,
        "doc table lists {} groups; expected the full L1..L8 set",
        groups.len()
    );
    let mut covered = std::collections::BTreeSet::new();
    for g in &groups {
        let expansion = ppep_lint::rules::expand_rule_alias(g);
        assert!(
            !expansion.is_empty(),
            "documented alias {g} expands to nothing"
        );
        for rule in expansion {
            assert!(
                ppep_lint::rules::ALL_RULES.contains(&rule.as_str()),
                "alias {g} expands to unknown rule {rule}"
            );
            covered.insert(rule);
        }
    }
    // And jointly the documented groups cover the whole rule set.
    assert_eq!(covered.len(), ppep_lint::rules::ALL_RULES.len());
}

#[test]
fn workspace_is_clean_under_the_checked_in_allowlist() {
    // The acceptance invariant for the whole PR: `cargo run -p
    // ppep-lint` exits 0 at the repo root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = ppep_lint::lint_workspace(&root).expect("workspace walk succeeds");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.diagnostics.is_empty(),
        "workspace has violations:\n{}",
        rendered.join("\n")
    );
    assert!(
        report.unused_allow.is_empty(),
        "stale allowlist entries: {:?}",
        report.unused_allow
    );
}
