//! Fixture-driven tests for the lint rules: one deliberately-violating and
//! one clean file per rule, the `lint:allow` escape-hatch semantics, and
//! string/comment/test-code false-positive traps. Assertions are exact
//! `(rule, line)` sets, so a scanner regression names the drifted site.
//!
//! The fixture files live in `tests/fixtures/`, which both cargo and the
//! workspace walker skip; tests feed their contents to [`check_file`]
//! under a pretended in-scope path.

use std::path::Path;
use whatsup_lint::{check_file, lint_workspace, Config, Finding, Rule};

fn fixture(name: &str) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    std::fs::read_to_string(dir.join(name)).unwrap()
}

/// `(rule, line, allowed?)` triples for a fixture linted as if it lived at
/// `crates/core/src/<name>` — in scope for every rule under
/// [`Config::all_everywhere`].
fn findings(name: &str) -> Vec<(Rule, u32, bool)> {
    let path = format!("crates/core/src/{name}");
    check_file(&path, &fixture(name), &Config::all_everywhere())
        .into_iter()
        .map(|f| (f.rule, f.line, f.allowed.is_some()))
        .collect()
}

#[test]
fn det_map_flags_hash_collections() {
    assert_eq!(
        findings("det_map.rs"),
        vec![(Rule::DetMap, 1, false), (Rule::DetMap, 4, false)]
    );
    assert_eq!(findings("det_map_clean.rs"), vec![]);
}

#[test]
fn det_clock_flags_wall_clock_reads() {
    // Line 1 imports `Instant` without calling `::now` — not a read, not
    // flagged. Line 3 names `SystemTime`, line 4 calls `Instant::now()`.
    assert_eq!(
        findings("det_clock.rs"),
        vec![(Rule::DetClock, 3, false), (Rule::DetClock, 4, false)]
    );
    assert_eq!(findings("det_clock_clean.rs"), vec![]);
}

#[test]
fn wire_panic_flags_panicking_decode() {
    assert_eq!(
        findings("wire_panic.rs"),
        vec![
            (Rule::WirePanic, 2, false), // .unwrap()
            (Rule::WirePanic, 3, false), // .expect(...)
            (Rule::WirePanic, 5, false), // panic!
            (Rule::WirePanic, 7, false), // buf[2]
        ]
    );
    assert_eq!(findings("wire_panic_clean.rs"), vec![]);
}

#[test]
fn wire_cast_flags_truncating_length_casts() {
    assert_eq!(findings("wire_cast.rs"), vec![(Rule::WireCast, 2, false)]);
    assert_eq!(findings("wire_cast_clean.rs"), vec![]);
}

#[test]
fn safety_comment_requires_a_safety_line() {
    assert_eq!(
        findings("safety_comment.rs"),
        vec![(Rule::SafetyComment, 2, false)]
    );
    assert_eq!(findings("safety_comment_clean.rs"), vec![]);
}

#[test]
fn allow_hatch_suppresses_with_reason_and_records() {
    // Trailing (line 1) and standalone (line 3 → 4) allows with reasons
    // suppress but stay in the report; a reasonless allow (line 8) does
    // not suppress line 9; an allow inside a string (line 14) is inert, so
    // line 15 is a violation.
    assert_eq!(
        findings("allow_hatch.rs"),
        vec![
            (Rule::DetMap, 1, true),
            (Rule::DetMap, 4, true),
            (Rule::DetMap, 9, false),
            (Rule::DetMap, 15, false),
        ]
    );
}

#[test]
fn allow_reasons_are_recorded_verbatim() {
    let path = "crates/core/src/allow_hatch.rs";
    let all = check_file(path, &fixture("allow_hatch.rs"), &Config::all_everywhere());
    let reasons: Vec<&str> = all.iter().filter_map(|f| f.allowed.as_deref()).collect();
    assert_eq!(
        reasons,
        vec![
            "probe-only map, never iterated",
            "standalone: governs the next code line",
        ]
    );
}

#[test]
fn strings_comments_and_test_code_are_inert() {
    assert_eq!(findings("traps.rs"), vec![]);
}

#[test]
fn harness_paths_are_never_linted() {
    // The same violating content is skipped wholesale when the file lives
    // under a tests/, benches/, examples/ or fixtures/ segment.
    let source = fixture("det_map.rs");
    for path in [
        "crates/core/tests/det_map.rs",
        "crates/lint/tests/fixtures/det_map.rs",
        "crates/bench/benches/det_map.rs",
        "examples/det_map.rs",
    ] {
        assert_eq!(check_file(path, &source, &Config::all_everywhere()), vec![]);
    }
}

#[test]
fn workspace_scopes_gate_rules_by_path() {
    let source = fixture("det_map.rs");
    let config = Config::workspace_default();
    // In a determinism-critical crate the HashMap is a violation...
    let hits: Vec<Rule> = check_file("crates/core/src/x.rs", &source, &config)
        .into_iter()
        .map(|f| f.rule)
        .collect();
    assert_eq!(hits, vec![Rule::DetMap, Rule::DetMap]);
    // ...but the dataset loaders may hash freely.
    assert_eq!(
        check_file("crates/datasets/src/x.rs", &source, &config),
        vec![]
    );
    // Wire rules likewise apply only on the decode surface.
    let panicky = fixture("wire_panic.rs");
    for decode_surface in [
        "crates/net/src/codec.rs",
        "crates/sim/src/engine/exchange/frames.rs",
        "crates/sim/src/engine/exchange/stream.rs",
    ] {
        assert!(!check_file(decode_surface, &panicky, &config).is_empty());
    }
    for elsewhere in [
        "crates/net/src/peer.rs",
        "crates/sim/src/engine/exchange/socket.rs",
    ] {
        let hits: Vec<Rule> = check_file(elsewhere, &panicky, &config)
            .into_iter()
            .map(|f| f.rule)
            .filter(|r| matches!(r, Rule::WirePanic | Rule::WireCast))
            .collect();
        assert_eq!(hits, vec![], "{elsewhere}");
    }
}

/// The committed tree is lint-clean under the workspace contract: zero
/// violations (annotated sites are fine). This is the same check CI runs
/// via `cargo run -p whatsup-lint -- --check`, kept in `cargo test` so a
/// plain test run catches contract drift too.
#[test]
fn committed_tree_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root, &Config::workspace_default()).unwrap();
    let render = |fs: &[Finding]| {
        fs.iter()
            .map(|f| format!("  {}:{}: {}\n", f.path, f.line, f.rule))
            .collect::<String>()
    };
    assert!(
        report.violations.is_empty(),
        "workspace has lint violations:\n{}",
        render(&report.violations)
    );
    assert!(report.files_scanned > 100, "walker found the workspace");
}
