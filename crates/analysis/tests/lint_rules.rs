//! Per-rule contract tests: every rule fires on its violating fixture,
//! stays silent on the clean one, and is silenced by a reasoned waiver on
//! the waived one. Fixtures live under `tests/fixtures/<rule>/` (excluded
//! from the workspace walk — they violate on purpose) and are linted
//! under *virtual* paths, because several rules are path-scoped.

use explain3d_analysis::{lint_source, Finding};
use std::path::Path;

/// Lints `tests/fixtures/<rule>/<kind>.rs` as if it lived at `virt`.
fn lint_fixture(rule_dir: &str, kind: &str, virt: &str) -> Vec<Finding> {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule_dir)
        .join(format!("{kind}.rs"));
    let src = std::fs::read_to_string(&fixture)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", fixture.display()));
    lint_source(Path::new(virt), &src)
}

/// Asserts the triple contract for one rule at one virtual path.
fn assert_triple(rule: &str, rule_dir: &str, virt: &str, violating_count: usize) {
    let violating = lint_fixture(rule_dir, "violating", virt);
    assert_eq!(
        violating.iter().filter(|f| f.rule == rule).count(),
        violating_count,
        "{rule}: wrong finding count on violating fixture; got {violating:#?}"
    );
    assert!(
        violating.iter().all(|f| f.rule == rule),
        "{rule}: violating fixture tripped unrelated rules: {violating:#?}"
    );
    let clean = lint_fixture(rule_dir, "clean", virt);
    assert!(clean.is_empty(), "{rule}: clean fixture must be silent, got {clean:#?}");
    let waived = lint_fixture(rule_dir, "waived", virt);
    assert!(waived.is_empty(), "{rule}: reasoned waivers must silence, got {waived:#?}");
}

#[test]
fn safety_comments_triple() {
    // Two sites: the bare block and the bare unsafe fn.
    assert_triple("safety-comments", "safety_comments", "crates/example/src/lib.rs", 2);
}

#[test]
fn float_total_order_triple() {
    assert_triple("float-total-order", "float_total_order", "crates/example/src/lib.rs", 1);
}

#[test]
fn ffi_confinement_triple() {
    assert_triple("ffi-confinement", "ffi_confinement", "crates/example/src/lib.rs", 1);
}

#[test]
fn ffi_confinement_is_silent_in_designated_modules() {
    // The same extern block under an allow-listed path is fine.
    let findings = lint_fixture("ffi_confinement", "violating", "crates/service/src/poller.rs");
    assert!(findings.is_empty(), "allow-listed path must be exempt, got {findings:#?}");
}

#[test]
fn panic_free_wire_triple() {
    // Four sites: buf[0], .unwrap(), .expect(), panic!.
    assert_triple("panic-free-wire", "panic_free_wire", "crates/service/src/wire.rs", 4);
}

#[test]
fn panic_free_wire_only_guards_the_wire_edge() {
    // The identical source under a non-wire path is out of scope.
    let findings = lint_fixture("panic_free_wire", "violating", "crates/relation/src/value.rs");
    assert!(findings.is_empty(), "non-wire path must be exempt, got {findings:#?}");
}

#[test]
fn lock_order_triple() {
    // Three inversions: two direct ones (one against the slot-report
    // leaf) and the one behind a helper call.
    assert_triple("lock-order", "lock_order", "crates/service/src/registry.rs", 3);
}

#[test]
fn lock_order_reports_the_inlined_call_site() {
    let findings = lint_fixture("lock_order", "violating", "crates/service/src/registry.rs");
    assert!(
        findings.iter().any(|f| f.message.contains("call to `grab_state`")),
        "the helper-call inversion must be attributed to the call site, got {findings:#?}"
    );
}

#[test]
fn telemetry_no_lock_triple() {
    // Two sinks under a live slot-state guard: an `.observe(` and an `.inc(`.
    assert_triple("telemetry-no-lock", "telemetry_no_lock", "crates/service/src/registry.rs", 2);
}

#[test]
fn telemetry_no_lock_only_guards_the_registry() {
    // The identical source anywhere else is out of scope: only the
    // registry file owns the ranked lock family.
    let findings =
        lint_fixture("telemetry_no_lock", "violating", "crates/service/src/telemetry.rs");
    assert!(findings.is_empty(), "non-registry path must be exempt, got {findings:#?}");
}

#[test]
fn waiver_without_reason_is_a_finding() {
    let src = "// lint:allow(float-total-order)\npub fn f() {}\n";
    let findings = lint_source(Path::new("crates/example/src/lib.rs"), src);
    assert!(
        findings.iter().any(|f| f.rule == "waiver-reason"),
        "a reasonless waiver must fire waiver-reason, got {findings:#?}"
    );
}

#[test]
fn waiver_naming_unknown_rule_is_a_finding() {
    let src = "// lint:allow(no-such-rule): because reasons\npub fn f() {}\n";
    let findings = lint_source(Path::new("crates/example/src/lib.rs"), src);
    assert!(
        findings.iter().any(|f| f.rule == "waiver-unknown-rule"),
        "a typo'd rule id must fire waiver-unknown-rule, got {findings:#?}"
    );
}

#[test]
fn reasonless_waiver_does_not_silence_the_finding() {
    let src = "\
pub fn sort(scores: &mut [f64]) {
    // lint:allow(float-total-order)
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
}
";
    let findings = lint_source(Path::new("crates/example/src/lib.rs"), src);
    assert!(
        findings.iter().any(|f| f.rule == "float-total-order"),
        "an unreasoned waiver must not suppress, got {findings:#?}"
    );
}
