//! Golden cases for the flow-aware rule families (F1, A1, C1, P2).
//!
//! Each rule gets a matched pair: a fixture that MUST produce exactly the
//! expected finding (true positive), and the same fixture with a waiver
//! that MUST suppress it (waived). The pairs pin both halves of each rule's
//! contract — that it fires, and that the documented escape hatch works —
//! so a refactor of the analyzer can't silently weaken either direction.
//!
//! Fixtures live in string literals: the workspace lint walk lexes this
//! file too, and string contents never register as code tokens or waivers.

use elsa_lint::item::WorkspaceModel;
use elsa_lint::rules::{apply_waivers_by_file, check_model, check_source};
use elsa_lint::{Finding, RuleId, RuleSet};

/// Runs the source rules over one fixture and returns its findings.
fn source_findings(crate_name: &str, path: &str, src: &str) -> Vec<Finding> {
    let (findings, _) = check_source(crate_name, path, src.as_bytes(), &RuleSet::all());
    findings
}

/// Runs the model rules (C1/P2) over one fixture, applying its waivers the
/// same way `check_workspace` does.
fn model_findings(crate_name: &str, path: &str, src: &str) -> Vec<Finding> {
    let (_, mut waivers) = check_source(crate_name, path, src.as_bytes(), &RuleSet::all());
    let model = WorkspaceModel::from_sources(&[(crate_name, path, src.as_bytes())]);
    let mut findings = check_model(&model, &RuleSet::all());
    apply_waivers_by_file(&mut findings, &mut waivers);
    findings
}

fn only_rule(findings: &[Finding], rule: RuleId) -> Vec<&Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

// ---------------------------------------------------------------- F1 ------

const F1_POSITIVE: &str = r#"
pub fn total(values: &[f64]) -> f64 {
    let s: f64 = values.iter().sum();
    s
}
"#;

const F1_WAIVED: &str = r#"
pub fn total(values: &[f64]) -> f64 {
    // elsa-lint: allow(reduction-order) reason="golden waived case"
    let s: f64 = values.iter().sum();
    s
}
"#;

#[test]
fn f1_flags_order_dependent_float_sum() {
    let findings = source_findings("elsa-sim", "src/golden_f1.rs", F1_POSITIVE);
    let f1 = only_rule(&findings, RuleId::ReductionOrder);
    assert_eq!(f1.len(), 1, "expected one F1 finding, got: {findings:?}");
    assert!(f1[0].waived.is_none());
    assert!(f1[0].message.contains("sum"), "message names the reduction: {}", f1[0].message);
}

#[test]
fn f1_waiver_suppresses_the_finding() {
    let findings = source_findings("elsa-sim", "src/golden_f1.rs", F1_WAIVED);
    let f1 = only_rule(&findings, RuleId::ReductionOrder);
    assert_eq!(f1.len(), 1, "waived findings are still reported: {findings:?}");
    assert_eq!(f1[0].waived.as_deref(), Some("golden waived case"));
}

// ---------------------------------------------------------------- A1 ------

const A1_POSITIVE: &str = r#"
pub fn kv_bytes(n: usize, d: usize) -> usize {
    n * d
}
"#;

const A1_WAIVED: &str = r#"
pub fn kv_bytes(n: usize, d: usize) -> usize {
    // elsa-lint: allow(arithmetic-headroom) reason="golden waived case"
    n * d
}
"#;

#[test]
fn a1_flags_unchecked_counter_multiply_in_cost_module() {
    // The path must be a registered cost-model module; elsewhere A1 is off.
    let findings = source_findings("elsa-attention", "src/flops.rs", A1_POSITIVE);
    let a1 = only_rule(&findings, RuleId::ArithmeticHeadroom);
    assert_eq!(a1.len(), 1, "expected one A1 finding, got: {findings:?}");
    assert!(a1[0].waived.is_none());

    let elsewhere = source_findings("elsa-attention", "src/lib.rs", A1_POSITIVE);
    assert!(
        only_rule(&elsewhere, RuleId::ArithmeticHeadroom).is_empty(),
        "A1 is scoped to cost-model modules"
    );
}

#[test]
fn a1_waiver_suppresses_the_finding() {
    let findings = source_findings("elsa-attention", "src/flops.rs", A1_WAIVED);
    let a1 = only_rule(&findings, RuleId::ArithmeticHeadroom);
    assert_eq!(a1.len(), 1);
    assert_eq!(a1[0].waived.as_deref(), Some("golden waived case"));
}

// ---------------------------------------------------------------- C1 ------

const C1_POSITIVE: &str = r#"
impl Policy {
    /// Checks the policy.
    ///
    /// # Panics
    ///
    /// Panics when the policy is inconsistent.
    pub fn validate(&self) {
        if self.limit == 0 {
            panic!("inconsistent policy");
        }
    }
}
"#;

const C1_WAIVED: &str = r#"
impl Policy {
    /// Checks the policy.
    ///
    /// # Panics
    ///
    /// Panics when the policy is inconsistent.
    // elsa-lint: allow(try-panic-pairing) reason="golden waived case"
    pub fn validate(&self) {
        if self.limit == 0 {
            panic!("inconsistent policy");
        }
    }
}
"#;

const C1_PAIRED: &str = r#"
impl Policy {
    /// Checks the policy.
    ///
    /// # Panics
    ///
    /// Panics when the policy is inconsistent.
    pub fn validate(&self) {
        match self.try_validate() {
            Ok(()) => {}
            Err(e) => panic!("{e}"),
        }
    }

    pub fn try_validate(&self) -> Result<(), &'static str> {
        if self.limit == 0 {
            return Err("inconsistent policy");
        }
        Ok(())
    }
}
"#;

#[test]
fn c1_flags_documented_panicking_api_without_try_sibling() {
    let findings = model_findings("elsa-serve", "src/golden_c1.rs", C1_POSITIVE);
    let c1 = only_rule(&findings, RuleId::TryPanicPairing);
    assert_eq!(c1.len(), 1, "expected one C1 finding, got: {findings:?}");
    assert!(c1[0].waived.is_none());
    assert!(c1[0].message.contains("try_validate"), "message: {}", c1[0].message);
}

#[test]
fn c1_waiver_suppresses_the_finding() {
    let findings = model_findings("elsa-serve", "src/golden_c1.rs", C1_WAIVED);
    let c1 = only_rule(&findings, RuleId::TryPanicPairing);
    assert_eq!(c1.len(), 1);
    assert_eq!(c1[0].waived.as_deref(), Some("golden waived case"));
}

#[test]
fn c1_delegating_try_sibling_satisfies_the_rule() {
    let findings = model_findings("elsa-serve", "src/golden_c1.rs", C1_PAIRED);
    assert!(
        only_rule(&findings, RuleId::TryPanicPairing).is_empty(),
        "a signature-matched delegating try_ sibling clears C1: {findings:?}"
    );
}

// ---------------------------------------------------------------- P2 ------

const P2_POSITIVE: &str = r#"
fn head(v: &[u64]) -> u64 {
    v.first().copied().unwrap()
}

pub fn drive(v: &[u64]) -> u64 {
    head(v)
}
"#;

const P2_WAIVED: &str = r#"
fn head(v: &[u64]) -> u64 {
    v.first().copied().unwrap()
}

pub fn drive(v: &[u64]) -> u64 {
    // elsa-lint: allow(panic-reachability) reason="golden waived case"
    head(v)
}
"#;

const P2_DOCUMENTED: &str = r#"
/// First element.
///
/// # Panics
///
/// Panics when `v` is empty.
fn head(v: &[u64]) -> u64 {
    v.first().copied().unwrap()
}

pub fn drive(v: &[u64]) -> u64 {
    head(v)
}
"#;

#[test]
fn p2_flags_call_into_undocumented_panicking_helper() {
    let findings = model_findings("elsa-serve", "src/golden_p2.rs", P2_POSITIVE);
    let p2 = only_rule(&findings, RuleId::PanicReachability);
    assert_eq!(p2.len(), 1, "expected one P2 finding, got: {findings:?}");
    assert!(p2[0].waived.is_none());
    assert!(p2[0].message.contains("head"), "message names the callee: {}", p2[0].message);
}

#[test]
fn p2_waiver_suppresses_the_finding() {
    let findings = model_findings("elsa-serve", "src/golden_p2.rs", P2_WAIVED);
    let p2 = only_rule(&findings, RuleId::PanicReachability);
    assert_eq!(p2.len(), 1);
    assert_eq!(p2[0].waived.as_deref(), Some("golden waived case"));
}

#[test]
fn p2_documented_panics_section_on_callee_clears_the_finding() {
    let findings = model_findings("elsa-serve", "src/golden_p2.rs", P2_DOCUMENTED);
    assert!(
        only_rule(&findings, RuleId::PanicReachability).is_empty(),
        "a `# Panics` contract on the callee clears P2: {findings:?}"
    );
}
