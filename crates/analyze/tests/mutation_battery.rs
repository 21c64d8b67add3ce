//! Mutation battery for the stage-4 certifier: every `corrupt_*` hook on
//! the Monte Carlo partition (the one parallel kernel) plants a race in
//! the *declared* plan, and the static checker must catch each one with
//! the right P-code — while the uncorrupted plan certifies clean on a real
//! circuit (zero false Errors). The JSONL emitted for P-diagnostics must round-trip through
//! the `sgs-trace` validator like every other code family.

use sgs_analyze::stage4::check_plan;
use sgs_analyze::{analyze, AnalyzerOptions, Report};
use sgs_core::{DelaySpec, Objective, WritePlan};
use sgs_netlist::{generate, Library};
use sgs_ssta::McPartition;

fn lib() -> Library {
    Library::paper_default()
}

fn codes(diags: &[sgs_analyze::Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code).collect()
}

#[test]
fn corrupt_mc_chunk_is_caught_as_p001_interior_p004_last() {
    let mut mc = McPartition::new(4096, true);
    assert!(mc.chunk_bounds().len() >= 2);
    mc.corrupt_overlap_chunk(0);
    assert_eq!(codes(&check_plan(&mc.write_plan())), vec!["SGS-P001"]);

    let mut mc = McPartition::new(4096, true);
    let last = mc.chunk_bounds().len() - 1;
    mc.corrupt_overlap_chunk(last);
    assert_eq!(codes(&check_plan(&mc.write_plan())), vec!["SGS-P004"]);
}

#[test]
fn corrupt_float_merge_is_caught_as_p005() {
    let mut mc = McPartition::new(2048, true);
    mc.corrupt_float_merge();
    let d = check_plan(&mc.write_plan());
    assert_eq!(codes(&d), vec!["SGS-P005"]);
    assert!(d[0].location.contains("mc_criticality_merge"));
}

#[test]
fn uncorrupted_kernels_certify_clean_end_to_end() {
    // Full analyzer run with stage 4 enabled: the real plan must produce
    // zero P-class findings.
    let c = generate::ripple_carry_adder(16);
    let opts = AnalyzerOptions {
        derivatives: false, // probing is slow and irrelevant here
        ..AnalyzerOptions::default()
    };
    let report = analyze(
        &c,
        &lib(),
        &Objective::MeanPlusKSigma(3.0),
        &DelaySpec::None,
        &opts,
    );
    assert!(
        !report
            .diagnostics
            .iter()
            .any(|d| d.code.starts_with("SGS-P")),
        "false positive: {report}"
    );
}

#[test]
fn stage4_diagnostics_round_trip_as_jsonl() {
    let mut overlap = McPartition::new(4096, true);
    overlap.corrupt_overlap_chunk(0);
    let mut mc = McPartition::new(4096, true);
    mc.corrupt_float_merge();
    let mut report = Report::default();
    report.diagnostics.extend(check_plan(&overlap.write_plan()));
    report.diagnostics.extend(check_plan(&mc.write_plan()));
    assert_eq!(report.num_errors(), 2);
    let summary = sgs_trace::json::validate_jsonl(&report.to_jsonl()).unwrap();
    assert_eq!(summary.count("diagnostic"), 2);
}
