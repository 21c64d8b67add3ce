//! Stage 4: parallel write-plan race analysis.
//!
//! The determinism contract of this reproduction — bit-identical results
//! at any thread count — holds only if every parallel kernel (a) writes
//! each output index from exactly one parallel unit and (b) merges
//! cross-unit partial results bit-commutatively. The one parallel kernel
//! is the Monte Carlo sample loop (NLP assembly and full SSTA are
//! serial). Stage 4 certifies both properties statically from its
//! [`sgs_core::WritePlan`] declaration:
//!
//! * **Disjointness** (`SGS-P001`): no index is claimed by two different
//!   units — a write-write race, undefined merge order, and on the
//!   real (non-shim) rayon a data race.
//! * **Coverage** (`SGS-P002`): every declared output index is written —
//!   a gap leaves stale memory in the result, which is a correctness bug
//!   even single-threaded.
//! * **Intra-unit double writes** (`SGS-P003`): one unit claiming an
//!   index twice — deterministic but still a declaration bug that would
//!   mask real races from the shadow detector.
//! * **Bounds** (`SGS-P004`): claims reaching past the declared array
//!   length, or malformed (start > end) intervals.
//! * **Merge whitelist** (`SGS-P005`): a parallel reduction whose
//!   [`MergeKind`] is not on
//!   [`sgs_core::plan::PARALLEL_MERGE_WHITELIST`] — float accumulation
//!   whose operand order depends on the schedule cannot be bit-stable.
//!
//! The companion dynamic check (`SGS-P006`, [`shadow_diagnostics`])
//! converts `sgs_trace::shadow` ledger reports — stamped by the kernels
//! themselves under the `shadow-write` feature — into the same
//! diagnostic stream, so planted races caught at runtime surface next to
//! the ones caught on paper.
//!
//! All P-codes are Error severity: each finding is provable from the
//! declaration (or an observed runtime stamp), never a failed proof.

use crate::{AnalyzerOptions, Diagnostic, Severity};
use sgs_core::{merge_whitelisted, ArrayPlan, KernelPlan, WritePlan};
use sgs_ssta::McPartition;
use sgs_trace::shadow::ShadowReport;

/// Cap on per-array overlap diagnostics, mirroring
/// `sgs_trace::shadow::MAX_OVERLAPS_PER_REPORT`: one diagnostic per
/// offending index is wanted for pinpointing, unbounded streams are not.
const MAX_OVERLAP_DIAGS: usize = 16;

/// Builds the plan of the one parallel kernel the solver stack executes
/// and checks it: a Monte Carlo partition of
/// [`AnalyzerOptions::mc_plan_samples`] samples with criticality
/// tallying (the configuration with the parallel merge).
pub fn verify_plans(opts: &AnalyzerOptions) -> Vec<Diagnostic> {
    let plan = McPartition::new(opts.mc_plan_samples, true).write_plan();
    sgs_metrics::incr(sgs_metrics::Counter::AnalyzePlans);
    let units: usize = plan.arrays.iter().map(|a| a.units.len()).sum();
    sgs_metrics::add(sgs_metrics::Counter::AnalyzePlanUnits, units as u64);
    check_plan(&plan)
}

/// Statically checks one kernel's declared plan: every array partition
/// for bounds, disjointness and coverage, every reduction against the
/// parallel-merge whitelist.
pub fn check_plan(plan: &KernelPlan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for array in &plan.arrays {
        check_array(plan.kernel, array, &mut out);
    }
    for r in &plan.reductions {
        if r.parallel && !merge_whitelisted(r.kind) {
            out.push(Diagnostic {
                severity: Severity::Error,
                code: "SGS-P005",
                location: format!("kernel `{}`, reduction `{}`", plan.kernel, r.name),
                message: format!(
                    "parallel reduction merges partial results by {:?}, which is not \
                     bit-commutative: merge order would change result bits",
                    r.kind
                ),
                data: vec![("kind", format!("{:?}", r.kind))],
            });
        }
    }
    out
}

/// One unit's interval tagged with its owning unit index, for the sweeps.
struct Claim {
    start: usize,
    end: usize,
    unit: usize,
}

fn check_array(kernel: &'static str, array: &ArrayPlan, out: &mut Vec<Diagnostic>) {
    let loc = |detail: &str| format!("kernel `{}`, array `{}`{detail}", kernel, array.array);

    // Pass 1: bounds / well-formedness (SGS-P004) and intra-unit double
    // writes (SGS-P003). Out-of-bounds claims are clamped to the array —
    // not dropped — so one bad end does not cascade into a phantom
    // coverage gap; inverted (start > end) intervals carry no usable
    // extent and are excluded.
    let mut claims: Vec<Claim> = Vec::new();
    for (u, unit) in array.units.iter().enumerate() {
        let mut own: Vec<(usize, usize)> = Vec::new();
        for &(start, end) in &unit.writes {
            if start > end || end > array.len {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    code: "SGS-P004",
                    location: loc(&format!(", unit `{}`", unit.label)),
                    message: format!(
                        "write interval [{start}, {end}) is outside the declared \
                         array bounds 0..{}",
                        array.len
                    ),
                    data: vec![
                        ("start", start.to_string()),
                        ("end", end.to_string()),
                        ("len", array.len.to_string()),
                    ],
                });
                if start > end {
                    continue;
                }
            }
            let (start, end) = (start.min(array.len), end.min(array.len));
            if start < end {
                own.push((start, end));
                claims.push(Claim {
                    start,
                    end,
                    unit: u,
                });
            }
        }
        own.sort_unstable();
        for w in own.windows(2) {
            if w[1].0 < w[0].1 {
                out.push(Diagnostic {
                    severity: Severity::Error,
                    code: "SGS-P003",
                    location: loc(&format!(", unit `{}`", unit.label)),
                    message: format!(
                        "unit writes index {} more than once (intervals [{}, {}) \
                         and [{}, {}))",
                        w[1].0, w[0].0, w[0].1, w[1].0, w[1].1
                    ),
                    data: vec![("index", w[1].0.to_string())],
                });
            }
        }
    }

    // Pass 2: cross-unit sweep over all valid claims sorted by start —
    // disjointness (SGS-P001) and coverage (SGS-P002) in one scan.
    claims.sort_unstable_by_key(|c| (c.start, c.end, c.unit));
    let mut cursor = 0usize; // lowest index not yet proven written
    let mut cursor_unit = usize::MAX; // unit whose claim reaches `cursor`
    let mut first_missing: Option<usize> = None;
    let mut missing = 0usize;
    let mut overlap_diags = 0usize;
    let mut overlap_total = 0usize;
    for c in &claims {
        if c.start > cursor {
            if first_missing.is_none() {
                first_missing = Some(cursor);
            }
            missing += c.start - cursor;
        } else if c.start < cursor && c.unit != cursor_unit {
            overlap_total += 1;
            if overlap_diags < MAX_OVERLAP_DIAGS {
                overlap_diags += 1;
                let a = &array.units[cursor_unit].label;
                let b = &array.units[c.unit].label;
                out.push(Diagnostic {
                    severity: Severity::Error,
                    code: "SGS-P001",
                    location: loc(""),
                    message: format!(
                        "index {} is written by two parallel units: `{a}` and `{b}`",
                        c.start
                    ),
                    data: vec![
                        ("index", c.start.to_string()),
                        ("unit_a", a.clone()),
                        ("unit_b", b.clone()),
                    ],
                });
            }
        }
        if c.end > cursor {
            cursor = c.end;
            cursor_unit = c.unit;
        }
    }
    if overlap_total > overlap_diags {
        out.push(Diagnostic {
            severity: Severity::Error,
            code: "SGS-P001",
            location: loc(""),
            message: format!(
                "{} further cross-unit overlaps suppressed after the first {overlap_diags}",
                overlap_total - overlap_diags
            ),
            data: vec![("suppressed", (overlap_total - overlap_diags).to_string())],
        });
    }
    if cursor < array.len {
        if first_missing.is_none() {
            first_missing = Some(cursor);
        }
        missing += array.len - cursor;
    }
    if missing > 0 {
        let first = first_missing.unwrap_or(0);
        out.push(Diagnostic {
            severity: Severity::Error,
            code: "SGS-P002",
            location: loc(""),
            message: format!(
                "{missing} of {} declared output indices are never written \
                 (first gap at index {first})",
                array.len
            ),
            data: vec![
                ("missing", missing.to_string()),
                ("first_missing", first.to_string()),
            ],
        });
    }
}

/// Converts shadow-write ledger reports (runtime stamps collected under
/// the `shadow-write` feature) into `SGS-P006` diagnostics: one per
/// observed cross-unit overlap, plus one per kernel whose ledger shows
/// unwritten indices.
pub fn shadow_diagnostics(reports: &[ShadowReport]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for r in reports {
        for o in &r.overlaps {
            out.push(Diagnostic {
                severity: Severity::Error,
                code: "SGS-P006",
                location: format!("kernel `{}` (shadow ledger, len {})", r.kernel, r.len),
                message: format!(
                    "runtime shadow stamps show index {} written by units {} and {}",
                    o.index, o.unit_a, o.unit_b
                ),
                data: vec![
                    ("index", o.index.to_string()),
                    ("unit_a", o.unit_a.to_string()),
                    ("unit_b", o.unit_b.to_string()),
                ],
            });
        }
        if r.missing > 0 {
            out.push(Diagnostic {
                severity: Severity::Error,
                code: "SGS-P006",
                location: format!("kernel `{}` (shadow ledger, len {})", r.kernel, r.len),
                message: format!(
                    "runtime shadow stamps left {} of {} indices unwritten \
                     (sample: {:?})",
                    r.missing, r.len, r.missing_sample
                ),
                data: vec![("missing", r.missing.to_string())],
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_core::plan::{MergeKind, ReductionDecl, WriteUnit};
    use sgs_trace::shadow::ShadowOverlap;

    fn unit(label: &str, writes: Vec<(usize, usize)>) -> WriteUnit {
        WriteUnit {
            label: label.to_string(),
            writes,
        }
    }

    fn plan_of(len: usize, units: Vec<WriteUnit>) -> KernelPlan {
        KernelPlan {
            kernel: "test_kernel",
            arrays: vec![ArrayPlan {
                array: "out",
                len,
                units,
            }],
            reductions: Vec::new(),
        }
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_partition_has_no_findings() {
        let plan = plan_of(
            10,
            vec![
                unit("a", vec![(0, 4)]),
                unit("b", vec![(4, 7)]),
                unit("c", vec![(7, 10)]),
            ],
        );
        assert!(check_plan(&plan).is_empty());
    }

    #[test]
    fn empty_array_is_trivially_covered() {
        let plan = plan_of(0, vec![]);
        assert!(check_plan(&plan).is_empty());
    }

    #[test]
    fn cross_unit_overlap_is_p001_with_index_and_labels() {
        let plan = plan_of(10, vec![unit("a", vec![(0, 6)]), unit("b", vec![(5, 10)])]);
        let d = check_plan(&plan);
        assert_eq!(codes(&d), vec!["SGS-P001"]);
        assert!(d[0].data.contains(&("index", "5".to_string())));
        assert!(d[0].data.contains(&("unit_a", "a".to_string())));
        assert!(d[0].data.contains(&("unit_b", "b".to_string())));
    }

    #[test]
    fn coverage_gap_is_p002_with_first_missing() {
        let plan = plan_of(10, vec![unit("a", vec![(0, 3)]), unit("b", vec![(5, 9)])]);
        let d = check_plan(&plan);
        assert_eq!(codes(&d), vec!["SGS-P002"]);
        assert!(d[0].data.contains(&("missing", "3".to_string())));
        assert!(d[0].data.contains(&("first_missing", "3".to_string())));
    }

    #[test]
    fn intra_unit_double_write_is_p003_not_p001() {
        let plan = plan_of(
            10,
            vec![unit("a", vec![(0, 5), (3, 5)]), unit("b", vec![(5, 10)])],
        );
        let d = check_plan(&plan);
        assert_eq!(codes(&d), vec!["SGS-P003"]);
        assert!(d[0].data.contains(&("index", "3".to_string())));
    }

    #[test]
    fn out_of_bounds_and_malformed_are_p004() {
        let plan = plan_of(10, vec![unit("a", vec![(0, 11)]), unit("b", vec![(5, 3)])]);
        let d = check_plan(&plan);
        // Both P004s; the clamped first claim still covers the array, so
        // no cascading P002.
        assert_eq!(codes(&d), vec!["SGS-P004", "SGS-P004"]);
    }

    #[test]
    fn float_parallel_merge_is_p005() {
        let mut plan = plan_of(4, vec![unit("a", vec![(0, 4)])]);
        plan.reductions = vec![
            ReductionDecl {
                name: "ok_tally",
                parallel: true,
                kind: MergeKind::ExactU64Sum,
            },
            ReductionDecl {
                name: "seq_fold",
                parallel: false,
                kind: MergeKind::FloatSum,
            },
            ReductionDecl {
                name: "bad_merge",
                parallel: true,
                kind: MergeKind::FloatSum,
            },
        ];
        let d = check_plan(&plan);
        assert_eq!(codes(&d), vec!["SGS-P005"]);
        assert!(d[0].location.contains("bad_merge"));
    }

    #[test]
    fn overlap_flood_is_capped() {
        // 40 units all claiming the same interval: 39 overlap events, only
        // MAX_OVERLAP_DIAGS itemised plus one suppression note.
        let units = (0..40)
            .map(|i| unit(&format!("u{i}"), vec![(0, 10)]))
            .collect();
        let d = check_plan(&plan_of(10, units));
        let p001 = d.iter().filter(|d| d.code == "SGS-P001").count();
        assert_eq!(p001, MAX_OVERLAP_DIAGS + 1);
        assert!(d.last().unwrap().message.contains("suppressed"));
    }

    #[test]
    fn shadow_reports_become_p006() {
        let clean = ShadowReport {
            kernel: "k".into(),
            len: 8,
            invocations: 1,
            writes: 8,
            overlaps: vec![],
            missing: 0,
            missing_sample: vec![],
        };
        assert!(shadow_diagnostics(std::slice::from_ref(&clean)).is_empty());

        let dirty = ShadowReport {
            overlaps: vec![ShadowOverlap {
                index: 3,
                unit_a: 0,
                unit_b: 1,
            }],
            missing: 2,
            missing_sample: vec![6, 7],
            ..clean
        };
        let d = shadow_diagnostics(&[dirty]);
        assert_eq!(codes(&d), vec!["SGS-P006", "SGS-P006"]);
        assert!(d[0].data.contains(&("index", "3".to_string())));
        assert!(d[1].message.contains("2 of 8"));
    }
}
