//! Write-plan introspection: every parallel kernel declares its writes.
//!
//! The determinism contract of this reproduction — bit-identical results
//! at any thread count — rests on each parallel kernel partitioning its
//! output arrays into disjoint, covering per-unit write sets, and on
//! every cross-unit merge being bit-commutative. Those properties used to
//! live only in hand-maintained index arithmetic (`split_at_mut` offsets,
//! chunk bounds, level schedules). This module makes them *declarative*:
//! the [`WritePlan`] trait exports, for each kernel, the concrete
//! half-open index intervals every parallel unit writes, plus the
//! reductions it performs, so the stage-4 certifier in `sgs-analyze` can
//! statically prove disjointness and coverage and lint the merges against
//! the bit-commutative whitelist.
//!
//! Three plan families are implemented here:
//!
//! - [`SizingProblem`] — the grouped CSR constraint/Jacobian/Hessian
//!   assembly (one unit per evaluation group, intervals from the
//!   `jac_off`/`hess_off` prefix offsets that drive `fill_groups_par`);
//! - [`LevelSweeper`] — the levelized SoA sweep (one unit per
//!   `(level, chunk)` pair over the shared counting-sort
//!   [`sgs_ssta::LevelSchedule`]);
//! - [`McPartition`] — the Monte Carlo `par_chunks_mut` sample partition
//!   with its exact-`u64` criticality merge.
//!
//! The declared plans are exactly what the kernels execute — the chunk
//! arithmetic is shared ([`rayon::chunk_bounds`], `LEVEL_CHUNK`, the same
//! offset arrays), and the cfg-gated shadow-write detector
//! (`sgs_trace::shadow`) cross-checks the declaration against stamped
//! writes at runtime. The `corrupt_overlap_*` hooks on each implementor
//! plant a false claim in the declaration (and, where applicable, in the
//! shadow stamps) so the mutation battery can prove planted races are
//! caught.

use crate::problem::SizingProblem;
use sgs_nlp::NlpProblem;
use sgs_ssta::monte_carlo::{McPartition, CHUNK};
use sgs_ssta::{LevelSweeper, LEVEL_CHUNK};

/// How a cross-unit merge combines per-unit partial results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeKind {
    /// Exact integer addition of `u64` tallies — associative, commutative
    /// and lossless, so merge order cannot change a bit.
    ExactU64Sum,
    /// A bitwise-commutative merge (e.g. element-wise `max`/`min`/`|` of
    /// fixed-point histogram buckets): any merge order gives identical
    /// bits.
    BitCommutative,
    /// Floating-point accumulation — NOT commutative at the bit level;
    /// allowed only in sequential (deterministically ordered) folds.
    FloatSum,
}

/// Merge kinds a *parallel* reduction may use without breaking the
/// bit-identity contract. Float accumulation is deliberately absent: a
/// float sum whose operand order depends on the execution schedule is an
/// Error-class diagnostic (`SGS-P005`).
pub const PARALLEL_MERGE_WHITELIST: [MergeKind; 2] =
    [MergeKind::ExactU64Sum, MergeKind::BitCommutative];

/// Whether `kind` is on the parallel-merge whitelist.
pub fn merge_whitelisted(kind: MergeKind) -> bool {
    PARALLEL_MERGE_WHITELIST.contains(&kind)
}

/// One declared reduction of per-unit partial results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReductionDecl {
    /// Stable reduction name (e.g. `"mc_criticality_merge"`).
    pub name: &'static str,
    /// Whether partial results are produced by parallel units (only then
    /// does the whitelist apply — a sequential fold has a fixed order).
    pub parallel: bool,
    /// How the partials are combined.
    pub kind: MergeKind,
}

/// The index intervals one parallel unit writes in one output array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteUnit {
    /// Human-readable unit label (e.g. `"group 12"`, `"level 3 chunk 0"`).
    pub label: String,
    /// Half-open `(start, end)` index intervals this unit writes.
    pub writes: Vec<(usize, usize)>,
}

/// The declared write partition of one output array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayPlan {
    /// Stable array name within the kernel (e.g. `"jacobian_vals"`).
    pub array: &'static str,
    /// Declared array length; the units must cover `0..len` exactly once.
    pub len: usize,
    /// The parallel units and their write sets.
    pub units: Vec<WriteUnit>,
}

/// The complete declared parallel behaviour of one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPlan {
    /// Stable kernel name (matches the shadow-write ledger's kernel key).
    pub kernel: &'static str,
    /// Output arrays and their write partitions.
    pub arrays: Vec<ArrayPlan>,
    /// Cross-unit reductions the kernel performs.
    pub reductions: Vec<ReductionDecl>,
}

/// Introspection trait: a kernel's concrete write-index sets per parallel
/// unit, as data the stage-4 certifier can reason about.
pub trait WritePlan {
    /// The kernel's declared write partition and reductions.
    fn write_plan(&self) -> KernelPlan;
}

/// Compresses a sorted index list into maximal half-open intervals.
fn runs(sorted: &[usize]) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    for &i in sorted {
        match out.last_mut() {
            Some(last) if last.1 == i => last.1 = i + 1,
            _ => out.push((i, i + 1)),
        }
    }
    out
}

impl WritePlan for SizingProblem {
    /// The grouped disjoint-slice assembly: one parallel unit per
    /// evaluation group, writing `groups[g]`'s contiguous residual slice
    /// and its `jac_off`/`hess_off` value blocks. The Hessian's objective
    /// block is written by the dispatching caller before the parallel
    /// fan-out; it appears as its own (sequential) unit.
    fn write_plan(&self) -> KernelPlan {
        let groups = self.plan_groups();
        let jac_off = self.plan_jac_off();
        let hess_off = self.plan_hess_off();
        let obj_len = self.plan_obj_hess_len();
        let ncons = self.num_constraints();

        let mut con_units = Vec::with_capacity(groups.len());
        let mut jac_units = Vec::with_capacity(groups.len());
        let mut hess_units = Vec::with_capacity(groups.len() + 1);
        if obj_len > 0 {
            hess_units.push(WriteUnit {
                label: "objective block".to_string(),
                writes: vec![(0, obj_len)],
            });
        }
        for (g, &(start, len)) in groups.iter().enumerate() {
            con_units.push(WriteUnit {
                label: format!("group {g}"),
                writes: vec![(start, start + len)],
            });
            let mut jac_end = jac_off[start + len];
            if self.plan_corrupt_jac_overlap() == Some(g) {
                // Planted race: this group also claims its neighbour's
                // first entry (or one past the array on the last group).
                jac_end += 1;
            }
            jac_units.push(WriteUnit {
                label: format!("group {g}"),
                writes: vec![(jac_off[start], jac_end)],
            });
            let mut hess_end = obj_len + hess_off[start + len];
            if self.plan_corrupt_hess_overlap() == Some(g) {
                hess_end += 1;
            }
            hess_units.push(WriteUnit {
                label: format!("group {g}"),
                writes: vec![(obj_len + hess_off[start], hess_end)],
            });
        }
        KernelPlan {
            kernel: "assembly",
            arrays: vec![
                ArrayPlan {
                    array: "constraints",
                    len: ncons,
                    units: con_units,
                },
                ArrayPlan {
                    array: "jacobian_vals",
                    len: *jac_off.last().unwrap(),
                    units: jac_units,
                },
                ArrayPlan {
                    array: "hessian_vals",
                    len: obj_len + *hess_off.last().unwrap(),
                    units: hess_units,
                },
            ],
            // Clark variance clamps fire inside parallel groups; they are
            // tallied by exact u64 atomic addition in sgs-metrics and
            // summed back to the dispatching thread's tally.
            reductions: vec![ReductionDecl {
                name: "clark_var_clamp_count",
                parallel: true,
                kind: MergeKind::ExactU64Sum,
            }],
        }
    }
}

impl WritePlan for LevelSweeper {
    /// The levelized sweep: one parallel unit per `(level, chunk)` pair
    /// of the shared counting-sort schedule, each writing the arrival
    /// slots of its chunk's gate ids. Proving this partition disjoint +
    /// covering certifies the one `LevelSchedule` implementation that
    /// also orders the incremental engine's dirty drain.
    fn write_plan(&self) -> KernelPlan {
        let sched = self.schedule();
        let mut units = Vec::new();
        for l in 0..sched.num_levels() {
            let gates = sched.level(l);
            for (ci, chunk) in gates.chunks(LEVEL_CHUNK).enumerate() {
                units.push(WriteUnit {
                    label: format!("level {l} chunk {ci}"),
                    // Gate ids ascend within a level, so `runs` sees a
                    // sorted list.
                    writes: runs(chunk),
                });
            }
        }
        if let Some(pos) = self.corrupt_overlap() {
            // Planted race: a phantom second unit claims this gate.
            let g = sched.order()[pos];
            units.push(WriteUnit {
                label: format!("phantom duplicate of gate {g}"),
                writes: vec![(g, g + 1)],
            });
        }
        KernelPlan {
            kernel: "level_sweep",
            arrays: vec![ArrayPlan {
                array: "arrivals",
                len: sched.num_gates(),
                units,
            }],
            reductions: Vec::new(),
        }
    }
}

impl WritePlan for McPartition {
    /// The Monte Carlo sample loop: one parallel unit per
    /// `par_chunks_mut(CHUNK)` chunk ([`rayon::chunk_bounds`] — the same
    /// arithmetic the shim executes), plus the run's two reductions: the
    /// parallel exact-`u64` criticality merge and the sequential
    /// trial-order moment fold.
    fn write_plan(&self) -> KernelPlan {
        let _ = CHUNK; // the partition arithmetic lives in chunk_bounds()
        let units = self
            .chunk_bounds()
            .into_iter()
            .enumerate()
            .map(|(ci, (start, end))| {
                let mut end = end;
                if self.corrupt_overlap() == Some(ci) {
                    // Planted race: this chunk also claims its
                    // neighbour's first sample (or one past the array on
                    // the last chunk).
                    end += 1;
                }
                WriteUnit {
                    label: format!("chunk {ci}"),
                    writes: vec![(start, end)],
                }
            })
            .collect();
        let mut reductions = vec![ReductionDecl {
            name: "mc_delay_moments",
            parallel: false,
            kind: MergeKind::FloatSum,
        }];
        if self.criticality() {
            reductions.push(ReductionDecl {
                name: "mc_criticality_merge",
                parallel: true,
                kind: if self.float_merge_corrupted() {
                    MergeKind::FloatSum
                } else {
                    MergeKind::ExactU64Sum
                },
            });
        }
        KernelPlan {
            kernel: "mc_samples",
            arrays: vec![ArrayPlan {
                array: "samples",
                len: self.samples(),
                units,
            }],
            reductions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DelaySpec, Objective};
    use sgs_netlist::{generate, Library};

    fn problem() -> SizingProblem {
        SizingProblem::build(
            &generate::ripple_carry_adder(8),
            &Library::paper_default(),
            Objective::Area,
            DelaySpec::MaxMean(40.0),
        )
    }

    fn covers_exactly(plan: &ArrayPlan) {
        let mut hits = vec![0u32; plan.len];
        for u in &plan.units {
            for &(s, e) in &u.writes {
                assert!(s <= e && e <= plan.len, "{}: bad interval", u.label);
                for h in &mut hits[s..e] {
                    *h += 1;
                }
            }
        }
        assert!(
            hits.iter().all(|&h| h == 1),
            "{}: partition not exact",
            plan.array
        );
    }

    #[test]
    fn assembly_plan_partitions_all_three_arrays() {
        let p = problem();
        let plan = p.write_plan();
        assert_eq!(plan.kernel, "assembly");
        assert_eq!(plan.arrays.len(), 3);
        for a in &plan.arrays {
            assert!(a.len > 0);
            covers_exactly(a);
        }
        assert!(plan.reductions.iter().all(|r| merge_whitelisted(r.kind)));
    }

    #[test]
    fn sweep_plan_partitions_arrivals() {
        let c = generate::ripple_carry_adder(16);
        let sweeper = sgs_ssta::LevelSweeper::new(&c);
        let plan = sweeper.write_plan();
        assert_eq!(plan.arrays.len(), 1);
        assert_eq!(plan.arrays[0].len, c.num_gates());
        covers_exactly(&plan.arrays[0]);
    }

    #[test]
    fn mc_plan_partitions_samples() {
        let mc = McPartition::new(20_000, true);
        let plan = mc.write_plan();
        covers_exactly(&plan.arrays[0]);
        assert_eq!(plan.arrays[0].units.len(), 20);
        let crit = plan
            .reductions
            .iter()
            .find(|r| r.name == "mc_criticality_merge")
            .unwrap();
        assert!(crit.parallel && merge_whitelisted(crit.kind));
        let moments = plan
            .reductions
            .iter()
            .find(|r| r.name == "mc_delay_moments")
            .unwrap();
        assert!(!moments.parallel, "moments fold is sequential");
    }

    #[test]
    fn corrupt_hooks_break_the_partition() {
        let mut p = problem();
        p.corrupt_overlap_jacobian_group(0);
        let plan = p.write_plan();
        let jac = &plan.arrays[1];
        let mut hits = vec![0u32; jac.len];
        for u in &jac.units {
            for &(s, e) in &u.writes {
                for h in &mut hits[s..e] {
                    *h += 1;
                }
            }
        }
        assert!(hits.iter().any(|&h| h > 1), "planted overlap visible");

        let mut mc = McPartition::new(4096, true);
        mc.corrupt_float_merge();
        let plan = mc.write_plan();
        let crit = plan
            .reductions
            .iter()
            .find(|r| r.name == "mc_criticality_merge")
            .unwrap();
        assert!(!merge_whitelisted(crit.kind));
    }
}
