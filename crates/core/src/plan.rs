//! Write-plan introspection: every parallel kernel declares its writes.
//!
//! The determinism contract of this reproduction — bit-identical results
//! at any thread count — rests on each parallel kernel partitioning its
//! output arrays into disjoint, covering per-unit write sets, and on
//! every cross-unit merge being bit-commutative. Those properties used to
//! live only in hand-maintained index arithmetic (chunk bounds). This
//! module makes them *declarative*: the [`WritePlan`] trait exports, for
//! each kernel, the concrete half-open index intervals every parallel
//! unit writes, plus the reductions it performs, so the stage-4 certifier
//! in `sgs-analyze` can statically prove disjointness and coverage and
//! lint the merges against the bit-commutative whitelist.
//!
//! One plan family is implemented here: [`McPartition`], the Monte Carlo
//! `par_chunks_mut` sample partition with its exact-`u64` criticality
//! merge — the one parallel kernel left (NLP assembly and full SSTA are
//! serial; DESIGN.md §9 records why).
//!
//! The declared plan is exactly what the kernel executes — the chunk
//! arithmetic is shared ([`rayon::chunk_bounds`]), and the cfg-gated
//! shadow-write detector (`sgs_trace::shadow`) cross-checks the
//! declaration against stamped writes at runtime. The `corrupt_*` hooks
//! on [`McPartition`] plant a false claim in the declaration so the
//! mutation battery can prove planted races are caught.

use sgs_ssta::monte_carlo::{McPartition, CHUNK};

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
        let mut mc = McPartition::new(4096, true);
        mc.corrupt_overlap_chunk(0);
        let plan = mc.write_plan();
        let samples = &plan.arrays[0];
        let mut hits = vec![0u32; samples.len + 1];
        for u in &samples.units {
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
