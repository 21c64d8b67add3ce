//! Dynamic shadow-write overlap detection for parallel kernels.
//!
//! The static write-plan certifier (`sgs-analyze` stage 4) proves that
//! each parallel kernel's *declared* partition of its output arrays is
//! disjoint and covering. This module is the runtime counterpart: under
//! `--features shadow-write`, every parallel unit additionally stamps a
//! shadow ledger on each write it performs, and when the kernel finishes
//! the ledger is swept for two violations of the determinism contract:
//!
//! - **overlap** — the same output index stamped by two units (a data
//!   race under real parallel execution, and an order-dependence even
//!   under the deterministic shim);
//! - **missing** — a declared output index never stamped (the kernel's
//!   partition does not cover its output).
//!
//! Findings accumulate in a process-global registry, merged per
//! `(kernel, len)`, and are drained deterministically (sorted, bounded)
//! by [`take_reports`]. `sgs-analyze` converts them into `SGS-P006`
//! diagnostics; the CI thread matrix runs the Monte Carlo kernel (the one
//! parallel kernel) with this feature enabled at 1/2/4/8 threads.
//!
//! Without the feature, only the report *types* are compiled (so the
//! analyzer can always talk about shadow results); no stamping code
//! exists and kernels pay nothing.

/// One index observed written by two parallel units during a kernel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ShadowOverlap {
    /// The output index written twice.
    pub index: usize,
    /// Parallel unit that held the index first (kernel-defined ids).
    pub unit_a: u32,
    /// Parallel unit that wrote it again.
    pub unit_b: u32,
}

/// Aggregated shadow-ledger findings for one kernel + output length.
///
/// Reports merge across invocations of the same `(kernel, len)` pair, so
/// a solve that assembles the Jacobian 500 times produces one entry with
/// `invocations = 500`, not 500 entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowReport {
    /// Kernel identifier (matches the kernel's static `KernelPlan`).
    pub kernel: String,
    /// Declared output-array length the ledger covered.
    pub len: usize,
    /// Kernel invocations merged into this report.
    pub invocations: u64,
    /// Total stamped writes across all invocations.
    pub writes: u64,
    /// Distinct overlaps observed (sorted, bounded to
    /// [`MAX_OVERLAPS_PER_REPORT`]).
    pub overlaps: Vec<ShadowOverlap>,
    /// Total count of declared indices left unwritten, summed over
    /// invocations.
    pub missing: u64,
    /// Sample of unwritten indices (sorted, bounded to
    /// [`MAX_MISSING_SAMPLE`]).
    pub missing_sample: Vec<usize>,
}

impl ShadowReport {
    /// Whether this report records any violation (overlap or missing
    /// index).
    pub fn is_clean(&self) -> bool {
        self.overlaps.is_empty() && self.missing == 0
    }
}

/// Upper bound on distinct overlaps retained per `(kernel, len)` report.
pub const MAX_OVERLAPS_PER_REPORT: usize = 64;

/// Upper bound on unwritten-index samples retained per report.
pub const MAX_MISSING_SAMPLE: usize = 16;

#[cfg(feature = "shadow-write")]
mod active {
    use super::{ShadowOverlap, ShadowReport, MAX_MISSING_SAMPLE, MAX_OVERLAPS_PER_REPORT};
    use std::sync::Mutex;

    /// One contiguous half-open index range claimed by a parallel unit.
    #[derive(Debug, Clone, Copy)]
    struct Claim {
        unit: u32,
        start: usize,
        end: usize,
    }

    /// Process-global accumulator of finished-scope reports.
    static REGISTRY: Mutex<Vec<ShadowReport>> = Mutex::new(Vec::new());

    /// Live shadow ledger for one kernel invocation.
    ///
    /// Shared by reference across the kernel's worker threads (stamping
    /// takes `&self`); swept and folded into the global registry on drop.
    #[derive(Debug)]
    pub struct ShadowScope {
        kernel: &'static str,
        len: usize,
        claims: Mutex<Vec<Claim>>,
    }

    /// Opens a shadow ledger for one invocation of `kernel` whose
    /// parallel units collectively must write indices `0..len` exactly
    /// once.
    pub fn begin(kernel: &'static str, len: usize) -> ShadowScope {
        ShadowScope {
            kernel,
            len,
            claims: Mutex::new(Vec::new()),
        }
    }

    impl ShadowScope {
        /// Stamps a single write of `index` by `unit`.
        pub fn stamp(&self, unit: u32, index: usize) {
            self.stamp_range(unit, index, index + 1);
        }

        /// Stamps a write of the half-open range `start..end` by `unit`.
        ///
        /// Adjacent ranges from the same unit coalesce, so per-element
        /// stamping of a contiguous fill costs O(1) ledger entries.
        pub fn stamp_range(&self, unit: u32, start: usize, end: usize) {
            if start >= end {
                return;
            }
            let mut claims = self.claims.lock().unwrap();
            if let Some(last) = claims.last_mut() {
                if last.unit == unit && last.end == start {
                    last.end = end;
                    return;
                }
            }
            claims.push(Claim { unit, start, end });
        }
    }

    impl Drop for ShadowScope {
        fn drop(&mut self) {
            let mut claims = std::mem::take(&mut *self.claims.lock().unwrap());
            claims.sort_by_key(|c| (c.start, c.end, c.unit));

            let mut overlaps: Vec<ShadowOverlap> = Vec::new();
            let mut missing = 0u64;
            let mut missing_sample: Vec<usize> = Vec::new();
            let mut writes = 0u64;
            // Sweep: track the furthest end seen and its owner. A claim
            // starting before that end overlaps; a claim starting after
            // it leaves a gap.
            let mut cursor = 0usize; // next index expected covered
            let mut cursor_unit = 0u32;
            for c in &claims {
                writes += (c.end - c.start) as u64;
                if c.start < cursor {
                    overlaps.push(ShadowOverlap {
                        index: c.start,
                        unit_a: cursor_unit,
                        unit_b: c.unit,
                    });
                } else if c.start > cursor {
                    let gap = c.start.min(self.len).saturating_sub(cursor);
                    missing += gap as u64;
                    let mut i = cursor;
                    while i < c.start.min(self.len) && missing_sample.len() < MAX_MISSING_SAMPLE {
                        missing_sample.push(i);
                        i += 1;
                    }
                }
                if c.end > cursor {
                    cursor = c.end;
                    cursor_unit = c.unit;
                }
            }
            if cursor < self.len {
                missing += (self.len - cursor) as u64;
                let mut i = cursor;
                while i < self.len && missing_sample.len() < MAX_MISSING_SAMPLE {
                    missing_sample.push(i);
                    i += 1;
                }
            }
            overlaps.sort();
            overlaps.dedup();
            overlaps.truncate(MAX_OVERLAPS_PER_REPORT);

            let mut reg = REGISTRY.lock().unwrap();
            let entry = reg
                .iter_mut()
                .find(|r| r.kernel == self.kernel && r.len == self.len);
            match entry {
                Some(r) => {
                    r.invocations += 1;
                    r.writes += writes;
                    r.missing += missing;
                    for ov in overlaps {
                        if r.overlaps.len() < MAX_OVERLAPS_PER_REPORT && !r.overlaps.contains(&ov) {
                            r.overlaps.push(ov);
                        }
                    }
                    r.overlaps.sort();
                    for i in missing_sample {
                        if r.missing_sample.len() < MAX_MISSING_SAMPLE
                            && !r.missing_sample.contains(&i)
                        {
                            r.missing_sample.push(i);
                        }
                    }
                    r.missing_sample.sort_unstable();
                }
                None => reg.push(ShadowReport {
                    kernel: self.kernel.to_string(),
                    len: self.len,
                    invocations: 1,
                    writes,
                    overlaps,
                    missing,
                    missing_sample,
                }),
            }
        }
    }

    /// Drains and returns all accumulated reports, sorted by
    /// `(kernel, len)` for deterministic output.
    pub fn take_reports() -> Vec<ShadowReport> {
        let mut reports = std::mem::take(&mut *REGISTRY.lock().unwrap());
        reports.sort_by(|a, b| a.kernel.cmp(&b.kernel).then(a.len.cmp(&b.len)));
        reports
    }

    /// Discards all accumulated reports.
    pub fn reset() {
        REGISTRY.lock().unwrap().clear();
    }

    /// Total overlaps currently accumulated across all reports (without
    /// draining).
    pub fn overlap_total() -> u64 {
        REGISTRY
            .lock()
            .unwrap()
            .iter()
            .map(|r| r.overlaps.len() as u64)
            .sum()
    }
}

#[cfg(feature = "shadow-write")]
pub use active::{begin, overlap_total, reset, take_reports, ShadowScope};

#[cfg(all(test, feature = "shadow-write"))]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// The registry is process-global; serialize tests touching it.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard() -> MutexGuard<'static, ()> {
        let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        g
    }

    #[test]
    fn clean_partition_reports_clean() {
        let _g = guard();
        {
            let s = begin("k_clean", 10);
            s.stamp_range(0, 0, 5);
            s.stamp_range(1, 5, 10);
        }
        let reports = take_reports();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].is_clean());
        assert_eq!(reports[0].writes, 10);
        assert_eq!(reports[0].invocations, 1);
    }

    #[test]
    fn overlap_and_gap_detected() {
        let _g = guard();
        {
            let s = begin("k_bad", 10);
            s.stamp_range(0, 0, 5);
            s.stamp_range(1, 4, 8); // overlaps index 4
                                    // indices 8, 9 never stamped
        }
        let reports = take_reports();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(
            r.overlaps,
            vec![ShadowOverlap {
                index: 4,
                unit_a: 0,
                unit_b: 1
            }]
        );
        assert_eq!(r.missing, 2);
        assert_eq!(r.missing_sample, vec![8, 9]);
    }

    #[test]
    fn per_element_stamps_coalesce_and_merge_across_invocations() {
        let _g = guard();
        for _ in 0..3 {
            let s = begin("k_merge", 4);
            for i in 0..4 {
                s.stamp(0, i);
            }
        }
        let reports = take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].invocations, 3);
        assert_eq!(reports[0].writes, 12);
        assert!(reports[0].is_clean());
        assert!(take_reports().is_empty(), "take drains the registry");
    }

    #[test]
    fn threaded_stamps_are_seen() {
        let _g = guard();
        {
            let s = begin("k_thread", 64);
            std::thread::scope(|scope| {
                for t in 0..4usize {
                    let s = &s;
                    scope.spawn(move || {
                        for i in (t * 16)..(t * 16 + 16) {
                            s.stamp(t as u32, i);
                        }
                    });
                }
            });
        }
        let reports = take_reports();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].is_clean(), "{:?}", reports[0]);
        assert_eq!(reports[0].writes, 64);
    }
}
