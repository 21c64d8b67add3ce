//! Structure-of-arrays arrival storage and the level-batched sweep.
//!
//! The levelized propagation used to hop through per-gate [`Normal`]
//! structs and collect each level into a freshly allocated vector. This
//! module replaces that layout with contiguous `(mu, var)` arrays — one
//! pair for the circuit-wide arrival state ([`ArrivalSoa`]), one pair per
//! in-flight level — so a whole level's stochastic-max folds stream
//! through [`sgs_statmath::clark::max_batch`] instead of calling the
//! scalar kernel gate by gate. The same storage backs all three
//! propagation paths (sequential full pass, level-parallel pass, and the
//! incremental engine's dirty-cone updates), which read it through the
//! [`ArrivalRead`] abstraction.
//!
//! # Bit-identity
//!
//! Every lane of `max_batch` performs exactly the scalar
//! [`sgs_statmath::clark::max_eps`] operations, and the sweep folds each
//! gate's fan-ins in the same left-to-right order as
//! [`crate::analysis::gate_arrival`]. Chunking a level — for parallelism
//! or for the unrolled kernel — regroups *calls*, never the per-lane
//! arithmetic, so sequential, batched and parallel-batched sweeps produce
//! identical bits. `tests/integration_parallel.rs` and the proptest
//! oracle in `sgs-statmath` pin this.

use crate::analysis::arrival_of;
use crate::delay::DelayModel;
use crate::levels::LevelSchedule;
use rayon::prelude::*;
use sgs_netlist::{Circuit, GateId};
use sgs_statmath::{clark, Normal};

/// Read access to per-gate arrival distributions, indexed by gate id.
///
/// Lets the pure propagation functions ([`crate::analysis::gate_arrival`]
/// and friends) run unchanged over both the legacy array-of-structs form
/// (`[Normal]`, as held in an [`crate::SstaReport`]) and the contiguous
/// [`ArrivalSoa`] the sweeps and the incremental engine use internally.
pub trait ArrivalRead {
    /// Arrival distribution at gate `idx`.
    fn arrival(&self, idx: usize) -> Normal;
}

impl ArrivalRead for [Normal] {
    #[inline]
    fn arrival(&self, idx: usize) -> Normal {
        self[idx]
    }
}

impl ArrivalRead for Vec<Normal> {
    #[inline]
    fn arrival(&self, idx: usize) -> Normal {
        self[idx]
    }
}

/// Per-gate arrival moments in structure-of-arrays layout: one contiguous
/// mean array and one contiguous variance array, indexed by gate id.
///
/// This is the shared arrival storage of the analysis paths. Splitting
/// the [`Normal`] pair is lossless — the type stores `(mean, var)` — and
/// the flat arrays are what the batched Clark kernel gathers from and
/// scatters to without per-gate struct hops.
#[derive(Debug, Clone, Default)]
pub struct ArrivalSoa {
    mu: Vec<f64>,
    var: Vec<f64>,
}

impl ArrivalSoa {
    /// Empty storage with room for `n` gates.
    pub fn with_capacity(n: usize) -> Self {
        ArrivalSoa {
            mu: Vec::with_capacity(n),
            var: Vec::with_capacity(n),
        }
    }

    /// Zero-arrival storage for `n` gates.
    pub fn zeroed(n: usize) -> Self {
        ArrivalSoa {
            mu: vec![0.0; n],
            var: vec![0.0; n],
        }
    }

    /// Number of gates stored.
    pub fn len(&self) -> usize {
        self.mu.len()
    }

    /// Whether no arrivals are stored.
    pub fn is_empty(&self) -> bool {
        self.mu.is_empty()
    }

    /// Appends one arrival.
    pub fn push(&mut self, a: Normal) {
        self.mu.push(a.mean());
        self.var.push(a.var());
    }

    /// The arrival at gate `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> Normal {
        Normal::from_mean_var(self.mu[idx], self.var[idx])
    }

    /// Overwrites the arrival at gate `idx`.
    #[inline]
    pub fn set(&mut self, idx: usize, a: Normal) {
        self.mu[idx] = a.mean();
        self.var[idx] = a.var();
    }

    /// Raw moment write, used by the sweep's scatter loop.
    #[inline]
    pub(crate) fn set_raw(&mut self, idx: usize, mu: f64, var: f64) {
        self.mu[idx] = mu;
        self.var[idx] = var;
    }

    /// Iterates the stored arrivals in gate order.
    pub fn iter(&self) -> impl Iterator<Item = Normal> + '_ {
        self.mu
            .iter()
            .zip(&self.var)
            .map(|(&m, &v)| Normal::from_mean_var(m, v))
    }

    /// The contiguous mean array.
    pub fn mu(&self) -> &[f64] {
        &self.mu
    }

    /// The contiguous variance array.
    pub fn var(&self) -> &[f64] {
        &self.var
    }

    /// Converts to the array-of-structs form used in reports.
    pub fn to_normals(&self) -> Vec<Normal> {
        self.iter().collect()
    }
}

impl ArrivalRead for ArrivalSoa {
    #[inline]
    fn arrival(&self, idx: usize) -> Normal {
        Normal::from_mean_var(self.mu[idx], self.var[idx])
    }
}

/// Gates handed to one batched work unit. Also the split width of the
/// level-parallel path: chunk boundaries regroup kernel calls, never
/// per-lane arithmetic, so the chunking cannot affect results. Public so
/// the write-plan introspection layer (`sgs-core::plan`) describes the
/// exact partition the sweep executes.
pub const LEVEL_CHUNK: usize = 256;

/// Scratch for one batched work unit: fold accumulators plus the
/// gather/output quads fed to [`clark::max_batch`]. All buffers are
/// reused across levels and sweeps.
#[derive(Debug, Clone, Default)]
struct ChunkScratch {
    acc_mu: Vec<f64>,
    acc_var: Vec<f64>,
    a_mu: Vec<f64>,
    a_var: Vec<f64>,
    b_mu: Vec<f64>,
    b_var: Vec<f64>,
    o_mu: Vec<f64>,
    o_var: Vec<f64>,
    /// Chunk-local positions still folding at the current fan-in round.
    sub: Vec<usize>,
}

impl ChunkScratch {
    fn ensure(&mut self, n: usize) {
        if self.acc_mu.len() < n {
            for v in [
                &mut self.acc_mu,
                &mut self.acc_var,
                &mut self.a_mu,
                &mut self.a_var,
                &mut self.b_mu,
                &mut self.b_var,
                &mut self.o_mu,
                &mut self.o_var,
            ] {
                v.resize(n, 0.0);
            }
            self.sub.reserve(n.saturating_sub(self.sub.capacity()));
        }
    }
}

/// Level-batched arrival sweep over one circuit.
///
/// Construction groups the gates by topological level into one flat
/// index array (a CSR over levels) and allocates every scratch buffer the
/// sweep needs; [`LevelSweeper::sweep`] then propagates arrivals for any
/// speed vector without further allocation. Large levels are split into
/// [`LEVEL_CHUNK`]-gate work units processed in parallel when more than
/// one rayon thread is available.
#[derive(Debug)]
pub struct LevelSweeper {
    /// The shared counting-sort level schedule (the write partition the
    /// stage-4 certifier proves disjoint + covering).
    schedule: LevelSchedule,
    /// Per-level contiguous output moments (sized to the widest level).
    out_mu: Vec<f64>,
    out_var: Vec<f64>,
    /// Whole-level scratch for the sequential path.
    whole: ChunkScratch,
    /// Per-chunk scratch pool for the parallel path.
    chunks: Vec<ChunkScratch>,
    /// Planted fault: position in the schedule's `order` whose gate a
    /// second parallel unit falsely claims (plan + shadow stamps).
    corrupt_dup: Option<usize>,
}

impl LevelSweeper {
    /// Builds the level schedule and scratch for `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let schedule = LevelSchedule::for_circuit(circuit);
        let widest = schedule.widest();
        let mut whole = ChunkScratch::default();
        whole.ensure(widest);
        let nchunks = widest.div_ceil(LEVEL_CHUNK.max(1));
        let mut chunks = vec![ChunkScratch::default(); nchunks];
        for c in &mut chunks {
            c.ensure(LEVEL_CHUNK);
        }
        LevelSweeper {
            schedule,
            out_mu: vec![0.0; widest],
            out_var: vec![0.0; widest],
            whole,
            chunks,
            corrupt_dup: None,
        }
    }

    /// The level schedule this sweeper executes.
    pub fn schedule(&self) -> &LevelSchedule {
        &self.schedule
    }

    /// Fault-injection hook for the stage-4 mutation battery: makes a
    /// second parallel unit claim the gate at schedule-order position
    /// `pos`, both in the declared write plan and in the shadow-write
    /// stamps. Test-only; never used by the production sweep itself.
    #[doc(hidden)]
    pub fn corrupt_overlap_gate(&mut self, pos: usize) {
        assert!(pos < self.schedule.num_gates(), "corrupt position in range");
        self.corrupt_dup = Some(pos);
    }

    /// The planted [`LevelSweeper::corrupt_overlap_gate`] position, if
    /// any (read by the write-plan layer).
    #[doc(hidden)]
    pub fn corrupt_overlap(&self) -> Option<usize> {
        self.corrupt_dup
    }

    /// Propagates arrivals for speed vector `s` into `arrivals`, level by
    /// level. `arrivals` must hold one slot per gate (earlier contents
    /// are overwritten in dependency order). Bit-identical to the
    /// sequential per-gate fold at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals.len() != circuit.num_gates()`.
    pub fn sweep(
        &mut self,
        circuit: &Circuit,
        model: &DelayModel,
        s: &[f64],
        input_arrivals: Option<&[Normal]>,
        arrivals: &mut ArrivalSoa,
    ) {
        assert_eq!(
            arrivals.len(),
            circuit.num_gates(),
            "arrival storage length mismatch"
        );
        let LevelSweeper {
            schedule,
            out_mu,
            out_var,
            whole,
            chunks,
            corrupt_dup,
        } = self;
        #[cfg(feature = "shadow-write")]
        let shadow = sgs_trace::shadow::begin("level_sweep", schedule.num_gates());
        #[cfg(feature = "shadow-write")]
        if let Some(pos) = *corrupt_dup {
            // Planted race: a phantom second unit claims this gate.
            shadow.stamp(u32::MAX, schedule.order()[pos]);
        }
        #[cfg(not(feature = "shadow-write"))]
        let _ = corrupt_dup;
        let parallel = rayon::current_num_threads() > 1;
        // Global parallel-unit counter across levels, matching the unit
        // numbering of the declared write plan.
        let mut unit0 = 0u32;
        for l in 0..schedule.num_levels() {
            let gates = schedule.level(l);
            let m = gates.len();
            if m == 0 {
                continue;
            }
            let out_mu = &mut out_mu[..m];
            let out_var = &mut out_var[..m];
            let nchunks = m.div_ceil(LEVEL_CHUNK);
            if parallel && m > LEVEL_CHUNK {
                let read: &ArrivalSoa = arrivals;
                #[cfg(feature = "shadow-write")]
                let shadow = &shadow;
                // Clamps fired on the workers are credited back to this
                // thread, so per-thread clamp tallies stay exact.
                let clamps: u64 = chunks[..nchunks]
                    .par_iter_mut()
                    .zip(out_mu.par_chunks_mut(LEVEL_CHUNK))
                    .zip(out_var.par_chunks_mut(LEVEL_CHUNK))
                    .enumerate()
                    .map(|(ci, ((scr, omu), ovar))| {
                        let start = ci * LEVEL_CHUNK;
                        let gs = &gates[start..start + omu.len()];
                        #[cfg(feature = "shadow-write")]
                        for &g in gs {
                            shadow.stamp(unit0 + ci as u32, g);
                        }
                        clark::take_var_clamps(|| {
                            sweep_chunk(circuit, model, s, read, input_arrivals, gs, scr, omu, ovar)
                        })
                        .1
                    })
                    .sum();
                clark::credit_var_clamps(clamps);
            } else {
                #[cfg(feature = "shadow-write")]
                for (j, &g) in gates.iter().enumerate() {
                    shadow.stamp(unit0 + (j / LEVEL_CHUNK) as u32, g);
                }
                sweep_chunk(
                    circuit,
                    model,
                    s,
                    arrivals,
                    input_arrivals,
                    gates,
                    whole,
                    out_mu,
                    out_var,
                );
            }
            for (j, &g) in gates.iter().enumerate() {
                arrivals.set_raw(g, out_mu[j], out_var[j]);
            }
            unit0 += nchunks as u32;
        }
        let _ = unit0;
    }
}

/// Folds one chunk of a level: gathers fan-in moments round by round,
/// runs each round through the batched Clark kernel, then adds the gate
/// delays. Round `r` combines each still-folding gate's accumulator with
/// its `r`-th fan-in — the same left fold, gate by gate, as the scalar
/// [`crate::analysis::gate_arrival`].
#[allow(clippy::too_many_arguments)]
fn sweep_chunk(
    circuit: &Circuit,
    model: &DelayModel,
    s: &[f64],
    arrivals: &ArrivalSoa,
    input_arrivals: Option<&[Normal]>,
    gates: &[usize],
    scr: &mut ChunkScratch,
    out_mu: &mut [f64],
    out_var: &mut [f64],
) {
    let m = gates.len();
    scr.ensure(m);
    let ChunkScratch {
        acc_mu,
        acc_var,
        a_mu,
        a_var,
        b_mu,
        b_var,
        o_mu,
        o_var,
        sub,
    } = scr;
    for (j, &g) in gates.iter().enumerate() {
        let first = arrival_of(circuit.gate(GateId(g)).inputs[0], arrivals, input_arrivals);
        acc_mu[j] = first.mean();
        acc_var[j] = first.var();
    }
    let mut round = 1;
    loop {
        sub.clear();
        for (j, &g) in gates.iter().enumerate() {
            if circuit.gate(GateId(g)).inputs.len() > round {
                sub.push(j);
            }
        }
        if sub.is_empty() {
            break;
        }
        let k = sub.len();
        for (t, &j) in sub.iter().enumerate() {
            a_mu[t] = acc_mu[j];
            a_var[t] = acc_var[j];
            let b = arrival_of(
                circuit.gate(GateId(gates[j])).inputs[round],
                arrivals,
                input_arrivals,
            );
            b_mu[t] = b.mean();
            b_var[t] = b.var();
        }
        clark::max_batch(
            &a_mu[..k],
            &a_var[..k],
            &b_mu[..k],
            &b_var[..k],
            clark::DEFAULT_EPS,
            &mut o_mu[..k],
            &mut o_var[..k],
        );
        for (t, &j) in sub.iter().enumerate() {
            acc_mu[j] = o_mu[t];
            acc_var[j] = o_var[t];
        }
        round += 1;
    }
    for (j, &g) in gates.iter().enumerate() {
        let d = model.gate_delay(GateId(g), s);
        out_mu[j] = acc_mu[j] + d.mean();
        out_var[j] = acc_var[j] + d.var();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_netlist::{generate, Library};

    fn lib() -> Library {
        Library::paper_default()
    }

    fn assert_soa_matches_sequential(circuit: &Circuit, s: &[f64]) {
        let model = DelayModel::new(circuit, &lib());
        let seq = crate::analysis::arrivals_sequential(circuit, &model, s, None);
        let mut sweeper = LevelSweeper::new(circuit);
        let mut soa = ArrivalSoa::zeroed(circuit.num_gates());
        sweeper.sweep(circuit, &model, s, None, &mut soa);
        for i in 0..circuit.num_gates() {
            assert_eq!(
                soa.mu()[i].to_bits(),
                seq.mu()[i].to_bits(),
                "mu of gate {i}"
            );
            assert_eq!(
                soa.var()[i].to_bits(),
                seq.var()[i].to_bits(),
                "var of gate {i}"
            );
        }
    }

    #[test]
    fn sweep_bitwise_matches_sequential_fold() {
        for c in [
            generate::tree7(),
            generate::inverter_chain(9),
            generate::ripple_carry_adder(16),
        ] {
            let s: Vec<f64> = (0..c.num_gates()).map(|i| 1.0 + 0.03 * i as f64).collect();
            assert_soa_matches_sequential(&c, &s);
        }
    }

    #[test]
    fn sweep_is_reusable_across_speed_vectors() {
        let c = generate::ripple_carry_adder(10);
        let n = c.num_gates();
        let model = DelayModel::new(&c, &lib());
        let mut sweeper = LevelSweeper::new(&c);
        let mut soa = ArrivalSoa::zeroed(n);
        for step in 0..4 {
            let s: Vec<f64> = (0..n)
                .map(|i| 1.0 + 0.1 * ((i + step) % 5) as f64)
                .collect();
            sweeper.sweep(&c, &model, &s, None, &mut soa);
            let seq = crate::analysis::arrivals_sequential(&c, &model, &s, None);
            for i in 0..n {
                assert_eq!(soa.mu()[i].to_bits(), seq.mu()[i].to_bits(), "step {step}");
            }
        }
    }

    #[test]
    fn soa_roundtrips_normals() {
        let mut soa = ArrivalSoa::with_capacity(3);
        let xs = [
            Normal::new(1.0, 0.5),
            Normal::new(2.0, 0.0),
            Normal::from_mean_var(3.0, 9.0),
        ];
        for &x in &xs {
            soa.push(x);
        }
        assert_eq!(soa.len(), 3);
        assert!(!soa.is_empty());
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(soa.get(i), x);
            assert_eq!(soa.arrival(i), x);
        }
        soa.set(1, xs[2]);
        assert_eq!(soa.get(1), xs[2]);
        assert_eq!(soa.to_normals()[0], xs[0]);
    }
}
