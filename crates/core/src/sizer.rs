//! High-level sizing driver: seed, solve, extract, cross-check.
//!
//! # Robustness policy
//!
//! A full-space solve that *diverges* (non-finite objective, constraint or
//! iterate — [`sgs_nlp::auglag::SolveStatus::Diverged`]) is retried up to
//! [`Sizer::max_restarts`] times from deterministically perturbed warm
//! starts. If afterwards neither the full-space result nor the
//! reduced-space warm start meets the delay spec, a TILOS-style greedy
//! descent ([`crate::greedy`]) is tried as a last resort before giving up
//! with [`SizeError::SolverFailed`]. Each escalation step emits a
//! [`sgs_trace::TraceEvent::Restart`] record, so a run report shows *how*
//! a solution was reached, not just that one was.

use crate::greedy::{self, GreedyOptions};
use crate::problem::SizingProblem;
use crate::reduced::{self, ReducedOptions};
use crate::spec::{DelaySpec, Objective};
use sgs_netlist::{Circuit, Library};
use sgs_nlp::auglag::{self, AugLagOptions, SolveStatus};
use sgs_nlp::{EvalCounts, NlpProblem};
use sgs_statmath::Normal;
use sgs_trace::{TraceEvent, TraceSink, Tracer};
use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::time::Instant;

/// Which solver carries the optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverChoice {
    /// Reduced-space warm start followed by the full-space
    /// augmented-Lagrangian solve (the paper's formulation). Default.
    #[default]
    FullSpace,
    /// Reduced-space (adjoint + projected L-BFGS with penalty) only — the
    /// baseline alternative.
    ReducedSpace,
}

/// Errors from [`Sizer::solve`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SizeError {
    /// The optimiser failed to converge to a feasible first-order point.
    SolverFailed {
        /// Solver status.
        status: String,
        /// Final constraint violation.
        c_norm: f64,
    },
    /// An attached [`Preflight`] gate refused the task before any solver
    /// iteration ran (Error-severity static-analysis findings).
    PreflightFailed {
        /// Human-readable summary of the blocking findings.
        summary: String,
    },
}

impl fmt::Display for SizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizeError::SolverFailed { status, c_norm } => {
                write!(f, "sizing solver failed ({status}, |c| = {c_norm:.2e})")
            }
            SizeError::PreflightFailed { summary } => {
                write!(f, "pre-solve static analysis refused the task: {summary}")
            }
        }
    }
}

impl Error for SizeError {}

/// A pre-solve static gate the [`Sizer`] runs before building or solving
/// anything.
///
/// Implemented by `sgs-analyze` (which this crate cannot depend on — the
/// dependency points the other way), so the sizer can refuse to start on
/// Error-severity findings without knowing how they are produced. A
/// failing check aborts [`Sizer::solve`] with
/// [`SizeError::PreflightFailed`] and costs no solver iterations.
pub trait Preflight {
    /// Checks the exact task the sizer is about to run. `Err` carries a
    /// human-readable summary of the blocking findings.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the task must not be solved (the implementor's
    /// severity policy decides what blocks).
    fn check(
        &self,
        circuit: &Circuit,
        lib: &Library,
        objective: &Objective,
        delay_spec: &DelaySpec,
    ) -> Result<(), String>;
}

/// Result of a sizing run.
#[derive(Debug, Clone)]
pub struct SizingResult {
    /// Optimised speed factors, one per gate.
    pub s: Vec<f64>,
    /// Circuit delay distribution at `s` (recomputed by a clean SSTA pass
    /// — i.e. `(mu_Tmax, sigma_Tmax)` as the paper's tables report).
    pub delay: Normal,
    /// Area measure `sum S_i`.
    pub area: f64,
    /// Objective value reached.
    pub objective: f64,
    /// Outer (augmented-Lagrangian) iterations, 0 for reduced-space runs.
    pub outer_iterations: usize,
    /// Inner iterations (trust-region or L-BFGS).
    pub inner_iterations: usize,
    /// Final equality-constraint violation (full space only).
    pub c_norm: f64,
    /// Wall-clock seconds spent in the solver.
    pub seconds: f64,
    /// Underlying NLP evaluations performed by the full-space solve
    /// (zeros for reduced-space runs, which count L-BFGS iterations
    /// instead).
    pub evals: EvalCounts,
    /// How many Clark-max evaluations clamped a negative variance to zero
    /// during this solve (delta of the solving thread's
    /// [`sgs_statmath::clark::thread_var_clamp_count`], which parallel
    /// assembly credits its workers' clamps to, so concurrent solves
    /// cannot inflate it). Also emitted as the `clark_var_clamped` trace
    /// counter.
    pub clark_var_clamps: u64,
}

impl SizingResult {
    /// `mu_Tmax + k sigma_Tmax` at the solution.
    pub fn mean_plus_k_sigma(&self, k: f64) -> f64 {
        self.delay.mean_plus_k_sigma(k)
    }
}

/// Builder-style driver for sizing runs.
///
/// ```
/// use sgs_core::{DelaySpec, Objective, Sizer};
/// use sgs_netlist::{generate, Library};
///
/// let circuit = generate::tree7();
/// let lib = Library::paper_default();
/// let result = Sizer::new(&circuit, &lib)
///     .objective(Objective::Area)
///     .delay_spec(DelaySpec::MaxMean(6.5))
///     .solve()?;
/// assert!(result.delay.mean() <= 6.5 + 1e-3);
/// # Ok::<(), sgs_core::SizeError>(())
/// ```
#[derive(Clone)]
pub struct Sizer<'a> {
    circuit: &'a Circuit,
    lib: &'a Library,
    objective: Objective,
    delay_spec: DelaySpec,
    solver: SolverChoice,
    al_options: AugLagOptions,
    reduced_options: ReducedOptions,
    s0: Option<Vec<f64>>,
    input_arrivals: Option<Vec<Normal>>,
    trace: Option<&'a dyn TraceSink>,
    max_restarts: usize,
    poison_nan_after: Option<usize>,
    preflight: Option<&'a dyn Preflight>,
}

impl fmt::Debug for Sizer<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sizer")
            .field("objective", &self.objective)
            .field("delay_spec", &self.delay_spec)
            .field("solver", &self.solver)
            .field("al_options", &self.al_options)
            .field("reduced_options", &self.reduced_options)
            .field("s0", &self.s0)
            .field("input_arrivals", &self.input_arrivals)
            .field("trace", &self.trace.map(|_| "dyn TraceSink"))
            .field("max_restarts", &self.max_restarts)
            .field("poison_nan_after", &self.poison_nan_after)
            .field("preflight", &self.preflight.map(|_| "dyn Preflight"))
            .finish()
    }
}

impl<'a> Sizer<'a> {
    /// Starts a sizing run with the default objective
    /// ([`Objective::MeanDelay`]) and no delay constraint.
    pub fn new(circuit: &'a Circuit, lib: &'a Library) -> Self {
        Sizer {
            circuit,
            lib,
            objective: Objective::MeanDelay,
            delay_spec: DelaySpec::None,
            solver: SolverChoice::FullSpace,
            al_options: AugLagOptions {
                tol_feas: 1e-6,
                tol_opt: 1e-4,
                ..Default::default()
            },
            reduced_options: ReducedOptions::default(),
            s0: None,
            input_arrivals: None,
            trace: None,
            max_restarts: 2,
            poison_nan_after: None,
            preflight: None,
        }
    }

    /// Attaches a pre-solve static gate (see [`Preflight`]); the solve
    /// then refuses to start — with [`SizeError::PreflightFailed`] — when
    /// the gate rejects the task. Default is no gate.
    pub fn preflight(mut self, gate: &'a dyn Preflight) -> Self {
        self.preflight = Some(gate);
        self
    }

    /// Attaches a trace sink. The solve then emits phase spans
    /// (`reduced_space`, `build_problem`, `auglag`, `evaluate`, `report`),
    /// the augmented-Lagrangian outer-iteration records, and restart /
    /// divergence events. The default is no sink, which costs nothing on
    /// the hot path.
    pub fn trace(mut self, sink: &'a dyn TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// Maximum perturbed-restart attempts after a diverged full-space
    /// solve (default 2). `0` disables restarts; the greedy fallback still
    /// applies.
    pub fn max_restarts(mut self, n: usize) -> Self {
        self.max_restarts = n;
        self
    }

    /// Fault injection for robustness tests: the full-space NLP objective
    /// returns `NaN` from its `n`-th evaluation onward (per solve
    /// attempt). Exercises the divergence-detection and restart/fallback
    /// machinery deterministically; never use outside tests.
    pub fn poison_nan_after(mut self, n: usize) -> Self {
        self.poison_nan_after = Some(n);
        self
    }

    /// Sets the objective.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the delay constraint.
    pub fn delay_spec(mut self, spec: DelaySpec) -> Self {
        self.delay_spec = spec;
        self
    }

    /// Selects the solver.
    pub fn solver(mut self, solver: SolverChoice) -> Self {
        self.solver = solver;
        self
    }

    /// Overrides the augmented-Lagrangian options.
    pub fn al_options(mut self, opts: AugLagOptions) -> Self {
        self.al_options = opts;
        self
    }

    /// Overrides the reduced-space options.
    pub fn reduced_options(mut self, opts: ReducedOptions) -> Self {
        self.reduced_options = opts;
        self
    }

    /// Supplies explicit starting speed factors (default: all 1, refined
    /// by a reduced-space warm start).
    pub fn initial_s(mut self, s0: Vec<f64>) -> Self {
        self.s0 = Some(s0);
        self
    }

    /// Supplies primary-input arrival-time distributions (default:
    /// deterministic arrival at 0, the paper's setting). Use this to size
    /// under uncertain upstream-block or interface timing.
    pub fn input_arrivals(mut self, arrivals: Vec<Normal>) -> Self {
        self.input_arrivals = Some(arrivals);
        self
    }

    /// Converts this configuration into a [`crate::resolve::Resolver`] —
    /// the incremental re-solve driver behind what-if queries. The
    /// resolver keeps the built formulation, an [`sgs_ssta::IncrementalSsta`]
    /// engine and the last solution's `(x, lambda, rho)` alive across
    /// solves, so spec/size perturbations re-solve warm instead of from
    /// scratch.
    pub fn resolver(self) -> crate::resolve::Resolver<'a> {
        crate::resolve::Resolver::from_parts(
            self.circuit,
            self.lib,
            self.objective,
            self.delay_spec,
            self.al_options,
            self.input_arrivals,
            self.trace,
        )
    }

    /// Runs the optimisation.
    ///
    /// # Errors
    ///
    /// Returns [`SizeError::SolverFailed`] when neither a feasible
    /// first-order point nor an acceptable fallback is reached.
    pub fn solve(&self) -> Result<SizingResult, SizeError> {
        let start = Instant::now();
        let _solve_phase = sgs_metrics::phase(sgs_metrics::Phase::Solve);
        sgs_metrics::incr(sgs_metrics::Counter::SizerSolves);
        let tracer = self.tracer();
        if let Some(gate) = self.preflight {
            let _sp = tracer.span("preflight");
            let _ph = sgs_metrics::phase(sgs_metrics::Phase::Preflight);
            gate.check(self.circuit, self.lib, &self.objective, &self.delay_spec)
                .map_err(|summary| {
                    sgs_metrics::incr(sgs_metrics::Counter::SizerPreflightRejections);
                    SizeError::PreflightFailed { summary }
                })?;
        }
        let clamps_before = sgs_statmath::clark::thread_var_clamp_count();
        let n = self.circuit.num_gates();
        let s_start = self.s0.clone().unwrap_or_else(|| vec![1.0; n]);

        // Reduced-space pass: warm start (FullSpace) or the whole solve
        // (ReducedSpace).
        let red = {
            let _sp = tracer.span("reduced_space");
            let _ph = sgs_metrics::phase(sgs_metrics::Phase::ReducedSpace);
            reduced::solve_reduced_with_arrivals(
                self.circuit,
                self.lib,
                self.objective.clone(),
                self.delay_spec.clone(),
                &s_start,
                &self.reduced_options,
                self.input_arrivals.as_deref(),
            )
        };

        if self.solver == SolverChoice::ReducedSpace {
            let report = {
                let _sp = tracer.span("report");
                let _ph = sgs_metrics::phase(sgs_metrics::Phase::Report);
                self.analyse(&red.s)
            };
            return Ok(SizingResult {
                area: red.s.iter().sum(),
                objective: red.objective,
                s: red.s,
                delay: report.delay,
                outer_iterations: 0,
                inner_iterations: red.iterations,
                c_norm: red.violation,
                seconds: start.elapsed().as_secs_f64(),
                evals: EvalCounts::default(),
                clark_var_clamps: self.emit_clamp_delta(&tracer, clamps_before),
            });
        }

        // Full-space augmented-Lagrangian solve from the warm start.
        let problem = {
            let _sp = tracer.span("build_problem");
            let _ph = sgs_metrics::phase(sgs_metrics::Phase::BuildProblem);
            SizingProblem::build_with_arrivals(
                self.circuit,
                self.lib,
                self.objective.clone(),
                self.delay_spec.clone(),
                self.input_arrivals.as_deref(),
            )
        };
        let run_attempt = |s_init: &[f64]| {
            let _sp = tracer.span("auglag");
            let _ph = sgs_metrics::phase(sgs_metrics::Phase::Auglag);
            let x0 = problem.initial_point(s_init);
            match self.poison_nan_after {
                Some(after) => auglag::solve_traced(
                    &PoisonNanAfter::new(&problem, after),
                    &x0,
                    &self.al_options,
                    tracer,
                ),
                None => auglag::solve_traced(&problem, &x0, &self.al_options, tracer),
            }
        };

        let mut result = run_attempt(&red.s);
        // A diverged solve hit non-finite values; retry from perturbed
        // warm starts before judging candidates (see module docs).
        let mut attempt = 0;
        while result.status == SolveStatus::Diverged && attempt < self.max_restarts {
            attempt += 1;
            sgs_metrics::incr(sgs_metrics::Counter::SizerRestarts);
            tracer.emit(|| TraceEvent::Restart {
                attempt,
                reason: format!(
                    "full-space solve diverged; perturbed restart {attempt}/{}",
                    self.max_restarts
                ),
            });
            result = run_attempt(&perturb(&red.s, attempt, self.lib.s_limit));
        }
        let s_full = problem.extract_s(&result.x);

        // The constraint system is triangular in S: re-propagating the
        // extracted speed factors through a clean SSTA gives an exactly
        // feasible point. Judge both candidates (full-space result and
        // reduced-space warm start) by their clean objective and delay-spec
        // violation, and keep the better feasible one — AL residuals on the
        // intermediate variables then never corrupt the reported sizing.
        let (full_cand, red_cand) = {
            let _sp = tracer.span("evaluate");
            let _ph = sgs_metrics::phase(sgs_metrics::Phase::Evaluate);
            (
                self.evaluate_guarded(&s_full),
                self.evaluate_guarded(&red.s),
            )
        };
        let spec_tol = self.spec_tolerance();
        let pick = match (full_cand.1 <= spec_tol, red_cand.1 <= spec_tol) {
            (true, true) => Some(full_cand.0 <= red_cand.0),
            (true, false) => Some(true),
            (false, true) => Some(false),
            (false, false) => None,
        };
        let Some(pick_full) = pick else {
            // Neither candidate meets the spec: greedy last resort.
            tracer.emit(|| TraceEvent::Restart {
                attempt: attempt + 1,
                reason: "no feasible candidate; greedy fallback".to_string(),
            });
            let fallback = {
                let _sp = tracer.span("greedy_fallback");
                let _ph = sgs_metrics::phase(sgs_metrics::Phase::GreedyFallback);
                sgs_metrics::incr(sgs_metrics::Counter::SizerGreedyFallbacks);
                self.greedy_fallback()
            };
            let Some((s, objective)) = fallback else {
                return Err(SizeError::SolverFailed {
                    status: result.status.as_str().to_string(),
                    c_norm: full_cand.1.min(red_cand.1),
                });
            };
            let report = {
                let _sp = tracer.span("report");
                let _ph = sgs_metrics::phase(sgs_metrics::Phase::Report);
                self.analyse(&s)
            };
            return Ok(SizingResult {
                area: s.iter().sum(),
                objective,
                s,
                delay: report.delay,
                outer_iterations: result.outer_iterations,
                inner_iterations: result.inner_iterations,
                // The greedy point is a plain speed-factor assignment; its
                // re-propagated formulation is exactly feasible.
                c_norm: 0.0,
                seconds: start.elapsed().as_secs_f64(),
                evals: result.evals,
                clark_var_clamps: self.emit_clamp_delta(&tracer, clamps_before),
            });
        };
        let s = if pick_full { s_full } else { red.s };
        let objective = if pick_full { full_cand.0 } else { red_cand.0 };

        let report = {
            let _sp = tracer.span("report");
            let _ph = sgs_metrics::phase(sgs_metrics::Phase::Report);
            self.analyse(&s)
        };
        Ok(SizingResult {
            area: s.iter().sum(),
            objective,
            s,
            delay: report.delay,
            outer_iterations: result.outer_iterations,
            inner_iterations: result.inner_iterations,
            c_norm: result.c_norm,
            seconds: start.elapsed().as_secs_f64(),
            evals: result.evals,
            clark_var_clamps: self.emit_clamp_delta(&tracer, clamps_before),
        })
    }

    /// Delta of the solving thread's Clark variance-clamp tally over this
    /// solve, emitted as the `clark_var_clamped` trace counter. The
    /// metrics-registry total is maintained at the clamp sites themselves.
    fn emit_clamp_delta(&self, tracer: &Tracer<'a>, before: u64) -> u64 {
        let delta = sgs_statmath::clark::thread_var_clamp_count() - before;
        tracer.emit(|| TraceEvent::Counter {
            name: "clark_var_clamped",
            value: delta,
        });
        delta
    }

    fn tracer(&self) -> Tracer<'a> {
        match self.trace {
            Some(sink) => Tracer::new(sink),
            None => Tracer::none(),
        }
    }

    /// [`Sizer::evaluate`], but a candidate containing non-finite speed
    /// factors (a diverged solve's iterate) is scored infeasible outright
    /// instead of being pushed through SSTA, which requires finite moments.
    fn evaluate_guarded(&self, s: &[f64]) -> (f64, f64) {
        if s.iter().any(|v| !v.is_finite()) {
            return (f64::INFINITY, f64::INFINITY);
        }
        self.evaluate(s)
    }

    /// Last-resort fallback: greedy descent of the delay metric implied by
    /// the spec, accepted only if the result actually meets the spec.
    /// Returns the speed factors and clean-SSTA objective value.
    fn greedy_fallback(&self) -> Option<(Vec<f64>, f64)> {
        let metric = match &self.delay_spec {
            DelaySpec::None => self.objective.clone(),
            DelaySpec::MaxMean(_) | DelaySpec::ExactMean(_) => Objective::MeanDelay,
            DelaySpec::MaxMeanPlusKSigma { k, .. } | DelaySpec::PerOutput { k, .. } => {
                Objective::MeanPlusKSigma(*k)
            }
        };
        let g = greedy::greedy_size(self.circuit, self.lib, &metric, &GreedyOptions::default());
        let (obj, viol) = self.evaluate(&g.s);
        (viol <= self.spec_tolerance()).then_some((g.s, obj))
    }

    /// Clean SSTA at `s`, honouring configured input arrivals.
    fn analyse(&self, s: &[f64]) -> sgs_ssta::SstaReport {
        sgs_ssta::analysis::ssta_with_arrivals(
            self.circuit,
            self.lib,
            s,
            self.input_arrivals.as_deref(),
        )
    }

    /// Clean-SSTA objective value and delay-spec violation at `s`.
    fn evaluate(&self, s: &[f64]) -> (f64, f64) {
        let report = self.analyse(s);
        (
            objective_value(&self.objective, s, report.delay),
            spec_violation(
                &self.delay_spec,
                self.circuit,
                &report.arrivals,
                report.delay,
            ),
        )
    }

    /// Acceptable delay-spec violation, scaled to the deadline magnitude.
    fn spec_tolerance(&self) -> f64 {
        spec_tolerance(&self.delay_spec)
    }
}

/// Objective value at speed factors `s` with clean-SSTA delay `delay`.
/// Shared by [`Sizer`] and [`crate::resolve::Resolver`] so both drivers
/// score candidates by the exact same formula.
pub(crate) fn objective_value(objective: &Objective, s: &[f64], delay: Normal) -> f64 {
    let mu = delay.mean();
    let sigma = delay.sigma();
    match objective {
        Objective::Area => s.iter().sum(),
        Objective::WeightedArea(w) => s.iter().zip(w).map(|(a, b)| a * b).sum(),
        Objective::MeanDelay => mu,
        Objective::MeanPlusKSigma(k) => mu + k * sigma,
        Objective::Sigma => sigma,
        Objective::NegSigma => -sigma,
    }
}

/// Delay-spec violation given clean per-gate arrivals and circuit delay.
/// Generic over the arrival storage layout so both report vectors and the
/// incremental engine's structure-of-arrays state can be checked without
/// a conversion copy.
pub(crate) fn spec_violation<A: sgs_ssta::ArrivalRead + ?Sized>(
    spec: &DelaySpec,
    circuit: &Circuit,
    arrivals: &A,
    delay: Normal,
) -> f64 {
    let mu = delay.mean();
    let sigma = delay.sigma();
    match spec {
        DelaySpec::None => 0.0,
        DelaySpec::MaxMean(d) => (mu - d).max(0.0),
        DelaySpec::MaxMeanPlusKSigma { k, d } => (mu + k * sigma - d).max(0.0),
        DelaySpec::ExactMean(d) => (mu - d).abs(),
        DelaySpec::PerOutput { k, d } => circuit
            .outputs()
            .iter()
            .zip(d)
            .map(|(&o, &d_o)| {
                let a = arrivals.arrival(o.index());
                (a.mean() + k * a.sigma() - d_o).max(0.0)
            })
            .fold(0.0, f64::max),
    }
}

/// Acceptable delay-spec violation, scaled to the deadline magnitude.
pub(crate) fn spec_tolerance(spec: &DelaySpec) -> f64 {
    match spec {
        DelaySpec::None => f64::INFINITY,
        DelaySpec::MaxMean(d)
        | DelaySpec::MaxMeanPlusKSigma { d, .. }
        | DelaySpec::ExactMean(d) => 1e-3 * (1.0 + d.abs()),
        DelaySpec::PerOutput { d, .. } => {
            1e-3 * (1.0 + d.iter().fold(f64::INFINITY, |a, &b| a.min(b)).abs())
        }
    }
}

/// Deterministic multiplicative jitter for restart warm starts: attempt
/// `a` scales each factor by up to `±0.1 a` (splitmix64 stream keyed on
/// the attempt number), clamped to the sizing range. No RNG state is
/// carried between calls, so restarts are reproducible run to run.
fn perturb(s: &[f64], attempt: usize, s_limit: f64) -> Vec<f64> {
    let mut state = (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03;
    let spread = 0.1 * attempt as f64;
    s.iter()
        .map(|&v| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            (v * (1.0 + spread * (2.0 * u - 1.0))).clamp(1.0, s_limit)
        })
        .collect()
}

/// Fault-injection wrapper behind [`Sizer::poison_nan_after`]: delegates
/// everything to the real formulation, except the objective turns to `NaN`
/// from the `after`-th evaluation onward.
struct PoisonNanAfter<'p> {
    inner: &'p SizingProblem,
    after: usize,
    calls: Cell<usize>,
}

impl<'p> PoisonNanAfter<'p> {
    fn new(inner: &'p SizingProblem, after: usize) -> Self {
        PoisonNanAfter {
            inner,
            after,
            calls: Cell::new(0),
        }
    }
}

impl NlpProblem for PoisonNanAfter<'_> {
    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }
    fn num_constraints(&self) -> usize {
        self.inner.num_constraints()
    }
    fn bounds(&self) -> (&[f64], &[f64]) {
        self.inner.bounds()
    }
    fn objective(&self, x: &[f64]) -> f64 {
        let k = self.calls.get();
        self.calls.set(k + 1);
        if k >= self.after {
            return f64::NAN;
        }
        self.inner.objective(x)
    }
    fn gradient(&self, x: &[f64], g: &mut [f64]) {
        self.inner.gradient(x, g)
    }
    fn constraints(&self, x: &[f64], c: &mut [f64]) {
        self.inner.constraints(x, c)
    }
    fn jacobian_structure(&self) -> Vec<(usize, usize)> {
        self.inner.jacobian_structure()
    }
    fn jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
        self.inner.jacobian_values(x, vals)
    }
    fn hessian_structure(&self) -> Vec<(usize, usize)> {
        self.inner.hessian_structure()
    }
    fn hessian_values(&self, x: &[f64], sigma: f64, lambda: &[f64], vals: &mut [f64]) {
        self.inner.hessian_values(x, sigma, lambda, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sgs_netlist::generate;
    use sgs_trace::MemorySink;

    fn lib() -> Library {
        Library::paper_default()
    }

    #[test]
    fn min_mean_delay_tree() {
        let c = generate::tree7();
        let r = Sizer::new(&c, &lib()).solve().unwrap();
        let baseline_mu = sgs_ssta::ssta(&c, &lib(), &[1.0; 7]).delay.mean();
        assert!(
            r.delay.mean() < baseline_mu - 1.0,
            "{} vs {}",
            r.delay.mean(),
            baseline_mu
        );
        assert!(r.c_norm < 1e-5);
    }

    #[test]
    fn full_and_reduced_agree_on_min_delay() {
        let c = generate::tree7();
        let full = Sizer::new(&c, &lib()).solve().unwrap();
        let red = Sizer::new(&c, &lib())
            .solver(SolverChoice::ReducedSpace)
            .solve()
            .unwrap();
        assert!(
            (full.delay.mean() - red.delay.mean()).abs() < 0.02,
            "full {} vs reduced {}",
            full.delay.mean(),
            red.delay.mean()
        );
    }

    #[test]
    fn min_area_unconstrained_is_all_ones() {
        let c = generate::tree7();
        let r = Sizer::new(&c, &lib())
            .objective(Objective::Area)
            .solve()
            .unwrap();
        assert!((r.area - 7.0).abs() < 1e-4, "area {}", r.area);
    }

    #[test]
    fn area_with_mean_cap_meets_deadline() {
        let c = generate::tree7();
        let r = Sizer::new(&c, &lib())
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .solve()
            .unwrap();
        assert!(r.delay.mean() <= 6.5 + 1e-3, "mu {}", r.delay.mean());
        assert!(r.area < 21.0);
    }

    #[test]
    fn sigma_objectives_bracket_area_objective() {
        // Paper Table 2: at a pinned mean, min-sigma and max-sigma bracket
        // the min-area solution's sigma.
        let c = generate::tree7();
        let d = 6.5;
        let area = Sizer::new(&c, &lib())
            .objective(Objective::Area)
            .delay_spec(DelaySpec::ExactMean(d))
            .solve()
            .unwrap();
        let min_sigma = Sizer::new(&c, &lib())
            .objective(Objective::Sigma)
            .delay_spec(DelaySpec::ExactMean(d))
            .solve()
            .unwrap();
        let max_sigma = Sizer::new(&c, &lib())
            .objective(Objective::NegSigma)
            .delay_spec(DelaySpec::ExactMean(d))
            .solve()
            .unwrap();
        for r in [&area, &min_sigma, &max_sigma] {
            assert!(
                (r.delay.mean() - d).abs() < 5e-3,
                "pin broken: {}",
                r.delay.mean()
            );
        }
        assert!(min_sigma.delay.sigma() <= area.delay.sigma() + 1e-3);
        assert!(max_sigma.delay.sigma() >= area.delay.sigma() - 1e-3);
        assert!(max_sigma.delay.sigma() > min_sigma.delay.sigma() + 1e-3);
    }

    #[test]
    fn k_sigma_objective_trades_mean_for_sigma() {
        let c = generate::tree7();
        let mu_only = Sizer::new(&c, &lib()).solve().unwrap();
        let robust = Sizer::new(&c, &lib())
            .objective(Objective::MeanPlusKSigma(3.0))
            .solve()
            .unwrap();
        // mu+3sigma optimum has the better mu+3sigma, mu-only has the
        // better mu.
        assert!(robust.mean_plus_k_sigma(3.0) <= mu_only.mean_plus_k_sigma(3.0) + 1e-4);
        assert!(mu_only.delay.mean() <= robust.delay.mean() + 1e-4);
    }

    #[test]
    fn poisoned_full_space_recovers_and_traces_restarts() {
        // Every full-space attempt is poisoned to NaN mid-solve; the run
        // must still return a feasible sizing (via restarts, the reduced
        // candidate or the greedy fallback) and leave evidence in the
        // trace rather than failing or silently returning garbage.
        let c = generate::tree7();
        let l = lib();
        let sink = MemorySink::new();
        let r = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .poison_nan_after(3)
            .trace(&sink)
            .solve()
            .unwrap();
        assert!(r.delay.mean() <= 6.5 + 1e-3, "mu {}", r.delay.mean());
        assert!(r.s.iter().all(|v| v.is_finite() && *v >= 1.0));
        let diverged = sink.count(|e| matches!(e, TraceEvent::Diverged { .. }));
        let restarts = sink.count(|e| matches!(e, TraceEvent::Restart { .. }));
        assert!(diverged >= 1, "expected divergence evidence in the trace");
        assert!(
            restarts >= 2,
            "expected perturbed-restart records, got {restarts}"
        );
    }

    #[test]
    fn greedy_fallback_meets_deadline() {
        let c = generate::tree7();
        let l = lib();
        let sizer = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5));
        let (s, obj) = sizer
            .greedy_fallback()
            .expect("greedy can meet 6.5 on tree7");
        let (obj2, viol) = sizer.evaluate(&s);
        assert_eq!(obj.to_bits(), obj2.to_bits());
        assert!(viol <= sizer.spec_tolerance(), "viol {viol}");
    }

    #[test]
    fn traced_solve_matches_untraced_bitwise() {
        let c = generate::tree7();
        let l = lib();
        let plain = Sizer::new(&c, &l)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .objective(Objective::Area)
            .solve()
            .unwrap();
        let sink = MemorySink::new();
        let traced = Sizer::new(&c, &l)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .objective(Objective::Area)
            .trace(&sink)
            .solve()
            .unwrap();
        assert_eq!(plain.s.len(), traced.s.len());
        for (a, b) in plain.s.iter().zip(&traced.s) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(plain.objective.to_bits(), traced.objective.to_bits());
        assert_eq!(plain.outer_iterations, traced.outer_iterations);
        // The trace itself carries the expected structure.
        assert!(sink.count(|e| matches!(e, TraceEvent::Outer(_))) >= 1);
        assert!(sink.span_seconds("auglag") > 0.0);
        assert!(sink.span_seconds("reduced_space") > 0.0);
    }

    #[test]
    fn perturb_is_deterministic_and_in_bounds() {
        let s = vec![1.0, 1.7, 2.9, 3.0];
        let a = perturb(&s, 1, 3.0);
        let b = perturb(&s, 1, 3.0);
        assert_eq!(a, b);
        assert_ne!(a, perturb(&s, 2, 3.0));
        for v in perturb(&s, 2, 3.0) {
            assert!((1.0..=3.0).contains(&v));
        }
    }
}
