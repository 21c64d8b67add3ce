//! Incremental re-solve driver: what-if queries and warm-started
//! re-optimisation after a spec or size perturbation.
//!
//! A [`Resolver`] is the stateful counterpart of the one-shot
//! [`crate::Sizer`]. It keeps three things alive across queries:
//!
//! * the built [`SizingProblem`] (rebuilt never — a deadline change only
//!   rewrites the cap constants via [`SizingProblem::set_deadline`]),
//! * an [`IncrementalSsta`] engine holding the last per-gate arrivals, so
//!   every constraint/violation evaluation after a perturbation touches
//!   only the dirty indices (the changed gates' cones) instead of the
//!   whole circuit, and
//! * the last solve's `(x, lambda, rho)` as a [`WarmStart`], so a
//!   re-solve verifies or repairs the previous optimum instead of
//!   starting cold.
//!
//! The split between [`Resolver::what_if`] (evaluate only — microseconds,
//! dirty cone only) and [`Resolver::resolve_spec`] /
//! [`Resolver::resolve_sizes`] (re-optimise warm) is the paper's intended
//! usage loop: sweep deadlines or probe single-gate changes cheaply, only
//! paying for an NLP solve when the answer matters.

use crate::problem::SizingProblem;
use crate::sizer::{self, SizeError, SizingResult};
use crate::spec::{DelaySpec, Objective};
use sgs_netlist::{Circuit, GateId, Library};
use sgs_nlp::auglag::{self, AugLagOptions, WarmStart};
use sgs_nlp::NlpProblem;
use sgs_ssta::{IncrementalSsta, UpdateStats};
use sgs_statmath::Normal;
use sgs_trace::{RequestContext, TraceEvent, TraceSink, Tracer};
use std::time::Instant;

/// Result of an evaluation-only what-if query ([`Resolver::what_if`]).
#[derive(Debug, Clone, Copy)]
pub struct WhatIfReport {
    /// Circuit delay distribution at the perturbed sizes.
    pub delay: Normal,
    /// Objective value at the perturbed sizes.
    pub objective: f64,
    /// Delay-spec violation at the perturbed sizes (`0` when met).
    pub spec_violation: f64,
    /// Dirty-cone work accounting for this query.
    pub stats: UpdateStats,
}

/// Result of a (re-)solve through the [`Resolver`].
#[derive(Debug, Clone)]
pub struct ResolveOutcome {
    /// The sizing result, fields exactly as [`crate::Sizer::solve`]
    /// reports them (delay/objective from the engine's clean arrivals).
    pub result: SizingResult,
    /// Whether a previous solution's `(x, lambda, rho)` was offered *and
    /// accepted* as the warm start for this solve.
    pub warm_start_hit: bool,
    /// Gates whose arrival the incremental engine recomputed during this
    /// call (perturbation + post-solve sync), also emitted as the
    /// `gates_recomputed` trace counter.
    pub gates_recomputed: usize,
}

/// How the previous solution seeds the next solve.
enum Seed {
    /// Carry `(x, lambda, rho)` verbatim (spec changes; plain re-solve).
    Carry,
    /// Keep `(lambda, rho)` but restart `x` from the exactly feasible
    /// point at the engine's current (perturbed) sizes.
    Reseed,
}

/// Stateful incremental re-solve driver. Construct via
/// [`crate::Sizer::resolver`] (carrying the sizer's configuration) or
/// [`Resolver::new`] (defaults), then alternate [`Resolver::what_if`]
/// probes with warm [`Resolver::resolve_spec`] /
/// [`Resolver::resolve_sizes`] re-optimisations.
///
/// ```
/// use sgs_core::{DelaySpec, Objective, Sizer};
/// use sgs_netlist::{generate, Library};
///
/// let circuit = generate::tree7();
/// let lib = Library::paper_default();
/// let mut resolver = Sizer::new(&circuit, &lib)
///     .objective(Objective::Area)
///     .delay_spec(DelaySpec::MaxMean(6.5))
///     .resolver();
/// let first = resolver.solve()?;
/// // Tighten the deadline and re-solve warm: same structure, new cap.
/// let tightened = resolver.resolve_spec(6.3)?;
/// assert!(tightened.warm_start_hit);
/// assert!(tightened.result.delay.mean() <= 6.3 + 1e-3);
/// assert!(tightened.result.area >= first.result.area - 1e-6);
/// # Ok::<(), sgs_core::SizeError>(())
/// ```
pub struct Resolver<'a> {
    circuit: &'a Circuit,
    lib: &'a Library,
    objective: Objective,
    delay_spec: DelaySpec,
    al_options: AugLagOptions,
    trace: Option<&'a dyn TraceSink>,
    problem: SizingProblem,
    inc: IncrementalSsta<'a>,
    warm: Option<WarmStart>,
}

impl<'a> Resolver<'a> {
    /// Builds a resolver with the [`crate::Sizer::new`] defaults
    /// (minimise mean delay, no delay constraint).
    pub fn new(circuit: &'a Circuit, lib: &'a Library) -> Self {
        crate::Sizer::new(circuit, lib).resolver()
    }

    pub(crate) fn from_parts(
        circuit: &'a Circuit,
        lib: &'a Library,
        objective: Objective,
        delay_spec: DelaySpec,
        al_options: AugLagOptions,
        input_arrivals: Option<Vec<Normal>>,
        trace: Option<&'a dyn TraceSink>,
    ) -> Self {
        let problem = SizingProblem::build_with_arrivals(
            circuit,
            lib,
            objective.clone(),
            delay_spec.clone(),
            input_arrivals.as_deref(),
        );
        let inc = IncrementalSsta::with_arrivals(
            circuit,
            lib,
            &vec![1.0; circuit.num_gates()],
            input_arrivals.as_deref(),
        );
        Resolver {
            circuit,
            lib,
            objective,
            delay_spec,
            al_options,
            trace,
            problem,
            inc,
            warm: None,
        }
    }

    /// Solves the current formulation. The first call is a cold solve;
    /// later calls re-verify warm from the previous solution.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] when the solve produces a non-finite
    /// iterate or misses the delay spec.
    pub fn solve(&mut self) -> Result<ResolveOutcome, SizeError> {
        self.solve_traced(None)
    }

    /// [`Resolver::solve`], additionally attributing solver phases and
    /// counters to a request context (the daemon's request-scoped
    /// tracing path; `None` behaves exactly like [`Resolver::solve`]).
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] as for [`Resolver::solve`].
    pub fn solve_traced(
        &mut self,
        req: Option<&RequestContext>,
    ) -> Result<ResolveOutcome, SizeError> {
        self.run(Seed::Carry, 0, req)
    }

    /// Moves the deadline of the current single-deadline spec to `d` and
    /// re-solves warm from the previous solution. Only the cap constants
    /// inside the existing formulation change
    /// ([`SizingProblem::set_deadline`]), so the previous `(x, lambda,
    /// rho)` stays dimension-compatible and is carried verbatim.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] as for [`Resolver::solve`] — e.g. when
    /// `d` is tighter than the circuit can meet.
    ///
    /// # Panics
    ///
    /// Panics if the configured spec is not one of [`DelaySpec::MaxMean`],
    /// [`DelaySpec::MaxMeanPlusKSigma`] or [`DelaySpec::ExactMean`] (the
    /// single-deadline forms), or if `d` is not finite.
    pub fn resolve_spec(&mut self, d: f64) -> Result<ResolveOutcome, SizeError> {
        self.resolve_spec_traced(d, None)
    }

    /// [`Resolver::resolve_spec`] with request-scoped tracing attached.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] as for [`Resolver::resolve_spec`].
    ///
    /// # Panics
    ///
    /// As for [`Resolver::resolve_spec`].
    pub fn resolve_spec_traced(
        &mut self,
        d: f64,
        req: Option<&RequestContext>,
    ) -> Result<ResolveOutcome, SizeError> {
        match &mut self.delay_spec {
            DelaySpec::MaxMean(cap)
            | DelaySpec::ExactMean(cap)
            | DelaySpec::MaxMeanPlusKSigma { d: cap, .. } => *cap = d,
            other => panic!("resolve_spec needs a single-deadline spec, got {other:?}"),
        }
        let updated = self.problem.set_deadline(d);
        debug_assert!(updated > 0, "single-deadline spec must have a cap");
        self.run(Seed::Carry, 0, req)
    }

    /// Moves the sigma multiplier of a [`Objective::MeanPlusKSigma`]
    /// objective to `k` and re-solves warm from the previous solution.
    /// Only the scalar inside the existing formulation changes
    /// ([`SizingProblem::set_objective_k`] — the objective's Hessian slot
    /// is keyed on the variant, not the value, so the sparsity pattern is
    /// identical for every `k`), and the previous `(x, lambda, rho)` is
    /// carried verbatim. This is the robustness-sweep twin of
    /// [`Resolver::resolve_spec`].
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] as for [`Resolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if the configured objective is not
    /// [`Objective::MeanPlusKSigma`], or if `k` is not finite.
    pub fn resolve_objective_k(&mut self, k: f64) -> Result<ResolveOutcome, SizeError> {
        match &mut self.objective {
            Objective::MeanPlusKSigma(cur) => *cur = k,
            other => panic!("resolve_objective_k needs a mu + k sigma objective, got {other}"),
        }
        self.problem.set_objective_k(k);
        self.run(Seed::Carry, 0, None)
    }

    /// Applies size changes through the incremental engine (dirty cone
    /// only), then re-solves warm: the previous multipliers and penalty
    /// are kept while the iterate restarts from the exactly feasible
    /// point at the perturbed sizes. Useful after externally pinning or
    /// snapping gates (e.g. discretisation) to let the optimiser repair
    /// the rest.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] as for [`Resolver::solve`].
    ///
    /// # Panics
    ///
    /// Panics if a gate id is out of range.
    pub fn resolve_sizes(
        &mut self,
        changes: &[(GateId, f64)],
    ) -> Result<ResolveOutcome, SizeError> {
        self.resolve_sizes_traced(changes, None)
    }

    /// [`Resolver::resolve_sizes`] with request-scoped tracing attached.
    ///
    /// # Errors
    ///
    /// [`SizeError::SolverFailed`] as for [`Resolver::resolve_sizes`].
    ///
    /// # Panics
    ///
    /// Panics if a gate id is out of range.
    pub fn resolve_sizes_traced(
        &mut self,
        changes: &[(GateId, f64)],
        req: Option<&RequestContext>,
    ) -> Result<ResolveOutcome, SizeError> {
        let stats = self.inc.apply(changes);
        self.run(Seed::Reseed, stats.gates_recomputed, req)
    }

    /// Evaluation-only what-if: applies the size changes to the
    /// incremental engine and reports delay, objective and spec violation
    /// at the perturbed point **without** re-optimising. Only the dirty
    /// cone is recomputed; a no-op perturbation recomputes nothing.
    ///
    /// # Panics
    ///
    /// Panics if a gate id is out of range.
    pub fn what_if(&mut self, changes: &[(GateId, f64)]) -> WhatIfReport {
        self.what_if_traced(changes, None)
    }

    /// [`Resolver::what_if`] with request-scoped tracing attached.
    ///
    /// # Panics
    ///
    /// Panics if a gate id is out of range.
    pub fn what_if_traced(
        &mut self,
        changes: &[(GateId, f64)],
        req: Option<&RequestContext>,
    ) -> WhatIfReport {
        sgs_metrics::incr(sgs_metrics::Counter::ResolveWhatIfQueries);
        let _timer = sgs_metrics::time_hist(sgs_metrics::HistId::WhatIfSeconds);
        let stats = self.inc.apply(changes);
        let delay = self.inc.delay();
        let report = WhatIfReport {
            delay,
            objective: sizer::objective_value(&self.objective, self.inc.sizes(), delay),
            spec_violation: sizer::spec_violation(
                &self.delay_spec,
                self.circuit,
                self.inc.arrivals(),
                delay,
            ),
            stats,
        };
        self.tracer().attach(req).emit(|| TraceEvent::Counter {
            name: "gates_recomputed",
            value: stats.gates_recomputed as u64,
        });
        report
    }

    /// The warm-started solve shared by [`Resolver::solve`],
    /// [`Resolver::resolve_spec`] and [`Resolver::resolve_sizes`].
    fn run(
        &mut self,
        seed: Seed,
        pre_recomputed: usize,
        req: Option<&RequestContext>,
    ) -> Result<ResolveOutcome, SizeError> {
        let start = Instant::now();
        let _solve_phase = sgs_metrics::phase(sgs_metrics::Phase::Solve);
        sgs_metrics::incr(sgs_metrics::Counter::ResolveSolves);
        let tracer = self.tracer().attach(req);
        let clamps_before = sgs_statmath::clark::thread_var_clamp_count();
        let x0 = self.problem.initial_point(self.inc.sizes());
        let warm = match seed {
            Seed::Carry => self.warm.clone(),
            Seed::Reseed => self.warm.clone().map(|w| WarmStart { x: x0.clone(), ..w }),
        };
        let hit = warm
            .as_ref()
            .is_some_and(|w| w.is_usable(self.problem.num_vars(), self.problem.num_constraints()));
        let result = {
            let _sp = tracer.span("auglag");
            let _ph = sgs_metrics::phase(sgs_metrics::Phase::Auglag);
            auglag::solve_warm_traced(&self.problem, &x0, warm.as_ref(), &self.al_options, tracer)
        };
        let s = self.problem.extract_s(&result.x);
        if s.iter().any(|v| !v.is_finite()) {
            return Err(SizeError::SolverFailed {
                status: result.status.as_str().to_string(),
                c_norm: result.c_norm,
            });
        }
        // Sync the engine to the solver's point — again dirty-cone only;
        // near-converged warm re-solves move few gates.
        let gates_recomputed = pre_recomputed + self.inc.set_sizes(&s).gates_recomputed;
        tracer.emit(|| TraceEvent::Counter {
            name: "gates_recomputed",
            value: gates_recomputed as u64,
        });
        let delay = self.inc.delay();
        let objective = sizer::objective_value(&self.objective, &s, delay);
        let viol =
            sizer::spec_violation(&self.delay_spec, self.circuit, self.inc.arrivals(), delay);
        if viol > sizer::spec_tolerance(&self.delay_spec) {
            // The engine now reflects the rejected iterate; the warm start
            // (last *accepted* solution) is deliberately left untouched.
            return Err(SizeError::SolverFailed {
                status: result.status.as_str().to_string(),
                c_norm: viol,
            });
        }
        self.warm = Some(WarmStart::from_result(&result));
        // Per-thread delta (see `sgs_statmath::clark::thread_var_clamp_count`),
        // so concurrent solves cannot inflate each other's count; the
        // metrics-registry total is maintained at the clamp sites themselves.
        let clark_var_clamps = sgs_statmath::clark::thread_var_clamp_count() - clamps_before;
        tracer.emit(|| TraceEvent::Counter {
            name: "clark_var_clamped",
            value: clark_var_clamps,
        });
        Ok(ResolveOutcome {
            warm_start_hit: hit,
            gates_recomputed,
            result: SizingResult {
                area: s.iter().sum(),
                objective,
                s,
                delay,
                outer_iterations: result.outer_iterations,
                inner_iterations: result.inner_iterations,
                c_norm: result.c_norm,
                seconds: start.elapsed().as_secs_f64(),
                evals: result.evals,
                clark_var_clamps,
            },
        })
    }

    /// The library the formulation was built against.
    pub fn library(&self) -> &'a Library {
        self.lib
    }

    /// Current speed factors held by the incremental engine (the last
    /// accepted solution, or the last perturbation applied on top of it).
    pub fn sizes(&self) -> &[f64] {
        self.inc.sizes()
    }

    /// Current circuit delay distribution at [`Resolver::sizes`].
    pub fn delay(&self) -> Normal {
        self.inc.delay()
    }

    /// The underlying incremental engine (arrivals, work counters).
    pub fn engine(&self) -> &IncrementalSsta<'a> {
        &self.inc
    }

    /// The currently configured delay spec (deadline moves with
    /// [`Resolver::resolve_spec`]).
    pub fn delay_spec(&self) -> &DelaySpec {
        &self.delay_spec
    }

    fn tracer(&self) -> Tracer<'a> {
        match self.trace {
            Some(sink) => Tracer::new(sink),
            None => Tracer::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sizer;
    use sgs_netlist::generate;
    use sgs_ssta::ssta;
    use sgs_trace::MemorySink;

    fn lib() -> Library {
        Library::paper_default()
    }

    #[test]
    fn cold_solve_matches_sizer_candidate_quality() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .resolver();
        let out = r.solve().unwrap();
        assert!(!out.warm_start_hit, "first solve has no warm start");
        assert!(out.result.delay.mean() <= 6.5 + 1e-3);
        // The engine's state is bit-identical to a fresh SSTA at the
        // reported sizes.
        let fresh = ssta(&c, &l, &out.result.s);
        assert_eq!(r.delay().mean().to_bits(), fresh.delay.mean().to_bits());
        assert_eq!(r.delay().var().to_bits(), fresh.delay.var().to_bits());
    }

    #[test]
    fn warm_resolve_spec_sweeps_deadlines() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(7.0))
            .resolver();
        let cold = r.solve().unwrap();
        let mut last_area = cold.result.area;
        for d in [6.8, 6.5, 6.3] {
            let out = r.resolve_spec(d).unwrap();
            assert!(out.warm_start_hit, "deadline {d} should re-solve warm");
            assert!(out.result.delay.mean() <= d + 1e-3, "deadline {d} missed");
            // Tighter deadline costs area (monotone trade-off).
            assert!(out.result.area >= last_area - 1e-6);
            last_area = out.result.area;
        }
    }

    #[test]
    fn warm_resolve_same_spec_verifies_in_one_outer_iteration() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .resolver();
        let cold = r.solve().unwrap();
        let rerun = r.solve().unwrap();
        assert!(rerun.warm_start_hit);
        assert!(
            rerun.result.outer_iterations <= 1,
            "warm rerun took {} outer iterations",
            rerun.result.outer_iterations
        );
        assert!((rerun.result.objective - cold.result.objective).abs() <= 1e-6);
        assert!(rerun.result.inner_iterations <= cold.result.inner_iterations);
    }

    #[test]
    fn what_if_is_evaluation_only_and_bit_identical() {
        let c = generate::ripple_carry_adder(8);
        let l = lib();
        let n = c.num_gates();
        let mut r = Sizer::new(&c, &l).objective(Objective::Area).resolver();
        let probe = r.what_if(&[(GateId(1), 2.0)]);
        assert!(probe.stats.gates_recomputed < n, "whole circuit recomputed");
        let mut s = vec![1.0; n];
        s[1] = 2.0;
        let fresh = ssta(&c, &l, &s);
        assert_eq!(probe.delay.mean().to_bits(), fresh.delay.mean().to_bits());
        assert_eq!(probe.delay.var().to_bits(), fresh.delay.var().to_bits());
        // No-op probe touches nothing.
        let noop = r.what_if(&[(GateId(1), 2.0)]);
        assert_eq!(noop.stats.gates_recomputed, 0);
    }

    #[test]
    fn resolve_sizes_repairs_a_pinned_gate() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .resolver();
        let first = r.solve().unwrap();
        // Pin gate 0 off its optimum and let the warm re-solve repair the
        // rest of the circuit around it.
        let pinned = (first.result.s[0] * 1.3).min(r.library().s_limit);
        let out = r.resolve_sizes(&[(GateId(0), pinned)]).unwrap();
        assert!(out.warm_start_hit);
        assert!(out.gates_recomputed >= 1);
        assert!(out.result.delay.mean() <= 6.5 + 1e-3);
    }

    #[test]
    fn counters_reach_the_trace_sink() {
        let c = generate::tree7();
        let l = lib();
        let sink = MemorySink::new();
        let mut r = Sizer::new(&c, &l)
            .objective(Objective::Area)
            .delay_spec(DelaySpec::MaxMean(6.5))
            .trace(&sink)
            .resolver();
        r.solve().unwrap();
        r.what_if(&[(GateId(2), 1.4)]);
        let recomputed: Vec<u64> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Counter {
                    name: "gates_recomputed",
                    value,
                } => Some(value),
                _ => None,
            })
            .collect();
        assert_eq!(recomputed.len(), 2, "one per solve, one per what-if");
        assert!(recomputed[1] > 0 && recomputed[1] < c.num_gates() as u64);
        assert_eq!(
            sink.events()
                .iter()
                .filter(|e| matches!(
                    e,
                    TraceEvent::Counter {
                        name: "warm_start_hit",
                        ..
                    }
                ))
                .count(),
            0,
            "cold solve must not emit a warm_start_hit counter"
        );
    }

    #[test]
    fn warm_resolve_objective_k_sweeps_robustness() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Sizer::new(&c, &l)
            .objective(Objective::MeanPlusKSigma(0.0))
            .resolver();
        let cold = r.solve().unwrap();
        // V(k) = min mu + k sigma is non-decreasing in k: the optimum at
        // a larger k upper-bounds the smaller-k objective at its point.
        let mut last = cold.result.objective;
        for k in [0.5, 1.0, 2.0, 3.0] {
            let out = r.resolve_objective_k(k).unwrap();
            assert!(out.warm_start_hit, "k {k} should re-solve warm");
            assert!(
                out.result.objective >= last - 1e-6 * (1.0 + last.abs()),
                "V({k}) = {} dropped below {last}",
                out.result.objective
            );
            last = out.result.objective;
        }
    }

    #[test]
    #[should_panic(expected = "mu + k sigma objective")]
    fn resolve_objective_k_rejects_other_objectives() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Sizer::new(&c, &l).objective(Objective::Area).resolver();
        let _ = r.resolve_objective_k(1.0);
    }

    #[test]
    #[should_panic(expected = "single-deadline spec")]
    fn resolve_spec_rejects_unconstrained_formulations() {
        let c = generate::tree7();
        let l = lib();
        let mut r = Resolver::new(&c, &l);
        let _ = r.resolve_spec(6.5);
    }
}
