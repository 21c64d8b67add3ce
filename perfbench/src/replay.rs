//! Traced replay of `Sizer::solve` (full-space default) through the
//! layers' public calls.
//!
//! The replay walks the same steps as the sizer: the reduced-space pass
//! (`ReducedObjective` driven by `lbfgs::minimize` and the penalty loop),
//! the `SizingProblem` build, `auglag::solve_traced`, clean-SSTA scoring
//! of both candidates and the final report. Each step runs inside a span,
//! and the evaluators are wrapped in timing adapters. The caller compares
//! the replayed sizes against an untraced `Sizer::solve`, bit for bit, so
//! the per-layer numbers always describe the program that was measured.
//!
//! The sizer's recovery paths (perturbed restarts after a diverged AL
//! solve, the greedy fallback when neither candidate meets the spec) run
//! on no benchmark op; the replay refuses them rather than modelling
//! them, so the traced run fails loudly if an op ever takes one.

use crate::check;
use crate::layers::{timed, CallStat, Recorder, TimedGrad, TimedProblem};
use sgs_core::reduced::{ReducedObjective, ReducedOptions};
use sgs_core::{DelaySpec, Objective, SizingProblem};
use sgs_netlist::{Circuit, Library};
use sgs_nlp::auglag::{self, AugLagOptions, SolveStatus};
use sgs_nlp::lbfgs;
use sgs_trace::Tracer;

/// Work and time one replayed solve spent in each layer.
#[derive(Debug, Clone, Default)]
pub struct SolveLayers {
    /// Calls into `ReducedObjective` (construction, value, gradient,
    /// violation, delay moments).
    pub reduced: CallStat,
    /// Value and gradient evaluations among them.
    pub reduced_evals: u64,
    /// L-BFGS iterations (speed-up pre-pass included).
    pub lbfgs_iters: u64,
    /// Penalty rounds (L-BFGS minimisations of the penalised objective).
    pub penalty_rounds: u64,
    /// `SizingProblem` construction.
    pub build: CallStat,
    /// The augmented-Lagrangian solve.
    pub auglag: CallStat,
    /// Outer, inner (trust-region) and CG iterations.
    pub outer_iters: u64,
    /// Inner trust-region iterations.
    pub inner_iters: u64,
    /// Conjugate-gradient iterations.
    pub cg_iters: u64,
    /// Problem evaluations, in [`TimedProblem::stats`] order.
    pub problem: [CallStat; 5],
    /// Clean SSTA passes (candidate scoring and report).
    pub ssta: CallStat,
    /// Candidate scoring time.
    pub evaluate_secs: f64,
    /// Whether the full-space candidate won.
    pub al_won: bool,
    /// `(AL objective - reduced objective) / |reduced objective|`.
    pub al_gap_rel: f64,
    /// The AL candidate's spec violation under clean SSTA.
    pub al_violation: f64,
}

/// The replayed solve's answer and its layer accounting.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Chosen speed factors.
    pub s: Vec<f64>,
    /// Circuit delay at `s` (the report pass, as the sizer reports it).
    pub delay: sgs_statmath::Normal,
    /// Per-layer work.
    pub layers: SolveLayers,
}

struct Ctx<'a> {
    circuit: &'a Circuit,
    lib: &'a Library,
    objective: &'a Objective,
    spec: &'a DelaySpec,
}

impl Ctx<'_> {
    /// The reduced-space pass of `reduced::solve_reduced_with_arrivals`.
    fn reduced(&self, out: &mut SolveLayers) -> Vec<f64> {
        let (circuit, lib) = (self.circuit, self.lib);
        let opts = ReducedOptions::default();
        let n = circuit.num_gates();
        let l = vec![1.0; n];
        let u = vec![lib.s_limit; n];
        let mut s = vec![1.0; n];
        let new = |stat: &mut CallStat, obj: Objective, spec: DelaySpec| {
            timed(stat, || ReducedObjective::new(circuit, lib, obj, spec))
        };
        let minimize = |f: &mut TimedGrad<ReducedObjective>, s: &[f64], out: &mut SolveLayers| {
            let r = lbfgs::minimize(f, s, &l, &u, &opts.lbfgs);
            out.lbfgs_iters += r.iterations as u64;
            out.reduced_evals += f.stat.calls;
            out.reduced.calls += f.stat.calls;
            out.reduced.secs += f.stat.secs;
            f.stat = CallStat::default();
            r.x
        };
        if matches!(
            self.spec,
            DelaySpec::MaxMean(_)
                | DelaySpec::MaxMeanPlusKSigma { .. }
                | DelaySpec::PerOutput { .. }
        ) {
            let probe = new(&mut out.reduced, self.objective.clone(), self.spec.clone());
            if timed(&mut out.reduced, || probe.violation(&s)) > 0.0 {
                let k = match self.spec {
                    DelaySpec::MaxMeanPlusKSigma { k, .. } | DelaySpec::PerOutput { k, .. } => *k,
                    _ => 0.0,
                };
                let speedup = new(
                    &mut out.reduced,
                    Objective::MeanPlusKSigma(k),
                    DelaySpec::None,
                );
                s = minimize(&mut TimedGrad::new(speedup), &s, out);
            }
        }
        let mut red = TimedGrad::new(new(
            &mut out.reduced,
            self.objective.clone(),
            self.spec.clone(),
        ));
        let rounds = if self.spec.is_some() {
            opts.max_rounds
        } else {
            1
        };
        for _ in 0..rounds {
            s = minimize(&mut red, &s, out);
            out.penalty_rounds += 1;
            if !self.spec.is_some()
                || timed(&mut out.reduced, || red.inner.violation(&s)) <= opts.tol_viol
            {
                break;
            }
            red.inner.penalty_weight *= opts.penalty_mult;
        }
        // The sizer also computes the final violation and the clean
        // (penalty-free) objective; the full-space path discards both,
        // but they are part of the time it spends.
        timed(&mut out.reduced, || red.inner.violation(&s));
        let clean = new(&mut out.reduced, self.objective.clone(), DelaySpec::None);
        timed(&mut out.reduced, || clean.delay_moments(&s));
        s
    }

    /// Clean-SSTA objective and spec violation of a candidate.
    fn evaluate(&self, s: &[f64], out: &mut SolveLayers) -> (f64, f64) {
        if s.iter().any(|v| !v.is_finite()) {
            return (f64::INFINITY, f64::INFINITY);
        }
        let report = timed(&mut out.ssta, || sgs_ssta::ssta(self.circuit, self.lib, s));
        (
            check::objective_value(self.objective, s, report.delay),
            check::spec_violation(self.spec, report.delay),
        )
    }
}

/// Replays `Sizer::new(circuit, lib).objective(objective).delay_spec(spec)
/// .al_options(al.clone()).solve()` under span `root` of `rec`.
///
/// # Errors
///
/// Returns an error where the sizer would restart a diverged AL solve or
/// fall back to greedy sizing.
pub fn replay_solve(
    circuit: &Circuit,
    lib: &Library,
    objective: &Objective,
    spec: &DelaySpec,
    al: &AugLagOptions,
    rec: &Recorder,
    root: usize,
) -> Result<Replayed, String> {
    let cx = Ctx {
        circuit,
        lib,
        objective,
        spec,
    };
    let mut out = SolveLayers::default();
    let (red_s, _) = rec.time("reduced_space", root, || cx.reduced(&mut out));

    let (problem, build_secs) = rec.time("build_problem", root, || {
        SizingProblem::build(circuit, lib, objective.clone(), spec.clone())
    });
    out.build = CallStat {
        calls: 1,
        secs: build_secs,
    };
    let timed_problem = TimedProblem::new(&problem);
    let (result, secs) = rec.time("auglag", root, || {
        let x0 = problem.initial_point(&red_s);
        auglag::solve_traced(&timed_problem, &x0, al, Tracer::none())
    });
    if result.status == SolveStatus::Diverged {
        return Err("the AL solve diverged; the sizer would restart it".into());
    }
    out.auglag = CallStat { calls: 1, secs };
    out.outer_iters = result.outer_iterations as u64;
    out.inner_iters = result.inner_iterations as u64;
    out.cg_iters = result.cg_iterations as u64;
    out.problem = timed_problem.stats();
    let s_full = problem.extract_s(&result.x);

    let ((full, red), eval_secs) = rec.time("evaluate", root, || {
        (
            cx.evaluate(&s_full, &mut out),
            cx.evaluate(&red_s, &mut out),
        )
    });
    out.evaluate_secs = eval_secs;
    out.al_gap_rel = (full.0 - red.0) / red.0.abs().max(f64::MIN_POSITIVE);
    out.al_violation = full.1;
    let tol = check::spec_tolerance(spec);
    let pick_full = match (full.1 <= tol, red.1 <= tol) {
        (true, true) => Some(full.0 <= red.0),
        (true, false) => Some(true),
        (false, true) => Some(false),
        (false, false) => None,
    };
    let s = match pick_full {
        Some(true) => s_full,
        Some(false) => red_s,
        None => {
            return Err("no candidate meets the spec; the sizer would fall back to greedy".into())
        }
    };
    out.al_won = pick_full == Some(true);
    let (report, _) = rec.time("report", root, || {
        timed(&mut out.ssta, || sgs_ssta::ssta(circuit, lib, &s))
    });
    Ok(Replayed {
        s,
        delay: report.delay,
        layers: out,
    })
}
