//! The analytical stochastic maximum of two independent normals.
//!
//! Implements the paper's Eqs. 10, 12 and 13 (the moment formulas first
//! derived by Clark, 1961, and re-derived in the paper's Appendix A) and —
//! the paper's key enabling contribution — their **exact first and second
//! derivatives** with respect to the four inputs `(mu_a, var_a, mu_b,
//! var_b)`. These derivatives are what allow gate sizing under a statistical
//! delay model to be posed as a smooth nonlinear program and solved by a
//! LANCELOT-class solver.
//!
//! With `theta^2 = var_a + var_b + eps^2` and `alpha = (mu_a - mu_b) / theta`:
//!
//! ```text
//! mu_c    = mu_a Phi(alpha) + mu_b Phi(-alpha) + theta phi(alpha)        (Eq. 10)
//! E[C^2]  = (var_a + mu_a^2) Phi(alpha) + (var_b + mu_b^2) Phi(-alpha)
//!           + (mu_a + mu_b) theta phi(alpha)                             (Eq. 12)
//! var_c   = E[C^2] - mu_c^2                                              (Eq. 13)
//! ```
//!
//! The smoothing floor `eps` (default [`DEFAULT_EPS`]) regularises the
//! degenerate case `var_a + var_b -> 0` (e.g. the max over deterministic
//! primary-input arrivals), where the exact formulas have a kink. The paper
//! does not discuss this case; any tiny floor reproduces its results because
//! every gate delay carries `sigma = 0.25 mu > 0`.

use crate::dual::{Dual2, Real};
use crate::normal::Normal;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default variance-smoothing floor added inside `theta^2`.
pub const DEFAULT_EPS: f64 = 1e-9;

/// Process-wide count of variance clamps that actually fired (see
/// [`var_clamp_count`]).
static VAR_CLAMP_COUNT: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Clamps fired on (or credited to) this thread; see
    /// [`thread_var_clamp_count`].
    static THREAD_CLAMPS: Cell<u64> = const { Cell::new(0) };
}

/// How many times a Clark evaluation produced a (slightly) negative
/// `var_C = E[C²] − μ_C²` and clamped it to zero, process-wide since
/// start.
///
/// The clamp is numerically benign — the true variance is non-negative
/// and the negative excursion is catastrophic-cancellation noise when one
/// operand dominates — but it silently discards information, so every
/// firing is counted. Three tallies are kept per firing: this
/// process-wide total, the calling thread's tally
/// ([`thread_var_clamp_count`], which is what the sizing driver samples
/// around one solve) and the metrics registry (`clark_var_clamps`).
pub fn var_clamp_count() -> u64 {
    VAR_CLAMP_COUNT.load(Ordering::Relaxed)
}

/// Clamps fired on the calling thread since it started, plus those
/// credited to it with [`credit_var_clamps`].
///
/// Unlike [`var_clamp_count`], other threads cannot move it, so a
/// before/after delta around a solve is exactly that solve's count even
/// while other solves run concurrently. A parallel dispatcher keeps the
/// delta exact by running each work unit under [`take_var_clamps`] and
/// crediting the sum back to the dispatching thread.
pub fn thread_var_clamp_count() -> u64 {
    THREAD_CLAMPS.with(Cell::get)
}

/// Runs `f` and returns the clamps it fired on the current thread, moving
/// them *out* of this thread's tally (the process-wide total and the
/// registry keep them). The caller hands the count to the thread that owns
/// the work with [`credit_var_clamps`]; this is correct whichever thread
/// `f` ran on.
pub fn take_var_clamps<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = thread_var_clamp_count();
    let r = f();
    let taken = thread_var_clamp_count() - before;
    THREAD_CLAMPS.with(|c| c.set(before));
    (r, taken)
}

/// Adds `n` clamps, counted on worker threads by [`take_var_clamps`], to
/// the calling thread's tally. The process-wide total and the registry
/// already hold them and are not touched.
pub fn credit_var_clamps(n: u64) {
    THREAD_CLAMPS.with(|c| c.set(c.get() + n));
}

/// Publishes `n` fired clamps to all three tallies.
fn record_clamps(n: u64) {
    VAR_CLAMP_COUNT.fetch_add(n, Ordering::Relaxed);
    credit_var_clamps(n);
    sgs_metrics::add(sgs_metrics::Counter::ClarkVarClamps, n);
}

/// `var.max(0.0)` that counts actual clamps. Matches `f64::max` exactly,
/// including the NaN-to-floor mapping (which is not counted: it is a
/// divergence, not a clamp).
fn clamp_var(var: f64) -> f64 {
    if var >= 0.0 {
        var
    } else {
        if var < 0.0 {
            record_clamps(1);
        }
        0.0
    }
}

/// Index of `mu_a` in gradient/Hessian arrays.
pub const I_MU_A: usize = 0;
/// Index of `var_a` in gradient/Hessian arrays.
pub const I_VAR_A: usize = 1;
/// Index of `mu_b` in gradient/Hessian arrays.
pub const I_MU_B: usize = 2;
/// Index of `var_b` in gradient/Hessian arrays.
pub const I_VAR_B: usize = 3;

/// Clark moments written against the generic scalar [`Real`], so the same
/// formula text yields plain values (`f64`) and machine-precision derivative
/// cross-checks ([`Dual2`]). Returns `(mu_c, var_c)`.
pub fn moments_generic<T: Real>(mu_a: T, var_a: T, mu_b: T, var_b: T, eps: f64) -> (T, T) {
    let theta2 = var_a + var_b + T::constant(eps * eps);
    let theta = theta2.sqrt();
    let alpha = (mu_a - mu_b) / theta;
    let phi = alpha.norm_pdf();
    let cdf_p = alpha.norm_cdf();
    let cdf_m = (-alpha).norm_cdf();
    let mu_c = mu_a * cdf_p + mu_b * cdf_m + theta * phi;
    let e2 =
        (var_a + mu_a * mu_a) * cdf_p + (var_b + mu_b * mu_b) * cdf_m + (mu_a + mu_b) * theta * phi;
    (mu_c, e2 - mu_c * mu_c)
}

/// The stochastic maximum `C = max(A, B)` with the default smoothing floor.
///
/// ```
/// use sgs_statmath::{clark, Normal};
/// let c = clark::max(Normal::new(1.0, 0.5), Normal::new(1.0, 0.5));
/// // Equal operands: the max has a strictly larger mean and smaller sigma.
/// assert!(c.mean() > 1.0);
/// assert!(c.sigma() < 0.5);
/// ```
pub fn max(a: Normal, b: Normal) -> Normal {
    max_eps(a, b, DEFAULT_EPS)
}

/// [`max`] with an explicit smoothing floor.
pub fn max_eps(a: Normal, b: Normal, eps: f64) -> Normal {
    let (mu, var) = moments_generic(a.mean(), a.var(), b.mean(), b.var(), eps);
    // Tiny negative variance can appear from rounding when one operand
    // dominates; clamp to zero (counted, see `var_clamp_count`).
    Normal::from_mean_var(mu, clamp_var(var))
}

/// Left fold of [`max`] over any number of operands, exactly as the paper
/// applies the two-operand max repeatedly over a gate's fan-ins (Eq. 18b).
///
/// Returns `None` for an empty iterator.
pub fn max_n<I: IntoIterator<Item = Normal>>(operands: I) -> Option<Normal> {
    let mut it = operands.into_iter();
    let first = it.next()?;
    Some(it.fold(first, max))
}

/// The stochastic minimum `min(A, B) = -max(-A, -B)` — the dual operator
/// needed for earliest-arrival (hold-style) analysis.
///
/// ```
/// use sgs_statmath::{clark, Normal};
/// let c = clark::min(Normal::new(1.0, 0.5), Normal::new(1.0, 0.5));
/// // Equal operands: the min has a strictly smaller mean.
/// assert!(c.mean() < 1.0);
/// ```
pub fn min(a: Normal, b: Normal) -> Normal {
    let neg = |n: Normal| Normal::from_mean_var(-n.mean(), n.var());
    let m = max(neg(a), neg(b));
    Normal::from_mean_var(-m.mean(), m.var())
}

/// Left fold of [`min`] over any number of operands; `None` when empty.
pub fn min_n<I: IntoIterator<Item = Normal>>(operands: I) -> Option<Normal> {
    let mut it = operands.into_iter();
    let first = it.next()?;
    Some(it.fold(first, min))
}

/// First derivatives of the Clark moments. Layout: `[mu_a, var_a, mu_b,
/// var_b]` (see [`I_MU_A`] etc.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClarkGrad {
    /// `mu_c`.
    pub mu: f64,
    /// `var_c`.
    pub var: f64,
    /// Gradient of `mu_c`.
    pub dmu: [f64; 4],
    /// Gradient of `var_c`.
    pub dvar: [f64; 4],
}

/// First and second derivatives of the Clark moments. Layout as in
/// [`ClarkGrad`]; Hessians are symmetric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClarkHess {
    /// `mu_c`.
    pub mu: f64,
    /// `var_c`.
    pub var: f64,
    /// Gradient of `mu_c`.
    pub dmu: [f64; 4],
    /// Gradient of `var_c`.
    pub dvar: [f64; 4],
    /// Hessian of `mu_c`.
    pub hmu: [[f64; 4]; 4],
    /// Hessian of `var_c`.
    pub hvar: [[f64; 4]; 4],
}

/// Shared intermediates of the closed-form derivative expressions.
struct Frame {
    theta: f64,
    alpha: f64,
    phi: f64,
    cdf_p: f64,
    cdf_m: f64,
    mu_c: f64,
    e2: f64,
}

fn frame(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64, eps: f64) -> Frame {
    let theta = (var_a + var_b + eps * eps).sqrt();
    let alpha = (mu_a - mu_b) / theta;
    let phi = crate::special::normal_pdf(alpha);
    let cdf_p = crate::special::normal_cdf(alpha);
    let cdf_m = 1.0 - cdf_p;
    let mu_c = mu_a * cdf_p + mu_b * cdf_m + theta * phi;
    let e2 =
        (var_a + mu_a * mu_a) * cdf_p + (var_b + mu_b * mu_b) * cdf_m + (mu_a + mu_b) * theta * phi;
    Frame {
        theta,
        alpha,
        phi,
        cdf_p,
        cdf_m,
        mu_c,
        e2,
    }
}

/// Clark moments `(mu_c, var_c)` alone, bit-identical to the `mu`/`var`
/// fields of [`max_grad`] (same frame, same counted clamp). For forward
/// sweeps that read only the moments, such as the value-only evaluations
/// of a line search.
pub fn max_moments(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64, eps: f64) -> (f64, f64) {
    let f = frame(mu_a, var_a, mu_b, var_b, eps);
    (f.mu_c, clamp_var(f.e2 - f.mu_c * f.mu_c))
}

/// Clark moments plus exact gradient, in closed form.
///
/// Cheaper than [`max_hess`]; used on hot paths (adjoint/reduced-space
/// gradients) where second derivatives are not needed.
pub fn max_grad(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64, eps: f64) -> ClarkGrad {
    let f = frame(mu_a, var_a, mu_b, var_b, eps);
    let Frame {
        theta,
        alpha,
        phi,
        cdf_p,
        cdf_m,
        mu_c,
        e2,
    } = f;
    let w = var_a - var_b;
    let s = mu_a + mu_b;

    // d mu_c / d x.
    let dmu = [cdf_p, phi / (2.0 * theta), cdf_m, phi / (2.0 * theta)];

    // d E[C^2] / d x.
    let k_a = theta + w / theta;
    let k_b = theta - w / theta;
    let m = s / (2.0 * theta) - w * alpha / (2.0 * theta * theta);
    let de2 = [
        2.0 * mu_a * cdf_p + phi * k_a,
        cdf_p + phi * m,
        2.0 * mu_b * cdf_m + phi * k_b,
        cdf_m + phi * m,
    ];

    // var_c = E[C^2] - mu_c^2.
    let mut dvar = [0.0; 4];
    for i in 0..4 {
        dvar[i] = de2[i] - 2.0 * mu_c * dmu[i];
    }
    ClarkGrad {
        mu: mu_c,
        var: clamp_var(e2 - mu_c * mu_c),
        dmu,
        dvar,
    }
}

/// Clark moments plus exact gradient and Hessian, in closed form.
///
/// This is the workhorse used by the gate-sizing NLP assembly: both the
/// `max`-equality constraints and the Lagrangian Hessian are built from it.
/// Every entry is validated in tests against hyper-dual evaluation of
/// [`moments_generic`] and against finite differences.
pub fn max_hess(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64, eps: f64) -> ClarkHess {
    let f = frame(mu_a, var_a, mu_b, var_b, eps);
    let Frame {
        theta,
        alpha,
        phi,
        cdf_p,
        cdf_m,
        mu_c,
        e2,
    } = f;
    let w = var_a - var_b;
    let s = mu_a + mu_b;
    let d = mu_a - mu_b;
    let t2 = theta * theta;
    let t3 = t2 * theta;
    let t5 = t3 * t2;

    let dmu = [cdf_p, phi / (2.0 * theta), cdf_m, phi / (2.0 * theta)];
    let k_a = theta + w / theta;
    let k_b = theta - w / theta;
    let m = s / (2.0 * theta) - w * d / (2.0 * t3);
    let de2 = [
        2.0 * mu_a * cdf_p + phi * k_a,
        cdf_p + phi * m,
        2.0 * mu_b * cdf_m + phi * k_b,
        cdf_m + phi * m,
    ];

    // Writes a symmetric pair of Hessian entries.
    fn set(h: &mut [[f64; 4]; 4], i: usize, j: usize, v: f64) {
        h[i][j] = v;
        h[j][i] = v;
    }

    // ---- Hessian of mu_c ------------------------------------------------
    let mut hmu = [[0.0; 4]; 4];
    let pot = phi / theta; // phi / theta
    let apot2 = alpha * phi / (2.0 * t2); // alpha phi / (2 theta^2)
    let vv = phi * (alpha * alpha - 1.0) / (4.0 * t3);
    set(&mut hmu, I_MU_A, I_MU_A, pot);
    set(&mut hmu, I_MU_A, I_MU_B, -pot);
    set(&mut hmu, I_MU_B, I_MU_B, pot);
    set(&mut hmu, I_MU_A, I_VAR_A, -apot2);
    set(&mut hmu, I_MU_A, I_VAR_B, -apot2);
    set(&mut hmu, I_MU_B, I_VAR_A, apot2);
    set(&mut hmu, I_MU_B, I_VAR_B, apot2);
    set(&mut hmu, I_VAR_A, I_VAR_A, vv);
    set(&mut hmu, I_VAR_A, I_VAR_B, vv);
    set(&mut hmu, I_VAR_B, I_VAR_B, vv);

    // ---- Hessian of E[C^2] ----------------------------------------------
    let mut he2 = [[0.0; 4]; 4];
    // Derivatives of K_a, K_b, M with respect to the variances.
    let dka_dva = 3.0 / (2.0 * theta) - w / (2.0 * t3);
    let dka_dvb = -1.0 / (2.0 * theta) - w / (2.0 * t3);
    let dkb_dva = -1.0 / (2.0 * theta) + w / (2.0 * t3);
    let dkb_dvb = 3.0 / (2.0 * theta) + w / (2.0 * t3);
    let dm_dva = -s / (4.0 * t3) - d / (2.0 * t3) + 3.0 * w * d / (4.0 * t5);
    let dm_dvb = -s / (4.0 * t3) + d / (2.0 * t3) + 3.0 * w * d / (4.0 * t5);
    let a2p2t2 = alpha * alpha * phi / (2.0 * t2);

    set(
        &mut he2,
        I_MU_A,
        I_MU_A,
        2.0 * cdf_p + 2.0 * mu_a * pot - alpha * phi * k_a / theta,
    );
    set(
        &mut he2,
        I_MU_A,
        I_MU_B,
        -2.0 * mu_a * pot + alpha * phi * k_a / theta,
    );
    set(
        &mut he2,
        I_MU_B,
        I_MU_B,
        2.0 * cdf_m + 2.0 * mu_b * pot + alpha * phi * k_b / theta,
    );
    set(
        &mut he2,
        I_MU_A,
        I_VAR_A,
        -mu_a * alpha * phi / t2 + a2p2t2 * k_a + phi * dka_dva,
    );
    set(
        &mut he2,
        I_MU_A,
        I_VAR_B,
        -mu_a * alpha * phi / t2 + a2p2t2 * k_a + phi * dka_dvb,
    );
    set(
        &mut he2,
        I_MU_B,
        I_VAR_A,
        mu_b * alpha * phi / t2 + a2p2t2 * k_b + phi * dkb_dva,
    );
    set(
        &mut he2,
        I_MU_B,
        I_VAR_B,
        mu_b * alpha * phi / t2 + a2p2t2 * k_b + phi * dkb_dvb,
    );
    // From gv = dE2/dva = Phi(alpha) + phi M:
    //   d/dva Phi(alpha) = -alpha phi / (2 theta^2) = -apot2, and
    //   d/dvb Phi(-alpha) = +apot2 for the gw = dE2/dvb row.
    set(
        &mut he2,
        I_VAR_A,
        I_VAR_A,
        -apot2 + a2p2t2 * m + phi * dm_dva,
    );
    set(
        &mut he2,
        I_VAR_A,
        I_VAR_B,
        -apot2 + a2p2t2 * m + phi * dm_dvb,
    );
    set(
        &mut he2,
        I_VAR_B,
        I_VAR_B,
        apot2 + a2p2t2 * m + phi * dm_dvb,
    );

    // ---- Chain to var_c = E2 - mu_c^2 -------------------------------------
    let mut dvar = [0.0; 4];
    for i in 0..4 {
        dvar[i] = de2[i] - 2.0 * mu_c * dmu[i];
    }
    let mut hvar = [[0.0; 4]; 4];
    for i in 0..4 {
        for j in 0..4 {
            hvar[i][j] = he2[i][j] - 2.0 * (dmu[i] * dmu[j] + mu_c * hmu[i][j]);
        }
    }

    ClarkHess {
        mu: mu_c,
        var: clamp_var(e2 - mu_c * mu_c),
        dmu,
        dvar,
        hmu,
        hvar,
    }
}

/// Evaluates moments, gradient and Hessian through hyper-dual numbers.
///
/// This is the independent "second implementation" used to validate
/// [`max_hess`]; it is exact but several times slower.
pub fn max_hess_dual(mu_a: f64, var_a: f64, mu_b: f64, var_b: f64, eps: f64) -> ClarkHess {
    let a = Dual2::<4>::var(mu_a, I_MU_A);
    let va = Dual2::<4>::var(var_a, I_VAR_A);
    let b = Dual2::<4>::var(mu_b, I_MU_B);
    let vb = Dual2::<4>::var(var_b, I_VAR_B);
    let (mu, var) = moments_generic(a, va, b, vb, eps);
    ClarkHess {
        mu: mu.val,
        var: clamp_var(var.val),
        dmu: mu.grad,
        dvar: var.grad,
        hmu: mu.hess,
        hvar: var.hess,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CASES: &[[f64; 4]] = &[
        [0.0, 1.0, 0.0, 1.0],
        [1.0, 1.0, 0.0, 1.0],
        [5.0, 2.0, 4.5, 0.5],
        [-3.0, 0.1, -2.9, 0.4],
        [10.0, 4.0, 2.0, 0.01],
        [2.0, 0.01, 10.0, 4.0],
        [7.4, 3.4225, 7.4, 3.4225], // tree-circuit-like values
        [100.0, 25.0, 99.0, 36.0],
        [0.3, 1e-4, 0.30001, 1e-4],
        [-1.0, 9.0, 4.0, 1e-6],
    ];

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn matches_dual_everywhere() {
        for &[ma, va, mb, vb] in CASES {
            let h = max_hess(ma, va, mb, vb, DEFAULT_EPS);
            let d = max_hess_dual(ma, va, mb, vb, DEFAULT_EPS);
            assert!(
                close(h.mu, d.mu, 1e-12),
                "mu mismatch at {ma},{va},{mb},{vb}"
            );
            assert!(
                close(h.var, d.var, 1e-10),
                "var mismatch at {ma},{va},{mb},{vb}"
            );
            for i in 0..4 {
                assert!(
                    close(h.dmu[i], d.dmu[i], 1e-10),
                    "dmu[{i}] {} vs {} at {ma},{va},{mb},{vb}",
                    h.dmu[i],
                    d.dmu[i]
                );
                assert!(
                    close(h.dvar[i], d.dvar[i], 1e-9),
                    "dvar[{i}] {} vs {} at {ma},{va},{mb},{vb}",
                    h.dvar[i],
                    d.dvar[i]
                );
                for j in 0..4 {
                    assert!(
                        close(h.hmu[i][j], d.hmu[i][j], 1e-8),
                        "hmu[{i}][{j}] {} vs {} at {ma},{va},{mb},{vb}",
                        h.hmu[i][j],
                        d.hmu[i][j]
                    );
                    assert!(
                        close(h.hvar[i][j], d.hvar[i][j], 1e-7),
                        "hvar[{i}][{j}] {} vs {} at {ma},{va},{mb},{vb}",
                        h.hvar[i][j],
                        d.hvar[i][j]
                    );
                }
            }
        }
    }

    #[test]
    fn grad_matches_hess_paths() {
        for &[ma, va, mb, vb] in CASES {
            let g = max_grad(ma, va, mb, vb, DEFAULT_EPS);
            let h = max_hess(ma, va, mb, vb, DEFAULT_EPS);
            assert_eq!(g.mu, h.mu);
            assert_eq!(g.var, h.var);
            assert_eq!(g.dmu, h.dmu);
            assert_eq!(g.dvar, h.dvar);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let eps = DEFAULT_EPS;
        for &[ma, va, mb, vb] in CASES {
            let g = max_grad(ma, va, mb, vb, eps);
            let h = 1e-6;
            let num = |i: usize| -> (f64, f64) {
                let mut p = [ma, va, mb, vb];
                let mut m = [ma, va, mb, vb];
                let step = h * (1.0 + p[i].abs());
                p[i] += step;
                m[i] -= step;
                let fp = moments_generic(p[0], p[1], p[2], p[3], eps);
                let fm = moments_generic(m[0], m[1], m[2], m[3], eps);
                ((fp.0 - fm.0) / (2.0 * step), (fp.1 - fm.1) / (2.0 * step))
            };
            for i in 0..4 {
                let (dmu_n, dvar_n) = num(i);
                assert!(close(g.dmu[i], dmu_n, 1e-5), "dmu[{i}] fd mismatch");
                assert!(close(g.dvar[i], dvar_n, 1e-4), "dvar[{i}] fd mismatch");
            }
        }
    }

    #[test]
    fn hessians_symmetric() {
        for &[ma, va, mb, vb] in CASES {
            let h = max_hess(ma, va, mb, vb, DEFAULT_EPS);
            for i in 0..4 {
                for j in 0..4 {
                    assert_eq!(h.hmu[i][j], h.hmu[j][i]);
                    assert_eq!(h.hvar[i][j], h.hvar[j][i]);
                }
            }
        }
    }

    #[test]
    fn commutative() {
        for &[ma, va, mb, vb] in CASES {
            let ab = max(Normal::from_mean_var(ma, va), Normal::from_mean_var(mb, vb));
            let ba = max(Normal::from_mean_var(mb, vb), Normal::from_mean_var(ma, va));
            assert!(close(ab.mean(), ba.mean(), 1e-12));
            assert!(close(ab.var(), ba.var(), 1e-10));
        }
    }

    #[test]
    fn dominant_operand_limit() {
        // When A is far above B, max(A, B) ~ A.
        let a = Normal::new(100.0, 1.0);
        let b = Normal::new(0.0, 1.0);
        let c = max(a, b);
        assert!(close(c.mean(), 100.0, 1e-12));
        assert!(close(c.var(), 1.0, 1e-12));
    }

    #[test]
    fn degenerate_deterministic_max() {
        let a = Normal::certain(3.0);
        let b = Normal::certain(5.0);
        let c = max(a, b);
        assert!((c.mean() - 5.0).abs() < 1e-8);
        assert!(c.sigma() < 1e-8);
    }

    #[test]
    fn mean_dominates_operands() {
        for &[ma, va, mb, vb] in CASES {
            let c = max(Normal::from_mean_var(ma, va), Normal::from_mean_var(mb, vb));
            assert!(c.mean() >= ma.max(mb) - 1e-12, "max mean below operands");
        }
    }

    #[test]
    fn equal_operands_reduce_sigma() {
        // Known closed form: max of two iid N(mu, s^2) has mean
        // mu + s/sqrt(pi) and variance s^2 (1 - 1/pi).
        let mu = 2.0;
        let s = 1.5;
        let c = max(Normal::new(mu, s), Normal::new(mu, s));
        let want_mean = mu + s / std::f64::consts::PI.sqrt();
        let want_var = s * s * (1.0 - 1.0 / std::f64::consts::PI);
        assert!(close(c.mean(), want_mean, 1e-9));
        assert!(close(c.var(), want_var, 1e-9));
    }

    #[test]
    fn min_is_dual_of_max() {
        for &[ma, va, mb, vb] in CASES {
            let a = Normal::from_mean_var(ma, va);
            let b = Normal::from_mean_var(mb, vb);
            let mn = min(a, b);
            // E[min] + E[max] = E[A] + E[B] for any pair.
            let mx = max(a, b);
            assert!(
                close(mn.mean() + mx.mean(), ma + mb, 1e-9),
                "identity broken at {ma},{va},{mb},{vb}"
            );
            assert!(mn.mean() <= ma.min(mb) + 1e-12);
        }
    }

    #[test]
    fn min_matches_monte_carlo() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let a = Normal::new(4.0, 1.0);
        let b = Normal::new(4.5, 0.8);
        let exact = min(a, b);
        let mut rng = StdRng::seed_from_u64(99);
        let (m, v) = crate::mc::moments(
            (0..200_000)
                .map(|_| crate::mc::sample(a, &mut rng).min(crate::mc::sample(b, &mut rng))),
        );
        assert!(close(exact.mean(), m, 0.01));
        assert!(close(exact.var(), v, 0.05));
    }

    #[test]
    fn max_n_folds_left() {
        let xs = [
            Normal::new(1.0, 0.3),
            Normal::new(2.0, 0.4),
            Normal::new(1.5, 0.2),
        ];
        let folded = max_n(xs).unwrap();
        let manual = max(max(xs[0], xs[1]), xs[2]);
        assert_eq!(folded, manual);
        assert!(max_n(std::iter::empty()).is_none());
        assert_eq!(max_n([xs[0]]).unwrap(), xs[0]);
    }
}

/// Lanes processed per unrolled step of the batched kernels. Four lanes
/// keep the transcendental evaluations (`exp` inside the pdf, the cdf
/// series) adjacent so the out-of-order core overlaps their latency, while
/// the per-lane arithmetic stays scalar — and therefore bit-identical to
/// the one-pair functions.
const BATCH_LANES: usize = 4;

/// One lane of the batched moment kernel: exactly the operations of
/// [`moments_generic::<f64>`] given the precomputed frame values, plus the
/// counted clamp of [`max_eps`]. Returns `(mu_c, var_c, clamped)`.
#[inline]
#[allow(clippy::too_many_arguments)]
fn batch_moments_lane(
    mu_a: f64,
    var_a: f64,
    mu_b: f64,
    var_b: f64,
    theta: f64,
    phi: f64,
    cdf_p: f64,
    cdf_m: f64,
) -> (f64, f64, bool) {
    let mu_c = mu_a * cdf_p + mu_b * cdf_m + theta * phi;
    let e2 =
        (var_a + mu_a * mu_a) * cdf_p + (var_b + mu_b * mu_b) * cdf_m + (mu_a + mu_b) * theta * phi;
    let var = e2 - mu_c * mu_c;
    if var >= 0.0 {
        (mu_c, var, false)
    } else {
        // NaN falls here too but is a divergence, not a clamp — mirror
        // `clamp_var` exactly, including what gets counted.
        (mu_c, 0.0, var < 0.0)
    }
}

/// Batched Clark maximum over structure-of-arrays operands: lane `i`
/// computes `max(N(mu_a[i], var_a[i]), N(mu_b[i], var_b[i]))` into
/// `(out_mu[i], out_var[i])`.
///
/// Every lane is **bit-identical** to [`max_eps`] on the same operands —
/// same operation order, same smoothing floor, same counted variance
/// clamp — for any batch size and any position within the batch. The
/// speedup comes purely from schedule: operands stream from contiguous
/// arrays, the main loop is unrolled [`BATCH_LANES`] wide, and the
/// expensive `erf`/`exp`-class evaluations (pdf, both cdf orientations)
/// are hoisted into their own per-lane passes so their latencies overlap.
/// Clamp firings are accumulated locally and published to the clamp
/// tallies (see [`var_clamp_count`]) once per call.
///
/// # Panics
///
/// Panics if the six slices do not all have the same length.
pub fn max_batch(
    mu_a: &[f64],
    var_a: &[f64],
    mu_b: &[f64],
    var_b: &[f64],
    eps: f64,
    out_mu: &mut [f64],
    out_var: &mut [f64],
) {
    let n = mu_a.len();
    assert_eq!(var_a.len(), n, "batch length mismatch");
    assert_eq!(mu_b.len(), n, "batch length mismatch");
    assert_eq!(var_b.len(), n, "batch length mismatch");
    assert_eq!(out_mu.len(), n, "batch length mismatch");
    assert_eq!(out_var.len(), n, "batch length mismatch");
    let eps2 = eps * eps;
    let mut clamped = 0u64;

    let mut i = 0;
    while i + BATCH_LANES <= n {
        let mut theta = [0.0; BATCH_LANES];
        let mut alpha = [0.0; BATCH_LANES];
        let mut phi = [0.0; BATCH_LANES];
        let mut cdf_p = [0.0; BATCH_LANES];
        let mut cdf_m = [0.0; BATCH_LANES];
        for l in 0..BATCH_LANES {
            let t = (var_a[i + l] + var_b[i + l] + eps2).sqrt();
            theta[l] = t;
            alpha[l] = (mu_a[i + l] - mu_b[i + l]) / t;
        }
        for l in 0..BATCH_LANES {
            phi[l] = crate::special::normal_pdf(alpha[l]);
        }
        for l in 0..BATCH_LANES {
            cdf_p[l] = crate::special::normal_cdf(alpha[l]);
        }
        for l in 0..BATCH_LANES {
            cdf_m[l] = crate::special::normal_cdf(-alpha[l]);
        }
        for l in 0..BATCH_LANES {
            let (mu, var, c) = batch_moments_lane(
                mu_a[i + l],
                var_a[i + l],
                mu_b[i + l],
                var_b[i + l],
                theta[l],
                phi[l],
                cdf_p[l],
                cdf_m[l],
            );
            out_mu[i + l] = mu;
            out_var[i + l] = var;
            clamped += u64::from(c);
        }
        i += BATCH_LANES;
    }
    while i < n {
        let theta = (var_a[i] + var_b[i] + eps2).sqrt();
        let alpha = (mu_a[i] - mu_b[i]) / theta;
        let phi = crate::special::normal_pdf(alpha);
        let cdf_p = crate::special::normal_cdf(alpha);
        let cdf_m = crate::special::normal_cdf(-alpha);
        let (mu, var, c) = batch_moments_lane(
            mu_a[i], var_a[i], mu_b[i], var_b[i], theta, phi, cdf_p, cdf_m,
        );
        out_mu[i] = mu;
        out_var[i] = var;
        clamped += u64::from(c);
        i += 1;
    }
    if clamped > 0 {
        record_clamps(clamped);
    }
}

/// One lane of the batched gradient kernel: exactly [`max_grad`] given the
/// precomputed frame values (which use the `1 - Phi(alpha)` complement,
/// like [`frame`]). Returns the gradient struct plus the clamp flag.
#[inline]
#[allow(clippy::too_many_arguments)]
fn batch_grad_lane(
    mu_a: f64,
    var_a: f64,
    mu_b: f64,
    var_b: f64,
    theta: f64,
    alpha: f64,
    phi: f64,
    cdf_p: f64,
) -> (ClarkGrad, bool) {
    let cdf_m = 1.0 - cdf_p;
    let mu_c = mu_a * cdf_p + mu_b * cdf_m + theta * phi;
    let e2 =
        (var_a + mu_a * mu_a) * cdf_p + (var_b + mu_b * mu_b) * cdf_m + (mu_a + mu_b) * theta * phi;
    let w = var_a - var_b;
    let s = mu_a + mu_b;

    let dmu = [cdf_p, phi / (2.0 * theta), cdf_m, phi / (2.0 * theta)];
    let k_a = theta + w / theta;
    let k_b = theta - w / theta;
    let m = s / (2.0 * theta) - w * alpha / (2.0 * theta * theta);
    let de2 = [
        2.0 * mu_a * cdf_p + phi * k_a,
        cdf_p + phi * m,
        2.0 * mu_b * cdf_m + phi * k_b,
        cdf_m + phi * m,
    ];
    let mut dvar = [0.0; 4];
    for i in 0..4 {
        dvar[i] = de2[i] - 2.0 * mu_c * dmu[i];
    }
    let var = e2 - mu_c * mu_c;
    let (var, clamp) = if var >= 0.0 {
        (var, false)
    } else {
        (0.0, var < 0.0)
    };
    (
        ClarkGrad {
            mu: mu_c,
            var,
            dmu,
            dvar,
        },
        clamp,
    )
}

/// Batched [`max_grad`]: lane `i` evaluates the Clark moments **and exact
/// first derivatives** for the operand quadruple `(mu_a[i], var_a[i],
/// mu_b[i], var_b[i])` into `out[i]`.
///
/// Bit-identical to calling [`max_grad`] per lane (which computes the
/// complementary cdf as `1 - Phi(alpha)`, unlike the moment-only path);
/// the transcendental evaluations are hoisted and the loop unrolled as in
/// [`max_batch`], and variance clamps are published once per call.
///
/// # Panics
///
/// Panics if the five slices do not all have the same length.
pub fn max_grad_batch(
    mu_a: &[f64],
    var_a: &[f64],
    mu_b: &[f64],
    var_b: &[f64],
    eps: f64,
    out: &mut [ClarkGrad],
) {
    let n = mu_a.len();
    assert_eq!(var_a.len(), n, "batch length mismatch");
    assert_eq!(mu_b.len(), n, "batch length mismatch");
    assert_eq!(var_b.len(), n, "batch length mismatch");
    assert_eq!(out.len(), n, "batch length mismatch");
    let eps2 = eps * eps;
    let mut clamped = 0u64;

    let mut i = 0;
    while i + BATCH_LANES <= n {
        let mut theta = [0.0; BATCH_LANES];
        let mut alpha = [0.0; BATCH_LANES];
        let mut phi = [0.0; BATCH_LANES];
        let mut cdf_p = [0.0; BATCH_LANES];
        for l in 0..BATCH_LANES {
            let t = (var_a[i + l] + var_b[i + l] + eps2).sqrt();
            theta[l] = t;
            alpha[l] = (mu_a[i + l] - mu_b[i + l]) / t;
        }
        for l in 0..BATCH_LANES {
            phi[l] = crate::special::normal_pdf(alpha[l]);
        }
        for l in 0..BATCH_LANES {
            cdf_p[l] = crate::special::normal_cdf(alpha[l]);
        }
        for l in 0..BATCH_LANES {
            let (g, c) = batch_grad_lane(
                mu_a[i + l],
                var_a[i + l],
                mu_b[i + l],
                var_b[i + l],
                theta[l],
                alpha[l],
                phi[l],
                cdf_p[l],
            );
            out[i + l] = g;
            clamped += u64::from(c);
        }
        i += BATCH_LANES;
    }
    while i < n {
        let theta = (var_a[i] + var_b[i] + eps2).sqrt();
        let alpha = (mu_a[i] - mu_b[i]) / theta;
        let phi = crate::special::normal_pdf(alpha);
        let cdf_p = crate::special::normal_cdf(alpha);
        let (g, c) = batch_grad_lane(
            mu_a[i], var_a[i], mu_b[i], var_b[i], theta, alpha, phi, cdf_p,
        );
        out[i] = g;
        clamped += u64::from(c);
        i += 1;
    }
    if clamped > 0 {
        record_clamps(clamped);
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;

    /// Operand sets exercising dominance, near-ties and clamp-prone
    /// cancellation, tiled to arbitrary batch lengths.
    fn operands(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let base: &[[f64; 4]] = &[
            [0.0, 1.0, 0.0, 1.0],
            [5.0, 2.0, 4.5, 0.5],
            [-3.0, 0.1, -2.9, 0.4],
            [10.0, 4.0, 2.0, 0.01],
            [0.3, 1e-4, 0.30001, 1e-4],
            [-1.0, 9.0, 4.0, 1e-6],
            [100.0, 25.0, 99.0, 36.0],
            [2.0, 1e-12, 30.0, 1e-12], // dominant: clamp-prone
        ];
        let pick = |i: usize, j: usize| base[i % base.len()][j];
        (
            (0..n).map(|i| pick(i, 0)).collect(),
            (0..n).map(|i| pick(i, 1)).collect(),
            (0..n).map(|i| pick(i, 2)).collect(),
            (0..n).map(|i| pick(i, 3)).collect(),
        )
    }

    #[test]
    fn moments_bitwise_match_scalar_at_every_length() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
            let (ma, va, mb, vb) = operands(n);
            let mut om = vec![0.0; n];
            let mut ov = vec![0.0; n];
            max_batch(&ma, &va, &mb, &vb, DEFAULT_EPS, &mut om, &mut ov);
            for i in 0..n {
                let want = max_eps(
                    Normal::from_mean_var(ma[i], va[i]),
                    Normal::from_mean_var(mb[i], vb[i]),
                    DEFAULT_EPS,
                );
                assert_eq!(om[i].to_bits(), want.mean().to_bits(), "mu lane {i} of {n}");
                assert_eq!(ov[i].to_bits(), want.var().to_bits(), "var lane {i} of {n}");
            }
        }
    }

    #[test]
    fn grads_bitwise_match_scalar_at_every_length() {
        for n in [1, 3, 4, 6, 8, 11, 32] {
            let (ma, va, mb, vb) = operands(n);
            let mut out = vec![
                ClarkGrad {
                    mu: 0.0,
                    var: 0.0,
                    dmu: [0.0; 4],
                    dvar: [0.0; 4],
                };
                n
            ];
            max_grad_batch(&ma, &va, &mb, &vb, DEFAULT_EPS, &mut out);
            for i in 0..n {
                let want = max_grad(ma[i], va[i], mb[i], vb[i], DEFAULT_EPS);
                assert_eq!(out[i], want, "lane {i} of {n}");
            }
        }
    }

    #[test]
    fn clamp_counter_advances_exactly_as_scalar() {
        let (ma, va, mb, vb) = operands(64);
        // Scalar pass: count clamps the one-pair way.
        let before = thread_var_clamp_count();
        for i in 0..64 {
            let _ = max_eps(
                Normal::from_mean_var(ma[i], va[i]),
                Normal::from_mean_var(mb[i], vb[i]),
                DEFAULT_EPS,
            );
        }
        let scalar_clamps = thread_var_clamp_count() - before;
        // Batched pass must advance the counter by the same amount.
        let mut om = vec![0.0; 64];
        let mut ov = vec![0.0; 64];
        let before = thread_var_clamp_count();
        max_batch(&ma, &va, &mb, &vb, DEFAULT_EPS, &mut om, &mut ov);
        assert_eq!(thread_var_clamp_count() - before, scalar_clamps);
    }

    /// [`operands`] plus a pair whose variance cancels below zero in the
    /// [`frame`] arithmetic (`B` dominates at `alpha ~ -7.4`), so every
    /// set of 9 lanes fires at least one clamp.
    fn clamping_operands(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let (mut ma, mut va, mut mb, mut vb) = operands(n);
        for i in (8..n).step_by(9) {
            ma[i] = 45.819_505_757_673_95;
            va[i] = 68.475_129_009_259_67f64.powi(2);
            mb[i] = 549.342_819_022_493_9;
            vb[i] = 3.915_233_261_414_990_7e-7f64.powi(2);
        }
        (ma, va, mb, vb)
    }

    #[test]
    fn max_moments_is_max_grad_without_the_gradient() {
        let (ma, va, mb, vb) = clamping_operands(256);
        let mut clamps = 0;
        for i in 0..256 {
            let before = thread_var_clamp_count();
            let g = max_grad(ma[i], va[i], mb[i], vb[i], DEFAULT_EPS);
            let grad_clamps = thread_var_clamp_count() - before;
            let before = thread_var_clamp_count();
            let (mu, var) = max_moments(ma[i], va[i], mb[i], vb[i], DEFAULT_EPS);
            assert_eq!(thread_var_clamp_count() - before, grad_clamps, "pair {i}");
            assert_eq!(mu.to_bits(), g.mu.to_bits(), "pair {i}");
            assert_eq!(var.to_bits(), g.var.to_bits(), "pair {i}");
            clamps += grad_clamps;
        }
        assert!(clamps > 0, "the operand set must exercise the clamp");
    }

    #[test]
    fn taken_clamps_leave_the_thread_until_credited() {
        let (ma, va, mb, vb) = clamping_operands(64);
        let mut om = vec![0.0; 64];
        let mut ov = vec![0.0; 64];
        let start = thread_var_clamp_count();
        max_batch(&ma, &va, &mb, &vb, DEFAULT_EPS, &mut om, &mut ov);
        let direct = thread_var_clamp_count() - start;
        assert!(direct > 0);

        let before = thread_var_clamp_count();
        let ((), taken) = take_var_clamps(|| {
            max_batch(&ma, &va, &mb, &vb, DEFAULT_EPS, &mut om, &mut ov);
        });
        assert_eq!(taken, direct);
        assert_eq!(
            thread_var_clamp_count(),
            before,
            "taken clamps left the tally"
        );
        // Work on another thread never reaches this one's tally, until
        // its count is credited back.
        let remote = std::thread::scope(|s| {
            s.spawn(|| {
                let (mut om, mut ov) = (vec![0.0; 64], vec![0.0; 64]);
                take_var_clamps(|| max_batch(&ma, &va, &mb, &vb, DEFAULT_EPS, &mut om, &mut ov)).1
            })
            .join()
            .unwrap()
        });
        assert_eq!(thread_var_clamp_count(), before);
        credit_var_clamps(taken + remote);
        assert_eq!(thread_var_clamp_count(), before + 2 * direct);
    }

    #[test]
    #[should_panic(expected = "batch length mismatch")]
    fn length_mismatch_rejected() {
        let mut om = [0.0; 2];
        let mut ov = [0.0; 2];
        max_batch(
            &[0.0, 1.0],
            &[1.0, 1.0],
            &[0.0],
            &[1.0, 1.0],
            DEFAULT_EPS,
            &mut om,
            &mut ov,
        );
    }
}

/// Moments of `max(A, B)` for **correlated** jointly normal operands with
/// correlation coefficient `rho` — Clark's general case, which the paper
/// lists as future work ("dealing with correlations between stochastic
/// variables in the circuit, as a result of reconverging paths").
///
/// The formulas are the independent ones with
/// `theta^2 = var_a + var_b - 2 rho sigma_a sigma_b`:
///
/// ```
/// use sgs_statmath::{clark, Normal};
/// let a = Normal::new(5.0, 1.0);
/// // Perfectly correlated identical operands: max(A, A) = A.
/// let c = clark::max_correlated(a, a, 1.0);
/// assert!((c.mean() - 5.0).abs() < 1e-6);
/// assert!((c.sigma() - 1.0).abs() < 1e-3);
/// ```
///
/// # Panics
///
/// Panics if `rho` is outside `[-1, 1]`.
pub fn max_correlated(a: Normal, b: Normal, rho: f64) -> Normal {
    assert!(
        (-1.0..=1.0).contains(&rho),
        "correlation out of range: {rho}"
    );
    let (sa, sb) = (a.sigma(), b.sigma());
    let theta2 = (a.var() + b.var() - 2.0 * rho * sa * sb).max(0.0) + DEFAULT_EPS * DEFAULT_EPS;
    let theta = theta2.sqrt();
    let alpha = (a.mean() - b.mean()) / theta;
    let phi = crate::special::normal_pdf(alpha);
    let cdf_p = crate::special::normal_cdf(alpha);
    let cdf_m = 1.0 - cdf_p;
    let mu = a.mean() * cdf_p + b.mean() * cdf_m + theta * phi;
    let e2 = (a.var() + a.mean() * a.mean()) * cdf_p
        + (b.var() + b.mean() * b.mean()) * cdf_m
        + (a.mean() + b.mean()) * theta * phi;
    Normal::from_mean_var(mu, clamp_var(e2 - mu * mu))
}

/// Clark's covariance propagation: for `C = max(A, B)` and any variable
/// `X` jointly normal with both, `cov(C, X) = cov(A, X) Phi(alpha) +
/// cov(B, X) Phi(-alpha)`. This returns the *tightness probability*
/// `Phi(alpha)` (the weight of operand A), which is all a canonical-form
/// SSTA needs to propagate sensitivities through a max.
pub fn tightness(a: Normal, b: Normal, rho: f64) -> f64 {
    assert!(
        (-1.0..=1.0).contains(&rho),
        "correlation out of range: {rho}"
    );
    let (sa, sb) = (a.sigma(), b.sigma());
    let theta2 = (a.var() + b.var() - 2.0 * rho * sa * sb).max(0.0) + DEFAULT_EPS * DEFAULT_EPS;
    let alpha = (a.mean() - b.mean()) / theta2.sqrt();
    crate::special::normal_cdf(alpha)
}

#[cfg(test)]
mod correlated_tests {
    use super::*;
    use crate::mc;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn rho_zero_matches_independent() {
        let a = Normal::new(3.0, 1.0);
        let b = Normal::new(2.5, 0.7);
        let ind = max(a, b);
        let cor = max_correlated(a, b, 0.0);
        assert!(close(ind.mean(), cor.mean(), 1e-12));
        assert!(close(ind.var(), cor.var(), 1e-10));
    }

    #[test]
    fn full_correlation_identical_operands_is_identity() {
        let a = Normal::new(-2.0, 1.5);
        let c = max_correlated(a, a, 1.0);
        assert!(close(c.mean(), a.mean(), 1e-6));
        assert!(close(c.var(), a.var(), 1e-4));
    }

    #[test]
    fn correlation_shrinks_max_mean_bump() {
        // For equal operands, the mean bump theta phi(0) shrinks as rho
        // grows: correlated paths do not "help each other up".
        let a = Normal::new(5.0, 1.0);
        let bump = |rho: f64| max_correlated(a, a, rho).mean() - 5.0;
        assert!(bump(0.0) > bump(0.5));
        assert!(bump(0.5) > bump(0.9));
        assert!(bump(0.9) > -1e-12);
    }

    #[test]
    fn correlated_max_matches_monte_carlo() {
        // Sample correlated pairs via a shared component.
        for &rho in &[-0.6, -0.2, 0.3, 0.8] {
            let a = Normal::new(4.0, 1.2);
            let b = Normal::new(4.4, 0.9);
            let exact = max_correlated(a, b, rho);
            let mut rng = StdRng::seed_from_u64(777);
            let n = 300_000;
            let (rho_abs, sign) = (rho.abs(), rho.signum());
            let (mean, var) = mc::moments((0..n).map(|_| {
                let shared = mc::standard_normal(&mut rng);
                let za = (rho_abs).sqrt() * shared
                    + (1.0 - rho_abs).sqrt() * mc::standard_normal(&mut rng);
                let zb = sign * rho_abs.sqrt() * shared
                    + (1.0 - rho_abs).sqrt() * mc::standard_normal(&mut rng);
                let xa = a.mean() + a.sigma() * za;
                let xb = b.mean() + b.sigma() * zb;
                xa.max(xb)
            }));
            assert!(
                close(exact.mean(), mean, 0.01),
                "rho {rho}: mean {} vs MC {mean}",
                exact.mean()
            );
            assert!(
                close(exact.var(), var, 0.05),
                "rho {rho}: var {} vs MC {var}",
                exact.var()
            );
        }
    }

    #[test]
    fn tightness_is_probability_and_monotone() {
        let b = Normal::new(5.0, 1.0);
        let mut prev = 0.0;
        for i in 0..20 {
            let mu = 2.0 + 0.3 * f64::from(i);
            let t = tightness(Normal::new(mu, 1.0), b, 0.2);
            assert!((0.0..=1.0).contains(&t));
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    #[should_panic(expected = "correlation out of range")]
    fn rho_checked() {
        let _ = max_correlated(Normal::certain(0.0), Normal::certain(0.0), 1.5);
    }
}
