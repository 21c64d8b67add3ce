//! Independent output checks, run outside the timed region.
//!
//! Every sizing answer is re-analysed from scratch with a clean
//! `sgs_ssta::ssta` pass at the returned sizes, and every what-if answer
//! is compared bit for bit against a from-scratch pass at the probed
//! sizes. Nothing here trusts a number the program reported about itself.

use sgs_core::{DelaySpec, Objective};
use sgs_netlist::{Circuit, GateId, Library};
use sgs_statmath::Normal;

/// A sizing answer as the program reported it.
#[derive(Debug, Clone)]
pub struct SizingAnswer {
    /// Op label, for failure listings.
    pub op: String,
    /// Returned speed factors.
    pub s: Vec<f64>,
    /// Reported circuit delay.
    pub delay: Normal,
    /// Reported `sum S`.
    pub area: f64,
    /// The spec the op had to meet.
    pub spec: DelaySpec,
}

/// A what-if answer as the program reported it.
#[derive(Debug, Clone)]
pub struct WhatIfAnswer {
    /// Reported circuit delay at the probed sizes.
    pub delay: Normal,
    /// Reported objective value.
    pub objective: f64,
    /// Reported spec violation.
    pub spec_violation: f64,
}

/// Size changes of one what-if probe (later entries for a gate win).
pub type Changes = Vec<(GateId, f64)>;

/// A battery of what-if probes around one base sizing.
#[derive(Debug, Clone)]
pub struct Battery {
    /// Op label, for failure listings.
    pub op: String,
    /// Objective the resolver scores probes with.
    pub objective: Objective,
    /// Spec the resolver checks probes against.
    pub spec: DelaySpec,
    /// Sizes every probe starts from (and is reverted to).
    pub base: Vec<f64>,
    /// Each probe's size changes and the answer each repeat got.
    pub probes: Vec<(Changes, Vec<WhatIfAnswer>)>,
    /// Sizes the resolver held after the last revert.
    pub after: Vec<f64>,
}

/// The acceptable spec violation for `spec`: the sizer's own
/// `1e-3 (1 + |D|)`.
pub fn spec_tolerance(spec: &DelaySpec) -> f64 {
    match spec {
        DelaySpec::MaxMean(d)
        | DelaySpec::MaxMeanPlusKSigma { d, .. }
        | DelaySpec::ExactMean(d) => 1e-3 * (1.0 + d.abs()),
        _ => f64::INFINITY,
    }
}

/// Spec violation of a circuit delay (0 when met).
///
/// # Panics
///
/// Panics on a per-output spec, which no workload uses.
pub fn spec_violation(spec: &DelaySpec, delay: Normal) -> f64 {
    let (mu, sigma) = (delay.mean(), delay.sigma());
    match spec {
        DelaySpec::None => 0.0,
        DelaySpec::MaxMean(d) => (mu - d).max(0.0),
        DelaySpec::MaxMeanPlusKSigma { k, d } => (mu + k * sigma - d).max(0.0),
        DelaySpec::ExactMean(d) => (mu - d).abs(),
        other => panic!("no workload uses {other:?}"),
    }
}

/// Objective value at sizes `s` with circuit delay `delay`.
///
/// # Panics
///
/// Panics on a weighted-area objective, which no workload uses.
pub fn objective_value(objective: &Objective, s: &[f64], delay: Normal) -> f64 {
    let (mu, sigma) = (delay.mean(), delay.sigma());
    match objective {
        Objective::Area => s.iter().sum(),
        Objective::MeanDelay => mu,
        Objective::MeanPlusKSigma(k) => mu + k * sigma,
        Objective::Sigma => sigma,
        Objective::NegSigma => -sigma,
        other => panic!("no workload uses {other:?}"),
    }
}

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Checks one sizing answer: sizes finite and inside `[1, s_limit]`, a
/// clean SSTA at them reproduces the reported mu, sigma and `sum S`
/// exactly, and the spec is met within [`spec_tolerance`].
///
/// # Errors
///
/// Returns what is wrong, prefixed with the op label.
pub fn check_sizing(circuit: &Circuit, lib: &Library, a: &SizingAnswer) -> Result<(), String> {
    let fail = |what: String| Err(format!("{}: {what}", a.op));
    if a.s.len() != circuit.num_gates() {
        return fail(format!(
            "{} sizes for {} gates",
            a.s.len(),
            circuit.num_gates()
        ));
    }
    if let Some((g, v)) =
        a.s.iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite() || **v < 1.0 || **v > lib.s_limit)
    {
        return fail(format!(
            "size of gate {g} is {v}, outside [1, {}]",
            lib.s_limit
        ));
    }
    let clean = sgs_ssta::ssta(circuit, lib, &a.s);
    if !same(clean.delay.mean(), a.delay.mean()) || !same(clean.delay.var(), a.delay.var()) {
        return fail(format!(
            "reported mu {} sigma {}, clean SSTA gives mu {} sigma {}",
            a.delay.mean(),
            a.delay.sigma(),
            clean.delay.mean(),
            clean.delay.sigma()
        ));
    }
    let area: f64 = a.s.iter().sum();
    if !same(area, a.area) {
        return fail(format!("reported sum S {}, sizes sum to {area}", a.area));
    }
    let viol = spec_violation(&a.spec, clean.delay);
    if viol > spec_tolerance(&a.spec) {
        return fail(format!("misses {:?} by {viol}", a.spec));
    }
    Ok(())
}

/// Checks every answer of every probe of a battery against a from-scratch
/// SSTA at the probed sizes, bit for bit, and that the reverts restored
/// the base.
///
/// # Errors
///
/// Returns one message per wrong probe, prefixed with the op label.
pub fn check_battery(circuit: &Circuit, lib: &Library, b: &Battery) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, (changes, answers)) in b.probes.iter().enumerate() {
        let mut s = b.base.clone();
        for &(g, v) in changes {
            s[g.index()] = v;
        }
        let clean = sgs_ssta::ssta(circuit, lib, &s);
        let objective = objective_value(&b.objective, &s, clean.delay);
        let viol = spec_violation(&b.spec, clean.delay);
        let wrong = answers.iter().find(|a| {
            !(same(clean.delay.mean(), a.delay.mean())
                && same(clean.delay.var(), a.delay.var())
                && same(objective, a.objective)
                && same(viol, a.spec_violation))
        });
        if answers.is_empty() {
            errors.push(format!("{} probe {i}: no answer", b.op));
        } else if let Some(a) = wrong {
            errors.push(format!(
                "{} probe {i}: answered mu {} var {}, from scratch mu {} var {}",
                b.op,
                a.delay.mean(),
                a.delay.var(),
                clean.delay.mean(),
                clean.delay.var()
            ));
        }
    }
    if b.after.len() != b.base.len() || b.after.iter().zip(&b.base).any(|(x, y)| !same(*x, *y)) {
        errors.push(format!("{}: reverts did not restore the base sizes", b.op));
    }
    errors
}
