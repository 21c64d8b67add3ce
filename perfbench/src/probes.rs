//! What-if probe batteries through `Resolver::what_if`.
//!
//! A battery asks, around one accepted sizing, "what happens to the delay
//! if these gates change size?" for a fixed list of 1- and 8-gate probes,
//! reverting each probe before the next. The gates and size factors are
//! drawn from the seed before any timing starts. Each probe is applied and
//! reverted [`REPEATS`] times in a row and its latency is the median of
//! the repeats, so one preemption by another process on the machine does
//! not become a tail sample; the tail then reflects the probes' own work
//! (the size of their dirty cones).

use crate::check::{Battery, Changes, WhatIfAnswer};
use crate::layers::{CallStat, Recorder};
use sgs_core::{Resolver, WhatIfReport};
use sgs_netlist::GateId;
use std::time::Instant;

/// Probes in a battery, unless a workload has so few batteries that this
/// would leave a pass under [`MIN_PROBES_PER_PASS`].
pub const PROBES_PER_BATTERY: usize = 200;

/// Fewest probes one pass over a workload runs, so the latency median and
/// tail rest on enough distinct probes whatever the seed draws.
pub const MIN_PROBES_PER_PASS: usize = 600;

/// Times each probe is applied and reverted; its latency is their median.
pub const REPEATS: usize = 3;

/// Probes per battery for a workload with `batteries` batteries a pass.
pub fn battery_size(batteries: usize) -> usize {
    PROBES_PER_BATTERY.max(MIN_PROBES_PER_PASS.div_ceil(batteries.max(1)))
}

/// splitmix64: a small, fixed, dependency-free generator, so probe lists
/// depend on the seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A probe before its base sizing is known: gates and size factors.
#[derive(Debug, Clone)]
pub struct ProbeSpec {
    /// `(gate index, factor in [1.05, 1.3))` pairs.
    pub moves: Vec<(usize, f64)>,
}

/// A battery's probe list of `count` probes: even probes move 1 gate, odd
/// ones 8.
pub fn plan(rng: &mut Rng, gates: usize, count: usize) -> Vec<ProbeSpec> {
    (0..count)
        .map(|i| {
            let k = if i % 2 == 0 { 1 } else { 8 };
            let moves = (0..k)
                .map(|_| {
                    let g = (rng.next_u64() % gates as u64) as usize;
                    (g, 1.05 + 0.25 * rng.unit())
                })
                .collect();
            ProbeSpec { moves }
        })
        .collect()
}

/// Concrete changes of `spec` around `base`: a gate grows by its factor,
/// or shrinks by it where growing would pass `s_limit`. Never a no-op.
fn changes(spec: &ProbeSpec, base: &[f64], s_limit: f64) -> Changes {
    spec.moves
        .iter()
        .map(|&(g, f)| {
            let up = base[g] * f;
            (GateId(g), if up <= s_limit { up } else { base[g] / f })
        })
        .collect()
}

/// Timing of one battery.
#[derive(Debug, Clone, Default)]
pub struct BatteryTiming {
    /// Latency of each probe (median over its repeats), seconds.
    pub probe_secs: Vec<f64>,
    /// All `what_if` calls (every repeat of every probe and revert).
    pub calls: CallStat,
    /// Gates the incremental engine recomputed over those calls.
    pub gates_recomputed: u64,
}

/// Where a traced battery records its spans.
#[derive(Debug, Clone, Copy)]
pub struct SpanSink<'a> {
    /// The recorder.
    pub rec: &'a Recorder,
    /// The battery's op span.
    pub parent: usize,
}

fn answer(r: &WhatIfReport) -> WhatIfAnswer {
    WhatIfAnswer {
        delay: r.delay,
        objective: r.objective,
        spec_violation: r.spec_violation,
    }
}

/// Runs one battery of `specs` around the resolver's current sizes. The
/// label and `objective` (the resolver's) go into the returned record for
/// the checker.
pub fn run_battery(
    label: String,
    resolver: &mut Resolver<'_>,
    specs: &[ProbeSpec],
    objective: &sgs_core::Objective,
    spans: Option<SpanSink<'_>>,
) -> (Battery, BatteryTiming) {
    let base = resolver.sizes().to_vec();
    let s_limit = resolver.library().s_limit;
    let plans: Vec<(Changes, Changes)> = specs
        .iter()
        .map(|p| {
            let forward = changes(p, &base, s_limit);
            let back = forward.iter().map(|&(g, _)| (g, base[g.index()])).collect();
            (forward, back)
        })
        .collect();
    let mut timing = BatteryTiming {
        probe_secs: Vec::with_capacity(plans.len()),
        ..Default::default()
    };
    let mut probes = Vec::with_capacity(plans.len());
    let mut repeat_secs = [0.0; REPEATS];
    let mut repeats = Vec::with_capacity(REPEATS);
    for (forward, back) in plans {
        repeats.clear();
        for secs in &mut repeat_secs {
            let (report, t) = span_time(spans, "what_if", || resolver.what_if(&forward));
            *secs = t;
            let (undo, undo_t) = span_time(spans, "what_if_revert", || resolver.what_if(&back));
            timing.calls.calls += 2;
            timing.calls.secs += t + undo_t;
            timing.gates_recomputed +=
                (report.stats.gates_recomputed + undo.stats.gates_recomputed) as u64;
            repeats.push(answer(&report));
        }
        timing.probe_secs.push(crate::stats::median(&repeat_secs));
        probes.push((forward, repeats.clone()));
    }
    let battery = Battery {
        op: label,
        objective: objective.clone(),
        spec: resolver.delay_spec().clone(),
        base,
        probes,
        after: resolver.sizes().to_vec(),
    };
    (battery, timing)
}

/// Runs `f`, inside a span named `name` when `spans` is given, and
/// returns its result with its duration.
pub fn span_time<R>(
    spans: Option<SpanSink<'_>>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    match spans {
        Some(sink) => sink.rec.time(name, sink.parent, f),
        None => {
            let t = Instant::now();
            let r = f();
            (r, t.elapsed().as_secs_f64())
        }
    }
}
