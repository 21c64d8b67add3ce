//! Workload runners: timed passes, the traced pass, and the metrics they
//! yield.

use crate::check::{self, Battery, SizingAnswer};
use crate::layers::{CallStat, Recorder};
use crate::probes::{self, span_time, ProbeSpec, Rng, SpanSink};
use crate::replay::{self, SolveLayers};
use crate::stats::{self, CpuTimes};
use crate::workload::{table1_al_options, Fixture, Kind, Row, Workload};
use sgs_core::{DelaySpec, Objective, Resolver, Sizer};
use sgs_netlist::GateId;
use sgs_statmath::Normal;
use std::time::Instant;

/// Set-ups per run: at least `MIN_SETUPS`, and more (up to `MAX_SETUPS`)
/// until they have taken `SETUP_SECONDS`; `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;
/// See [`MIN_SETUPS`].
pub const MAX_SETUPS: usize = 200;
/// See [`MIN_SETUPS`].
pub const SETUP_SECONDS: f64 = 0.5;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What one benchmark run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every op passed the independent check (and, traced, the replay
    /// reproduced the measured program).
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed or gave a wrong answer.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// One line per failed op.
    pub failures: Vec<String>,
    /// Human-readable notes (tail sample counts, op latencies).
    pub notes: Vec<String>,
    /// The traced pass's spans as JSON (traced runs only).
    pub spans_json: Option<String>,
}

/// Everything one pass over a workload produced.
#[derive(Debug, Default)]
struct Pass {
    wall: f64,
    /// Process CPU time over the pass (before its check).
    cpu: CpuTimes,
    answers: Vec<SizingAnswer>,
    batteries: Vec<Battery>,
    /// Solve ops that returned an error, by op.
    errors: Vec<String>,
    solve_secs: Vec<f64>,
    probe_secs: Vec<f64>,
    delay_ratios: Vec<f64>,
    area_ratios: Vec<f64>,
    whatif: CallStat,
    gates_recomputed: u64,
    /// Resolver solves (the cold one included) and warm moves among them.
    resolver_solves: u64,
    resolves: u64,
    warm_hits: u64,
    resolve_fails: u64,
    resolve_outer: u64,
    resolve_inner: u64,
    resolve_evals: [u64; 5],
    sync_gates: u64,
    /// Traced pass only.
    layers: Vec<SolveLayers>,
    coverage: Vec<f64>,
    /// Ops attempted, and one line per failed op, from the check.
    attempted: u64,
    failures: Vec<String>,
}

/// `k` of the delay metric an op is judged by: the objective's, else the
/// spec's.
fn delay_k(objective: &Objective, spec: &DelaySpec) -> f64 {
    match (objective, spec) {
        (Objective::MeanPlusKSigma(k), _) => *k,
        (_, DelaySpec::MaxMeanPlusKSigma { k, .. }) => *k,
        _ => 0.0,
    }
}

struct Runner<'a> {
    w: &'a Workload,
    fx: &'a Fixture,
    plans: Vec<Vec<ProbeSpec>>,
}

impl<'a> Runner<'a> {
    #[allow(clippy::too_many_arguments)]
    fn record_sizing(
        &self,
        pass: &mut Pass,
        op: String,
        objective: &Objective,
        spec: &DelaySpec,
        s: &[f64],
        delay: Normal,
        area: f64,
    ) {
        let k = delay_k(objective, spec);
        let n = self.fx.circuit.num_gates() as f64;
        pass.delay_ratios
            .push(delay.mean_plus_k_sigma(k) / self.fx.base.delay.mean_plus_k_sigma(k));
        pass.area_ratios.push(area / n);
        pass.answers.push(SizingAnswer {
            op,
            s: s.to_vec(),
            delay,
            area,
            spec: spec.clone(),
        });
    }

    fn resolver(&self, objective: &Objective, spec: &DelaySpec) -> Resolver<'a> {
        Sizer::new(&self.fx.circuit, &self.fx.lib)
            .objective(objective.clone())
            .delay_spec(spec.clone())
            .resolver()
    }

    fn battery(
        &self,
        pass: &mut Pass,
        label: String,
        resolver: &mut Resolver<'_>,
        objective: &Objective,
        i: usize,
        spans: Option<SpanSink<'_>>,
    ) {
        let (battery, timing) =
            probes::run_battery(label, resolver, &self.plans[i], objective, spans);
        pass.probe_secs.extend(timing.probe_secs);
        pass.whatif.calls += timing.calls.calls;
        pass.whatif.secs += timing.calls.secs;
        pass.gates_recomputed += timing.gates_recomputed;
        pass.batteries.push(battery);
    }

    /// Loads a sized row into a fresh resolver with one all-gate
    /// `what_if` (checked like a sizing answer), then probes around it.
    fn row_battery(
        &self,
        pass: &mut Pass,
        i: usize,
        row: &Row,
        s: &[f64],
        area: f64,
        spans: Option<SpanSink<'_>>,
    ) {
        let spec = row.spec.at(self.fx.deadline);
        let (mut resolver, _) = span_time(spans, "resolver.build", || {
            self.resolver(&row.objective, &spec)
        });
        let load: Vec<(GateId, f64)> = s.iter().enumerate().map(|(g, &v)| (GateId(g), v)).collect();
        let (rep, secs) = span_time(spans, "what_if_load", || resolver.what_if(&load));
        pass.whatif.calls += 1;
        pass.whatif.secs += secs;
        pass.gates_recomputed += rep.stats.gates_recomputed as u64;
        pass.answers.push(SizingAnswer {
            op: format!("{} (what-if load)", row.label),
            s: resolver.sizes().to_vec(),
            delay: rep.delay,
            area,
            spec: spec.clone(),
        });
        self.battery(
            pass,
            format!("{} probes", row.label),
            &mut resolver,
            &row.objective,
            i,
            spans,
        );
    }

    fn table1_pass(&self, rows: &[Row], rec: Option<&Recorder>) -> Pass {
        let mut pass = Pass::default();
        let start = Instant::now();
        for (i, row) in rows.iter().enumerate() {
            let spec = row.spec.at(self.fx.deadline);
            let t = Instant::now();
            let result = match rec {
                None => Sizer::new(&self.fx.circuit, &self.fx.lib)
                    .objective(row.objective.clone())
                    .delay_spec(spec.clone())
                    .al_options(table1_al_options())
                    .solve()
                    .map(|r| (r.s, r.delay, r.area))
                    .map_err(|e| e.to_string()),
                Some(rec) => {
                    let root = rec.open("sizer.solve", 2 * i, None);
                    let r = replay::replay_solve(
                        &self.fx.circuit,
                        &self.fx.lib,
                        &row.objective,
                        &spec,
                        &table1_al_options(),
                        rec,
                        root,
                    );
                    rec.close(root);
                    pass.coverage.push(rec.coverage(root));
                    r.map(|rep| {
                        pass.layers.push(rep.layers);
                        let area = rep.s.iter().sum();
                        (rep.s, rep.delay, area)
                    })
                }
            };
            pass.solve_secs.push(t.elapsed().as_secs_f64());
            match result {
                Ok((s, delay, area)) => {
                    self.record_sizing(
                        &mut pass,
                        row.label.to_string(),
                        &row.objective,
                        &spec,
                        &s,
                        delay,
                        area,
                    );
                    let spans = rec.map(|rec| SpanSink {
                        rec,
                        parent: rec.open("whatif.battery", 2 * i + 1, None),
                    });
                    self.row_battery(&mut pass, i, row, &s, area, spans);
                    if let Some(s) = spans {
                        s.rec.close(s.parent);
                        pass.coverage.push(s.rec.coverage(s.parent));
                    }
                }
                Err(e) => pass.errors.push(format!("{}: {e}", row.label)),
            }
        }
        pass.wall = start.elapsed().as_secs_f64();
        pass
    }

    fn whatif_pass(&self, rec: Option<&Recorder>) -> Pass {
        let mut pass = Pass::default();
        let fx = self.fx;
        let objective = Objective::Area;
        let mut resolver = self.resolver(&objective, &DelaySpec::MaxMean(fx.grid[0]));
        let session = rec.map(|r| r.open("resolver.session", 0, None));
        let start = Instant::now();
        for (i, &d) in fx.grid.iter().enumerate() {
            let name = if i == 0 {
                "resolver.solve"
            } else {
                "resolver.resolve_spec"
            };
            let t = Instant::now();
            let span = rec.zip(session).map(|(r, p)| r.open(name, 0, Some(p)));
            let outcome = if i == 0 {
                resolver.solve()
            } else {
                resolver.resolve_spec(d)
            };
            if let (Some(r), Some(id)) = (rec, span) {
                r.close(id);
            }
            let secs = t.elapsed().as_secs_f64();
            let op = format!("{name} D={d:.4}");
            pass.resolver_solves += 1;
            if i > 0 {
                pass.solve_secs.push(secs);
                pass.resolves += 1;
            }
            match outcome {
                Ok(o) => {
                    pass.warm_hits += u64::from(o.warm_start_hit);
                    pass.sync_gates += o.gates_recomputed as u64;
                    pass.resolve_outer += o.result.outer_iterations as u64;
                    pass.resolve_inner += o.result.inner_iterations as u64;
                    let e = o.result.evals;
                    for (acc, v) in pass.resolve_evals.iter_mut().zip([
                        e.objective,
                        e.gradient,
                        e.constraints,
                        e.jacobian,
                        e.hessian,
                    ]) {
                        *acc += v as u64;
                    }
                    let r = &o.result;
                    self.record_sizing(
                        &mut pass,
                        op.clone(),
                        &objective,
                        &DelaySpec::MaxMean(d),
                        &r.s,
                        r.delay,
                        r.area,
                    );
                    let spans = rec
                        .zip(session)
                        .map(|(rec, parent)| SpanSink { rec, parent });
                    self.battery(
                        &mut pass,
                        format!("{op} probes"),
                        &mut resolver,
                        &objective,
                        i,
                        spans,
                    );
                }
                Err(e) => {
                    pass.resolve_fails += 1;
                    pass.errors.push(format!("{op}: {e}"));
                }
            }
        }
        pass.wall = start.elapsed().as_secs_f64();
        if let (Some(r), Some(id)) = (rec, session) {
            r.close(id);
            pass.coverage.push(r.coverage(id));
        }
        pass
    }

    /// One pass over the workload, checked after its timed region. The
    /// probe records are dropped once checked, so memory does not grow
    /// with the number of passes.
    fn pass(&self, rec: Option<&Recorder>) -> Pass {
        let cpu0 = CpuTimes::now();
        let mut pass = match &self.w.kind {
            Kind::Table1(rows) => self.table1_pass(rows, rec),
            Kind::WhatIf => self.whatif_pass(rec),
        };
        pass.cpu = CpuTimes::now().since(cpu0);
        pass.attempted = (pass.answers.len()
            + pass.errors.len()
            + pass.batteries.iter().map(|b| b.probes.len()).sum::<usize>())
            as u64;
        pass.failures = self.check(&pass);
        pass.batteries = Vec::new();
        pass
    }

    /// Checks a pass outside its timed region; returns one line per
    /// failed op.
    fn check(&self, pass: &Pass) -> Vec<String> {
        let (c, l) = (&self.fx.circuit, &self.fx.lib);
        let mut failures = pass.errors.clone();
        failures.extend(
            pass.answers
                .iter()
                .filter_map(|a| check::check_sizing(c, l, a).err()),
        );
        for b in &pass.batteries {
            failures.extend(check::check_battery(c, l, b));
        }
        failures
    }
}

/// The probe list of every battery of a pass (one per sizing op), drawn
/// from the seed before anything is timed.
fn probe_plans(w: &Workload, fx: &Fixture, seed: u64) -> Vec<Vec<ProbeSpec>> {
    let batteries = match &w.kind {
        Kind::Table1(rows) => rows.len(),
        Kind::WhatIf => fx.grid.len(),
    };
    let mut rng = Rng::new(seed);
    let count = probes::battery_size(batteries);
    (0..batteries)
        .map(|_| probes::plan(&mut rng, fx.circuit.num_gates(), count))
        .collect()
}

/// Latency of each op: the median of its time over the passes. Every pass
/// runs the same ops in the same order, so a slow stretch of the machine
/// that covers less than half the passes does not show. Should the passes
/// differ in length, their samples are pooled instead.
fn per_op_median(passes: &[Pass], samples: fn(&Pass) -> &Vec<f64>) -> Vec<f64> {
    let n = samples(&passes[0]).len();
    if passes.iter().any(|p| samples(p).len() != n) {
        return passes
            .iter()
            .flat_map(|p| samples(p).iter().copied())
            .collect();
    }
    (0..n)
        .map(|j| stats::median(&passes.iter().map(|p| samples(p)[j]).collect::<Vec<_>>()))
        .collect()
}

/// Runs workload `w` with the what-if probes of `seed`: set-up, then
/// closed-loop passes until `seconds` would be exceeded (at least one),
/// or, with `traced`, an untraced, a traced and another untraced pass.
///
/// # Errors
///
/// A traced run fails when the replay does not reproduce the untraced
/// sizes bit for bit or its spans cover under 95% of an op.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::ThreadPoolBuilder::new()
        .num_threads(w.threads.min(cores))
        .build_global()
        .map_err(|e| e.to_string())?;
    let mut setup_secs = Vec::new();
    let fx = loop {
        let t = Instant::now();
        let fx = w.setup();
        setup_secs.push(t.elapsed().as_secs_f64());
        let n = setup_secs.len();
        if n >= MAX_SETUPS || (n >= MIN_SETUPS && setup_secs.iter().sum::<f64>() >= SETUP_SECONDS) {
            break fx;
        }
    };
    let runner = Runner {
        w,
        fx: &fx,
        plans: probe_plans(w, &fx, seed),
    };
    if traced {
        traced_run(&runner)
    } else {
        let start = Instant::now();
        let mut passes = Vec::new();
        loop {
            let pass = runner.pass(None);
            let last = pass.wall;
            passes.push(pass);
            if start.elapsed().as_secs_f64() + last > seconds {
                break;
            }
        }
        Ok(untraced_outcome(&passes, stats::median(&setup_secs)))
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    // `+ 0.0` turns the -0.0 of an empty float sum into 0.
    Metric {
        name,
        unit,
        value: value + 0.0,
    }
}

fn check_totals(passes: &[&Pass]) -> (u64, Vec<String>) {
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failures = passes
        .iter()
        .flat_map(|p| p.failures.iter().cloned())
        .collect();
    (attempted, failures)
}

fn untraced_outcome(passes: &[Pass], setup_s: f64) -> Outcome {
    let (attempted, failures) = check_totals(&passes.iter().collect::<Vec<_>>());
    let failed = failures.len() as u64;
    let all = |f: fn(&Pass) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let probe = per_op_median(passes, |p| &p.probe_secs);
    let solve = per_op_median(passes, |p| &p.solve_secs);
    let (probe_tail, solve_tail) = (stats::tail(&probe), stats::tail(&solve));
    let metrics = vec![
        metric("size_s", "s", stats::median(&walls)),
        metric("setup_s", "s", setup_s),
        metric(
            "ok_ratio",
            "ratio",
            (attempted - failed) as f64 / attempted as f64,
        ),
        metric(
            "delay_ratio",
            "ratio",
            stats::geomean(&all(|p| &p.delay_ratios)),
        ),
        metric(
            "area_ratio",
            "ratio",
            stats::geomean(&all(|p| &p.area_ratios)),
        ),
        metric("peak_rss_mb", "MiB", stats::peak_rss_mb()),
        metric("whatif_p50_ms", "ms", 1e3 * stats::median(&probe)),
        metric("whatif_tail_ms", "ms", 1e3 * probe_tail.value),
        metric("resolve_p50_ms", "ms", 1e3 * stats::median(&solve)),
        metric("resolve_tail_ms", "ms", 1e3 * solve_tail.value),
    ];
    let notes = vec![
        format!("passes {} (wall s: {:?})", passes.len(), walls),
        format!("solve latencies s (median over passes): {solve:?}"),
        format!(
            "whatif tail: p{:.2} of {} distinct probes; resolve tail: p{:.2} of {} distinct solves",
            probe_tail.percentile, probe_tail.samples, solve_tail.percentile, solve_tail.samples
        ),
    ];
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        failures,
        notes,
        spans_json: None,
    }
}

/// Minimum share of an op's wall time its layer spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;

fn traced_run(runner: &Runner<'_>) -> Result<Outcome, String> {
    let plain = runner.pass(None);
    let rec = Recorder::default();
    let traced = runner.pass(Some(&rec));
    // A second untraced pass after the traced one, so the overhead ratio
    // does not charge the first pass's warm-up to the tracing.
    let again = runner.pass(None);
    let untraced_wall = 0.5 * (plain.wall + again.wall);

    // Fidelity: the replay must be the program that was measured.
    let mut mismatches: Vec<String> = Vec::new();
    if plain.answers.len() != traced.answers.len() || plain.errors.len() != traced.errors.len() {
        mismatches.push(format!(
            "untraced pass answered {} ops ({} errors), traced pass {} ({} errors)",
            plain.answers.len(),
            plain.errors.len(),
            traced.answers.len(),
            traced.errors.len()
        ));
    }
    for (a, b) in plain.answers.iter().zip(&traced.answers) {
        if a.s.len() != b.s.len()
            || a.s
                .iter()
                .zip(&b.s)
                .any(|(x, y)| x.to_bits() != y.to_bits())
        {
            mismatches.push(format!("{}: traced replay picked different sizes", a.op));
        }
    }
    let coverage = traced
        .coverage
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    if coverage < MIN_COVERAGE {
        mismatches.push(format!(
            "spans cover {coverage:.4} of an op, below {MIN_COVERAGE}"
        ));
    }
    if !mismatches.is_empty() {
        return Err(format!(
            "traced run does not reproduce the measured program:\n  {}",
            mismatches.join("\n  ")
        ));
    }

    let (attempted, failures) = check_totals(&[&plain, &traced, &again]);
    let failed = failures.len() as u64;
    let metrics = layer_metrics(
        runner,
        &plain,
        &traced,
        &rec,
        traced.wall / untraced_wall,
        coverage,
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        failures,
        notes: vec![format!(
            "untraced passes {untraced_wall:.3} s (mean), traced pass {:.3} s",
            traced.wall
        )],
        spans_json: Some(rec.to_json()),
    })
}

fn layer_metrics(
    runner: &Runner<'_>,
    plain: &Pass,
    traced: &Pass,
    rec: &Recorder,
    overhead: f64,
    coverage: f64,
) -> Vec<Metric> {
    let fx = runner.fx;
    let cpu = plain.cpu;
    let l = &traced.layers;
    let sum = |f: fn(&SolveLayers) -> f64| -> f64 { l.iter().map(f).sum() };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    // On the what-if session the solver runs inside the resolver: its
    // work is known only from what `ResolveOutcome` reports.
    let session_solve_s = rec.total("resolver.solve") + rec.total("resolver.resolve_spec");
    let problem_calls: [f64; 5] = std::array::from_fn(|i| {
        l.iter().map(|s| s.problem[i].calls as f64).sum::<f64>() + traced.resolve_evals[i] as f64
    });
    let problem_secs: [f64; 5] = std::array::from_fn(|i| l.iter().map(|s| s.problem[i].secs).sum());
    let eval_secs: f64 = problem_secs.iter().sum();
    let auglag_busy = sum(|s| s.auglag.secs) + session_solve_s;
    let reduced_evals = sum(|s| s.reduced_evals as f64);
    let ssta_passes = fx.ssta_passes as f64 + sum(|s| s.ssta.calls as f64);
    let ssta_secs = fx.ssta_secs + sum(|s| s.ssta.secs);
    let al_lost: f64 = l
        .iter()
        .filter(|s| !s.al_won)
        .map(|s| s.build.secs + s.auglag.secs)
        .sum();

    let mut m = vec![
        metric("reduced.busy_s", "s", sum(|s| s.reduced.secs)),
        metric("reduced.evals", "count", reduced_evals),
        metric(
            "reduced.eval_us",
            "us",
            1e6 * ratio(sum(|s| s.reduced.secs), reduced_evals),
        ),
        metric(
            "reduced.lbfgs_iters",
            "count",
            sum(|s| s.lbfgs_iters as f64),
        ),
        metric(
            "reduced.penalty_rounds",
            "count",
            sum(|s| s.penalty_rounds as f64),
        ),
        metric("auglag.busy_s", "s", auglag_busy),
        metric("auglag.self_s", "s", sum(|s| s.auglag.secs) - eval_secs),
        metric(
            "auglag.outer_iters",
            "count",
            sum(|s| s.outer_iters as f64) + traced.resolve_outer as f64,
        ),
        metric(
            "auglag.inner_iters",
            "count",
            sum(|s| s.inner_iters as f64) + traced.resolve_inner as f64,
        ),
        metric("auglag.cg_iters", "count", sum(|s| s.cg_iters as f64)),
        metric("problem.build_s", "s", sum(|s| s.build.secs)),
    ];
    // In `TimedProblem::stats` order.
    const PROBLEM: [(&str, &str); 5] = [
        ("problem.objective.calls", "problem.objective.s"),
        ("problem.gradient.calls", "problem.gradient.s"),
        ("problem.constraints.calls", "problem.constraints.s"),
        ("problem.jacobian.calls", "problem.jacobian.s"),
        ("problem.hessian.calls", "problem.hessian.s"),
    ];
    for (i, (calls, secs)) in PROBLEM.into_iter().enumerate() {
        m.push(metric(calls, "count", problem_calls[i]));
        m.push(metric(secs, "s", problem_secs[i]));
    }
    m.extend([
        metric(
            "sizer.al_win_ratio",
            "ratio",
            ratio(l.iter().filter(|s| s.al_won).count() as f64, l.len() as f64),
        ),
        metric("sizer.al_wasted_s", "s", al_lost),
        metric(
            "sizer.al_gap_rel",
            "ratio",
            l.iter()
                .map(|s| s.al_gap_rel)
                .fold(if l.is_empty() { 0.0 } else { f64::NEG_INFINITY }, f64::max),
        ),
        metric(
            "sizer.al_violation_max",
            "delay",
            l.iter().map(|s| s.al_violation).fold(0.0, f64::max),
        ),
        metric("sizer.evaluate_s", "s", sum(|s| s.evaluate_secs)),
        metric("ssta.full_passes", "count", ssta_passes),
        metric("ssta.full_us", "us", 1e6 * ratio(ssta_secs, ssta_passes)),
        metric(
            "incremental.gates_recomputed",
            "count",
            traced.gates_recomputed as f64,
        ),
        metric(
            "incremental.apply_us",
            "us",
            1e6 * ratio(traced.whatif.secs, traced.whatif.calls as f64),
        ),
        metric(
            "resolve.warm_hit_ratio",
            "ratio",
            ratio(traced.warm_hits as f64, traced.resolves as f64),
        ),
        metric("resolve.outer_iters", "count", traced.resolve_outer as f64),
        metric("resolve.sync_gates", "count", traced.sync_gates as f64),
        metric(
            "resolve.fail_ratio",
            "ratio",
            ratio(traced.resolve_fails as f64, traced.resolver_solves as f64),
        ),
        metric("par.threads", "count", rayon::current_num_threads() as f64),
        metric("par.sys_s", "s", cpu.sys),
        metric(
            "par.cpu_per_wall",
            "ratio",
            (cpu.user + cpu.sys) / plain.wall,
        ),
        metric("trace.overhead_ratio", "ratio", overhead),
        metric("trace.coverage", "ratio", coverage),
    ]);
    m
}
