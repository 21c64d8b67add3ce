//! Parallel-engine benchmark: times the sequential vs the multi-threaded
//! Monte Carlo, SSTA and NLP-assembly paths, verifies the parallel results
//! are bit-identical, derives the SSTA and assembly dispatch crossovers
//! and writes `BENCH_parallel.json`.
//!
//! Three sections:
//!
//! * **Monte Carlo** on `rca128` and `dag2500`: sequential vs parallel
//!   sampling (bit-identical samples and criticalities). MC has no size
//!   threshold: it runs in parallel whenever asked to, and wins at both
//!   sizes.
//! * **SSTA crossover**: sequential vs levelized SSTA on random DAGs of
//!   growing size. The crossover is the smallest gate count at which the
//!   levelized path is at least 10% faster in every repeat; it is what
//!   `sgs_ssta::analysis::PAR_GATE_THRESHOLD` should be.
//! * **Assembly crossover**: one bounded augmented-Lagrangian solve of
//!   the Table 1 formulation "min sum S s.t. mu + 3 sigma <= D" on random
//!   DAGs at the Table 1 sizes (117, 250, 500, 982 and 1692 cells; the
//!   seeds differ from `generate::benchmark_suite()`), run with assembly
//!   forced serial (`set_par_threshold(usize::MAX)`) and forced parallel
//!   (`set_par_threshold(0)`). The two solutions must agree bit for bit.
//!   The crossover is the smallest constraint count at which the parallel
//!   solve is at least 10% faster in every repeat; when no size clears
//!   that bar, the rule places the threshold just above the largest
//!   measured count. `sgs_core::problem::PAR_CON_THRESHOLD` must equal the
//!   rule's threshold.
//!
//! Every bit-identity mismatch panics (exit 101). Timings decide only the
//! reported crossovers, never the exit status.
//!
//! The whole run takes about 40 s on a 2-core x86-64 host at
//! `--samples=20000`.
//!
//! Usage: `bench_parallel [--threads=N] [--samples=N] [--out=PATH]
//! [--trace=FILE] [--metrics=FILE] [--metrics-prom=FILE]`

use sgs_bench::BenchArgs;
use sgs_core::problem::PAR_CON_THRESHOLD;
use sgs_core::{DelaySpec, Objective, SizingProblem};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{Circuit, Library};
use sgs_nlp::auglag::{self, AugLagOptions};
use sgs_nlp::tr::TrOptions;
use sgs_nlp::NlpProblem;
use sgs_ssta::analysis::PAR_GATE_THRESHOLD;
use sgs_ssta::{monte_carlo, ssta, ssta_levelized, McOptions, McReport};
use std::cell::Cell;
use std::fmt::Write as _;
use std::time::Instant;

/// A parallel path must be at least this much faster (wall time ratio
/// parallel / serial at most 0.9) in every repeat to earn dispatch.
const WIN_RATIO: f64 = 0.9;
/// Serial/parallel timing pairs per crossover size.
const REPEATS: usize = 3;

struct Entry {
    circuit: String,
    gates: usize,
    samples: usize,
    mc_sequential_ms: f64,
    mc_parallel_ms: f64,
    mc_speedup: f64,
    bit_identical: bool,
}

fn time_mc(
    c: &Circuit,
    lib: &Library,
    s: &[f64],
    samples: usize,
    parallel: bool,
) -> (f64, McReport) {
    let opts = McOptions {
        samples,
        seed: 0xB0_0B5,
        criticality: true,
        parallel,
    };
    let t = Instant::now();
    let r = monte_carlo(c, lib, s, &opts);
    (t.elapsed().as_secs_f64() * 1e3, r)
}

fn identical(a: &McReport, b: &McReport) -> bool {
    a.delay.mean().to_bits() == b.delay.mean().to_bits()
        && a.delay.var().to_bits() == b.delay.var().to_bits()
        && a.samples().len() == b.samples().len()
        && a.samples()
            .iter()
            .zip(b.samples())
            .all(|(p, q)| p.to_bits() == q.to_bits())
        && a.criticality
            .iter()
            .zip(&b.criticality)
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Runs `f` with the global pool at one thread, so auto-dispatching entry
/// points ([`ssta`]) take their sequential path, then restores the pool.
fn sequentially<R>(f: impl FnOnce() -> R) -> R {
    let threads = rayon::current_num_threads();
    let set = |n| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .ok()
    };
    set(1);
    let r = f();
    set(threads);
    r
}

/// A deterministic, non-uniform speed-factor vector.
fn speeds(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + 0.05 * (i % 37) as f64).collect()
}

fn bench_circuit(c: &Circuit, lib: &Library, samples: usize) -> Entry {
    let n = c.num_gates();
    let s = speeds(n);

    let (seq_ms, seq) = time_mc(c, lib, &s, samples, false);
    let (par_ms, par) = time_mc(c, lib, &s, samples, true);
    Entry {
        circuit: c.name().to_string(),
        gates: n,
        samples,
        mc_sequential_ms: seq_ms,
        mc_parallel_ms: par_ms,
        mc_speedup: seq_ms / par_ms,
        bit_identical: identical(&seq, &par),
    }
}

/// One size of a serial-vs-parallel crossover table: `size` is the
/// dispatch quantity (gates for SSTA, constraints for assembly) and each
/// repeat holds `(serial, parallel)` wall seconds.
struct Crossover {
    circuit: String,
    size: usize,
    repeats: Vec<(f64, f64)>,
}

impl Crossover {
    fn parallel_wins(&self) -> bool {
        self.repeats
            .iter()
            .all(|&(ser, par)| par <= WIN_RATIO * ser)
    }

    fn median(&self, pick: impl Fn(&(f64, f64)) -> f64) -> f64 {
        median(self.repeats.iter().map(pick).collect())
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// [`REPEATS`] `(serial, parallel)` results of `run(parallel)`,
/// alternating which path runs first so drift in machine speed hits both.
fn alternating<T>(mut run: impl FnMut(bool) -> T) -> Vec<(T, T)> {
    (0..REPEATS)
        .map(|r| {
            if r % 2 == 0 {
                let ser = run(false);
                (ser, run(true))
            } else {
                let par = run(true);
                (run(false), par)
            }
        })
        .collect()
}

/// The smallest measured size at which the parallel path wins every
/// repeat, and the dispatch threshold the rule derives from the table:
/// that size, or one above the largest measured size when none wins.
/// Sizes must be ascending.
fn crossover<'a>(rows: impl IntoIterator<Item = &'a Crossover>) -> (Option<usize>, usize) {
    let mut win = None;
    let mut largest = 0;
    for r in rows {
        if win.is_none() && r.parallel_wins() {
            win = Some(r.size);
        }
        largest = r.size;
    }
    (win, win.unwrap_or(largest + 1))
}

/// Sequential vs levelized SSTA on random DAGs of growing size: mean
/// wall time of `calls` back-to-back analyses per repeat.
fn ssta_crossover(lib: &Library) -> Vec<Crossover> {
    let mut rows = Vec::new();
    for (cells, depth) in [(1000, 20), (2500, 25), (5000, 40), (10000, 60), (20000, 80)] {
        let c = generate::random_dag(&RandomDagSpec {
            name: format!("dag{cells}"),
            cells,
            inputs: 64,
            depth,
            seed: 20,
            ..Default::default()
        });
        let s = speeds(cells);
        let calls = (100_000 / cells).max(4);
        let analyse = |parallel: bool| {
            if parallel {
                ssta_levelized(&c, lib, &s)
            } else {
                sequentially(|| ssta(&c, lib, &s))
            }
        };
        let (a, b) = (analyse(false), analyse(true));
        for (x, y) in a.arrivals.iter().zip(&b.arrivals) {
            assert_eq!(
                x.mean().to_bits(),
                y.mean().to_bits(),
                "levelized SSTA mean"
            );
            assert_eq!(x.var().to_bits(), y.var().to_bits(), "levelized SSTA var");
        }
        let row = Crossover {
            circuit: c.name().to_string(),
            size: cells,
            repeats: alternating(|parallel| {
                let t = Instant::now();
                for _ in 0..calls {
                    std::hint::black_box(analyse(parallel));
                }
                t.elapsed().as_secs_f64() / calls as f64
            }),
        };
        rows.push(row);
    }
    rows
}

/// Counts and times the assembly calls (constraint residuals, Jacobian
/// and Hessian values) of the problem it wraps; everything else forwards.
struct TimedAssembly<'p> {
    inner: &'p SizingProblem,
    calls: Cell<u64>,
    seconds: Cell<f64>,
}

impl<'p> TimedAssembly<'p> {
    fn new(inner: &'p SizingProblem) -> Self {
        TimedAssembly {
            inner,
            calls: Cell::new(0),
            seconds: Cell::new(0.0),
        }
    }

    fn timed(&self, f: impl FnOnce()) {
        let t = Instant::now();
        f();
        self.seconds
            .set(self.seconds.get() + t.elapsed().as_secs_f64());
        self.calls.set(self.calls.get() + 1);
    }
}

impl NlpProblem for TimedAssembly<'_> {
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
        self.inner.objective(x)
    }
    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        self.inner.gradient(x, grad)
    }
    fn constraints(&self, x: &[f64], c: &mut [f64]) {
        self.timed(|| self.inner.constraints(x, c))
    }
    fn jacobian_structure(&self) -> Vec<(usize, usize)> {
        self.inner.jacobian_structure()
    }
    fn jacobian_values(&self, x: &[f64], vals: &mut [f64]) {
        self.timed(|| self.inner.jacobian_values(x, vals))
    }
    fn hessian_structure(&self) -> Vec<(usize, usize)> {
        self.inner.hessian_structure()
    }
    fn hessian_values(&self, x: &[f64], sigma: f64, lambda: &[f64], vals: &mut [f64]) {
        self.timed(|| self.inner.hessian_values(x, sigma, lambda, vals))
    }
}

/// One assembly-crossover size: the solve timings plus the per-call
/// assembly cost of each path (medians over repeats).
struct AssemblyRow {
    cells: usize,
    calls: u64,
    serial_call_us: f64,
    parallel_call_us: f64,
    timing: Crossover,
}

/// The bounded solve every size runs: two outer iterations of at most 40
/// trust-region steps each.
fn bounded_al() -> AugLagOptions {
    AugLagOptions {
        max_outer: 2,
        inner: TrOptions {
            max_iter: 40,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Serial vs parallel assembly inside the same bounded AL solve of the
/// Table 1 formulation "min sum S s.t. mu + 3 sigma <= D", built as
/// `Sizer` builds it. Panics unless both paths return the same solution
/// bit for bit.
fn assembly_crossover(lib: &Library) -> Vec<AssemblyRow> {
    let mut rows = Vec::new();
    // (cells, inputs, depth): the Table 1 sizes, shaped like the
    // benchmark_suite stand-ins (apex2, -, -, apex1, k2), plus one size
    // above k2 so the rule's threshold clears every Table 1 formulation
    // (k2's own run from 11.9k to 12.5k constraints depending on the spec).
    for (cells, inputs, depth) in [
        (117, 39, 10),
        (250, 40, 16),
        (500, 42, 30),
        (982, 45, 47),
        (1692, 46, 47),
        (2500, 48, 50),
    ] {
        let c = generate::random_dag(&RandomDagSpec {
            name: format!("rdag{cells}"),
            cells,
            inputs,
            depth,
            seed: 0x5EED_0000 + cells as u64,
            back_jump_pct: 92,
            spine_extra_load: 0.25,
        });
        let base = ssta(&c, lib, &vec![1.0; cells]).delay;
        let d = 0.9 * base.mean_plus_k_sigma(3.0);
        let mut p = SizingProblem::build(
            &c,
            lib,
            Objective::Area,
            DelaySpec::MaxMeanPlusKSigma { k: 3.0, d },
        );
        let x0 = p.initial_point(&vec![1.0; cells]);
        let constraints = p.num_constraints();
        let opts = bounded_al();
        // (solution, solve seconds, assembly calls, assembly seconds).
        let runs = alternating(|parallel| {
            p.set_par_threshold(if parallel { 0 } else { usize::MAX });
            let timed = TimedAssembly::new(&p);
            let t = Instant::now();
            let r = auglag::solve(&timed, &x0, &opts);
            (
                r,
                t.elapsed().as_secs_f64(),
                timed.calls.get(),
                timed.seconds.get(),
            )
        });
        for (ser, par) in &runs {
            assert_eq!(
                ser.0.f.to_bits(),
                par.0.f.to_bits(),
                "{}: parallel assembly changed the objective",
                c.name()
            );
            for (i, (a, b)) in ser.0.x.iter().zip(&par.0.x).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}: parallel assembly changed x[{i}]",
                    c.name()
                );
            }
            assert_eq!(ser.2, par.2, "{}: assembly call counts differ", c.name());
        }
        let per_call_us = |run: &(_, f64, u64, f64)| run.3 / run.2 as f64 * 1e6;
        rows.push(AssemblyRow {
            cells,
            calls: runs[0].0 .2,
            serial_call_us: median(runs.iter().map(|r| per_call_us(&r.0)).collect()),
            parallel_call_us: median(runs.iter().map(|r| per_call_us(&r.1)).collect()),
            timing: Crossover {
                circuit: c.name().to_string(),
                size: constraints,
                repeats: runs.iter().map(|(ser, par)| (ser.1, par.1)).collect(),
            },
        });
    }
    rows
}

/// One side (`pick`) of every repeat of `row` as a JSON array, in units
/// of seconds times `scale`.
fn repeats_json(row: &Crossover, pick: fn(&(f64, f64)) -> f64, scale: f64) -> String {
    let v: Vec<String> = row
        .repeats
        .iter()
        .map(|r| format!("{:.3}", pick(r) * scale))
        .collect();
    format!("[{}]", v.join(", "))
}

fn opt_json(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |n| n.to_string())
}

fn usage(arg: &str) -> ! {
    eprintln!("invalid argument: {arg}");
    eprintln!(
        "usage: bench_parallel [--threads=N] [--samples=N] [--out=PATH] \
         [--trace=FILE] [--metrics=FILE] [--metrics-prom=FILE]"
    );
    std::process::exit(2)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let bench = BenchArgs::extract("bench_parallel", &mut args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let trace = bench.trace();
    let mut samples = 100_000usize;
    let mut out_path = String::from("BENCH_parallel.json");
    for arg in args {
        if let Some(n) = arg.strip_prefix("--samples=") {
            samples = n.parse().unwrap_or_else(|_| usage(&arg));
        } else if let Some(p) = arg.strip_prefix("--out=") {
            out_path = p.to_string();
        } else {
            eprintln!("unknown argument: {arg}");
            usage(&arg);
        }
    }
    let threads = rayon::current_num_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "parallel engine bench: {threads} thread(s) on {cores} core(s), {samples} MC samples, \
         {REPEATS} crossover repeat(s)"
    );
    if threads > cores {
        println!("warning: more threads than cores; the crossovers are not meaningful");
    }

    let lib = Library::paper_default();
    let circuits = [
        generate::ripple_carry_adder(128), // 641 gates, long carry chain
        generate::random_dag(&RandomDagSpec {
            name: "dag2500".into(),
            cells: 2500,
            inputs: 64,
            depth: 25,
            seed: 20,
            ..Default::default()
        }),
    ];

    let mut entries = Vec::new();
    for c in &circuits {
        // The big DAG gets fewer trials so the runner stays interactive.
        let n = if c.num_gates() > 1000 {
            samples / 2
        } else {
            samples
        };
        let e = bench_circuit(c, &lib, n);
        println!(
            "{:<12} {:>5} gates  {:>7} samples  MC seq {:>8.1} ms  par {:>8.1} ms  \
             speedup {:>5.2}x  identical {}",
            e.circuit,
            e.gates,
            e.samples,
            e.mc_sequential_ms,
            e.mc_parallel_ms,
            e.mc_speedup,
            e.bit_identical,
        );
        assert!(e.bit_identical, "parallel MC must be bit-identical");
        entries.push(e);
    }

    println!("SSTA crossover (sequential vs levelized, ms per analysis, median of {REPEATS}):");
    let ssta_rows = ssta_crossover(&lib);
    for r in &ssta_rows {
        println!(
            "  {:<9} {:>6} gates  seq {:>8.3}  lev {:>8.3}  wins every repeat: {}",
            r.circuit,
            r.size,
            r.median(|t| t.0) * 1e3,
            r.median(|t| t.1) * 1e3,
            r.parallel_wins()
        );
    }
    let (ssta_win, ssta_rule) = crossover(&ssta_rows);

    println!("assembly crossover (bounded AL solve, serial vs parallel, median of {REPEATS}):");
    let asm_rows = assembly_crossover(&lib);
    for r in &asm_rows {
        println!(
            "  {:<9} {:>6} constraints  solve {:>7.3}/{:>7.3} s  {:>6} calls  \
             {:>7.1}/{:>7.1} us per call  identical true  wins every repeat: {}",
            r.timing.circuit,
            r.timing.size,
            r.timing.median(|t| t.0),
            r.timing.median(|t| t.1),
            r.calls,
            r.serial_call_us,
            r.parallel_call_us,
            r.timing.parallel_wins()
        );
    }
    let (asm_win, asm_rule) = crossover(asm_rows.iter().map(|r| &r.timing));
    for (name, rule, constant) in [
        ("SSTA gate", ssta_rule, PAR_GATE_THRESHOLD),
        ("assembly constraint", asm_rule, PAR_CON_THRESHOLD),
    ] {
        println!(
            "{name} threshold: measured rule {rule}, compiled {constant}{}",
            if rule == constant { "" } else { " (differs)" }
        );
    }

    let mut json = String::from("{\n");
    json.push_str(&sgs_bench::bench_metadata_json(
        "bench_parallel",
        "rca128+dag2500+crossovers",
    ));
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{}\", \"gates\": {}, \"samples\": {}, \
             \"mc_sequential_ms\": {:.3}, \"mc_parallel_ms\": {:.3}, \"mc_speedup\": {:.3}, \
             \"bit_identical\": {}}}{}",
            e.circuit,
            e.gates,
            e.samples,
            e.mc_sequential_ms,
            e.mc_parallel_ms,
            e.mc_speedup,
            e.bit_identical,
            if i + 1 < entries.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"ssta_crossover\": {{\"win_ratio\": {WIN_RATIO}, \"repeats\": {REPEATS}, \
         \"crossover_gates\": {}, \"threshold\": {ssta_rule}, \"compiled_threshold\": {}, \"rows\": [",
        opt_json(ssta_win),
        PAR_GATE_THRESHOLD
    );
    for (i, r) in ssta_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{}\", \"gates\": {}, \"sequential_ms\": {}, \
             \"levelized_ms\": {}, \"parallel_wins\": {}}}{}",
            r.circuit,
            r.size,
            repeats_json(r, |t| t.0, 1e3),
            repeats_json(r, |t| t.1, 1e3),
            r.parallel_wins(),
            if i + 1 < ssta_rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]},\n");
    let _ = writeln!(
        json,
        "  \"assembly_crossover\": {{\"win_ratio\": {WIN_RATIO}, \"repeats\": {REPEATS}, \
         \"solve\": \"auglag max_outer 2, inner max_iter 40; area s.t. mu+3sigma <= 0.9 unsized\", \
         \"crossover_constraints\": {}, \"threshold\": {asm_rule}, \"compiled_threshold\": {}, \
         \"rows\": [",
        opt_json(asm_win),
        PAR_CON_THRESHOLD
    );
    for (i, r) in asm_rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"circuit\": \"{}\", \"cells\": {}, \"constraints\": {}, \"assembly_calls\": {}, \
             \"serial_s\": {}, \"parallel_s\": {}, \"serial_call_us\": {:.2}, \
             \"parallel_call_us\": {:.2}, \"bit_identical\": true, \"parallel_wins\": {}}}{}",
            r.timing.circuit,
            r.cells,
            r.timing.size,
            r.calls,
            repeats_json(&r.timing, |t| t.0, 1.0),
            repeats_json(&r.timing, |t| t.1, 1.0),
            r.serial_call_us,
            r.parallel_call_us,
            r.timing.parallel_wins(),
            if i + 1 < asm_rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ]}\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");
    for e in &entries {
        trace.report(&e.circuit, "ok", f64::NAN, f64::NAN, f64::NAN, f64::NAN);
    }
    if let Err(e) = bench.finish("rca128+dag2500") {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
