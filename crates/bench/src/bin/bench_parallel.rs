//! Parallel-engine benchmark: times the sequential vs the multi-threaded
//! Monte Carlo sampler, verifies the parallel results are bit-identical
//! and writes `BENCH_parallel.json`.
//!
//! Monte Carlo is the one parallel path of the solver stack: on `rca128`
//! and `dag2500` it samples sequentially and in parallel (bit-identical
//! samples and criticalities). It has no size threshold: it runs in
//! parallel whenever asked to, and wins at both sizes. NLP assembly and
//! full SSTA are serial; DESIGN.md §9 keeps the crossover measurements
//! that showed their parallel paths never won on 2 cores.
//!
//! Every bit-identity mismatch panics (exit 101). Timings never decide
//! the exit status.
//!
//! The whole run takes a few seconds on a 2-core x86-64 host at
//! `--samples=20000`.
//!
//! Usage: `bench_parallel [--threads=N] [--samples=N] [--out=PATH]
//! [--trace=FILE] [--metrics=FILE] [--metrics-prom=FILE]`

use sgs_bench::BenchArgs;
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{Circuit, Library};
use sgs_ssta::{monte_carlo, McOptions, McReport};
use std::fmt::Write as _;
use std::time::Instant;

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
    println!("parallel engine bench: {threads} thread(s) on {cores} core(s), {samples} MC samples");
    if threads > cores {
        println!("warning: more threads than cores; the speedups are not meaningful");
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

    let mut json = String::from("{\n");
    json.push_str(&sgs_bench::bench_metadata_json(
        "bench_parallel",
        "rca128+dag2500",
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
    json.push_str("  ]\n}\n");
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
