//! Parallel-engine micro-benchmarks: the multi-threaded Monte Carlo
//! sampler against its sequential counterpart (bit-identical by
//! construction, so any delta is pure wall-clock), and the grouped
//! (Clark-pair-sharing) NLP derivative assembly that dominates solver
//! cost.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sgs_core::{DelaySpec, Objective, SizingProblem};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::Library;
use sgs_nlp::NlpProblem;
use sgs_ssta::{monte_carlo, McOptions};

fn speeds(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + 0.05 * (i % 37) as f64).collect()
}

fn bench_mc(c: &mut Criterion) {
    let lib = Library::paper_default();
    let circuit = generate::ripple_carry_adder(64);
    let s = speeds(circuit.num_gates());
    let mut g = c.benchmark_group("parallel_eval");
    g.sample_size(10);
    for (name, parallel) in [("mc_sequential", false), ("mc_parallel", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                monte_carlo(
                    black_box(&circuit),
                    &lib,
                    &s,
                    &McOptions {
                        samples: 4000,
                        seed: 1,
                        criticality: false,
                        parallel,
                    },
                )
            })
        });
    }
    g.finish();
}

fn bench_nlp_assembly(c: &mut Criterion) {
    let lib = Library::paper_default();
    let circuit = generate::random_dag(&RandomDagSpec {
        name: "nlp-bench".into(),
        cells: 150,
        inputs: 16,
        depth: 10,
        seed: 7,
        ..Default::default()
    });
    let p = SizingProblem::build(
        &circuit,
        &lib,
        Objective::MeanPlusKSigma(3.0),
        DelaySpec::None,
    );
    let x = p.initial_point(&speeds(circuit.num_gates()));
    let lambda = vec![0.5; p.num_constraints()];
    let mut con = vec![0.0; p.num_constraints()];
    let mut jac = vec![0.0; p.jacobian_structure().len()];
    let mut hes = vec![0.0; p.hessian_structure().len()];
    let mut g = c.benchmark_group("nlp_assembly");
    g.bench_function("constraints", |b| {
        b.iter(|| p.constraints(black_box(&x), &mut con))
    });
    g.bench_function("jacobian_values", |b| {
        b.iter(|| p.jacobian_values(black_box(&x), &mut jac))
    });
    g.bench_function("hessian_values", |b| {
        b.iter(|| p.hessian_values(black_box(&x), 1.0, &lambda, &mut hes))
    });
    g.finish();
}

criterion_group!(benches, bench_mc, bench_nlp_assembly);
criterion_main!(benches);
