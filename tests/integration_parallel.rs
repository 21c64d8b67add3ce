//! Integration: the parallel evaluation engine is an implementation
//! detail. Monte Carlo, the one parallel path (NLP assembly and full SSTA
//! are serial), must produce results bit-identical to its sequential
//! counterpart and invariant to the configured thread count — parallelism
//! may only change wall-clock time, never a single bit of output.

use sgs_netlist::{generate, Library};
use sgs_ssta::{monte_carlo, McOptions};

fn lib() -> Library {
    Library::paper_default()
}

/// A deterministic, non-uniform speed-factor vector.
fn speeds(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + 0.05 * (i % 37) as f64).collect()
}

fn force_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .ok();
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn parallel_mc_bit_identical_and_thread_invariant() {
    let c = generate::ripple_carry_adder(12);
    let s = speeds(c.num_gates());
    let mk = |parallel| McOptions {
        samples: 30_000,
        seed: 77,
        criticality: true,
        parallel,
    };
    let base = monte_carlo(&c, &lib(), &s, &mk(false));
    // The parallel path must reproduce the sequential run exactly at any
    // thread count: `delay` moments, every sample, every criticality.
    for threads in [1usize, 2, 4, 8] {
        force_threads(threads);
        let par = monte_carlo(&c, &lib(), &s, &mk(true));
        assert_eq!(
            par.delay.mean().to_bits(),
            base.delay.mean().to_bits(),
            "mean differs at {threads} threads"
        );
        assert_eq!(
            par.delay.var().to_bits(),
            base.delay.var().to_bits(),
            "var differs at {threads} threads"
        );
        assert_eq!(
            bits(par.samples()),
            bits(base.samples()),
            "samples differ at {threads}"
        );
        assert_eq!(
            bits(&par.criticality),
            bits(&base.criticality),
            "criticality differs at {threads}"
        );
    }
}
