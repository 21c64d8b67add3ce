//! Dynamic shadow-write detection end to end (`--features shadow-write`):
//! the Monte Carlo sample loop — the one parallel kernel — stamps the
//! `sgs_trace::shadow` ledger on every sample it writes, so a real
//! execution, not just the declared plan, proves its partition disjoint
//! and covering at whatever thread count `RAYON_NUM_THREADS` pins (CI
//! sweeps 1/2/4/8), and [`sgs_analyze::stage4::shadow_diagnostics`] finds
//! nothing to report for it. Planted overlaps becoming `SGS-P006` are
//! covered by `stage4::shadow_reports_become_p006` and the
//! `sgs_trace::shadow` unit tests.
#![cfg(feature = "shadow-write")]

use sgs_analyze::stage4::shadow_diagnostics;
use sgs_netlist::{generate, Library};
use sgs_ssta::{monte_carlo, McOptions};
use sgs_trace::shadow;

#[test]
fn mc_run_stamps_a_clean_covering_ledger_and_no_p006() {
    shadow::reset();
    let c = generate::ripple_carry_adder(16);
    let samples = 4096;
    monte_carlo(
        &c,
        &Library::paper_default(),
        &vec![1.25; c.num_gates()],
        &McOptions {
            samples,
            seed: 7,
            criticality: true,
            parallel: true,
        },
    );

    let reports = shadow::take_reports();
    let r = reports
        .iter()
        .find(|r| r.kernel == "mc_samples")
        .unwrap_or_else(|| panic!("no mc_samples ledger: {reports:?}"));
    assert_eq!(r.len, samples);
    assert!(r.is_clean(), "mc_samples ledger dirty: {r:?}");
    assert_eq!(r.writes, samples as u64, "coverage incomplete: {r:?}");
    assert!(shadow_diagnostics(&reports).is_empty());
}
