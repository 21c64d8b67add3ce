//! The benchmark's workloads and their set-up: circuit generation, the
//! unsized analysis, deadline placement and resolver construction.

use sgs_core::{DelaySpec, Objective, Sizer, SolverChoice};
use sgs_netlist::generate::{self, RandomDagSpec};
use sgs_netlist::{Circuit, Library};
use sgs_nlp::auglag::AugLagOptions;
use sgs_ssta::SstaReport;
use std::time::Instant;

/// The delay constraint of a Table 1 row, before the deadline is placed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecForm {
    /// Unconstrained.
    None,
    /// `mu <= D`.
    Mean,
    /// `mu + k sigma <= D`.
    MeanPlusKSigma(f64),
}

impl SpecForm {
    /// The spec at deadline `d`.
    pub fn at(self, d: f64) -> DelaySpec {
        match self {
            SpecForm::None => DelaySpec::None,
            SpecForm::Mean => DelaySpec::MaxMean(d),
            SpecForm::MeanPlusKSigma(k) => DelaySpec::MaxMeanPlusKSigma { k, d },
        }
    }
}

/// One sized row of the paper's Table 1.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label, as the `table1` bin prints it.
    pub label: &'static str,
    /// What the row minimises.
    pub objective: Objective,
    /// Its delay constraint.
    pub spec: SpecForm,
}

/// The six sized rows of Table 1 (the unsized row needs no solve).
pub fn table1_rows() -> Vec<Row> {
    let row = |label, objective, spec| Row {
        label,
        objective,
        spec,
    };
    vec![
        row("min mu", Objective::MeanDelay, SpecForm::None),
        row(
            "min mu+sigma",
            Objective::MeanPlusKSigma(1.0),
            SpecForm::None,
        ),
        row(
            "min mu+3sigma",
            Objective::MeanPlusKSigma(3.0),
            SpecForm::None,
        ),
        row("min sumS s.t. mu<=D", Objective::Area, SpecForm::Mean),
        row(
            "min sumS s.t. mu+sigma<=D",
            Objective::Area,
            SpecForm::MeanPlusKSigma(1.0),
        ),
        row(
            "min sumS s.t. mu+3sigma<=D",
            Objective::Area,
            SpecForm::MeanPlusKSigma(3.0),
        ),
    ]
}

/// The augmented-Lagrangian options the `table1` bin sizes its rows with
/// (at most 8 outer iterations, solver-default tolerances).
pub fn table1_al_options() -> AugLagOptions {
    AugLagOptions {
        max_outer: 8,
        ..Default::default()
    }
}

/// What a workload does with its circuit.
#[derive(Debug, Clone)]
pub enum Kind {
    /// Size these Table 1 rows with `Sizer::solve`, configured as the
    /// `table1` bin configures it.
    Table1(Vec<Row>),
    /// One `Resolver` session: area objective under a `mu <= D` spec, a
    /// cold solve, then warm deadline moves, each followed by what-if
    /// probes.
    WhatIf,
}

/// A benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// The circuit's generator spec; its `seed` is also the default
    /// `--seed`.
    pub circuit: RandomDagSpec,
    /// Solver threads (capped at the machine's available parallelism).
    pub threads: usize,
    /// Relative position of the deadline inside `[min mu, unsized mu]`,
    /// taken from the paper's own Table 1 numbers for this circuit.
    pub deadline_frac: f64,
    /// What the workload runs.
    pub kind: Kind,
}

/// Deadline fractions of the paper's Table 1: `(D - mu_min) / (mu_unsized
/// - mu_min)` from its rows 1 and 2.
const APEX1_FRAC: f64 = (120.0 - 73.21) / (173.72 - 73.21);
const APEX2_FRAC: f64 = (29.0 - 23.45) / (31.50 - 23.45);

/// The apex1 stand-in's spec, as `generate::benchmark_suite` builds it.
pub fn apex1_spec() -> RandomDagSpec {
    RandomDagSpec {
        name: "apex1".into(),
        cells: 982,
        inputs: 45,
        depth: 47,
        seed: 0xA9E71,
        back_jump_pct: 92,
        spine_extra_load: 0.25,
    }
}

/// The apex2 stand-in's spec, as `generate::benchmark_suite` builds it.
pub fn apex2_spec() -> RandomDagSpec {
    RandomDagSpec {
        name: "apex2".into(),
        cells: 117,
        inputs: 39,
        depth: 10,
        seed: 0xA9E72,
        back_jump_pct: 92,
        spine_extra_load: 0.15,
    }
}

/// The 40-gate random DAG of `benchmarks/rdag40.blif`, for fast
/// self-tests.
pub fn rdag40_spec() -> RandomDagSpec {
    RandomDagSpec {
        name: "rdag40".into(),
        cells: 40,
        inputs: 8,
        depth: 8,
        seed: 40,
        ..Default::default()
    }
}

/// Every workload the benchmark runs.
pub fn all() -> Vec<Workload> {
    let rows = table1_rows();
    vec![
        Workload {
            name: "table1_apex2",
            circuit: apex2_spec(),
            threads: 2,
            deadline_frac: APEX2_FRAC,
            kind: Kind::Table1(rows.clone()),
        },
        Workload {
            name: "table1_apex1",
            circuit: apex1_spec(),
            threads: 1,
            deadline_frac: APEX1_FRAC,
            kind: Kind::Table1(rows[5..].to_vec()),
        },
        Workload {
            name: "whatif_apex2",
            circuit: apex2_spec(),
            threads: 1,
            deadline_frac: APEX2_FRAC,
            kind: Kind::WhatIf,
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// Deadline fractions of unsized mu for the what-if session: a cold solve
/// at 0.96, then 24 warm moves that tighten in steps of 0.01 to 0.84 and
/// loosen back between the earlier points.
pub fn whatif_fractions() -> Vec<f64> {
    let down = (0..13).map(|i| 0.96 - 0.01 * f64::from(i));
    let up = (0..12).map(|i| 0.845 + 0.01 * f64::from(i));
    down.chain(up).collect()
}

/// Everything a workload's timed ops need.
#[derive(Debug)]
pub struct Fixture {
    /// The generated circuit.
    pub circuit: Circuit,
    /// The cell library.
    pub lib: Library,
    /// Clean SSTA of the unsized (all-ones) circuit.
    pub base: SstaReport,
    /// Table 1 deadline (placed as the `table1` bin places it), or the
    /// what-if session's first deadline.
    pub deadline: f64,
    /// The what-if session's deadlines (empty for Table 1 workloads).
    pub grid: Vec<f64>,
    /// Clean SSTA passes the set-up ran.
    pub ssta_passes: u64,
    /// Seconds those passes took.
    pub ssta_secs: f64,
}

impl Workload {
    /// Generates the workload's circuit: the `benchmark_suite` stand-in,
    /// whatever the seed. The sizing solvers follow a different iterate
    /// path, and take a different time, for any change in the last bits
    /// of their arithmetic (see `README.md`), so the seed only draws the
    /// what-if probes.
    pub fn generate(&self) -> Circuit {
        generate::random_dag(&self.circuit)
    }

    /// Builds the fixture.
    pub fn setup(&self) -> Fixture {
        let circuit = self.generate();
        let lib = Library::paper_default();
        let n = circuit.num_gates();
        let t = Instant::now();
        let base = sgs_ssta::ssta(&circuit, &lib, &vec![1.0; n]);
        let ssta_secs = t.elapsed().as_secs_f64();
        let mu0 = base.delay.mean();
        let (deadline, grid) = match self.kind {
            Kind::Table1(_) => {
                // As the `table1` bin does: a reduced-space min-mu probe
                // bounds the achievable range, and the deadline sits at the
                // paper's relative position inside it.
                let probe = Sizer::new(&circuit, &lib)
                    .objective(Objective::MeanDelay)
                    .solver(SolverChoice::ReducedSpace)
                    .solve()
                    .expect("min-delay probe sizes");
                let mu_min = probe.delay.mean();
                (mu_min + self.deadline_frac * (mu0 - mu_min), Vec::new())
            }
            Kind::WhatIf => {
                let grid: Vec<f64> = whatif_fractions().iter().map(|f| f * mu0).collect();
                // Construction cost counts as set-up; each session builds
                // its own resolver.
                drop(
                    Sizer::new(&circuit, &lib)
                        .objective(Objective::Area)
                        .delay_spec(DelaySpec::MaxMean(grid[0]))
                        .resolver(),
                );
                (grid[0], grid)
            }
        };
        Fixture {
            circuit,
            lib,
            base,
            deadline,
            grid,
            ssta_passes: 1,
            ssta_secs,
        }
    }
}
