//! Self-test of the benchmark on the 40-gate rdag40 circuit (fast): the
//! printed metrics match `BENCHMARK.json`, planted wrong answers fail the
//! checker, and exact counts repeat run to run.

use perfbench::check::{self, SizingAnswer};
use perfbench::run::{self, Metric};
use perfbench::workload::{self, Kind, Workload};
use perfbench::{probes, result_json};
use sgs_core::{DelaySpec, Objective, Sizer};
use sgs_netlist::generate;

fn table1_small() -> Workload {
    Workload {
        name: "selftest_table1",
        circuit: workload::rdag40_spec(),
        kind: Kind::Table1(workload::table1_rows()),
        ..workload::by_name("table1_apex2").expect("table1_apex2 exists")
    }
}

fn whatif_small() -> Workload {
    Workload {
        name: "selftest_whatif",
        circuit: workload::rdag40_spec(),
        ..workload::by_name("whatif_apex2").expect("whatif_apex2 exists")
    }
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for w in [table1_small(), whatif_small()] {
        let seed = w.circuit.seed;
        let plain = run::run(&w, seed, 0.0, false).expect("untraced run");
        assert!(plain.correct, "{}: {:?}", w.name, plain.failures);
        assert_eq!(
            printed(&plain.metrics),
            declared("end_to_end"),
            "{}",
            w.name
        );
        let line = result_json(&plain).expect("finite metrics");
        for (name, unit) in declared("end_to_end") {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": "))
                    && line.contains(&format!("\"unit\": \"{unit}\"")),
                "{name} missing from {line}"
            );
        }
        for m in &plain.metrics {
            assert!(
                m.value > 0.0,
                "{}: end-to-end {} is {}",
                w.name,
                m.name,
                m.value
            );
        }
        let traced = run::run(&w, seed, 0.0, true).expect("traced run reproduces the program");
        assert!(traced.correct, "{}: {:?}", w.name, traced.failures);
        assert_eq!(
            printed(&traced.metrics),
            declared("per_layer"),
            "{}",
            w.name
        );
    }
}

#[test]
fn exact_counts_repeat_across_runs() {
    for w in [table1_small(), whatif_small()] {
        let counts = || -> Vec<(&'static str, f64)> {
            run::run(&w, w.circuit.seed, 0.0, true)
                .expect("traced run")
                .metrics
                .iter()
                .filter(|m| m.unit == "count" && m.name != "par.threads")
                .map(|m| (m.name, m.value))
                .collect()
        };
        let first = counts();
        assert!(
            first.iter().any(|(_, v)| *v > 0.0),
            "{}: no work counted",
            w.name
        );
        assert_eq!(first, counts(), "{}", w.name);
    }
}

#[test]
fn default_seeds_reproduce_the_table1_circuits() {
    let suite = generate::benchmark_suite();
    for (name, circuit) in [("table1_apex1", &suite[0]), ("table1_apex2", &suite[1])] {
        let w = workload::by_name(name).expect("workload exists");
        assert_eq!(&w.generate(), circuit, "{name}");
    }
}

#[test]
fn checker_rejects_a_perturbed_size() {
    let w = table1_small();
    let fx = w.setup();
    let spec = DelaySpec::MaxMean(fx.deadline);
    let r = Sizer::new(&fx.circuit, &fx.lib)
        .objective(Objective::Area)
        .delay_spec(spec.clone())
        .solve()
        .expect("rdag40 sizes");
    let mut answer = SizingAnswer {
        op: "planted".into(),
        s: r.s.clone(),
        delay: r.delay,
        area: r.area,
        spec,
    };
    check::check_sizing(&fx.circuit, &fx.lib, &answer).expect("the real answer passes");
    let g = answer
        .s
        .iter()
        .position(|&v| v < 2.0)
        .expect("a gate below 2");
    answer.s[g] += 0.5;
    assert!(check::check_sizing(&fx.circuit, &fx.lib, &answer).is_err());
    answer.s[g] = 0.5;
    assert!(check::check_sizing(&fx.circuit, &fx.lib, &answer).is_err());
}

#[test]
fn checker_rejects_a_stale_what_if_answer() {
    let w = whatif_small();
    let fx = w.setup();
    let mut resolver = Sizer::new(&fx.circuit, &fx.lib)
        .objective(Objective::Area)
        .delay_spec(DelaySpec::MaxMean(fx.deadline))
        .resolver();
    resolver.solve().expect("rdag40 cold solve");
    let plan = probes::plan(&mut probes::Rng::new(1), fx.circuit.num_gates(), 50);
    let (mut battery, timing) = probes::run_battery(
        "planted".into(),
        &mut resolver,
        &plan,
        &Objective::Area,
        None,
    );
    assert_eq!(timing.probe_secs.len(), 50);
    assert!(check::check_battery(&fx.circuit, &fx.lib, &battery).is_empty());
    // Answer one repeat of probe 1 from the arrivals of probe 0.
    battery.probes[1].1[2] = battery.probes[0].1[0].clone();
    assert_eq!(
        check::check_battery(&fx.circuit, &fx.lib, &battery).len(),
        1
    );
    // A revert that left one gate moved.
    battery.after[0] += 0.25;
    assert!(!check::check_battery(&fx.circuit, &fx.lib, &battery).is_empty());
}
