//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, the JSON result. Exits 2 on bad arguments and 1 when a traced
//! run cannot reproduce the measured program.

use perfbench::{result_json, run, workload};
use std::process::ExitCode;

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload::by_name(&name).ok_or_else(|| {
        let names: Vec<_> = workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name} (one of {})", names.join(", "))
    })?;
    Ok(Args {
        seed: seed.unwrap_or(workload.circuit.seed),
        workload,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = &args.workload;
    eprintln!(
        "perfbench: {} seed {} ({} cells, {} thread(s)), {} run",
        w.name,
        args.seed,
        w.circuit.cells,
        w.threads
            .min(std::thread::available_parallelism().map_or(1, |n| n.get())),
        if args.trace { "traced" } else { "untraced" }
    );
    let outcome = match run::run(w, args.seed, args.seconds, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for f in &outcome.failures {
        eprintln!("FAILED {f}");
    }
    for n in &outcome.notes {
        eprintln!("  {n}");
    }
    for m in &outcome.metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if let Some(spans) = &outcome.spans_json {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{}-{}.json", w.name, args.seed));
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => eprintln!("  spans written to {}", path.display()),
            Err(e) => eprintln!("  spans not written ({}): {e}", path.display()),
        }
    }
    match result_json(&outcome) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
