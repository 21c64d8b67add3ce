//! Paper-scale sizing benchmark.
//!
//! Three closed-loop, single-client workloads run in-process against the
//! repository's crates: the sized rows of the paper's Table 1 on the
//! apex2 and apex1 stand-ins, and a `Resolver` what-if session on apex2.
//! Every answer is checked independently outside the timed region. A
//! traced run replays each solve through the layers' public calls and
//! reports where the time went. See `README.md` beside this crate.

pub mod check;
pub mod layers;
pub mod probes;
pub mod replay;
pub mod run;
pub mod stats;
pub mod workload;

use run::Outcome;
use std::fmt::Write as _;

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics` (each `{"value", "unit"}`).
///
/// # Errors
///
/// Returns the name of a metric whose value is not finite (JSON has no
/// encoding for it).
pub fn result_json(o: &Outcome) -> Result<String, String> {
    let mut metrics = String::new();
    for (i, m) in o.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        o.correct, o.attempted, o.failed
    ))
}
