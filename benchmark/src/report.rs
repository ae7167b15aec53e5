//! What a workload is given and what it hands back.

use serde::Value;

use crate::config::END_TO_END;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// `--trace 1`: the decomposed run; reports the per-layer metrics.
    pub trace: bool,
    /// `--quick`: smoke mode, child set-up probes and layer probes cut.
    pub quick: bool,
    /// Test hook: corrupt one received answer, which the output check
    /// must catch.
    pub inject_wrong_answer: bool,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// One run's result.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Informational numbers: other phases, sample counts, counters.
    pub detail: Value,
}

/// The end-to-end metrics of one run, in the declared order and units.
pub fn end_to_end(
    ops_per_s: f64,
    latency_p50_ms: f64,
    setup_rss_mb: f64,
    setup_s: f64,
) -> Vec<Metric> {
    let values = [ops_per_s, latency_p50_ms, setup_rss_mb, setup_s];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(d, v)| metric(d.name, v, d.unit))
        .collect()
}
