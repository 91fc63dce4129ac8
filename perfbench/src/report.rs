//! What one run reports: the correctness verdict, operation accounting,
//! metrics, and the JSON line the benchmark ends with.

use std::fmt::Write as _;

use crate::stats::{self, Pct};

/// One named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// Collected check failures; a run is correct when there are none.
#[derive(Debug, Default)]
pub struct Checks {
    failures: u64,
    messages: Vec<String>,
}

impl Checks {
    /// Record one check; `msg` is only built when the check fails.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.failures += 1;
            if self.messages.len() < 20 {
                self.messages.push(msg());
            }
        }
    }

    pub fn passed(&self) -> bool {
        self.failures == 0
    }

    pub fn failures(&self) -> u64 {
        self.failures
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// Everything a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (printed by untraced runs).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (printed by traced runs).
    pub layers: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, unit: &'static str, value: f64) {
        self.e2e.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        });
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.layers.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
        });
    }

    /// `setup_s`: the median of the run's set-up times, with a note of
    /// their range.
    pub fn setup(&mut self, times: &[f64]) {
        let lo = times.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = times.iter().copied().fold(0.0, f64::max);
        let median = stats::median(times);
        self.note(format!(
            "setup_s = {median:.6} s, median of {} set-ups ({lo:.6}..{hi:.6} s)",
            times.len()
        ));
        self.e2e("setup_s", "s", median);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a percentile as an end-to-end metric and note its sample
    /// count.
    pub fn e2e_pct(&mut self, name: &str, unit: &'static str, p: Pct) {
        self.note(format!(
            "{name} = {:.3} {unit} (nearest rank over n = {})",
            p.value, p.n
        ));
        self.e2e(name, unit, p.value);
    }
}

/// The final JSON line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}
