//! What a run prints: human-readable lines, then one JSON result line.

use std::fmt::Write;

/// Metrics of one run, in the order they were measured.
#[derive(Default)]
pub struct RunReport {
    /// Contract metrics (end-to-end untraced, per-layer traced).
    pub metrics: Vec<(String, f64, &'static str)>,
    /// The full per-layer ledger of a traced run (printed, not scored).
    pub ledger: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
}

impl RunReport {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.ledger.push((name.to_string(), value, unit));
    }

    /// The value of a ledger entry, if recorded.
    pub fn ledger_value(&self, name: &str) -> Option<f64> {
        self.ledger.iter().chain(&self.metrics).find(|m| m.0 == name).map(|m| m.1)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(s, "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(*value));
        }
        s.push_str("}}");
        s
    }
}

/// A number with every digit Rust prints (the caller refuses a
/// non-finite metric, which JSON cannot carry, before the result line).
pub fn num(v: f64) -> String {
    format!("{v:?}")
}

/// `{"k": v, ...}` for a stanza of already-encoded JSON values.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON string literal (the benchmark only quotes plain ASCII).
pub fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}
