//! Sample summaries, run accounting, and the one-line JSON result.

use std::fmt::Write as _;

/// Nearest-rank quantile of `samples` (`q` in `(0, 1]`); NaN when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A p90 needs at least this many samples, so that ten lie beyond it.
pub const P90_MIN_SAMPLES: usize = 100;

/// Ops attempted and failed, plus every failed output check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
}

impl Tally {
    /// Count one op; `ok == false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count ops done elsewhere: `ok` succeeded, `failed` did not.
    pub fn ops(&mut self, ok: u64, failed: u64) {
        self.attempted += ok + failed;
        self.failed += failed;
    }

    /// Record an output check; a failing one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.check_failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }
}

/// Named metrics in output order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    /// A non-finite value (a metric that could not be measured) renders as
    /// `null` and marks the run incorrect.
    pub fn to_json(&self, tally: &Tally) -> String {
        let finite = self.0.iter().all(|(_, v, _)| v.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            tally.correct() && finite,
            tally.attempted,
            tally.failed
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("a_s", 1.25, "s");
        let mut t = Tally::default();
        t.op(true);
        assert_eq!(
            m.to_json(&t),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        m.put("b_s", f64::NAN, "s");
        assert!(m.to_json(&t).starts_with("{\"correct\": false"));
    }
}
