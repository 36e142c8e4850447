//! The result of one run and its one-line JSON form.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

/// Outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Appends a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Counts one checked operation, logging the first few failures.
    pub fn check(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = verdict {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: check failed: {what}: {message}");
            }
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    /// `correct` speaks of the operations that did not fail, so it holds
    /// whenever every failed operation was counted as such.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A finite number with all its digits (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// Peak resident set size of process `pid` (`self` for this one), in MiB,
/// from `VmHWM` in its `/proc` status.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut r = RunResult::default();
        r.push("latency_p50_ms", 1.25, "ms");
        r.check("ok", Ok(()));
        r.check("bad", Err("doctored".into()));
        assert_eq!(
            r.to_json(),
            "{\"correct\":true,\"attempted\":2,\"failed\":1,\"metrics\":{\"latency_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        assert!(peak_rss_mb("self").unwrap() > 0.0);
    }
}
