//! Percentiles, the metric report, and process memory.

use std::fmt::Write as _;

/// Samples beyond a percentile needed before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–1) of unsorted samples, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    if n - 1 - idx < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[idx])
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn geomean(samples: &[f64]) -> f64 {
    (samples.iter().map(|x| x.ln()).sum::<f64>() / samples.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
pub fn frac(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named metric of the final result line.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a percentile or mean, printed beside it.
    pub samples: Option<usize>,
}

/// The metrics of one run plus the human-readable notes printed above
/// the result line (input properties, sample counts, trace summary).
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        });
    }

    /// A percentile metric; fails when too few samples lie beyond it.
    pub fn put_pct(
        &mut self,
        name: &str,
        samples: &[f64],
        p: f64,
        unit: &'static str,
    ) -> Result<(), String> {
        let value = percentile(samples, p).ok_or_else(|| {
            format!(
                "{name}: {} samples leave fewer than {MIN_BEYOND} beyond p{}",
                samples.len(),
                p * 100.0
            )
        })?;
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples: Some(samples.len()),
        });
        Ok(())
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Human-readable lines: one per metric with unit and sample count.
    pub fn lines(&self) -> Vec<String> {
        let mut out = self.notes.clone();
        for m in &self.metrics {
            let mut line = format!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(line, "  (n={n})");
            }
            out.push(line);
        }
        out
    }

    /// The metrics object of the result line: every `(name, unit)` of
    /// `declared`, each measured in that unit.
    pub fn metrics_json(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, unit)) in declared.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if m.unit != *unit {
                return Err(format!("metric {name} is in {}, not {unit}", m.unit));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push('}');
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.99), None);
        assert_eq!(percentile(&xs[..19], 0.5), None);
    }
}
