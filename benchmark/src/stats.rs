//! Order statistics, the tail-percentile rule, and `benchmark compare`.

use std::collections::BTreeMap;

use serde::Value;

use crate::config::{END_TO_END, TAIL_CAP, TAIL_MIN_BEYOND};

/// Rungs the tail percentile may stand on.
const LADDER: [f64; 6] = [0.50, 0.75, 0.90, 0.95, 0.99, 0.999];

/// Index of the `p`-quantile among `n` ascending samples (nearest rank).
fn rank(n: usize, p: f64) -> usize {
    (((n as f64 - 1.0) * p).round() as usize).min(n - 1)
}

/// The `p`-quantile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p)]
}

/// The highest rung with at least [`TAIL_MIN_BEYOND`] samples beyond
/// it, never below the median and never above `cap`.
pub fn tail_rung(n: usize, cap: f64) -> f64 {
    LADDER
        .iter()
        .copied()
        .filter(|&p| p <= cap && n > rank(n.max(1), p) + TAIL_MIN_BEYOND)
        .fold(LADDER[0], f64::max)
}

/// Median and tail of one run's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `samples` (any order); `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_p = tail_rung(sorted.len(), TAIL_CAP);
        Some(Self {
            n: sorted.len(),
            p50: percentile(&sorted, 0.5),
            tail_p,
            tail: percentile(&sorted, tail_p),
            max: sorted[sorted.len() - 1],
        })
    }

    pub fn to_value(self) -> Value {
        obj(vec![
            ("samples", Value::U64(self.n as u64)),
            ("p50", Value::F64(self.p50)),
            ("tail_percentile", Value::F64(self.tail_p)),
            ("tail", Value::F64(self.tail)),
            ("max", Value::F64(self.max)),
        ])
    }
}

/// Latency over `[0, span)` cut into `windows` equal windows by the
/// time each sample belongs to: the median over windows of each
/// window's median and tail. A stall of the host lands in one window
/// and moves neither figure, which a run-wide tail percentile cannot
/// promise on a shared two-core machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    pub windows: usize,
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
}

impl Windowed {
    /// `samples` are `(time, value)`; `None` when there are none.
    pub fn of(samples: &[(f64, f64)], span: f64, windows: usize) -> Option<Self> {
        let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for &(at, value) in samples {
            let w = ((at / span * windows as f64) as usize).min(windows - 1);
            buckets[w].push(value);
        }
        buckets.retain(|b| !b.is_empty());
        // One rung for every window: the one the smallest supports.
        let tail_p = tail_rung(buckets.iter().map(Vec::len).min()?, TAIL_CAP);
        for b in &mut buckets {
            b.sort_by(f64::total_cmp);
        }
        let over_windows =
            |p: f64| median(&buckets.iter().map(|b| percentile(b, p)).collect::<Vec<_>>());
        Some(Self {
            windows: buckets.len(),
            p50: over_windows(0.5),
            tail_p,
            tail: over_windows(tail_p),
        })
    }

    pub fn to_value(self) -> Value {
        obj(vec![
            ("windows", Value::U64(self.windows as u64)),
            ("median_of_window_p50", Value::F64(self.p50)),
            ("tail_percentile", Value::F64(self.tail_p)),
            ("median_of_window_tail", Value::F64(self.tail)),
        ])
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); needs two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two samples");
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// A JSON number, or `null` for a value JSON cannot carry (NaN, ±inf).
pub fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::F64(x)
    } else {
        Value::Null
    }
}

/// A JSON array of numbers.
pub fn floats(v: &[f64]) -> Value {
    Value::Seq(v.iter().map(|&x| num(x)).collect())
}

/// A JSON object from `(key, value)` pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Map(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

/// `(workload, metric) -> values`, read from a result set: one result
/// object per line, as `--out` appends them.
fn read_set(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut set: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = match field(&v, "workload") {
            Some(Value::Str(w)) => w.clone(),
            _ => return Err(format!("line {}: no workload", i + 1)),
        };
        let metrics = field(&v, "metrics")
            .and_then(Value::as_map)
            .ok_or_else(|| format!("line {}: no metrics", i + 1))?;
        for (name, m) in metrics {
            if let Some(x) = field(m, "value").and_then(number) {
                set.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(x);
            }
        }
    }
    Ok(set)
}

/// One row of a comparison.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Breach,
    /// The base's own spread exceeds the bound, so nothing can be said.
    Unresolved,
}

/// Compares two result sets (`a` is the base). Returns the report and
/// whether any bounded metric breached.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (read_set(a_text)?, read_set(b_text)?);
    let mut report = format!(
        "{:<14} {:<18} {:>12} {:>12} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "base", "change", "worse_by", "spread", "bound"
    );
    let mut breached = false;
    for ((workload, metric), base) in &a {
        let Some(change) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let def = END_TO_END.iter().find(|d| d.name == metric);
        let (ma, mb) = (median(base), median(change));
        // Positive = the change is worse, whichever way "better" points.
        let worse_by = match def.map(|d| d.better) {
            Some("higher") => (ma - mb) / ma,
            _ => (mb - ma) / ma,
        };
        let spread = if base.len() >= 2 {
            let (q1, q3) = quartiles(base);
            (q3 - q1) / ma
        } else {
            0.0
        };
        let verdict = match def {
            None => "info",
            Some(d) => match judge(worse_by, spread, d.bound) {
                Verdict::Ok => "ok",
                Verdict::Unresolved => "unresolved",
                Verdict::Breach => {
                    breached = true;
                    "BREACH"
                }
            },
        };
        let bound = def.map_or("-".to_string(), |d| format!("{:.2}", d.bound));
        report.push_str(&format!(
            "{workload:<14} {metric:<18} {ma:>12.4} {mb:>12.4} {:>8.2}% {:>7.2}% {bound:>7}  {verdict}\n",
            worse_by * 100.0,
            spread * 100.0,
        ));
    }
    Ok((report, breached))
}

pub fn judge(worse_by: f64, spread: f64, bound: f64) -> Verdict {
    if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Breach
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_rung(13, 0.99), 0.50);
        assert_eq!(tail_rung(48, 0.99), 0.75);
        assert_eq!(tail_rung(100, 0.99), 0.90);
        assert_eq!(tail_rung(900, 0.99), 0.95);
        assert_eq!(tail_rung(1000, 0.99), 0.99);
        assert_eq!(tail_rung(1_000_000, 0.99), 0.99);
        assert_eq!(tail_rung(10_000, 1.0), 0.999);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn summary_reports_the_rung_it_used() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.tail_p, s.max), (2000, 0.99, 2000.0));
        assert!((s.tail - 1980.0).abs() <= 1.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn windowed_latency_shrugs_off_one_stall() {
        // 10 windows of 2000 samples at 1.0, one window stalled to 50.0.
        let mut samples = Vec::new();
        for w in 0..10 {
            for i in 0..2000 {
                let at = w as f64 + i as f64 / 2000.0;
                let slow = w == 3 || i % 200 == 0;
                samples.push((
                    at,
                    if w == 3 {
                        50.0
                    } else if slow {
                        3.0
                    } else {
                        1.0
                    },
                ));
            }
        }
        let win = Windowed::of(&samples, 10.0, 10).unwrap();
        assert_eq!(
            (win.windows, win.p50, win.tail_p, win.tail),
            (10, 1.0, 0.99, 1.0)
        );
        let all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        assert_eq!(Summary::of(&all).unwrap().tail, 50.0);
        assert!(Windowed::of(&[], 1.0, 4).is_none());
    }

    fn line(workload: &str, ops: f64, p50: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"metrics\":{{\"ops_per_s\":{{\"value\":{ops:?},\"unit\":\"1/s\"}},\"latency_p50_ms\":{{\"value\":{p50:?},\"unit\":\"ms\"}}}}}}\n"
        )
    }

    #[test]
    fn compare_flags_breach_and_unresolved() {
        let base: String = [100.0, 101.0, 99.0]
            .iter()
            .map(|&o| line("w", o, 2.0))
            .collect();
        let same: String = [100.5, 99.5, 100.0]
            .iter()
            .map(|&o| line("w", o, 2.01))
            .collect();
        let (report, breached) = compare(&base, &same).unwrap();
        assert!(!breached, "{report}");

        // Throughput down 20 % and latency up 40 %: both breach their bounds.
        let slow: String = [80.0, 81.0, 79.0]
            .iter()
            .map(|&o| line("w", o, 2.8))
            .collect();
        let (report, breached) = compare(&base, &slow).unwrap();
        assert!(breached);
        assert_eq!(report.matches("BREACH").count(), 2, "{report}");

        // A base whose own spread exceeds the bound resolves nothing.
        let noisy: String = [60.0, 100.0, 140.0]
            .iter()
            .map(|&o| line("w", o, 2.0))
            .collect();
        let (report, breached) = compare(&noisy, &slow).unwrap();
        assert!(report.contains("unresolved"), "{report}");
        assert!(breached, "latency still breaches: {report}");
        assert_eq!(judge(0.5, 0.3, 0.1), Verdict::Unresolved);
    }
}
