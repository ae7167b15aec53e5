//! In-memory spans, recorded from the benchmark's own files around the
//! public entry point of each layer, written out when the run ends.
//!
//! A traced run pushes the same operands through every nesting level
//! *separately*: a child span is the next level down run on its own, and
//! `parent` names the level that would have called it. A layer's self
//! time is its spans' duration minus their children's.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Value;

use crate::stats::{median, obj};

pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op_id: u32,
}

/// Index of a span in its tracer; `None` from a disabled tracer.
pub type SpanId = Option<u32>;

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: SpanId,
        op_id: u32,
        f: impl FnOnce() -> T,
    ) -> (T, SpanId) {
        if !self.enabled {
            return (f(), None);
        }
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        (
            out,
            self.push(
                name,
                layer,
                parent,
                op_id,
                start.as_nanos() as u64,
                end.as_nanos() as u64,
            ),
        )
    }

    /// Records a span measured elsewhere (another thread's timestamps).
    pub fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        parent: SpanId,
        op_id: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        Some(self.spans.len() as u32 - 1)
    }

    /// Nanoseconds since this tracer's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Per layer: the median over ops of that layer's self time in one
    /// op, in milliseconds. Self time is clamped at zero, since levels
    /// are timed apart and a child can come out a hair slower.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut per_op: BTreeMap<(&'static str, u32), f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *per_op.entry((s.layer, s.op_id)).or_default() += own as f64 / 1e6;
        }
        let mut by_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((layer, _), ms) in per_op {
            by_layer.entry(layer).or_default().push(ms);
        }
        by_layer.into_iter().map(|(l, v)| (l, median(&v))).collect()
    }

    /// Median duration in milliseconds of the spans called `name`.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        (!v.is_empty()).then(|| median(&v))
    }

    pub fn to_value(&self) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("name", Value::Str(s.name.into())),
                        ("layer", Value::Str(s.layer.into())),
                        ("start_ns", Value::U64(s.start_ns)),
                        ("end_ns", Value::U64(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::U64(p.into())),
                        ),
                        ("op_id", Value::U64(s.op_id.into())),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        for op in 0..3 {
            let top = t.push("request", "net", None, op, 0, 1_000_000);
            let mid = t.push("sweep", "protocol", top, op, 0, 700_000);
            t.push("decrypt", "fe", mid, op, 0, 600_000);
            t.push("decode", "wire", top, op, 0, 100_000);
        }
        let s = t.layer_self_ms();
        assert!((s["net"] - 0.2).abs() < 1e-9);
        assert!((s["protocol"] - 0.1).abs() < 1e-9);
        assert!((s["fe"] - 0.6).abs() < 1e-9);
        assert!((s["wire"] - 0.1).abs() < 1e-9);
        assert_eq!(t.median_ms("sweep"), Some(0.7));
        assert_eq!(t.to_value().as_seq().unwrap().len(), 12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, id) = t.span("x", "net", None, 0, || 5);
        assert_eq!((v, id), (5, None));
        assert!(t.spans.is_empty());
    }
}
