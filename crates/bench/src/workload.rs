//! Measurement helpers and the shared benchmark complet types.

use std::time::{Duration, Instant};

use fargo_core::{
    define_complet, CompletRegistry, FargoError, MetricValue, TelemetryRegistry, Value,
};

/// Times one execution of `f`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

/// A collection of duration samples with summary statistics.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<Duration>,
}

impl Samples {
    /// Collects `n` samples of `f`.
    pub fn collect(n: usize, mut f: impl FnMut()) -> Samples {
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Instant::now();
            f();
            values.push(t.elapsed());
        }
        Samples { values }
    }

    /// Adds one sample.
    pub fn push(&mut self, d: Duration) {
        self.values.push(d);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples were collected.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Duration {
        if self.values.is_empty() {
            return Duration::ZERO;
        }
        self.values.iter().sum::<Duration>() / self.values.len() as u32
    }

    /// Smallest sample.
    pub fn min(&self) -> Duration {
        self.values.iter().min().copied().unwrap_or(Duration::ZERO)
    }

    /// The p-th percentile (0–100), nearest-rank.
    pub fn percentile(&self, p: f64) -> Duration {
        percentile(&self.values, p)
    }

    /// Formats the mean compactly (µs under 1 ms, else ms).
    pub fn fmt_mean(&self) -> String {
        fmt_duration(self.mean())
    }
}

/// Nearest-rank percentile of a duration slice.
pub fn percentile(values: &[Duration], p: f64) -> Duration {
    if values.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = values.to_vec();
    sorted.sort();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Compact duration formatting for tables.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.1}us")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{:.3}s", us / 1e6)
    }
}

define_complet! {
    /// The standard benchmark servant: counters plus a sized payload.
    pub complet Servant {
        state {
            n: i64 = 0,
            payload: Value = Value::Null,
        }
        fn touch(&mut self, _ctx, _args) {
            self.n += 1;
            Ok(Value::I64(self.n))
        }
        fn get(&mut self, _ctx, args) {
            // Echo back the first argument (by-value path exerciser).
            Ok(args.first().cloned().unwrap_or(Value::Null))
        }
        fn set_payload(&mut self, _ctx, args) {
            self.payload = args.first().cloned().unwrap_or(Value::Null);
            Ok(Value::I64(self.payload.deep_size() as i64))
        }
        fn nap(&mut self, _ctx, args) {
            // Occupies a worker thread: E21 parks the pool behind naps to
            // hold thousands of requests queued (and their RPCs in flight).
            let ms = args.first().and_then(Value::as_i64).unwrap_or(0);
            std::thread::sleep(Duration::from_millis(ms as u64));
            Ok(Value::Null)
        }
    }
}

define_complet! {
    /// A complet holding typed references to dependencies, for the
    /// relocator and co-movement experiments.
    pub complet Holder {
        state {
            deps: Vec<fargo_core::CompletRef> = Vec::new(),
            payload: Value = Value::Null,
        }
        fn add_dep(&mut self, _ctx, args) {
            let d = args.first().and_then(Value::as_ref_desc).cloned()
                .ok_or_else(|| FargoError::InvalidArgument("need a ref".into()))?;
            self.deps.push(fargo_core::CompletRef::from_descriptor(d));
            Ok(Value::I64(self.deps.len() as i64))
        }
        fn retype_all(&mut self, ctx, args) {
            let t = args.first().and_then(Value::as_str).unwrap_or("link");
            for d in &self.deps {
                ctx.core().meta_ref(d).set_relocator(t)?;
            }
            Ok(Value::Null)
        }
        fn call_dep(&mut self, ctx, args) {
            let i = args.first().and_then(Value::as_i64).unwrap_or(0) as usize;
            let d = self.deps.get(i).cloned()
                .ok_or_else(|| FargoError::App("no such dep".into()))?;
            ctx.call(&d, "touch", &[])
        }
        fn dep_id(&mut self, _ctx, args) {
            let i = args.first().and_then(Value::as_i64).unwrap_or(0) as usize;
            Ok(self.deps.get(i)
                .map(|d| Value::from(d.id().to_string()))
                .unwrap_or(Value::Null))
        }
    }
}

/// Registers the benchmark complet types.
pub fn bench_registry() -> CompletRegistry {
    let reg = CompletRegistry::new();
    Servant::register(&reg);
    Holder::register(&reg);
    reg
}

/// Sum of the counter `name` over every Core reporting into `telemetry`.
pub fn counter_total(telemetry: &TelemetryRegistry, name: &str) -> u64 {
    telemetry
        .snapshot()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            MetricValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// A payload of roughly `bytes` bytes.
pub fn payload_of(bytes: usize) -> Value {
    Value::Bytes(vec![0xA5; bytes])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_statistics() {
        let mut s = Samples::default();
        for ms in [1u64, 2, 3, 4, 100] {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.min(), Duration::from_millis(1));
        assert_eq!(s.mean(), Duration::from_millis(22));
        assert_eq!(s.percentile(50.0), Duration::from_millis(3));
        assert_eq!(s.percentile(100.0), Duration::from_millis(100));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.0us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000s");
    }

    #[test]
    fn payload_size_is_close() {
        let p = payload_of(10_000);
        assert!(p.deep_size() >= 10_000);
    }
}
