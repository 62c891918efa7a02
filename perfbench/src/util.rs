//! Seeded generators, order statistics, metric collection and a small
//! JSON writer (the benchmark has no serialisation dependency).

use std::fmt::{self, Write as _};
use std::time::Instant;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    pub fn word(&mut self, n: usize) -> String {
        (0..n)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }
}

/// Zipf-distributed picks over `n` items. Rank order is a seeded
/// permutation, so which items are hot changes with the seed.
pub struct Zipf {
    cdf: Vec<f64>,
    rank_to_item: Vec<usize>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64, rng: &mut Rng) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(exponent);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let mut rank_to_item: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            rank_to_item.swap(i, rng.below(i + 1));
        }
        Zipf { cdf, rank_to_item }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.rank_to_item[rank]
    }
}

/// FNV-1a over a byte slice: the payload digest the oracle compares.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Samples a [`Lat`] keeps at most.
const RESERVOIR: usize = 1 << 16;

/// Latency samples in microseconds: a uniform reservoir of at most
/// [`RESERVOIR`] of them (Algorithm R). The benchmark's own memory then
/// stays the same whatever the throughput, so `peak_rss_mb` follows the
/// program, not the number of operations recorded.
pub struct Lat {
    seen: u64,
    rng: Rng,
    samples: Vec<f64>,
}

impl Default for Lat {
    fn default() -> Lat {
        Lat {
            seen: 0,
            rng: Rng::new(RESERVOIR as u64),
            samples: Vec::new(),
        }
    }
}

impl Lat {
    pub fn push_ns(&mut self, ns: u64) {
        let us = ns as f64 / 1e3;
        self.seen += 1;
        if self.samples.len() < RESERVOIR {
            self.samples.push(us);
        } else {
            let j = (self.rng.next_u64() % self.seen) as usize;
            if j < RESERVOIR {
                self.samples[j] = us;
            }
        }
    }

    /// Operations recorded (not only those kept).
    pub fn len(&self) -> usize {
        self.seen as usize
    }

    /// `(p50, p99)`. The p99 is only reported when at least ten samples
    /// lie beyond it, i.e. from 1000 samples up; below that it is NaN and
    /// the metric is left out.
    pub fn p50_p99(&mut self) -> (f64, f64) {
        self.samples.sort_by(f64::total_cmp);
        let p99 = if self.samples.len() >= 1000 {
            quantile(&self.samples, 0.99)
        } else {
            f64::NAN
        };
        (quantile(&self.samples, 0.5), p99)
    }
}

/// Completions per [`Rate`] block.
const BLOCK: u32 = 256;

/// Completion rate over one timed phase, from the time each block of
/// [`BLOCK`] completions took. Its rate is that of the median block: on a
/// shared 2-vCPU host, spells of stalled operations otherwise move the
/// mean rate of a 30-second run by a third while the latency medians
/// move a tenth.
pub struct Rate {
    last: Instant,
    n: u32,
    blocks: Vec<f64>,
}

impl Default for Rate {
    fn default() -> Rate {
        Rate {
            last: Instant::now(),
            n: 0,
            blocks: Vec::new(),
        }
    }
}

impl Rate {
    /// Counts one completed operation.
    pub fn tick(&mut self) {
        self.n += 1;
        if self.n == BLOCK {
            let now = Instant::now();
            self.blocks.push((now - self.last).as_secs_f64());
            self.last = now;
            self.n = 0;
        }
    }

    /// Completions per second in the median whole block; NaN before the
    /// first block completes.
    pub fn per_s(&self) -> f64 {
        f64::from(BLOCK) / median(&self.blocks)
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Records a metric; non-finite values (nothing was measured) are
    /// dropped rather than reported as a number.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.0.push((name.into(), value, unit));
        }
    }

    /// The metrics named in `names`, in that order; `Err` names the first
    /// one that was not measured.
    pub fn select<'a>(&self, names: &[&'a str]) -> Result<Metrics, &'a str> {
        names
            .iter()
            .map(|&n| self.0.iter().find(|(m, ..)| m == n).cloned().ok_or(n))
            .collect::<Result<_, _>>()
            .map(Metrics)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::from(*u))]),
                    )
                })
                .collect(),
        )
    }
}

/// Minimal JSON value for the benchmark's output lines.
pub enum Json {
    Bool(bool),
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<'a>(pairs: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Int(v as i64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(pairs) => {
                f.write_char('{')?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }

    #[test]
    fn zipf_skews_towards_hot_items() {
        let mut rng = Rng::new(1);
        let z = Zipf::new(100, 1.0, &mut rng);
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max > 1000, "hottest item drew {max}");
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut lat = Lat::default();
        for ns in 0..4 * RESERVOIR as u64 {
            lat.push_ns(ns * 1000);
        }
        assert_eq!(lat.len(), 4 * RESERVOIR);
        assert_eq!(lat.samples.len(), RESERVOIR);
        let (p50, p99) = lat.p50_p99();
        let n = 4.0 * RESERVOIR as f64;
        assert!((p50 / n - 0.5).abs() < 0.01, "p50 {p50} of {n}");
        assert!((p99 / n - 0.99).abs() < 0.01, "p99 {p99} of {n}");
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn json_escapes_and_nests() {
        let j = Json::obj([
            ("a", Json::from("x\"y")),
            ("b", Json::Arr(vec![Json::Int(1)])),
        ]);
        assert_eq!(j.to_string(), r#"{"a":"x\"y","b":[1]}"#);
    }
}
