//! Seeded request generation: the only source of randomness in the
//! benchmark. The program under test receives the generated requests
//! and nothing else, so the same `--seed` replays the same run.
//!
//! The generator is the benchmark's own (SplitMix64 plus an
//! inverse-CDF Zipf table) rather than `eleos_apps::loadgen`, so a later
//! change to the library's load generators cannot move the schedule.

use crate::workload::{KeyDist, Spec, LATE_VALUES_FROM};

/// SplitMix64: one multiply-xorshift chain per draw, full 64-bit period.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for
    /// every `n` this benchmark uses).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(alpha) over `0..n` by inverse-CDF lookup; rank 0 is hottest.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u32, alpha: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|i| {
                acc += 1.0 / f64::from(i).powf(alpha);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u32
    }
}

/// One generated request, before it is turned into wire bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub conn: u32,
    pub key: u32,
    /// `Some(len)` is a SET of a `len`-byte value; `None` is a GET.
    pub set_len: Option<u32>,
}

/// The request stream of one workload run.
pub struct Gen {
    spec: &'static Spec,
    rng: Rng,
    zipf: Option<Zipf>,
}

impl Gen {
    pub fn new(spec: &'static Spec, seed: u64) -> Self {
        let zipf = match spec.keys {
            KeyDist::Zipf(alpha) => Some(Zipf::new(spec.n_keys, alpha)),
            KeyDist::Uniform | KeyDist::ConnSlice => None,
        };
        // Mix the workload name in, so the four workloads do not replay
        // one another's draws under the same seed.
        let tag = spec
            .name
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131) ^ u64::from(b));
        Self {
            spec,
            rng: Rng::new(seed ^ (tag << 20)),
            zipf,
        }
    }

    /// The next request. `conn` is the connection a closed loop's reply
    /// just freed; an open loop passes `None` and the generator draws
    /// one. `progress` in `[0, 1)` is how far through the measured phase
    /// the request is issued (it selects the value-size phase).
    pub fn next(&mut self, conn: Option<u32>, progress: f64) -> Request {
        let spec = self.spec;
        let conn = conn.unwrap_or_else(|| self.rng.below(u64::from(spec.conns)) as u32);
        let key = match (&self.zipf, spec.keys) {
            (Some(z), _) => z.sample(&mut self.rng),
            (None, KeyDist::ConnSlice) => {
                let slice = spec.n_keys / spec.conns;
                conn * slice + self.rng.below(u64::from(slice)) as u32
            }
            (None, _) => self.rng.below(u64::from(spec.n_keys)) as u32,
        };
        let is_set = self.rng.below(100) < u64::from(spec.set_pct);
        let len = if progress < LATE_VALUES_FROM {
            spec.value_len
        } else {
            spec.value_len_late
        };
        let set_len = is_set.then_some(len);
        Request { conn, key, set_len }
    }

    /// The next Poisson inter-arrival gap, in simulated cycles.
    pub fn gap(&mut self, mean: u64) -> u64 {
        // 1 - unit() is in (0, 1], so the logarithm is finite.
        (-(1.0 - self.rng.unit()).ln() * mean as f64) as u64
    }
}

/// The bytes of key `i`: a fixed-width decimal, so every key of a
/// workload has the same length.
pub fn key_bytes(i: u32, len: usize) -> Vec<u8> {
    format!("{i:0len$}").into_bytes()
}

/// The bytes of version `ver` of key `i`'s value. A value is a function
/// of `(key, version, length)` alone, so the verifier regenerates the
/// expected bytes instead of storing them.
pub fn value_bytes(key: u32, ver: u32, len: usize) -> Vec<u8> {
    let mut rng = Rng::new((u64::from(key) << 32) | u64::from(ver));
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SPECS;

    fn schedule(spec: &'static Spec, seed: u64, n: usize) -> Vec<(Request, u64)> {
        let mut g = Gen::new(spec, seed);
        (0..n)
            .map(|i| (g.next(None, i as f64 / n as f64), g.gap(6_000)))
            .collect()
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        for spec in &SPECS {
            let a = schedule(spec, 7, 500);
            assert_eq!(a, schedule(spec, 7, 500), "{}", spec.name);
            assert_ne!(a, schedule(spec, 8, 500), "{}", spec.name);
        }
    }

    #[test]
    fn requests_stay_inside_the_workload() {
        for spec in &SPECS {
            let mut sets = 0usize;
            for (r, _) in schedule(spec, 3, 4_000) {
                assert!(r.key < spec.n_keys && r.conn < spec.conns);
                if spec.keys == KeyDist::ConnSlice {
                    assert_eq!(r.key / (spec.n_keys / spec.conns), r.conn);
                }
                sets += usize::from(r.set_len.is_some());
            }
            let want = 40 * spec.set_pct as usize;
            assert!(sets.abs_diff(want) <= 200, "{}: {sets} sets", spec.name);
        }
    }

    #[test]
    fn poisson_gaps_have_the_requested_mean() {
        let mut g = Gen::new(&SPECS[3], 1);
        let n = 100_000u64;
        let mean = (0..n).map(|_| g.gap(6_000)).sum::<u64>() / n;
        assert!(mean.abs_diff(6_000) < 100, "mean gap {mean}");
    }

    #[test]
    fn values_differ_by_key_and_version() {
        assert_eq!(value_bytes(5, 2, 100), value_bytes(5, 2, 100));
        assert_ne!(value_bytes(5, 2, 100), value_bytes(5, 3, 100));
        assert_ne!(value_bytes(5, 2, 100), value_bytes(6, 2, 100));
        assert_eq!(value_bytes(1, 1, 1024).len(), 1024);
        assert_eq!(key_bytes(42, 16), b"0000000000000042");
    }
}
