//! Order statistics with a sample-count guard, and a seeded generator.

/// Fewest samples that must lie strictly above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p ∈ (0, 1)` of an ascending slice, refused
/// (with the reason) when fewer than [`MIN_BEYOND`] samples lie beyond
/// it: a shortened run must fail loudly instead of reporting a tail it
/// did not sample.
pub fn guarded_percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let n = sorted.len();
    let rank = ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it, have {beyond} of {n}",
            p * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean (NaN on an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_add(1).wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_bits(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `len` (`len > 0`).
    pub fn below(&mut self, len: usize) -> usize {
        (((self.next_bits() >> 11) as u128 * len as u128) >> 53) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_guard_refuses_an_undersampled_tail() {
        // p99 of 1000 samples has exactly 10 beyond it: allowed.
        assert_eq!(guarded_percentile(&ramp(1000), 0.99), Ok(990.0));
        // One sample fewer leaves 9 beyond: refused, not rounded.
        assert!(guarded_percentile(&ramp(999), 0.99).is_err());
        // p90 needs 100 samples, p50 needs 20.
        assert_eq!(guarded_percentile(&ramp(100), 0.90), Ok(90.0));
        assert!(guarded_percentile(&ramp(99), 0.90).is_err());
        assert_eq!(guarded_percentile(&ramp(20), 0.50), Ok(10.0));
        assert!(guarded_percentile(&ramp(19), 0.50).is_err());
        assert!(guarded_percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_and_rng_are_deterministic() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_bits()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7, 1);
        assert_ne!(r.next_bits(), Rng::new(7, 2).next_bits());
        assert!((0..1000).all(|_| r.below(13) < 13));
    }
}
