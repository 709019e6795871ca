//! Small statistics and the runner's own PRNG (no dependencies).

/// splitmix64: the runner's seed expander. Drives the `open_churn` order,
/// the payload bytes and the per-seed size jitter.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0); the modulo bias is irrelevant at
    /// these sizes.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A workload size for this seed: `base` plus up to 1/32 of it. The seed
/// picks the size inside a 3 % window so no result can be tuned to one
/// exact size; per-op metrics are insensitive to it.
pub fn jitter(seed: u64, tag: u64, base: u64) -> u64 {
    let mut r = SplitMix64(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
    base + r.below(base / 32 + 1)
}

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the middle two for even counts); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The percentile `p` (0..=100) of a sorted sample, nearest rank.
pub fn percentile(s: &[f64], p: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let i = ((s.len() - 1) as f64 * p / 100.0).round() as usize;
    s[i.min(s.len() - 1)]
}

/// The tail percentile a sample of this size supports: the highest of
/// 99, 95, 90 and 75 that leaves at least ten samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_beyond() {
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(12), 50.0);
    }

    #[test]
    fn jitter_stays_in_window_and_repeats() {
        for seed in 0..50 {
            let n = jitter(seed, 7, 3200);
            assert!((3200..=3300).contains(&n));
            assert_eq!(n, jitter(seed, 7, 3200));
        }
    }
}
