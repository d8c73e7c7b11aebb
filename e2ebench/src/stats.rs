//! Small numeric helpers: a seeded generator, quantiles and medians.

/// SplitMix64: a tiny seeded generator, so every input the benchmark
/// draws (Zipf ranks, write order, check samples) repeats per seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative Zipf(`s`) distribution over ranks `0..n`.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// Draw one rank from a cumulative distribution.
pub fn sample_cdf(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.next_f64();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// The `q`-quantile of `values` by the nearest-rank rule (the
/// `ceil(q·n)`-th smallest), so the p99 of 1000 samples has exactly
/// ten samples above it. `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median by the nearest-rank rule.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// How many samples a quantile needs so that at least ten lie above
/// it: the nearest-rank `q`-quantile of `n` samples has
/// `n - ceil(q·n)` samples above it.
pub fn supports_quantile(n: usize, q: f64) -> bool {
    n >= ((q * n as f64).ceil() as usize) + 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), Some(990.0));
        assert_eq!(quantile(&v, 0.5), Some(500.0));
        assert!(supports_quantile(1000, 0.99));
        assert!(!supports_quantile(999, 0.99));
    }

    #[test]
    fn zipf_ranks_favour_the_head() {
        let cdf = zipf_cdf(32, 1.1);
        let mut rng = Rng::new(7);
        let mut counts = [0usize; 32];
        for _ in 0..10_000 {
            counts[sample_cdf(&cdf, &mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
    }
}
