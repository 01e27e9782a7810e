//! Statistics computed from raw per-request samples: exact percentiles,
//! the highest percentile a sample supports, and the Zipf sampler the
//! service workloads draw tenants and transcripts with.

use rand::Rng;

/// Fewest samples that must lie beyond a percentile before it is reported
/// as supported by the sample.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (`0 < q <= 1`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it. Always
/// one of the samples, never an interpolation or a bucket edge.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, 0.5)
}

/// The highest percentile, in percent, with at least [`MIN_TAIL_SAMPLES`]
/// samples strictly beyond it; 0 when the sample is too small for any.
pub fn supported_percentile(n: usize) -> f64 {
    if n <= MIN_TAIL_SAMPLES {
        return 0.0;
    }
    ((n - MIN_TAIL_SAMPLES) as f64 / n as f64 * 1000.0).floor() / 10.0
}

/// Summary of one timing's raw samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub p50: f64,
    pub p90: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
    /// See [`supported_percentile`].
    pub supported_pct: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            count: v.len(),
            mean: v.iter().sum::<f64>() / v.len() as f64,
            p50: percentile_sorted(&v, 0.50),
            p90: percentile_sorted(&v, 0.90),
            p95: percentile_sorted(&v, 0.95),
            p99: percentile_sorted(&v, 0.99),
            max: v[v.len() - 1],
            supported_pct: supported_percentile(v.len()),
        }
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Inverse-CDF sampler over ranks `0..n` with weights `1 / (rank + 1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        assert!(n > 0, "a Zipf draw needs at least one rank");
        let cumulative = (0..n)
            .scan(0.0, |acc, r| {
                *acc += 1.0 / ((r + 1) as f64).powf(exponent);
                Some(*acc)
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn draw(&self, rng: &mut impl Rng) -> usize {
        let total = self.cumulative[self.cumulative.len() - 1];
        let u: f64 = rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// SplitMix64 finalizer: derives independent sub-seeds from the workload
/// seed, so every input stream is a pure function of `--seed`.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.001), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        // Unsorted input is sorted by the summary, not by the caller.
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.p50, s.max, s.count), (3.0, 5.0, 5));
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn supported_percentile_leaves_ten_samples_beyond() {
        assert_eq!(supported_percentile(10), 0.0);
        assert_eq!(supported_percentile(1000), 99.0);
        assert_eq!(supported_percentile(200), 95.0);
        let n = 270;
        let pct = supported_percentile(n);
        let rank = (pct / 100.0 * n as f64).ceil() as usize;
        assert!(n - rank >= MIN_TAIL_SAMPLES, "{pct} leaves {}", n - rank);
    }

    #[test]
    fn zipf_is_rank_ordered_and_seeded() {
        let z = Zipf::new(8, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut counts = [0usize; 8];
        for _ in 0..40_000 {
            counts[z.draw(&mut rng)] += 1;
        }
        // P(rank 0) = 1 / H_8 ≈ 0.368; P(rank 7) ≈ 0.046.
        let p0 = counts[0] as f64 / 40_000.0;
        assert!((p0 - 0.368).abs() < 0.02, "p0 = {p0}");
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
        let draws = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..64).map(|_| z.draw(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draws(9), draws(9));
        assert_ne!(draws(9), draws(10));
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 7), mix(5, 7));
    }
}
