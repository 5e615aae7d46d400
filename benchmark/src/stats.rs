//! The statistics and seeded generators the harness needs: medians and tails of timing samples, the seeded Zipf request
//! schedule, and sub-seed derivation.

use dcn_sim::stats::percentile;

/// Median of `xs` (mean of the two middle values for an even count; 0 for
/// no samples).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Samples needed before a 95th percentile has ten samples beyond it.
pub const TAIL_MIN_SAMPLES: usize = 200;

/// The tail statistic of a set of latencies: the 95th percentile once it
/// has at least ten samples beyond it, i.e. from [`TAIL_MIN_SAMPLES`]
/// samples on; below that no percentile above the median is trustworthy,
/// so the median is returned.
pub fn tail(xs: &[f64]) -> f64 {
    if xs.len() < TAIL_MIN_SAMPLES {
        median(xs)
    } else {
        percentile(xs, 95.0)
    }
}

/// SplitMix64 finalizer: a bijective scrambler, so distinct inputs give
/// distinct outputs.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th value of the stream derived from `seed`.
pub fn derive(seed: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// A Zipf(`s`) distribution over ranks `0..n`, sampled by inverting the
/// cumulative weights.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over no ranks");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Rank drawn by request `index` of the schedule seeded with `seed`.
    /// A pure function of its arguments, so a schedule of any length is
    /// identical for equal seeds without being stored.
    pub fn pick(&self, seed: u64, index: u64) -> usize {
        // 53 random bits -> uniform in [0, 1).
        let u = (derive(seed, index) >> 11) as f64 / (1u64 << 53) as f64;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_picks_middle_or_mean_of_middles() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_median_until_p95_has_ten_samples_beyond() {
        let few: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail(&few), 100.0);
        let enough: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        // p95 of 1..=200 lies between 190 and 191: exactly ten samples beyond.
        let p95 = tail(&enough);
        assert!(p95 > 190.0 && p95 < 191.0, "{p95}");
    }

    #[test]
    fn zipf_schedule_repeats_for_equal_seeds_and_differs_across_seeds() {
        let z = Zipf::new(8, 1.0);
        let draw = |seed| (0..240).map(|i| z.pick(seed, i)).collect::<Vec<_>>();
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn zipf_head_repeats_and_tail_is_rare() {
        let z = Zipf::new(8, 1.0);
        let mut counts = [0usize; 8];
        for i in 0..20_000 {
            counts[z.pick(42, i)] += 1;
        }
        // Zipf(1.0) over 8 ranks: p(0) = 0.368, p(7) = 0.046.
        assert!(
            (counts[0] as f64 / 20_000.0 - 0.368).abs() < 0.02,
            "{counts:?}"
        );
        assert!(
            (counts[7] as f64 / 20_000.0 - 0.046).abs() < 0.01,
            "{counts:?}"
        );
        assert!(counts.windows(2).all(|w| w[0] > w[1]), "{counts:?}");
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| derive(1, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(derive(1, 0), derive(2, 0));
    }
}
