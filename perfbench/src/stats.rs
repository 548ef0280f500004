//! Order statistics used by every reported latency and throughput.
//!
//! Percentiles are nearest-rank: the p-th percentile of `n` sorted
//! samples is the sample at 1-based rank `ceil(p/100 · n)`. Failed
//! operations enter a latency population as `+inf`, so they always sit
//! beyond any percentile that can be reported.

/// Sorts a copy of `samples` ascending (`NaN`-free input assumed).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of already-sorted samples; `None` when empty
/// or `p` is outside `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Samples that must lie beyond a reported tail.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a population: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it. With nearest rank that is rank
/// `n - 10`, i.e. the percentile `100 · (n - 10) / n`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the tail stands for.
    pub pct: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Population size, failures included.
    pub n: usize,
}

/// Picks the tail of sorted samples; `None` below `TAIL_BEYOND + 1`
/// samples.
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        n,
    })
}

/// Median (nearest-rank p50) of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(&sorted(samples), 50.0)
}

/// The percentile the roof, kernel, simulator and cluster wall timings
/// are read at. Load from other guests on a shared host comes and goes
/// over seconds, so a median over a few samples mostly measures the
/// neighbours; the quiet end is what a code change moves.
pub const QUIET_PCT: f64 = 10.0;

/// The [`QUIET_PCT`] percentile of unsorted samples (`NaN` when empty).
pub fn quiet(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), QUIET_PCT).unwrap_or(f64::NAN)
}

/// Arithmetic mean; `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_examples() {
        let s = sorted(&[15.0, 20.0, 35.0, 40.0, 50.0]);
        assert_eq!(percentile(&s, 5.0), Some(15.0));
        assert_eq!(percentile(&s, 30.0), Some(20.0));
        assert_eq!(percentile(&s, 40.0), Some(20.0));
        assert_eq!(percentile(&s, 50.0), Some(35.0));
        assert_eq!(percentile(&s, 100.0), Some(50.0));
        assert_eq!(percentile(&s, 0.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quiet_end_is_the_tenth_percentile() {
        let s: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quiet(&s), 2.0);
        assert_eq!(quiet(&[3.0, 1.0, 2.0]), 1.0);
        assert!(quiet(&[]).is_nan());
    }

    #[test]
    fn median_is_order_independent() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let s: Vec<f64> = (1..=600).map(f64::from).collect();
        let t = tail(&s).unwrap();
        assert_eq!(t.n, 600);
        assert_eq!(t.value, 590.0);
        assert_eq!(s.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!((t.pct - 98.333_333).abs() < 1e-5);
        // The tail value is the nearest-rank percentile it claims to be.
        assert_eq!(percentile(&s, t.pct), Some(t.value));
        // One more percent would leave fewer than ten beyond.
        let above = percentile(&s, t.pct + 0.2).unwrap();
        assert!(s.iter().filter(|&&x| x > above).count() < TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven).unwrap().value, 0.0);
    }

    #[test]
    fn failures_count_beyond_the_tail() {
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        s.extend([f64::INFINITY; 3]);
        let t = tail(&sorted(&s)).unwrap();
        assert_eq!(t.n, 103);
        assert_eq!(t.value, 93.0);
        // Eleven failures push the tail itself to infinity.
        s.extend([f64::INFINITY; 8]);
        assert!(tail(&sorted(&s)).unwrap().value.is_infinite());
    }
}
