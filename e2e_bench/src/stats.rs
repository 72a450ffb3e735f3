//! Percentiles as the benchmark reports them.

/// A percentile as reported: its value, the percentile actually used,
/// and the number of samples it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub pct: f64,
    pub n: usize,
}

/// Nearest-rank percentile `p` (in 0..=1) of `xs`.
fn nearest_rank(sorted: &[f64], p: f64) -> usize {
    ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `xs` (0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5).value
}

/// Percentile `want` of `xs`, lowered to the highest percentile that
/// still has at least ten samples beyond it (but never below the
/// median), so a tail figure is never read off a handful of samples.
pub fn percentile(xs: &[f64], want: f64) -> Pct {
    if xs.is_empty() {
        return Pct {
            value: 0.0,
            pct: want,
            n: 0,
        };
    }
    let s = sorted(xs);
    let n = s.len();
    let median_rank = nearest_rank(&s, 0.5);
    let mut rank = nearest_rank(&s, want);
    let mut pct = want;
    if want > 0.5 && n - 1 - rank < 10 {
        rank = n.saturating_sub(11).max(median_rank);
        pct = if rank == median_rank {
            0.5
        } else {
            (rank + 1) as f64 / n as f64
        };
    }
    Pct {
        value: s[rank],
        pct,
        n,
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn keeps_the_asked_percentile_when_the_tail_is_big_enough() {
        let p = percentile(&ramp(1000), 0.99);
        assert_eq!((p.value, p.pct, p.n), (990.0, 0.99, 1000));
        assert_eq!(
            1000 - p.value as usize,
            10,
            "exactly ten samples beyond p99 of 1000"
        );
    }

    #[test]
    fn lowers_the_percentile_until_ten_samples_lie_beyond() {
        let xs = ramp(100);
        let p = percentile(&xs, 0.99);
        assert_eq!(p.n, 100);
        assert_eq!(p.value, 90.0);
        assert!((p.pct - 0.90).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > p.value).count(), 10);
        // Any higher percentile would leave fewer than ten beyond.
        let higher = percentile(&xs, p.pct + 0.01);
        assert_eq!(higher.value, p.value);
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        let p = percentile(&ramp(12), 0.9);
        assert_eq!((p.value, p.pct, p.n), (6.0, 0.5, 12));
        let p = percentile(&ramp(21), 0.99);
        assert_eq!(p.value, 11.0);
        assert_eq!(p.n, 21);
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(percentile(&[], 0.99).n, 0);
    }
}
