//! Integer statistics and fixed-point rendering.
//!
//! Every figure the benchmark prints is computed in integers (the
//! repository's `ftm-lint` D1 rule bans floating point) and rendered as a
//! decimal with a fixed number of fractional digits, so `1234` µs prints
//! as `1.234` ms without a float ever existing.

use std::fmt;

/// An integer scaled by `10^decimals`, printed as a decimal number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fixed {
    raw: i128,
    decimals: u32,
}

impl Fixed {
    /// `num / den`, rounded half-up to `decimals` fractional digits
    /// (zero when `den` is zero).
    pub fn ratio(num: u128, den: u128, decimals: u32) -> Fixed {
        let scale = 10u128.pow(decimals);
        let raw = if den == 0 {
            0
        } else {
            (num * scale * 2 + den) / (den * 2)
        };
        Fixed {
            raw: i128::try_from(raw).unwrap_or(i128::MAX),
            decimals,
        }
    }

    /// A whole number.
    pub fn int(v: u64) -> Fixed {
        Fixed {
            raw: i128::from(v),
            decimals: 0,
        }
    }

    /// Microseconds rendered as milliseconds with three decimals.
    pub fn us_as_ms(us: u64) -> Fixed {
        Fixed::ratio(u128::from(us), 1000, 3)
    }

    /// `(a - b) / b` in percent with two decimals; negative when `a < b`.
    pub fn change_pct(a: u64, b: u64) -> Fixed {
        let magnitude = Fixed::ratio(u128::from(a.abs_diff(b)) * 100, u128::from(b), 2);
        Fixed {
            raw: if a < b { -magnitude.raw } else { magnitude.raw },
            decimals: 2,
        }
    }

    /// Whether the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.raw == 0
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.raw < 0 { "-" } else { "" };
        let abs = self.raw.unsigned_abs();
        if self.decimals == 0 {
            return write!(f, "{sign}{abs}");
        }
        let scale = 10u128.pow(self.decimals);
        let width = self.decimals as usize;
        write!(f, "{sign}{}.{:0width$}", abs / scale, abs % scale)
    }
}

/// Nearest-rank percentile (`permille` of 1000) of an ascending slice;
/// zero for an empty slice.
pub fn percentile(sorted: &[u64], permille: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (permille * n).div_ceil(1000).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Median of an unsorted sample (lower median for even sizes).
pub fn median(values: &[u64]) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    percentile(&v, 500)
}

/// Samples strictly above `threshold` in an ascending slice.
pub fn count_above(sorted: &[u64], threshold: u64) -> u64 {
    (sorted.len() - sorted.partition_point(|&x| x <= threshold)) as u64
}

/// A latency distribution summary in microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dist {
    /// Sample count.
    pub samples: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Samples strictly above the 99th percentile.
    pub above_p99: u64,
    /// 90th, 95th and 99.9th percentiles (for the human summary).
    pub tail: [u64; 3],
}

impl Dist {
    /// Summarizes `values` (consumed and sorted).
    pub fn of(mut values: Vec<u64>) -> Dist {
        values.sort_unstable();
        let p99 = percentile(&values, 990);
        Dist {
            samples: values.len() as u64,
            p50: percentile(&values, 500),
            p99,
            above_p99: count_above(&values, p99),
            tail: [
                percentile(&values, 900),
                percentile(&values, 950),
                percentile(&values, 999),
            ],
        }
    }
}

/// A commit tail read per group (a fresh cluster, or one cell run) and
/// summarized across groups, so that one group's stall episode or burst
/// of host preemption moves the result by a share, not by a factor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tail {
    /// The groups' 99th percentiles, summarized.
    pub p99: u64,
    /// Pooled samples strictly above `p99`.
    pub above: u64,
}

impl Tail {
    /// The median of the groups' p99s, for groups of one kind (fresh
    /// clusters of one workload).
    pub fn median_of(groups: &[Vec<u64>]) -> Tail {
        Tail::with_p99(groups, median(&group_p99s(groups)))
    }

    /// The mean of the groups' p99s, for groups of several kinds (cells
    /// of different sizes), whose median would sit on the boundary
    /// between the kinds and jump across it.
    pub fn mean_of(groups: &[Vec<u64>]) -> Tail {
        let p99s = group_p99s(groups);
        let sum: u64 = p99s.iter().sum();
        Tail::with_p99(groups, sum / (p99s.len() as u64).max(1))
    }

    fn with_p99(groups: &[Vec<u64>], p99: u64) -> Tail {
        let above = groups
            .iter()
            .map(|g| g.iter().filter(|&&x| x > p99).count() as u64)
            .sum();
        Tail { p99, above }
    }
}

fn group_p99s(groups: &[Vec<u64>]) -> Vec<u64> {
    groups
        .iter()
        .map(|g| {
            let mut v = g.clone();
            v.sort_unstable();
            percentile(&v, 990)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_renders_without_floats() {
        assert_eq!(Fixed::us_as_ms(1234).to_string(), "1.234");
        assert_eq!(Fixed::us_as_ms(5).to_string(), "0.005");
        assert_eq!(Fixed::ratio(2, 3, 4).to_string(), "0.6667");
        assert_eq!(Fixed::int(7).to_string(), "7");
        assert_eq!(Fixed::change_pct(90, 100).to_string(), "-10.00");
        assert_eq!(Fixed::change_pct(110, 100).to_string(), "10.00");
        assert!(Fixed::ratio(1, 0, 2).is_zero());
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 500), 50);
        assert_eq!(percentile(&v, 990), 99);
        assert_eq!(count_above(&v, 99), 1);
        assert_eq!(median(&[5, 1, 3]), 3);
        assert_eq!(percentile(&[], 500), 0);
    }

    #[test]
    fn tail_summarizes_group_p99s() {
        let calm: Vec<u64> = (1..=100).collect();
        let stalled: Vec<u64> = (1..=100).map(|x| x * 10).collect();
        let groups = [calm.clone(), stalled, calm];
        let t = Tail::median_of(&groups);
        assert_eq!(t.p99, 99);
        assert_eq!(t.above, 1 + 91 + 1);
        let t = Tail::mean_of(&groups);
        assert_eq!(t.p99, (99 + 990 + 99) / 3);
        assert_eq!(t.above, 61);
    }
}
