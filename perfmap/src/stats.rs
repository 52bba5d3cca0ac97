//! Percentile, quartile and median-of-slices arithmetic.
//!
//! Every timing the benchmark reports is computed per slice of a phase
//! and reduced to the **median over slices**; the distance between the
//! first and third quartile of the slice values (the slice IQR) travels
//! with it so `compare` can tell a change from noise.

/// Linear-interpolated percentile of an ascending slice (`q` in 0..=100).
/// Returns `None` for an empty slice: a metric without samples is
/// reported as absent, never as 0.
pub fn percentile(sorted: &[u32], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(f64::from(sorted[lo]) * (1.0 - frac) + f64::from(sorted[hi]) * frac)
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes
/// them, so the spreads printed here are the ones the driver checks.
/// A single value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        1 => Some([v[0]; 3]),
        n => {
            let at = |i: usize| {
                // Exclusive method: position i·(n+1)/4, clamped to the data.
                let pos = i * (n + 1);
                let j = (pos / 4).clamp(1, n - 1);
                let delta = (pos as f64 - (j * 4) as f64) / 4.0;
                v[j - 1] + (v[j] - v[j - 1]) * delta
            };
            Some([at(1), at(2), at(3)])
        }
    }
}

/// A reported number: the median over slices, the slice IQR beside it,
/// how many slices and how many raw samples stand behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub iqr: f64,
    pub slices: usize,
    pub samples: u64,
}

impl Summary {
    /// Reduces per-slice values to their median and IQR.
    pub fn of_slices(values: &[f64], samples: u64) -> Option<Summary> {
        let [q1, med, q3] = quartiles(values)?;
        Some(Summary {
            value: med,
            iqr: q3 - q1,
            slices: values.len(),
            samples,
        })
    }

    /// A number measured once (a counter ratio, a high-water mark).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            iqr: 0.0,
            slices: 1,
            samples: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 50.0), Some(30.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert_eq!(percentile(&v, 25.0), Some(20.0));
        assert_eq!(percentile(&v, 90.0), Some(46.0));
        assert_eq!(percentile(&[7], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[4.0]), Some([4.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_of_slices_ignores_one_bad_slice() {
        // One stalled slice out of seven moves the mean by 14 % and the
        // median not at all.
        let slices = [100.0, 101.0, 99.0, 2.0, 100.5, 99.5, 100.0];
        let s = Summary::of_slices(&slices, 700).expect("non-empty");
        assert_eq!(s.value, 100.0);
        assert_eq!(s.slices, 7);
        assert_eq!(s.samples, 700);
        assert!(s.iqr < 2.0, "iqr {}", s.iqr);
        assert_eq!(Summary::of_slices(&[], 0), None);
    }
}
