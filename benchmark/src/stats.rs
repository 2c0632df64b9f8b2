//! Order statistics for timing samples: medians, quartiles and the
//! tail-percentile rule.

/// Summary of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are finite"));
    v
}

/// Linear-interpolated quantile of an ascending slice (`p` in 0..=1).
fn quantile_sorted(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of the samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// Quartiles and count of the samples.
pub fn quartiles(samples: &[f64]) -> Quartiles {
    let v = sorted(samples);
    Quartiles {
        n: v.len(),
        q1: quantile_sorted(&v, 0.25),
        median: quantile_sorted(&v, 0.5),
        q3: quantile_sorted(&v, 0.75),
    }
}

/// The tail percentiles the harness is willing to report, highest first.
const TAILS: [u32; 6] = [99, 95, 90, 75, 60, 50];

/// Picks the highest percentile with at least ten samples beyond it.
///
/// With `n` samples, percentile `p` has `n * (100 - p) / 100` samples
/// beyond it; a tail read off fewer than ten is one outlier's opinion.
/// Returns the percentile chosen and its value; below twenty samples no
/// tail is supported and the median is reported as the tail.
pub fn tail(samples: &[f64]) -> (u32, f64) {
    let v = sorted(samples);
    let p = TAILS
        .into_iter()
        .find(|p| v.len() * (100 - *p as usize) / 100 >= 10)
        .unwrap_or(50);
    (p, quantile_sorted(&v, f64::from(p) / 100.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail(&ramp(5)).0, 50, "too few samples for any tail");
        assert_eq!(tail(&ramp(19)).0, 50);
        assert_eq!(tail(&ramp(25)).0, 60, "25 * 0.40 = 10 beyond p60");
        assert_eq!(tail(&ramp(40)).0, 75, "40 * 0.25 = 10 beyond p75");
        assert_eq!(tail(&ramp(100)).0, 90);
        assert_eq!(tail(&ramp(199)).0, 90, "199 * 0.05 = 9 beyond p95");
        assert_eq!(tail(&ramp(200)).0, 95);
        assert_eq!(tail(&ramp(1000)).0, 99);
    }

    #[test]
    fn tail_value_is_the_chosen_percentile() {
        let (p, v) = tail(&ramp(201));
        assert_eq!(p, 95);
        assert!((v - 191.0).abs() < 1e-9, "p95 of 1..=201 is 191, got {v}");
    }

    #[test]
    fn quartiles_interpolate() {
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(q.n, 4);
        assert!((q.q1 - 1.75).abs() < 1e-12);
        assert!((q.median - 2.5).abs() < 1e-12);
        assert!((q.q3 - 3.25).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
