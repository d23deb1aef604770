//! Order statistics for timing samples.
//!
//! Every timing is reported as a median plus a tail: the highest
//! percentile that still has at least [`TAIL_BEYOND`] samples beyond it.
//! With `n` sorted samples that is nearest rank `n - TAIL_BEYOND`, i.e.
//! the `100 * (n - 10) / n`-th percentile, and it does not exist for
//! `n <= TAIL_BEYOND`.

/// Samples a reported tail must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail value together with the percentile it sits at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Its percentile (0–100).
    pub percentile: f64,
    /// Samples strictly after it in sorted order.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for even counts); `None` for
/// an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank 75th percentile (the largest of up to 3 samples); `None`
/// for an empty slice.
pub fn upper_quartile(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let rank = (3 * v.len()).div_ceil(4); // 1-based nearest rank
    v.get(rank.checked_sub(1)?).copied()
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it; `None` when there are too few samples to report one.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND; // 1-based nearest rank
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        n,
    })
}

/// Arithmetic mean; 0 for an empty slice (used only for per-layer
/// means, where "no work" reads as 0).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values; `None` when empty.
pub fn gmean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_never_reported_with_fewer_than_ten_beyond() {
        for n in 0..=300usize {
            // Distinct values (1009 is prime), in scrambled order.
            let xs: Vec<f64> = (0..n).map(|i| ((i * 7919) % 1009) as f64).collect();
            match tail(&xs) {
                None => assert!(n <= TAIL_BEYOND, "n = {n} should have a tail"),
                Some(t) => {
                    let larger = xs.iter().filter(|&&x| x > t.value).count();
                    assert!(larger >= TAIL_BEYOND, "n = {n}: {t:?}");
                    assert_eq!(t.beyond, larger);
                    assert_eq!(t.n, n);
                    assert!((t.percentile - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn tail_of_twenty_is_the_lower_median() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).expect("20 samples have a tail");
        assert_eq!(t.value, 10.0);
        assert_eq!(t.percentile, 50.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(upper_quartile(&[]), None);
        assert_eq!(upper_quartile(&[2.0]), Some(2.0));
        assert_eq!(upper_quartile(&[3.0, 1.0, 2.0]), Some(3.0));
        assert_eq!(upper_quartile(&[4.0, 1.0, 2.0, 3.0]), Some(3.0));
        let fifteen: Vec<f64> = (1..=15).rev().map(f64::from).collect();
        assert_eq!(upper_quartile(&fifteen), Some(12.0));
        assert!((gmean(&[2.0, 8.0]).unwrap() - 4.0).abs() < 1e-12);
    }
}
