//! Order statistics the benchmark reports: median, quartiles (Python's
//! `statistics.quantiles(values, n=4)`), and the tail percentile rule.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; the mean of the two middle values for an even count. NaN for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// computes them (the default "exclusive" method). A single value is its
/// own quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let ld = s.len();
    if ld == 0 {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    if ld == 1 {
        return (s[0], s[0], s[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples beyond it, i.e. the eleventh-largest sample, at
/// the nearest-rank percentile `100 * (n - 10) / n`. The percentile moves
/// smoothly with the sample count, so runs of different lengths never
/// jump between distant rungs of a fixed ladder. With ten samples or
/// fewer there is no such percentile and the tail is the minimum, at the
/// 0th percentile, which no one will mistake for a tail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub beyond: usize,
}

pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    match s.len() {
        0 => Tail {
            pct: 0.0,
            value: f64::NAN,
            beyond: 0,
        },
        n if n <= 10 => Tail {
            pct: 0.0,
            value: s[0],
            beyond: n - 1,
        },
        n => Tail {
            pct: 100.0 * (n - 10) as f64 / n as f64,
            value: s[n - 11],
            beyond: 10,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 6.0, 7.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));

        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));

        // One sample more or less moves the percentile a little, never a
        // whole rung.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.beyond), (989.0, 10));
        assert!((t.pct - 98.998).abs() < 1e-3);
    }

    #[test]
    fn tail_of_a_tiny_sample_is_not_a_tail() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.pct, t.value, t.beyond), (0.0, 1.0, 2));
        let t = tail(&(1..=11).map(f64::from).collect::<Vec<_>>());
        assert_eq!((t.value, t.beyond), (1.0, 10));
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn exactly_ten_samples_lie_beyond_the_tail() {
        for n in 11..3000 {
            let v: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let t = tail(&v);
            assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10, "n={n}");
            // nearest rank: at least pct% of the samples are at or below it
            let at_or_below = v.iter().filter(|&&x| x <= t.value).count();
            assert!(at_or_below as f64 >= t.pct / 100.0 * n as f64 - 1e-9);
        }
    }
}
