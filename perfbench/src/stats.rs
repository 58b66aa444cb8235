//! Order statistics and metric-name rules shared by every workload.
//!
//! The quartiles follow Python's `statistics.quantiles(data, n=4)`
//! (the default "exclusive" method), so the spread this benchmark
//! reports is the spread a reader recomputes from the per-round values
//! it prints. Percentiles use the nearest-rank convention of
//! `ccfit::metrics::FctReport`: rank = ceil(q·n), clamped to 1..=n.

/// Median of `xs` (mean of the middle pair for even lengths); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs)?;
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)`. A single value is its own quartiles.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs)?;
    let ld = s.len();
    if ld == 1 {
        return Some([s[0]; 3]);
    }
    let m = ld as i64 + 1;
    let mut q = [0.0; 3];
    for (i, slot) in (1..4i64).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative for tiny samples: Python extrapolates, and so do we.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(q)
}

/// Nearest-rank percentile, `q` in [0, 1].
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let s = sorted(xs)?;
    let rank = (q * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

fn sorted(xs: &[f64]) -> Option<Vec<f64>> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    Some(s)
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: 1 to 16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn percentile_uses_the_fct_report_rank_convention() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), Some(99.0));
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(100.0));
        assert_eq!(percentile(&[5.0, 1.0], 0.999), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn metric_names_and_units_are_validated() {
        for ok in [
            "wall_s",
            "core.phase.iso_congestion_s",
            "cc.fecn-marked",
            "9x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "iso+congestion", "µs", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        for ok in ["s", "cycles/s", "MiB", "%", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", "seventeen-chars-x"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
