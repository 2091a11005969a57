//! Order statistics and process measurements.

use std::time::Duration;

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// `None` when there are none.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64))
}

/// Median of unsorted samples (0 when there are none; callers guarantee
/// a minimum sample count for every reported metric).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Arithmetic mean of samples (0 when there are none).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Milliseconds in a duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1_000.0
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Quantile of a fixed-bucket histogram given as cumulative
/// `(upper_bound_us, count)` pairs, interpolated linearly inside the
/// bucket that holds it, in milliseconds. The open last bucket reports
/// its lower bound.
#[must_use]
pub fn histogram_quantile_ms(cumulative: &[(u64, u64)], q: f64) -> f64 {
    let total = cumulative.last().map_or(0, |&(_, c)| c);
    if total == 0 {
        return 0.0;
    }
    let target = q.clamp(0.0, 1.0) * total as f64;
    let mut lower_bound = 0u64;
    let mut below = 0u64;
    for &(bound, cum) in cumulative {
        if cum as f64 >= target && cum > below {
            if bound == u64::MAX {
                return lower_bound as f64 / 1_000.0;
            }
            let frac = (target - below as f64) / (cum - below) as f64;
            return (lower_bound as f64 + frac * (bound - lower_bound) as f64) / 1_000.0;
        }
        lower_bound = bound;
        below = cum;
    }
    lower_bound as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), Some(9.9));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn histogram_quantile_interpolates_inside_bucket() {
        // 10 observations ≤ 100 µs, 10 more in (100, 200] µs.
        let cum = [(100, 10), (200, 20), (u64::MAX, 20)];
        assert!((histogram_quantile_ms(&cum, 0.5) - 0.1).abs() < 1e-9);
        assert!((histogram_quantile_ms(&cum, 0.75) - 0.15).abs() < 1e-9);
        assert_eq!(histogram_quantile_ms(&[(100, 0)], 0.5), 0.0);
    }
}
