//! Order statistics used by the reports.

/// Sorts `values` ascending (total order; the inputs are finite timings).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank `q`-quantile of an ascending, non-empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Median of an ascending, non-empty slice (mean of the middle pair for an
/// even length).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The highest percentile of an ascending slice that still has at least
/// `beyond` samples above it: returns `(value, percentile)`. With fewer than
/// `beyond + 1` samples this is the minimum.
pub fn tail(sorted: &[f64], beyond: usize) -> (f64, f64) {
    assert!(!sorted.is_empty(), "tail of an empty sample");
    let n = sorted.len();
    let index = n.saturating_sub(beyond + 1);
    (sorted[index], (index + 1) as f64 / n as f64)
}

/// Windowed tail of an open-loop run: `samples` are `(due offset in
/// seconds, latency)` pairs; each full window of `window` seconds
/// contributes its p99, and the result is the lower quartile of those
/// per-window p99s, with the number of windows used.
///
/// A whole-run p99 is set by the few host stalls that happen to land in the
/// run; the lower quartile of per-window p99s reports the tail the service
/// itself produces in most windows.
pub fn windowed_p99_lower_quartile(samples: &[(f64, f64)], window: f64) -> (f64, usize) {
    let Some(last) = samples.iter().map(|s| s.0).reduce(f64::max) else {
        return (0.0, 0);
    };
    let windows = ((last / window).floor() as usize).max(1);
    let mut per_window: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(at, latency) in samples {
        let w = (at / window) as usize;
        if w < windows {
            per_window[w].push(latency);
        }
    }
    let mut p99s: Vec<f64> = per_window
        .iter_mut()
        .filter(|w| !w.is_empty())
        .map(|w| {
            sort(w);
            quantile(w, 0.99)
        })
        .collect();
    sort(&mut p99s);
    (quantile(&p99s, 0.25), p99s.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let _serial = crate::tests::serial();
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 50.5);
        assert_eq!(median(&v[..3]), 2.0);
    }

    #[test]
    fn tail_leaves_the_requested_samples_beyond() {
        let _serial = crate::tests::serial();
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (value, pct) = tail(&v, 10);
        assert_eq!(value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        assert!((pct - 0.99).abs() < 1e-12);
        assert_eq!(tail(&v[..5], 10).0, 1.0);
    }

    #[test]
    fn windowed_tail_ignores_a_single_stalled_window() {
        let _serial = crate::tests::serial();
        let mut samples = Vec::new();
        for i in 0..4000 {
            let at = i as f64 / 1000.0;
            let latency =
                if (1.0..1.1).contains(&at) { 50.0 } else { 1.0 + (i % 100) as f64 / 100.0 };
            samples.push((at, latency));
        }
        let (q, windows) = windowed_p99_lower_quartile(&samples, 0.5);
        assert_eq!(windows, 7);
        assert!(q < 2.0, "{q}");
    }
}
