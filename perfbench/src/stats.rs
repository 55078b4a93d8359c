//! Order statistics over timing samples.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q < 1`) of `samples` by the nearest-rank rule,
/// or `None` unless at least [`MIN_BEYOND`] samples lie beyond it — a
/// tail percentile read off fewer samples is one outlier, not a tail.
///
/// With the nearest-rank rule the reported value is the sample at rank
/// `ceil(q·n)`, so `n − ceil(q·n)` samples lie beyond it: p99 needs
/// `n ≥ 1000`, p50 needs `n ≥ 20`.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "quantile must lie in (0, 1)");
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median (mean of the two middle values for an even count); `NaN`
/// for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean; 0 for no samples (a layer that did no work).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Medians over the windows of a phase of answers per second and of
/// server CPU milliseconds per answer.
///
/// `cuts` are (seconds since the phase began, server CPU seconds), read
/// at the phase's start, at every tick and at its end; `done` holds, for
/// each answer, the seconds since the phase began at which it arrived.
/// Windows shorter than `min_len` (the last one, cut short by the end of
/// the phase) are left out, unless no window is that long: then the
/// whole phase is one window.
pub fn windowed_rates(cuts: &[(f64, f64)], done: &[f64], min_len: f64) -> (f64, f64) {
    assert!(cuts.len() >= 2, "a phase has a start and an end");
    let mut done = done.to_vec();
    done.sort_by(f64::total_cmp);
    let before = |t: f64| done.partition_point(|&d| d < t);
    let mut windows: Vec<(usize, usize)> = (1..cuts.len())
        .filter(|&i| cuts[i].0 - cuts[i - 1].0 >= min_len)
        .map(|i| (i - 1, i))
        .collect();
    if windows.is_empty() {
        windows.push((0, cuts.len() - 1));
    }
    let last = cuts.len() - 1;
    let (mut rps, mut cpu_ms) = (Vec::new(), Vec::new());
    for (a, b) in windows {
        // The last window also takes answers stamped at the very end.
        let upto = if b == last {
            done.len()
        } else {
            before(cuts[b].0)
        };
        let answers = upto - before(cuts[a].0);
        rps.push(answers as f64 / (cuts[b].0 - cuts[a].0));
        if answers > 0 {
            cpu_ms.push((cuts[b].1 - cuts[a].1) * 1e3 / answers as f64);
        }
    }
    (median(&rps), median(&cpu_ms))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so the helper must sort.
        (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(2000), 0.99), Some(1980.0));
    }

    #[test]
    fn p50_is_the_lower_middle_rank() {
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(percentile(&ramp(101), 0.5), Some(51.0));
        assert_eq!(percentile(&ramp(19), 0.5), None);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn windowed_rates_take_medians_over_full_windows() {
        // Three 1-s windows with 10, 40 and 20 answers, then a 0.2-s tail
        // with 1; the server burns 0.1 CPU-s per window.
        let cuts = [(0.0, 0.0), (1.0, 0.1), (2.0, 0.2), (3.0, 0.3), (3.2, 0.32)];
        let mut done = Vec::new();
        for (start, n) in [(0.0, 10), (1.0, 40), (2.0, 20), (3.0, 1)] {
            done.extend((0..n).map(|i| start + i as f64 / n as f64 * 0.99));
        }
        let (rps, cpu_ms) = windowed_rates(&cuts, &done, 0.5);
        assert_eq!(rps, 20.0);
        assert!((cpu_ms - 100.0 / 20.0).abs() < 1e-9);
    }

    #[test]
    fn a_phase_shorter_than_a_window_is_one_window() {
        let (rps, cpu_ms) = windowed_rates(&[(0.0, 0.0), (0.4, 0.2)], &[0.1, 0.2, 0.4, 0.4], 0.5);
        assert_eq!(rps, 10.0);
        assert!((cpu_ms - 50.0).abs() < 1e-9);
    }
}
