//! Order statistics for the benchmark's reports, and the peak-memory probe.
//!
//! Percentiles use the nearest-rank rule on sorted samples. A tail percentile is
//! only reported when at least [`MIN_BEYOND`] samples lie beyond it: a "p90" read
//! from 20 samples is the second-largest value, not a tail estimate.

/// The fewest samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sort a sample in place (total order; NaN never occurs in a duration sample).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a sorted sample: the middle value, or the mean of the two middle ones.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 })
}

/// First and third quartile of a sorted sample, by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)` (linear interpolation at `(n + 1) * q`).
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |q: f64| {
        let pos = (n as f64 + 1.0) * q;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(0.25), at(0.75)))
}

/// The nearest-rank `q`-percentile (`0 < q < 1`) of a sorted sample, refusing a tail
/// with fewer than [`MIN_BEYOND`] samples beyond it.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return Err(format!("no p{} of {n} samples", q * 100.0));
    }
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok(sorted[rank - 1])
}

/// The nearest-rank `q`-percentile of a sorted sample, however thin its tail (0 when
/// empty): for health checks and per-layer diagnostics, not for reported tails.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in megabytes (10^6 bytes).
pub fn parse_vmhwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = fields.next()?.parse().ok()?;
    if fields.next()? != "kB" {
        return None;
    }
    Some(kib * 1024.0 / 1e6)
}

/// Peak resident set size of this process so far, in megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    parse_vmhwm(&status).ok_or_else(|| "no VmHWM line in the process status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed pseudo-random sample, so the oracle tests cover unsorted input.
    fn sample(n: usize, seed: u64) -> Vec<f64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 40) as f64 / 1000.0
            })
            .collect()
    }

    /// Insertion sort: an oracle that shares no code with [`sorted`].
    fn oracle_sorted(values: &[f64]) -> Vec<f64> {
        let mut out: Vec<f64> = Vec::new();
        for &v in values {
            let at = out.iter().position(|&x| x > v).unwrap_or(out.len());
            out.insert(at, v);
        }
        out
    }

    #[test]
    fn median_agrees_with_a_sorted_oracle() {
        for n in 1..40 {
            let values = sample(n, n as u64);
            let o = oracle_sorted(&values);
            let want = if n % 2 == 1 { o[n / 2] } else { (o[n / 2 - 1] + o[n / 2]) / 2.0 };
            let s = sorted(values);
            assert_eq!(s, o, "n={n}");
            assert_eq!(median(&s), Some(want), "n={n}");
        }
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from Python: statistics.quantiles(range(1, 11), n=4)
        // == [2.75, 5.5, 8.25]; quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 3.75)));
        // quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]: two samples extrapolate.
        assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
        // Against a sorted oracle: from three samples on, quartiles stay inside the
        // sample and bracket the median.
        for n in 3..50 {
            let s = sorted(sample(n, 7 + n as u64));
            let (q1, q3) = quartiles(&s).unwrap();
            let m = median(&s).unwrap();
            assert!(s[0] <= q1 && q1 <= m && m <= q3 && q3 <= s[n - 1], "n={n}");
        }
    }

    #[test]
    fn tail_percentile_refuses_a_thin_tail() {
        let s = sorted(sample(99, 3));
        let err = tail_percentile(&s, 0.9).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        let s = sorted((1..=100).map(f64::from).collect());
        assert_eq!(tail_percentile(&s, 0.9), Ok(90.0));
        assert_eq!(tail_percentile(&s, 0.5), Ok(50.0));
        assert!(tail_percentile(&s, 0.95).is_err(), "5 beyond p95 of 100");
        assert!(tail_percentile(&[], 0.5).is_err());
        // Exactly ten beyond is enough; the value is the nearest rank.
        let s = sorted((1..=20).map(f64::from).collect());
        assert_eq!(tail_percentile(&s, 0.5), Ok(10.0));
        // The unchecked variant answers anyway, with the same rank.
        assert_eq!(nearest_rank(&s, 0.9), 18.0);
        assert_eq!(nearest_rank(&[], 0.9), 0.0);
    }

    #[test]
    fn vmhwm_parsing_reads_kilobytes() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1000 kB\n";
        let mb = parse_vmhwm(status).unwrap();
        assert!((mb - 123456.0 * 1024.0 / 1e6).abs() < 1e-9);
        assert_eq!(parse_vmhwm("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vmhwm("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vmhwm("VmHWM:\t12 MB\n"), None);
        assert!(peak_rss_mb().unwrap() > 0.0, "this process has a resident set");
    }
}
