//! Exact order statistics over raw samples.
//!
//! Every percentile the benchmark prints is a nearest-rank percentile over
//! all raw samples of the run, never a histogram estimate.

/// A percentile together with the number of samples it was taken over.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
}

/// Nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `samples`: the
/// smallest value with at least `p`% of the samples at or below it.
/// Returns `None` for an empty sample.
pub fn nearest_rank(samples: &[f64], p: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(Pct {
        value: sorted[rank.clamp(1, n) - 1],
        n,
    })
}

/// Nearest-rank median (0 for an empty sample).
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(samples, 50.0).map_or(0.0, |p| p.value)
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Geometric mean of positive values (0 for an empty sample).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// the kernel does not report it.
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
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0).unwrap().value, 50.0);
        assert_eq!(nearest_rank(&s, 99.0).unwrap().value, 99.0);
        assert_eq!(nearest_rank(&s, 100.0).unwrap().value, 100.0);
        let odd = [5.0, 1.0, 3.0];
        assert_eq!(nearest_rank(&odd, 50.0).unwrap().value, 3.0);
        assert_eq!(nearest_rank(&odd, 99.0).unwrap().n, 3);
        assert!(nearest_rank(&[], 50.0).is_none());
    }

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
