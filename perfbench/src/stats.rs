//! Order statistics and process counters shared by every workload.

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Arithmetic mean; `NaN` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Quantile `q` in [0, 1] of `values`, interpolating linearly between the
/// order statistics; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Nearest-rank percentile `p` (in percent) of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(len: usize, p: f64) -> usize {
    len - ((p / 100.0) * len as f64).ceil() as usize
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn rss_peak_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A deterministic stream of draws keyed by `(seed, index)`: the splitmix64
/// finaliser the library itself uses for seed forking.
pub struct Draws {
    seed: u64,
    next: u64,
}

impl Draws {
    pub fn new(seed: u64, stream: u64) -> Draws {
        Draws {
            seed: dla_core::machine::derive_stream_seed(seed, stream),
            next: 0,
        }
    }

    pub fn u64(&mut self) -> u64 {
        self.next += 1;
        dla_core::machine::derive_stream_seed(self.seed, self.next)
    }

    /// A uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.u64() % n as u64) as usize
    }

    /// A uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_beyond_agree() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 50.0), 500.0);
        assert_eq!(percentile(&sorted, 99.0), 990.0);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
    }

    #[test]
    fn draws_repeat_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut d = Draws::new(7, 1);
                move |_| d.u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut d = Draws::new(7, 1);
                move |_| d.u64()
            })
            .collect();
        assert_eq!(a, b);
        let mut p = Draws::new(7, 2).permutation(10);
        p.sort();
        assert_eq!(p, (0..10).collect::<Vec<_>>());
    }
}
