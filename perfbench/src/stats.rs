//! Order statistics and process counters read from `/proc/self`.

/// Median of `v` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// A tail latency: the highest percentile that still has at least ten
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, in percent of the sample count.
    pub percentile: f64,
    /// Number of samples the tail was taken from.
    pub samples: usize,
}

/// The tail of `v`. Below 22 samples that percentile is at or below the
/// median, so the maximum is reported instead (`percentile` 100).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value.
pub fn tail(v: &[f64]) -> Tail {
    assert!(!v.is_empty(), "tail of no samples");
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let n = s.len();
    let i = if n >= 22 { n - 11 } else { n - 1 };
    Tail {
        value: s[i],
        percentile: 100.0 * (i + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geometric mean of no values");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`, 100
/// on every mainstream Linux architecture).
const TICKS_PER_SECOND: f64 = 100.0;

/// User and kernel CPU time consumed by this process so far, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// User-mode CPU seconds.
    pub user: f64,
    /// Kernel-mode CPU seconds.
    pub sys: f64,
}

impl CpuTimes {
    /// Reads `utime`/`stime` from `/proc/self/stat`; zeros where the file
    /// is unavailable.
    pub fn now() -> Self {
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
            return CpuTimes::default();
        };
        // The command name (field 2) may contain spaces; fields after its
        // closing parenthesis are space-separated, starting at field 3.
        let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
            return CpuTimes::default();
        };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(u), Some(s)) => CpuTimes {
                user: u / TICKS_PER_SECOND,
                sys: s / TICKS_PER_SECOND,
            },
            _ => CpuTimes::default(),
        }
    }

    /// CPU time consumed since `earlier`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        let small: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&small).value, 21.0);
        let small = tail(&[3.0, 1.0, 2.0]);
        assert_eq!(small.value, 3.0);
        assert_eq!(small.percentile, 100.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
