//! Host-side measurement: process CPU and page faults from `/proc/self/stat`,
//! peak resident memory from `/proc/self/status`, and the order statistics
//! every timing is reported with.

/// Clock ticks per second of the `utime`/`stime` fields of `/proc/self/stat`
/// (`USER_HZ`, fixed at 100 on Linux for every architecture this runs on).
pub const TICKS_PER_S: f64 = 100.0;

/// A snapshot of the process-wide counters in `/proc/self/stat` (all threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcStat {
    /// User-mode CPU time, in clock ticks.
    pub user_ticks: u64,
    /// Kernel-mode CPU time, in clock ticks.
    pub sys_ticks: u64,
    /// Minor page faults.
    pub minflt: u64,
    /// Major page faults.
    pub majflt: u64,
}

impl ProcStat {
    /// Reads the current process's counters; all zero where `/proc` is
    /// unavailable.
    pub fn read() -> ProcStat {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| ProcStat::parse(&s))
            .unwrap_or_default()
    }

    /// Parses the contents of a `/proc/<pid>/stat` file.
    ///
    /// The command name (field 2) may contain spaces and parentheses, so the
    /// fields are counted from the last `)`.
    pub fn parse(stat: &str) -> Option<ProcStat> {
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        // `rest` starts at field 3 (state): field n is at index n - 3.
        let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
        Some(ProcStat {
            minflt: field(10)?,
            majflt: field(12)?,
            user_ticks: field(14)?,
            sys_ticks: field(15)?,
        })
    }

    /// The counters accumulated between `earlier` and `self`.
    pub fn since(self, earlier: ProcStat) -> ProcStat {
        ProcStat {
            user_ticks: self.user_ticks.saturating_sub(earlier.user_ticks),
            sys_ticks: self.sys_ticks.saturating_sub(earlier.sys_ticks),
            minflt: self.minflt.saturating_sub(earlier.minflt),
            majflt: self.majflt.saturating_sub(earlier.majflt),
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: ProcStat) {
        self.user_ticks += other.user_ticks;
        self.sys_ticks += other.sys_ticks;
        self.minflt += other.minflt;
        self.majflt += other.majflt;
    }

    /// User-mode CPU seconds.
    pub fn user_s(&self) -> f64 {
        self.user_ticks as f64 / TICKS_PER_S
    }

    /// Kernel-mode CPU seconds.
    pub fn sys_s(&self) -> f64 {
        self.sys_ticks as f64 / TICKS_PER_S
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Extracts `VmHWM` (in KiB) from the contents of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// The median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The arithmetic mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A tail latency: a percentile with at least [`TAIL_MIN_BEYOND`] samples
/// above it, with the sample count; for a windowed tail, the median of the
/// windows' percentiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 = the maximum).
    pub percentile: f64,
    /// The value at that percentile (the median over the windows).
    pub value: f64,
    /// How many samples the percentile was taken over (in each window).
    pub samples: usize,
    /// How many windows the samples were cut into (1 = not windowed).
    pub windows: usize,
}

/// The number of samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The percentiles a tail falls back to, highest first, when the requested
/// one has too few samples beyond it.
const TAIL_LADDER: [f64; 4] = [99.0, 90.0, 75.0, 50.0];

/// How many samples percentile `p` needs to have [`TAIL_MIN_BEYOND`] beyond
/// it (the maximum, `p` = 100, needs one).
pub fn samples_for_tail(p: f64) -> usize {
    (1..)
        .find(|&n| p >= 100.0 || n - nearest_rank(p, n) >= TAIL_MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn nearest_rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize
}

/// The tail of `values` at percentile `p` (100 = the maximum); when fewer
/// than [`TAIL_MIN_BEYOND`] samples lie beyond it, the highest lower
/// percentile of a fixed ladder that has them, else the maximum. `None` for
/// an empty slice.
pub fn tail(values: &[f64], p: f64) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let last = *v.last()?;
    let candidates = std::iter::once(p).chain(TAIL_LADDER.into_iter().filter(|&q| q < p));
    for q in candidates.filter(|&q| q < 100.0) {
        let rank = nearest_rank(q, n);
        if n - rank >= TAIL_MIN_BEYOND {
            return Some(Tail {
                percentile: q,
                value: v[rank - 1],
                samples: n,
                windows: 1,
            });
        }
    }
    Some(Tail {
        percentile: 100.0,
        value: last,
        samples: n,
        windows: 1,
    })
}

/// The tail of `values`, taken in the order they were measured, as the
/// median over `windows` consecutive windows of near-equal size of each
/// window's [`tail`] at percentile `p`. A slow stretch of the run (the host
/// busy with other work for a few seconds) moves the windows it covers, not
/// the median of them. The percentile and sample count reported are the
/// lowest of any window. `None` for an empty slice or no windows.
pub fn windowed_tail(values: &[f64], p: f64, windows: usize) -> Option<Tail> {
    let n = values.len();
    let windows = windows.min(n);
    let tails: Vec<Tail> = (0..windows)
        .filter_map(|i| tail(&values[i * n / windows..(i + 1) * n / windows], p))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    Some(Tail {
        percentile: tails.iter().map(|t| t.percentile).min_by(f64::total_cmp)?,
        value: median(&values),
        samples: tails.iter().map(|t| t.samples).min()?,
        windows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_names() {
        let stat = "4242 (a) b (c)) R 1 2 3 4 5 6 111 7 222 8 333 444 9 10 20 0 1 0 5 6 7";
        let p = ProcStat::parse(stat).expect("parses");
        assert_eq!(
            p,
            ProcStat {
                minflt: 111,
                majflt: 222,
                user_ticks: 333,
                sys_ticks: 444,
            }
        );
        assert!(ProcStat::parse("garbage").is_none());
    }

    #[test]
    fn reads_live_counters() {
        assert!(ProcStat::read().minflt > 0);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name: x\n"), None);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&v, 99.0),
            Some(Tail {
                percentile: 99.0,
                value: 990.0,
                samples: 1000,
                windows: 1,
            })
        );
        // p99.9 has one sample beyond it: fall back to p99.
        assert_eq!(tail(&v, 99.9).map(|t| t.percentile), Some(99.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            tail(&v, 99.0).map(|t| (t.percentile, t.value)),
            Some((90.0, 90.0))
        );
        let v = [5.0, 7.0, 6.0];
        assert_eq!(
            tail(&v, 90.0).map(|t| (t.percentile, t.value)),
            Some((100.0, 7.0))
        );
        assert_eq!(
            tail(&v, 100.0).map(|t| (t.percentile, t.value)),
            Some((100.0, 7.0))
        );
        assert_eq!(tail(&[], 50.0), None);
    }

    #[test]
    fn windowed_tail_is_the_median_of_the_windows() {
        // Three windows of 100; the middle one is a slow stretch.
        let mut v: Vec<f64> = (1..=300).map(|i| f64::from(i % 100 + 1)).collect();
        for x in &mut v[100..200] {
            *x += 1000.0;
        }
        assert_eq!(
            windowed_tail(&v, 90.0, 3),
            Some(Tail {
                percentile: 90.0,
                value: 90.0,
                samples: 100,
                windows: 3,
            })
        );
        // Unequal windows report the smallest; windows too small for any
        // percentile of the ladder give their maximum.
        let t = windowed_tail(&v[..299], 90.0, 3).expect("tail");
        assert_eq!((t.samples, t.windows), (99, 3));
        assert_eq!(
            windowed_tail(&v[..30], 90.0, 3).map(|t| t.percentile),
            Some(100.0)
        );
        assert_eq!(windowed_tail(&v, 90.0, 1), tail(&v, 90.0));
        assert_eq!(windowed_tail(&[2.0], 90.0, 5).map(|t| t.windows), Some(1));
        assert_eq!(windowed_tail(&[], 90.0, 3), None);
        assert_eq!(windowed_tail(&v, 90.0, 0), None);
    }

    #[test]
    fn sample_counts_for_tails() {
        assert_eq!(samples_for_tail(99.0), 1000);
        assert_eq!(samples_for_tail(90.0), 100);
        assert_eq!(samples_for_tail(100.0), 1);
        for p in [50.0, 75.0, 90.0, 99.0] {
            let n = samples_for_tail(p);
            let v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            assert_eq!(tail(&v, p).map(|t| t.percentile), Some(p));
        }
    }
}
