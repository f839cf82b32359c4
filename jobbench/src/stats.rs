//! Order statistics, digests and the `/proc` counters the benchmark reads.

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest value with at least `q` of the
/// samples at or below it (`q` in `(0, 1]`); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method). Needs at least
/// one value.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "quartiles of an empty sample");
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// FNV-1a over `bytes`, continuing from `state` (start with [`FNV_INIT`]).
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// FNV-1a offset basis.
pub const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Process user+system CPU time in nanoseconds, all threads included
/// (`/proc/self/stat` fields 14 and 15, in USER_HZ = 100 ticks).
pub fn process_cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) * 10_000_000
}

/// This thread's `(on-CPU ns, runnable-but-waiting ns)` from
/// `/proc/thread-self/schedstat`.
pub fn thread_sched_ns() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let mut it = text.split_whitespace().map(|f| f.parse::<u64>().expect("numeric schedstat"));
    (it.next().unwrap_or(0), it.next().unwrap_or(0))
}

/// Peak resident set size so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 3.75));
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]: it
        // extrapolates below two points.
        assert_eq!(quartiles(&[9.0, 5.0]), (4.0, 10.0));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn median_and_nearest_rank_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
        // 1000 samples: p99 is the 990th, leaving ten above it.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 990.0);
    }

    #[test]
    fn fnv_is_the_reference_function() {
        assert_eq!(fnv1a(FNV_INIT, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_INIT, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(fnv1a(FNV_INIT, b"fo"), b"o"), fnv1a(FNV_INIT, b"foo"));
    }

    #[test]
    fn proc_counters_are_readable() {
        // Spin long enough to span several scheduler ticks: some kernels
        // account on-CPU time only at ticks.
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 50 {
            std::hint::black_box(fnv1a(FNV_INIT, b"spin"));
        }
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_ns() > 0);
        let (on_cpu, _) = thread_sched_ns();
        assert!(on_cpu > 0);
    }
}
