//! Clocks, memory and summary statistics shared by every workload.

use std::time::Instant;

/// Process CPU time (user + system, every thread) in seconds, from
/// `CLOCK_PROCESS_CPUTIME_ID`: nanosecond resolution, where the
/// `/proc/self/stat` tick counters only resolve 10 ms.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark builds for),
    // and clock_gettime writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux process clocks and /proc; build it on 64-bit Linux");

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: p99 when at least ten samples lie beyond
/// it, otherwise the highest percentile that still has ten samples beyond
/// it, and the maximum when there are fewer than eleven samples. Returns
/// `(value, percentile)`.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "tail of no samples");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let p99 = (0.99 * n as f64).ceil() as usize - 1;
    let k = if n >= 11 { p99.min(n - 11) } else { n - 1 };
    (s[k], 100.0 * (k + 1) as f64 / n as f64)
}

/// Arithmetic mean (0 for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Time `f` in batches of `batch` calls back to back until `window`
/// seconds have passed (at least one batch). Returns each batch's time
/// divided by `batch`, plus the last call's output. Batching spreads the
/// clock's own cost over many calls.
pub fn time_batches<T>(window: f64, batch: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let batch = batch.max(1);
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.is_empty() || secs(started) < window {
        let t = Instant::now();
        for _ in 0..batch {
            last = Some(std::hint::black_box(f()));
        }
        times.push(secs(t) / batch as f64);
    }
    (times, last.expect("ran at least once"))
}

/// Whether one more operation, taking the median of `walls` so far (none
/// yet: no time), would end nearer to `seconds` after `started` than
/// stopping now does: it starts if at least half of it fits. A timed loop
/// that asks this before each operation ends within half an operation of
/// `seconds` either way, instead of overrunning by up to a whole one.
pub fn fits(started: Instant, seconds: f64, walls: &[f64]) -> bool {
    let next = if walls.is_empty() { 0.0 } else { median(walls) };
    secs(started) + next / 2.0 <= seconds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few), (5.0, 100.0));
        // 48 samples: index 37 (the 38th) leaves exactly ten beyond it.
        let mid: Vec<f64> = (1..=48).map(f64::from).collect();
        assert_eq!(tail(&mid).0, 38.0);
        // 2000 samples: p99 is index 1979, twenty beyond it.
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many), (1980.0, 99.0));
    }

    #[test]
    fn fits_starts_an_operation_when_half_of_it_fits() {
        let now = Instant::now();
        assert!(fits(now, 1.0, &[]));
        assert!(!fits(now - std::time::Duration::from_secs(2), 1.0, &[]));
        assert!(fits(now, 10.0, &[1.0, 2.0, 3.0]));
        assert!(fits(now, 1.5, &[1.0, 2.0, 3.0]));
        assert!(!fits(now, 0.5, &[1.0, 2.0, 3.0]));
    }

    #[test]
    fn timing_runs_at_least_one_batch_and_returns_the_last_output() {
        let mut calls = 0;
        let (times, last) = time_batches(0.0, 10, || {
            calls += 1;
            calls
        });
        assert_eq!((calls, last, times.len()), (10, 10, 1));
        assert!(times[0] >= 0.0);
    }

    #[test]
    fn clocks_move_forward() {
        let a = process_cpu_s();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_s() >= a);
        assert!(peak_rss_mb() > 0.0);
    }
}
