//! Host-side measurement: per-thread on-CPU time and run-queue wait, the
//! load average, peak RSS, order statistics, and the FNV-1a digest the
//! job layer pins results with. Linux only.

use std::time::Instant;

/// Cumulative scheduler times of the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadTimes {
    /// Nanoseconds spent on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds spent runnable but waiting on a run queue.
    pub wait_ns: u64,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// The calling thread's on-CPU nanoseconds, exact to the nanosecond.
/// (`schedstat`'s on-CPU field only advances at scheduler ticks, 4 ms
/// on a 250 Hz kernel, too coarse for short operations.)
fn thread_cpu_ns() -> Result<u64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live, properly aligned `Timespec` whose
    // layout matches the C struct on 64-bit Linux (two 64-bit fields).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err("clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed".to_owned());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// The calling thread's on-CPU time and its run-queue wait (the second
/// field of `/proc/thread-self/schedstat`, exact whenever the thread is
/// running, since it accrues only while the thread waits).
pub fn thread_times() -> Result<ThreadTimes, String> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| format!("cannot read /proc/thread-self/schedstat: {e}"))?;
    let wait_ns = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u64>().ok())
        .ok_or_else(|| format!("malformed schedstat line {text:?}"))?;
    Ok(ThreadTimes {
        cpu_ns: thread_cpu_ns()?,
        wait_ns,
    })
}

/// One timed operation: wall, on-CPU and run-queue wait time of the
/// thread that ran it.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Wall-clock nanoseconds.
    pub wall_ns: u64,
    /// On-CPU nanoseconds.
    pub cpu_ns: u64,
    /// Run-queue wait nanoseconds.
    pub wait_ns: u64,
}

impl Op {
    /// On-CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.cpu_ns as f64 * 1e-9
    }

    /// Wall-clock seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 * 1e-9
    }
}

/// Run `f` on the calling thread and measure it.
pub fn timed<R>(f: impl FnOnce() -> R) -> Result<(R, Op), String> {
    let before = thread_times()?;
    let start = Instant::now();
    let r = f();
    let wall_ns = start.elapsed().as_nanos() as u64;
    let after = thread_times()?;
    Ok((
        r,
        Op {
            wall_ns,
            cpu_ns: after.cpu_ns.saturating_sub(before.cpu_ns),
            wait_ns: after.wait_ns.saturating_sub(before.wait_ns),
        },
    ))
}

/// The host's 1-, 5- and 15-minute load averages.
pub fn load_average() -> Result<[f64; 3], String> {
    let text = std::fs::read_to_string("/proc/loadavg")
        .map_err(|e| format!("cannot read /proc/loadavg: {e}"))?;
    let v: Vec<f64> = text
        .split_whitespace()
        .take(3)
        .map(|s| {
            s.parse()
                .map_err(|e| format!("malformed /proc/loadavg: {e}"))
        })
        .collect::<Result<_, _>>()?;
    match v[..] {
        [a, b, c] => Ok([a, b, c]),
        _ => Err(format!("malformed /proc/loadavg {text:?}")),
    }
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks.
/// Panics on an empty sample, which would be a bug in the caller.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over `bytes`: the digest `JobResult::to_json` emits as
/// `result_fnv64` when applied to a `ReplayResult`'s `{:#?}` form.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `result_fnv64` digest of a replay result.
pub fn result_digest(r: &addict_core::ReplayResult) -> u64 {
    fnv64(format!("{r:#?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn schedstat_is_readable_and_monotonic() {
        let a = thread_times().unwrap();
        let (_, op) = timed(|| (0..200_000u64).map(std::hint::black_box).sum::<u64>()).unwrap();
        let b = thread_times().unwrap();
        assert!(b.cpu_ns >= a.cpu_ns);
        assert!(op.wall_ns > 0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
