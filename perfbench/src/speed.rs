//! Host-speed normalization of CPU times.
//!
//! On a shared host the same single-threaded evaluation can take up to
//! about twice its usual CPU time for seconds to tens of minutes, while
//! other tenants load the host; whole runs can fall in such a period, so
//! no statistic over one run's timings filters it out. The benchmark
//! therefore times a fixed reference kernel, which is part of the
//! benchmark and never changes with the engine, next to the engine's work,
//! and divides each CPU time by the kernel's CPU time at that moment. The
//! result is in *reference milliseconds*: the time the work would take on
//! a host where the kernel takes [`REFERENCE_MS`]. Raw CPU times are
//! printed beside the normalized ones.
//!
//! The kernel is hash-set inserts and a sort, the operations the engine's
//! pair sets spend their time in. Interleaved with `paper_sets` sets over
//! 150 s on a 2-vCPU Xeon VM whose speed drifted (log-sd 0.18 of 3 s
//! windows), dividing by it left a log-sd of 0.07.

use crate::{cpu_time, ms, stats};

/// The kernel time that normalized times are scaled to.
pub const REFERENCE_MS: f64 = 1.0;

/// Runs the reference kernel once and returns its CPU time in ms (about
/// 1 ms on the machine above).
pub fn kernel_ms() -> f64 {
    let t = cpu_time();
    let mut set = std::collections::HashSet::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..12_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        set.insert(x >> 40);
    }
    let mut keys: Vec<u64> = set.into_iter().collect();
    keys.sort_unstable();
    std::hint::black_box(keys);
    ms(cpu_time() - t)
}

/// The host's slowdown against the reference from kernel samples: the
/// median kernel time over [`REFERENCE_MS`].
pub fn factor(kernel_samples: &[f64]) -> f64 {
    assert!(!kernel_samples.is_empty(), "no kernel samples");
    stats::median(kernel_samples) / REFERENCE_MS
}

/// Half-width of the window of kernel samples [`local_factors`] takes.
pub const LOCAL_RADIUS: usize = 2;

/// The host's slowdown around each sample of a sequence of kernel runs:
/// the [`factor`] of the samples at most [`LOCAL_RADIUS`] positions away.
pub fn local_factors(kernel_samples: &[f64]) -> Vec<f64> {
    let n = kernel_samples.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(LOCAL_RADIUS);
            let hi = (i + LOCAL_RADIUS + 1).min(n);
            factor(&kernel_samples[lo..hi])
        })
        .collect()
}

/// Runs `f` after three kernel runs; returns its result, its raw CPU time
/// in seconds and that time normalized by the three kernel runs' median.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let samples = [kernel_ms(), kernel_ms(), kernel_ms()];
    let t = cpu_time();
    let out = f();
    let raw = (cpu_time() - t).as_secs_f64();
    (out, raw, raw / factor(&samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_measurable_time_and_normalizes() {
        let k = kernel_ms();
        assert!(k > 0.01 && k < 1000.0, "kernel took {k} ms");
        assert_eq!(factor(&[2.0, 4.0, 3.0]), 3.0 / REFERENCE_MS);
        let local = local_factors(&[1.0, 9.0, 2.0, 3.0, 8.0, 4.0]);
        let want = [2.0, 2.5, 3.0, 4.0, 3.5, 4.0].map(|f| f / REFERENCE_MS);
        assert_eq!(local, want);
        let (value, raw, normalized) = timed(|| 7);
        assert_eq!(value, 7);
        assert!(raw >= 0.0 && normalized >= 0.0);
    }
}
