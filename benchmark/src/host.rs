//! Host speed, measured by a fixed reference kernel.
//!
//! The benchmark was tuned on a shared 2-vCPU VM whose speed changes by
//! up to 2× for minutes at a time, while stolen time stays near zero:
//! other tenants slow the caches and memory, not the scheduler. A run
//! times this kernel between its jobs, and the end-to-end host times are
//! scaled by the kernel's slowdown against its time on that host when
//! quiet. The kernel lives in the benchmark, so no change to the
//! simulator can move it.
//!
//! The kernel mixes what the simulator's tick does: dependent loads and
//! stores over an array larger than the L2, hashing and a data-dependent
//! branch. Timed next to a paper-scale mcf job, the two agreed on the
//! host's speed closely enough to halve the spread of 10 s windows of
//! job time (coefficient of variation 0.155 → 0.084 over 455 pairs).
//! It runs on one thread, also for the two-thread workloads: on two
//! threads it mostly measured its own threads contending, and tracked
//! those workloads worse than raw times.

use std::time::Instant;

use crate::stats::median;

/// Words in the kernel's array: 4 MiB, beyond a core's L2.
const WORDS: usize = 1 << 19;

/// Kernel iterations per sample, about 12 ms on the reference host.
const ITERATIONS: usize = 3_000_000;

/// Median seconds of one sample on the reference host (a 2-vCPU Intel
/// Xeon VM) in a quiet period.
pub const REFERENCE_S: f64 = 0.0125;

/// The kernel's array, and the time of every sample taken.
pub struct HostClock {
    words: Vec<u64>,
    samples: Vec<f64>,
}

impl HostClock {
    /// Allocates and touches the array, so that it is resident before
    /// any measurement (its size is subtracted from `peak_rss_mb`).
    pub fn new() -> Self {
        HostClock {
            words: (0..WORDS as u64).collect(),
            samples: Vec::new(),
        }
    }

    /// Bytes the clock keeps resident.
    pub fn resident_bytes(&self) -> usize {
        WORDS * std::mem::size_of::<u64>()
    }

    /// Times `n` runs of the kernel; returns their total seconds.
    pub fn sample(&mut self, n: usize) -> f64 {
        let mut total = 0.0;
        for _ in 0..n {
            let t = Instant::now();
            std::hint::black_box(kernel(&mut self.words));
            let s = t.elapsed().as_secs_f64();
            self.samples.push(s);
            total += s;
        }
        total
    }

    /// Median sample seconds so far (the reference time before any).
    pub fn median_s(&self) -> f64 {
        median(&self.samples).unwrap_or(REFERENCE_S)
    }

    /// How much slower the host ran than the reference host: a measured
    /// time divided by this reads as reference-host seconds.
    pub fn slowdown(&self) -> f64 {
        self.median_s() / REFERENCE_S
    }
}

fn kernel(words: &mut [u64]) -> u64 {
    let mask = words.len() - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..ITERATIONS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 33) as usize & mask;
        acc ^= words[i];
        acc = if acc & 1 == 0 {
            acc.rotate_left(5)
        } else {
            acc.wrapping_add(i as u64)
        };
        words[i] = acc;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_sample_over_the_reference() {
        let mut c = HostClock::new();
        assert_eq!(c.slowdown(), 1.0);
        let r = REFERENCE_S;
        c.samples = vec![r * 3.0, r * 2.0, r * 100.0];
        assert!((c.slowdown() - 3.0).abs() < 1e-12);
        let t = c.sample(1);
        assert!(t > 0.0);
        assert_eq!(c.samples.len(), 4);
    }
}
