//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed for identical work
//! drifts by up to 2× in phases that last from seconds to minutes, long
//! enough to move a whole run. A run therefore also times a fixed
//! calibration kernel, between its simulations, and reports the host
//! time of its simulations at a nominal host speed: a host time `d`
//! measured around instant `t` of the run is multiplied by
//! [`NOMINAL_S`] ÷ the mean time of the kernel calls near it (see
//! [`factor`]), and the rates are computed from the scaled times. The kernel is compiled into the
//! benchmark and shares no code with the simulator, so a change to the
//! simulator moves the scaled metrics exactly as it moves the measured
//! ones; only the host's drift is divided out. The unscaled values and
//! every kernel call stay in the run's record file.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in seconds, that defines the nominal host speed: about
/// what one kernel call takes on an idle 2-vCPU Xeon host.
pub const NOMINAL_S: f64 = 0.04;

/// Words of the kernel's buffer (4 MiB): beyond a core's private
/// caches, so the kernel feels the shared-cache contention that slows
/// the simulator. Of the buffer sizes tried (256 KiB to 64 MiB), 4 MiB
/// tracked the 64-node and the 4096-node simulations best together;
/// 16 MiB and more over-reacted for the 64-node ones.
const WORDS: usize = 1 << 19;

/// Read-modify-write steps per call.
const STEPS: usize = 6_000_000;

/// The calibration kernel, its buffer and the times of its calls. The
/// buffer lives as long as the run, so every call touches the same
/// pages and the kernel adds a constant 4 MiB to the process's memory.
pub struct Kernel {
    buf: Vec<u64>,
    origin: Instant,
    /// Per call: its midpoint in seconds since `origin`, and its time.
    calls: Vec<(f64, f64)>,
}

impl Kernel {
    pub fn new() -> Self {
        Kernel {
            buf: vec![1; WORDS],
            origin: Instant::now(),
            calls: Vec::new(),
        }
    }

    /// Seconds since the kernel was made: the clock measurements are
    /// placed on.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Every call so far: midpoint and time, in seconds.
    pub fn calls(&self) -> &[(f64, f64)] {
        &self.calls
    }

    /// Run the kernel once and record its time: `STEPS`
    /// xorshift-addressed read-modify-writes over the buffer. The
    /// addresses do not depend on the buffer's contents, so every call
    /// does the same work.
    pub fn call(&mut self) {
        let buf = &mut self.buf;
        let mask = WORDS - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        let start = self.origin.elapsed().as_secs_f64();
        let t0 = Instant::now();
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & mask;
            acc = acc.wrapping_add(buf[i]);
            buf[(i * 7) & mask] = acc ^ x;
        }
        let s = t0.elapsed().as_secs_f64();
        black_box(acc);
        self.calls.push((start + s / 2.0, s));
    }

    /// The factor that brings `secs` of host time measured around
    /// instant `at` to nominal speed; see [`factor`].
    pub fn factor_at(&self, at: f64, secs: f64) -> f64 {
        factor(&self.calls, at, secs)
    }
}

/// [`NOMINAL_S`] ÷ the mean time of the `calls` (midpoint, time) that
/// fall within the measured interval of `secs` around `at`, widened by
/// `secs` on each side; or of the two calls nearest to `at` when fewer
/// fall there. For a short simulation these are the calls just before
/// and after it; a long pass, such as a warm pass that reads large
/// reports, is measured against the host's speed over its whole span.
pub fn factor(calls: &[(f64, f64)], at: f64, secs: f64) -> f64 {
    assert!(!calls.is_empty(), "a factor needs kernel calls");
    let mut near: Vec<(f64, f64)> = calls
        .iter()
        .map(|&(mid, s)| ((mid - at).abs(), s))
        .collect();
    near.sort_by(|a, b| a.0.total_cmp(&b.0));
    let within = near.iter().filter(|(d, _)| *d <= 1.5 * secs).count();
    let used = &near[..within.max(2).min(near.len())];
    NOMINAL_S * used.len() as f64 / used.iter().map(|(_, s)| s).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_nominal_over_the_mean_of_the_calls_near_the_measurement() {
        let calls = [(0.0, 0.3), (1.0, 0.1), (2.0, 0.2), (100.0, 9.0)];
        // A short measurement: the two nearest calls.
        assert!((factor(&calls, 1.4, 0.1) - NOMINAL_S / 0.15).abs() < 1e-12);
        assert!((factor(&calls, 60.0, 0.1) - NOMINAL_S / 4.6).abs() < 1e-12);
        // A measurement of 1 s around 1.0: the calls within 1.5 s of it.
        assert!((factor(&calls, 1.0, 1.0) - NOMINAL_S / 0.2).abs() < 1e-12);
        // A kernel at nominal speed leaves host times unscaled.
        assert_eq!(factor(&[(0.0, NOMINAL_S)], 0.0, 1.0), 1.0);
    }

    #[test]
    fn kernel_calls_are_recorded_in_order() {
        let mut k = Kernel::new();
        k.call();
        k.call();
        let c = k.calls();
        assert_eq!(c.len(), 2);
        assert!(c[0].1 > 0.0 && c[0].1.is_finite());
        assert!(c[0].0 < c[1].0 && c[1].0 <= k.now());
    }
}
