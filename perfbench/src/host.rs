//! The host's speed, measured next to every timed piece of work.
//!
//! On a shared host the same code can run half again or twice as slow
//! for minutes at a time, and every operation slows together: the
//! engine, the simulator and a plain arithmetic loop alike. No estimator
//! over the workload's own passes removes that. So right before each
//! set-up and each timed pass the run times a fixed calibration loop, and
//! scales that piece of work by how fast the loop just ran: the timed
//! end-to-end metrics read as seconds on a host where the loop takes
//! [`REFERENCE_S`]. Scaling each pass by its own neighbour, and taking
//! the median over passes, follows the host's speed as it drifts within
//! the run.
//!
//! The loop is this module's own code over a fixed input, so no change
//! to the libraries can move it: at a given host speed a library change
//! moves the scaled metrics in the same proportion as the raw ones.

use crate::timed;

/// Time of one calibration loop on the host the benchmark was defined on
/// (2 vCPUs of a shared x86-64 Xeon host) when it runs at its best, in
/// seconds.
pub const REFERENCE_S: f64 = 0.030;

/// Calibration loops behind each calibration.
const LOOPS: usize = 2;
/// Distinct addresses of the calibration trace.
const ADDRS: usize = 1 << 15;
/// Length of the calibration trace.
const LEN: usize = 1 << 19;

/// Runs the calibration loop once and returns its wall time in seconds:
/// LRU stack distances of a fixed pseudo-random trace, by a Fenwick tree
/// over access times. It loads the host the way the workloads' engines
/// do: dependent loads over a few MiB, with little arithmetic.
#[must_use]
pub fn calibration_loop() -> f64 {
    timed(|| {
        let mut last = vec![0u32; ADDRS];
        let mut tree = vec![0u32; LEN + 1];
        let prefix = |tree: &[u32], mut i: usize| {
            let mut s = 0u64;
            while i > 0 {
                s += u64::from(tree[i]);
                i &= i - 1;
            }
            s
        };
        let add = |tree: &mut [u32], mut i: usize, up: bool| {
            while i <= LEN {
                tree[i] = if up { tree[i] + 1 } else { tree[i] - 1 };
                i += i & i.wrapping_neg();
            }
        };
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut total = 0u64;
        for t in 1..=LEN {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a = (x % ADDRS as u64) as usize;
            let prev = last[a] as usize;
            if prev > 0 {
                total += prefix(&tree, t - 1) - prefix(&tree, prev);
                add(&mut tree, prev, false);
            }
            add(&mut tree, t, true);
            last[a] = t as u32;
        }
        std::hint::black_box(total)
    })
    .0
}

/// The calibrations of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Host {
    /// Per calibration, the mean time of its loops, in seconds.
    pub calibrations: Vec<f64>,
}

impl Host {
    /// Calibrates and returns the factor that turns this host's seconds,
    /// right now, into reference seconds.
    pub fn calibrate(&mut self) -> f64 {
        let t = (0..LOOPS).map(|_| calibration_loop()).sum::<f64>() / LOOPS as f64;
        self.calibrations.push(t);
        REFERENCE_S / t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_scales_to_the_reference_host() {
        let mut host = Host::default();
        let scale = host.calibrate();
        assert_eq!(host.calibrations.len(), 1);
        assert!(host.calibrations[0] > 0.0);
        assert_eq!(scale, REFERENCE_S / host.calibrations[0]);
    }
}
