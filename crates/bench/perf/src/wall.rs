//! Wall-clock hygiene: a fixed calibration spin timed around every wall
//! pass, the rerun rule for passes taken while the host was disturbed,
//! and the process's peak resident set.

use std::time::Instant;

/// Entries of the table the spin walks: 4 MB of `u32`, past a core's
/// private caches, so that a neighbour thrashing the shared cache or the
/// memory bus slows the spin the way it slows the simulator (a pure-ALU
/// spin sleeps through a disturbance that costs the simulator 30 %).
const TABLE: usize = 1 << 20;
/// Steps of one spin (≈ 20–30 ms).
const STEPS: u64 = 3_000_000;

/// The calibration spin: a dependent walk over a fixed pseudo-random
/// cycle through the table, a multiply-rotate between loads.
pub struct Calibration {
    next: Vec<u32>,
    /// Fastest spin seen so far in this process (ns per step).
    best: f64,
}

impl Calibration {
    pub fn new() -> Calibration {
        // One cycle through every entry (Sattolo's shuffle), from a fixed
        // xorshift stream: the same walk in every process.
        let mut next: Vec<u32> = (0..TABLE as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..TABLE).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Calibration {
            next,
            best: f64::INFINITY,
        }
    }

    fn walk(&self, steps: u64) -> (u32, u64) {
        let mut at = 0u32;
        let mut x = std::hint::black_box(1u64);
        for i in 0..steps {
            at = self.next[at as usize];
            x = (x ^ u64::from(at) ^ i)
                .wrapping_mul(0x0000_0100_0000_01b3)
                .rotate_left(17);
        }
        (at, x)
    }

    /// Time one spin: nanoseconds per step. One untimed lap first pulls
    /// the table back in after a pass has evicted it.
    pub fn spin(&mut self) -> f64 {
        std::hint::black_box(self.walk(TABLE as u64));
        let start = Instant::now();
        std::hint::black_box(self.walk(STEPS));
        let ns = start.elapsed().as_nanos() as f64 / STEPS as f64;
        self.best = self.best.min(ns);
        ns
    }
}

/// A pass is discarded when a spin beside it is slower than the fastest
/// spin this process has seen by more than this.
pub const MAX_CALIB_DRIFT: f64 = 0.20;
/// Reruns allowed per invocation.
pub const MAX_RERUNS: u32 = 3;

/// Runs wall passes between calibration spins.
pub struct Passes {
    calibration: Calibration,
    /// Every calibration spin taken (ns per step).
    pub calib: Vec<f64>,
    /// Passes discarded and run again.
    pub rerun: u32,
}

impl Passes {
    pub fn new() -> Passes {
        Passes {
            calibration: Calibration::new(),
            calib: Vec::new(),
            rerun: 0,
        }
    }

    /// Run one pass. A pass with a slow spin before or after it ran on a
    /// disturbed host: it is discarded and run again, while reruns remain.
    pub fn pass<T>(&mut self, mut f: impl FnMut() -> T) -> T {
        loop {
            let before = self.calibration.spin();
            let out = f();
            let after = self.calibration.spin();
            self.calib.extend([before, after]);
            let slow = before.max(after) > self.calibration.best * (1.0 + MAX_CALIB_DRIFT);
            if !slow || self.rerun >= MAX_RERUNS {
                return out;
            }
            self.rerun += 1;
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`), if the platform
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
