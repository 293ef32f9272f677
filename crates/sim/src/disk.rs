//! Disk model with the paper's Table 4 parameters.
//!
//! Each access draws a uniform service time (default 4–12 ms, mean 8 ms —
//! the paper's "writing to disk takes around 8 ms"). The disk is a
//! single-server FCFS queue. Sequential batches (the write-caching
//! optimisation that group-safety enables, §5.1: "writes of adjacent pages
//! would also be scheduled together to maximise disk throughput") charge
//! the full service time for the first page and a configurable fraction
//! for each subsequent page.

use rand::rngs::StdRng;
use rand::Rng;

use crate::resource::Fcfs;
use crate::time::{SimDuration, SimTime};

/// Configuration of a simulated disk.
#[derive(Debug, Clone)]
pub struct DiskConfig {
    /// Minimum service time per random access, milliseconds (Table 4: 4 ms).
    pub min_ms: f64,
    /// Maximum service time per random access, milliseconds (Table 4: 12 ms).
    pub max_ms: f64,
    /// Fraction of a full access charged per extra page in a sequential
    /// batch (0.3 ≈ track-neighbour writes; 1.0 disables the optimisation).
    pub sequential_factor: f64,
}

impl Default for DiskConfig {
    fn default() -> Self {
        DiskConfig {
            min_ms: 4.0,
            max_ms: 12.0,
            sequential_factor: 0.3,
        }
    }
}

/// Running totals for a disk.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStats {
    /// Individual random accesses served.
    pub accesses: u64,
    /// Pages written through sequential batches.
    pub batched_pages: u64,
    /// Number of batch operations.
    pub batches: u64,
}

/// A single simulated disk.
#[derive(Debug, Clone)]
pub struct Disk {
    config: DiskConfig,
    queue: Fcfs,
    stats: DiskStats,
    /// Runtime service-time multiplier (1.0 = nominal). Scenario engines
    /// raise it temporarily to model a degraded device (slow-disk window).
    slowdown: f64,
}

impl Disk {
    /// Create a single disk with the given configuration.
    pub fn new(config: DiskConfig) -> Self {
        Disk::pool(config, 1)
    }

    /// Create a pool of `disks` identical disks served FCFS (Table 4
    /// gives each server 2 disks; the pool serves log and data traffic).
    pub fn pool(config: DiskConfig, disks: usize) -> Self {
        Disk {
            config,
            queue: Fcfs::new(disks),
            stats: DiskStats::default(),
            slowdown: 1.0,
        }
    }

    /// Create a disk with the paper's default parameters.
    pub fn paper_default() -> Self {
        Disk::new(DiskConfig::default())
    }

    fn draw_service(&self, rng: &mut StdRng) -> SimDuration {
        let ms = rng.random_range(self.config.min_ms..=self.config.max_ms);
        SimDuration::from_millis_f64(ms * self.slowdown)
    }

    /// Set the runtime service-time multiplier (1.0 = nominal speed).
    /// Applies to accesses submitted after the call; the RNG stream is
    /// untouched, so a slowed run draws the same service times scaled.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "slowdown factor must be positive"
        );
        self.slowdown = factor;
    }

    /// The current service-time multiplier.
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// One random access (read or write) submitted at `now`; returns the
    /// completion instant.
    pub fn access(&mut self, now: SimTime, rng: &mut StdRng) -> SimTime {
        self.stats.accesses += 1;
        let service = self.draw_service(rng);
        self.queue.request(now, service)
    }

    /// Write `pages` pages as one sequential batch submitted at `now`;
    /// returns the completion instant. A zero-page batch completes
    /// immediately at the queue head.
    pub fn sequential_batch(&mut self, now: SimTime, pages: usize, rng: &mut StdRng) -> SimTime {
        if pages == 0 {
            return now.max(self.queue.earliest_free());
        }
        self.stats.batches += 1;
        self.stats.batched_pages += pages as u64;
        let first = self.draw_service(rng);
        let extra_ms = first.as_millis_f64() * self.config.sequential_factor * (pages as f64 - 1.0);
        let service = first + SimDuration::from_millis_f64(extra_ms);
        self.queue.request(now, service)
    }

    /// Earliest instant at which the disk is free.
    pub fn earliest_free(&self) -> SimTime {
        self.queue.earliest_free()
    }

    /// Utilisation over `[0, horizon]`.
    pub fn utilisation(&self, horizon: SimTime) -> f64 {
        self.queue.utilisation(horizon)
    }

    /// Access statistics.
    pub fn stats(&self) -> DiskStats {
        self.stats
    }

    /// Drop all queued work (crash semantics: in-flight I/O is abandoned).
    pub fn reset(&mut self, now: SimTime) {
        self.queue.reset(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn access_times_are_in_range_and_queue() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut d = Disk::paper_default();
        let t0 = SimTime::ZERO;
        let c1 = d.access(t0, &mut rng);
        let ms = c1.as_millis_f64();
        assert!((4.0..=12.0).contains(&ms), "service {ms}ms out of range");
        // Second access queues behind the first.
        let c2 = d.access(t0, &mut rng);
        assert!(c2 > c1);
        assert!(c2.as_millis_f64() <= 24.0 + 1e-9);
        assert_eq!(d.stats().accesses, 2);
    }

    #[test]
    fn mean_service_is_about_8ms() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut d = Disk::paper_default();
        let mut t = SimTime::ZERO;
        let n = 2000;
        for _ in 0..n {
            t = d.access(t, &mut rng);
        }
        let mean = t.as_millis_f64() / n as f64;
        assert!(
            (7.5..=8.5).contains(&mean),
            "mean access time {mean}ms, expected ~8ms"
        );
    }

    #[test]
    fn sequential_batch_is_cheaper_than_random() {
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let mut batched = Disk::paper_default();
        let mut random = Disk::paper_default();
        let done_batched = batched.sequential_batch(SimTime::ZERO, 10, &mut rng_a);
        let mut done_random = SimTime::ZERO;
        for _ in 0..10 {
            done_random = random.access(SimTime::ZERO, &mut rng_b);
        }
        assert!(
            done_batched < done_random,
            "batch {done_batched} should beat 10 random accesses {done_random}"
        );
        assert_eq!(batched.stats().batched_pages, 10);
    }

    #[test]
    fn empty_batch_is_free() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Disk::paper_default();
        assert_eq!(
            d.sequential_batch(SimTime::from_millis(5), 0, &mut rng),
            SimTime::from_millis(5)
        );
        assert_eq!(d.stats().batches, 0);
    }

    #[test]
    fn slowdown_scales_service_times() {
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let mut nominal = Disk::paper_default();
        let mut slowed = Disk::paper_default();
        slowed.set_slowdown(3.0);
        let a = nominal.access(SimTime::ZERO, &mut rng_a);
        let b = slowed.access(SimTime::ZERO, &mut rng_b);
        assert!(
            (b.as_millis_f64() - 3.0 * a.as_millis_f64()).abs() < 1e-2,
            "same draw, tripled: {a} vs {b}"
        );
        slowed.set_slowdown(1.0);
        assert_eq!(slowed.slowdown(), 1.0);
    }

    #[test]
    #[should_panic(expected = "slowdown factor must be positive")]
    fn invalid_slowdown_rejected() {
        Disk::paper_default().set_slowdown(0.0);
    }

    #[test]
    fn reset_clears_backlog() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Disk::paper_default();
        d.access(SimTime::ZERO, &mut rng);
        d.reset(SimTime::from_millis(1));
        let c = d.access(SimTime::from_millis(1), &mut rng);
        assert!(c.as_millis_f64() <= 13.0);
    }
}
