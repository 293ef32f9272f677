//! Queueing resources with analytic FCFS service.
//!
//! A [`Fcfs`] resource has `k` identical servers. A request arriving at
//! `now` with a given service time starts on the earliest-free server and
//! completes at `start + service`; the caller schedules its continuation at
//! the returned completion instant. This is the standard analytic treatment
//! used by the paper's CSIM-style simulator: no preemption, no explicit
//! queue objects, exact FCFS completion times.

#![expect(
    clippy::indexing_slicing,
    reason = "slot comes from enumerate() over free_at in the same function; free_at is non-empty by the constructor's clamp"
)]

use crate::time::{SimDuration, SimTime};

/// A `k`-server first-come-first-served queueing resource.
#[derive(Debug, Clone)]
pub struct Fcfs {
    free_at: Vec<SimTime>,
    busy: SimDuration,
    requests: u64,
    queued: SimDuration,
}

impl Fcfs {
    /// Create a resource with `servers` identical servers (clamped to at
    /// least one — a zero-server resource cannot serve anything).
    pub fn new(servers: usize) -> Self {
        Fcfs {
            free_at: vec![SimTime::ZERO; servers.max(1)],
            busy: SimDuration::ZERO,
            requests: 0,
            queued: SimDuration::ZERO,
        }
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.free_at.len()
    }

    /// Submit a request at `now` needing `service` time; returns the
    /// completion instant.
    pub fn request(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let Some(slot) = self
            .free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
        else {
            // A zero-server resource serves instantly: degenerate but
            // total (`new` clamps server counts to >= 1, so this arm is
            // unreachable through the public constructor).
            return now + service;
        };
        let start = self.free_at[slot].max(now);
        let end = start + service;
        self.free_at[slot] = end;
        self.busy += service;
        self.queued += start - now;
        self.requests += 1;
        end
    }

    /// Earliest instant at which some server is free (backlog probe).
    pub fn earliest_free(&self) -> SimTime {
        self.free_at.iter().min().copied().unwrap_or(SimTime::ZERO)
    }

    /// Total service time granted so far.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Total time requests spent waiting before service.
    pub fn queued_time(&self) -> SimDuration {
        self.queued
    }

    /// Number of requests served.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Utilisation over `[0, horizon]`: busy time / (servers × horizon).
    pub fn utilisation(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO {
            return 0.0;
        }
        self.busy.as_secs_f64() / (self.servers() as f64 * horizon.as_secs_f64())
    }

    /// Forget all backlog (used when a server crashes: in-flight work dies).
    pub fn reset(&mut self, now: SimTime) {
        for t in &mut self.free_at {
            *t = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }
    fn at(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn single_server_serialises() {
        let mut r = Fcfs::new(1);
        assert_eq!(r.request(at(0), ms(10)), at(10));
        // Arrives at 5 but server busy until 10: completes at 20.
        assert_eq!(r.request(at(5), ms(10)), at(20));
        // Arrives after idle gap: starts immediately.
        assert_eq!(r.request(at(30), ms(5)), at(35));
        assert_eq!(r.busy_time(), ms(25));
        assert_eq!(r.queued_time(), ms(5));
        assert_eq!(r.requests(), 3);
    }

    #[test]
    fn two_servers_run_in_parallel() {
        let mut r = Fcfs::new(2);
        assert_eq!(r.request(at(0), ms(10)), at(10));
        assert_eq!(r.request(at(0), ms(10)), at(10));
        // Third request queues behind the earliest-free server.
        assert_eq!(r.request(at(0), ms(10)), at(20));
        assert_eq!(r.earliest_free(), at(10));
    }

    #[test]
    fn utilisation_is_fractional() {
        let mut r = Fcfs::new(2);
        r.request(at(0), ms(10));
        // 10ms busy over 2 servers × 20ms horizon = 0.25.
        assert!((r.utilisation(at(20)) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilisation(SimTime::ZERO), 0.0);
    }

    #[test]
    fn reset_clears_backlog() {
        let mut r = Fcfs::new(1);
        r.request(at(0), ms(100));
        r.reset(at(10));
        assert_eq!(r.request(at(10), ms(5)), at(15));
    }

    #[test]
    fn zero_servers_clamped_to_one() {
        let mut r = Fcfs::new(0);
        assert_eq!(r.servers(), 1);
        assert_eq!(r.request(at(0), ms(10)), at(10));
        assert_eq!(r.request(at(0), ms(10)), at(20));
    }
}
