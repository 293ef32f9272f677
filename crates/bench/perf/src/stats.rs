//! The benchmark's statistics: the percentile rule, quartiles, and the
//! knee rule over a rate ladder.

/// Median of `values` (0.0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median, third quartile, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method); a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank quantile of unsorted samples (0.0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, q)
}

/// Nearest-rank quantile over sorted samples — the same rule as
/// `groupsafe_sim::Histogram::quantile`, so a latency derived from the
/// event stream can be compared for equality with the `Report`'s.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let idx = ((q * sorted.len() as f64).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[idx]
}

/// A latency distribution summarised by the percentile rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Samples, failed requests included.
    pub n: usize,
    pub p50: f64,
    /// The tail latency: the highest percentile of [`TAIL_LADDER`] with
    /// at least [`MIN_BEYOND`] samples beyond it.
    pub tail: f64,
    /// Which percentile `tail` is (0.99 when the sample supports it).
    pub tail_q: f64,
    /// Samples strictly beyond the tail's rank.
    pub beyond: usize,
}

/// Percentiles tried for the tail, highest first.
pub const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.90, 0.75, 0.50];
/// A percentile is reported only with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Summarise latency samples. `failed` requests got no answer: each
/// counts as one sample of infinite latency, so a failed request misses
/// every latency limit. `None` when there is nothing to summarise.
pub fn tail(samples: &[f64], failed: usize) -> Option<Tail> {
    let mut v = samples.to_vec();
    v.extend(std::iter::repeat_n(f64::INFINITY, failed));
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let beyond = |q: f64| n - ((q * n as f64).ceil() as usize).clamp(1, n);
    let tail_q = TAIL_LADDER
        .iter()
        .copied()
        .find(|&q| beyond(q) >= MIN_BEYOND)
        .unwrap_or(0.50);
    Some(Tail {
        n,
        p50: nearest_rank(&v, 0.50),
        tail: nearest_rank(&v, tail_q),
        tail_q,
        beyond: beyond(tail_q),
    })
}

/// What one rung of the rate ladder measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// The rung's nominal rate.
    pub offered_tps: f64,
    /// Requests per second that actually fell due inside the window (a
    /// Poisson draw around the nominal rate).
    pub arrived_tps: f64,
    /// Requests per second answered inside the window.
    pub achieved_tps: f64,
    /// Tail latency of the operation type the SLO is on (failed requests
    /// folded in as infinite samples).
    pub tail_ms: f64,
    pub failed_share: f64,
    /// `System::delivery_backlog()` was back to 0 at the end of the drain.
    pub drained: bool,
}

/// Why a rung does not count as sustained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RungFail {
    SloMiss,
    FailedShare,
    GrowingBacklog,
}

/// Largest share of failed requests a sustained rung may show.
pub const MAX_FAILED_SHARE: f64 = 0.001;
/// A sustained rung answers at least this share of the requests that
/// arrived.
pub const MIN_ACHIEVED_SHARE: f64 = 0.97;

/// The three tests of a sustained rung.
pub fn rung_verdict(r: &Rung, slo_ms: f64) -> Result<(), RungFail> {
    // A NaN tail (nothing measured) must not pass.
    if r.tail_ms.is_nan() || r.tail_ms > slo_ms {
        return Err(RungFail::SloMiss);
    }
    if r.failed_share > MAX_FAILED_SHARE {
        return Err(RungFail::FailedShare);
    }
    if r.achieved_tps < MIN_ACHIEVED_SHARE * r.arrived_tps || !r.drained {
        return Err(RungFail::GrowingBacklog);
    }
    Ok(())
}

/// The knee of a ladder climbed in ascending order: the last rung before
/// the first one that fails (a system past its knee does not recover at
/// a higher rate). `None` when the bottom rung already fails.
pub fn knee(rungs: &[Rung], slo_ms: f64) -> Option<f64> {
    rungs
        .iter()
        .take_while(|r| rung_verdict(r, slo_ms).is_ok())
        .last()
        .map(|r| r.offered_tps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_uses_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 0).unwrap();
        assert_eq!(
            (t.tail_q, t.tail, t.beyond, t.p50),
            (0.99, 990.0, 10, 500.0)
        );
        // 999 samples: p99 leaves 9 beyond, so the rule falls back to p95.
        let t = tail(&v[..999], 0).unwrap();
        assert_eq!((t.tail_q, t.beyond), (0.95, 49));
        assert_eq!(t.tail, 950.0);
        // 30 samples support nothing above p50.
        assert_eq!(tail(&v[..30], 0).unwrap().tail_q, 0.50);
        assert!(tail(&[], 0).is_none());
    }

    #[test]
    fn a_failed_request_misses_every_latency_limit() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v, 0).unwrap().tail, 1980.0);
        // 1 % failures push the p99 rank into the failed tail.
        let t = tail(&v, 25).unwrap();
        assert_eq!(t.n, 2025);
        assert!(t.tail.is_infinite());
    }

    fn rung(offered: f64, tail_ms: f64) -> Rung {
        Rung {
            offered_tps: offered,
            arrived_tps: offered,
            achieved_tps: offered,
            tail_ms,
            failed_share: 0.0,
            drained: true,
        }
    }

    #[test]
    fn knee_is_the_last_rung_before_the_first_failure() {
        let slo = 100.0;
        // SLO miss on the third rung; a later lucky pass does not count.
        let ladder = [
            rung(10.0, 20.0),
            rung(20.0, 40.0),
            rung(30.0, 250.0),
            rung(40.0, 90.0),
        ];
        assert_eq!(knee(&ladder, slo), Some(20.0));
        assert_eq!(rung_verdict(&ladder[2], slo), Err(RungFail::SloMiss));
        // Failed share.
        let mut failing = rung(20.0, 40.0);
        failing.failed_share = 0.002;
        assert_eq!(rung_verdict(&failing, slo), Err(RungFail::FailedShare));
        assert_eq!(knee(&[rung(10.0, 20.0), failing], slo), Some(10.0));
        // Growing backlog: achieved falls short, or the backlog never drains.
        let mut short = rung(20.0, 40.0);
        short.achieved_tps = 19.0;
        assert_eq!(rung_verdict(&short, slo), Err(RungFail::GrowingBacklog));
        let mut stuck = rung(20.0, 40.0);
        stuck.drained = false;
        assert_eq!(rung_verdict(&stuck, slo), Err(RungFail::GrowingBacklog));
        // Bottom rung fails: no knee. Every rung passes: the top rung.
        assert_eq!(knee(&[rung(10.0, 500.0)], slo), None);
        assert_eq!(knee(&[rung(10.0, 5.0), rung(20.0, 6.0)], slo), Some(20.0));
        assert_eq!(
            rung_verdict(&rung(10.0, f64::NAN), slo),
            Err(RungFail::SloMiss)
        );
    }
}
