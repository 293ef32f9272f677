//! Simulation metrics: counters, sample histograms and summaries.
//!
//! Metrics are keyed by `&'static str` names. Histograms keep raw samples
//! — 8 bytes each for the whole run — which makes exact percentiles
//! trivial and avoids bucket-resolution artefacts in the paper-figure
//! reproductions; record into one only what some reader asks a quantile
//! of. The samples are kept in fixed 4 KiB blocks ([`BlockVec`]) that
//! never move: a histogram of a long run grows a block at a time, and
//! never reallocates or frees a multi-megabyte buffer whose hole the
//! allocator would have to place. A summary ([`Metrics::summarize`])
//! keeps a count and a running sum and nothing else, for a series whose
//! only reader is the Prometheus export's count and sum.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::BlockVec;

/// Samples per block.
const BLOCK: usize = BlockVec::<f64>::BLOCK_LEN;

/// A histogram over `f64` samples with exact quantiles.
///
/// A quantile sorts each block in place and finds the nearest rank
/// across the sorted blocks by a search over the samples' `total_cmp`
/// order that counts, per block, the samples at or below a candidate:
/// no sample is copied and nothing is allocated. The histogram remembers
/// how much of it is sorted (`sorted_len`), so a query after new
/// recordings sorts only the blocks they landed in.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: BlockVec<f64>,
    /// The blocks below the one this index falls in are sorted.
    sorted_len: usize,
    /// Running sum of all samples, maintained at record time so `mean`
    /// and `stddev` are O(1) instead of rescanning inside reporting loops.
    sum: f64,
    /// Running sum of squares (for the O(1) `stddev`).
    sum_sq: f64,
}

/// `v`'s place in the `total_cmp` order, as an integer that orders the
/// same way (the key [`f64::total_cmp`] compares).
fn key(v: f64) -> i64 {
    let bits = v.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The sample whose [`key`] is `k`: the map is its own inverse.
fn from_key(k: i64) -> f64 {
    f64::from_bits((k ^ (((k >> 63) as u64) >> 1) as i64) as u64)
}

/// The part of block `k`, `len` samples long, that `range` covers, as
/// indices within the block.
fn part(range: &Range<usize>, k: usize, len: usize) -> Range<usize> {
    let start = k * BLOCK;
    range.start.saturating_sub(start).min(len)..range.end.saturating_sub(start).min(len)
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
        self.sum += v;
        self.sum_sq += v * v;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all samples (0.0 if empty); maintained at record time.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (0.0 if empty). O(1): reads the running sum.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.sum / self.samples.len() as f64
    }

    /// Sample standard deviation (0.0 with fewer than two samples).
    /// O(1): derived from the running sum and sum of squares.
    pub fn stddev(&self) -> f64 {
        let n = self.samples.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        // Guard against tiny negative variance from float cancellation.
        let var = ((self.sum_sq - m * m * n as f64) / (n - 1) as f64).max(0.0);
        var.sqrt()
    }

    /// Sort the blocks not yet sorted, each in place. total_cmp:
    /// NaN-free total order, no panic path (a NaN sample would sort last
    /// instead of poisoning quantiles). Samples it calls equal have the
    /// same bits, so an unstable sort gives the stable sort's order.
    fn ensure_sorted(&mut self) {
        if self.sorted_len == self.samples.len() {
            return;
        }
        let first = self.sorted_len / BLOCK;
        for block in self.samples.blocks_mut().skip(first) {
            block.sort_unstable_by(f64::total_cmp);
        }
        self.sorted_len = self.samples.len();
    }

    /// `range` cut to the samples recorded.
    fn clamp(&self, range: Range<usize>) -> Range<usize> {
        let len = self.samples.len();
        range.start.min(len)..range.end.min(len)
    }

    /// The samples at `range`, one slice per block it meets.
    fn pieces(&self, range: Range<usize>) -> impl Iterator<Item = &[f64]> {
        let end = range.end;
        let blocks = self.samples.blocks().enumerate().skip(range.start / BLOCK);
        let blocks = blocks.take_while(move |(k, _)| k * BLOCK < end);
        blocks.map(move |(k, block)| block.get(part(&range, k, block.len())).unwrap_or(&[]))
    }

    /// The nearest-rank `q`-quantile of the samples at `range`, each of
    /// whose pieces is sorted (0.0 if the range is empty).
    fn nearest_rank(&self, range: Range<usize>, q: f64) -> f64 {
        let n = range.len();
        let firsts = self.pieces(range.clone()).filter_map(|p| p.first());
        let lasts = self.pieces(range.clone()).filter_map(|p| p.last());
        let (Some(mut lo), Some(mut hi)) =
            (firsts.map(|&v| key(v)).min(), lasts.map(|&v| key(v)).max())
        else {
            return 0.0;
        };
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * n as f64).ceil() as usize)
            .saturating_sub(1)
            .min(n - 1);
        // The smallest key with more than `idx` samples at or below it
        // is the key of the sample a full sort puts at `idx`.
        let at_or_below = |k: i64| -> usize {
            self.pieces(range.clone())
                .map(|p| p.partition_point(|&v| key(v) <= k))
                .sum()
        };
        while lo < hi {
            let mid = ((i128::from(lo) + i128::from(hi)) >> 1) as i64;
            if at_or_below(mid) > idx {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        from_key(lo)
    }

    /// Exact quantile by nearest-rank (`q` in `[0, 1]`; 0.0 if empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        self.ensure_sorted();
        self.nearest_rank(0..self.samples.len(), q)
    }

    /// Smallest sample (0.0 if empty).
    pub fn min(&mut self) -> f64 {
        self.quantile(0.0)
    }

    /// Largest sample (0.0 if empty).
    pub fn max(&mut self) -> f64 {
        self.quantile(1.0)
    }

    /// Sum of the samples at `range` (cut to the samples recorded),
    /// added in the order they are stored: recording order until a
    /// quantile sorts them.
    pub fn range_sum(&self, range: Range<usize>) -> f64 {
        self.pieces(self.clamp(range)).flatten().sum()
    }

    /// Exact nearest-rank quantile of the samples at `range` (cut to the
    /// samples recorded; 0.0 if that is empty): the samples recorded at
    /// those indices while they are in recording order, as a phase of a
    /// run reads them. Sorts the range's part of each block in place,
    /// which leaves the other samples where they are.
    pub fn range_quantile(&mut self, range: Range<usize>, q: f64) -> f64 {
        let range = self.clamp(range);
        let blocks = self.samples.blocks_mut().enumerate();
        let blocks = blocks.skip(range.start / BLOCK);
        for (k, block) in blocks.take_while(|(k, _)| k * BLOCK < range.end) {
            let part = part(&range, k, block.len());
            if let Some(piece) = block.get_mut(part) {
                piece.sort_unstable_by(f64::total_cmp);
            }
        }
        // A sorted block stays sorted: a piece of it is sorted already.
        self.nearest_rank(range, q)
    }

    /// The raw samples, block by block: in recording order until a
    /// quantile sorts them in place.
    pub fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().copied()
    }
}

/// A sample series kept as its count and running sum: what a
/// [`Histogram`] fed the same samples reports as its `count` and `sum`,
/// bit for bit, in 16 bytes.
#[derive(Debug, Clone, Copy, Default)]
struct Summary {
    count: usize,
    sum: f64,
}

/// Registry of named counters, histograms and summaries.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    summaries: BTreeMap<&'static str, Summary>,
}

impl Metrics {
    /// Create an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Add `by` to counter `name` (creating it at zero).
    pub fn add(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Increment counter `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Read counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record a sample into histogram `name` (creating it if absent).
    pub fn record(&mut self, name: &'static str, v: f64) {
        self.histograms.entry(name).or_default().record(v);
    }

    /// Borrow histogram `name`, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Mutably borrow histogram `name`, creating it if absent.
    pub fn histogram_mut(&mut self, name: &'static str) -> &mut Histogram {
        self.histograms.entry(name).or_default()
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Record a sample into summary `name` (creating it if absent): its
    /// count and sum, not the sample. A summary has no quantiles; it
    /// exists for [`Metrics::series`].
    pub fn summarize(&mut self, name: &'static str, v: f64) {
        let s = self.summaries.entry(name).or_default();
        s.count += 1;
        s.sum += v;
    }

    /// Every histogram and summary as `(name, count, sum)`, in name
    /// order (a name registered as both is listed twice, histogram
    /// first).
    pub fn series(&self) -> Vec<(&'static str, usize, f64)> {
        let histograms = self
            .histograms
            .iter()
            .map(|(&n, h)| (n, h.count(), h.sum()));
        let summaries = self.summaries.iter().map(|(&n, s)| (n, s.count, s.sum));
        let mut all: Vec<_> = histograms.chain(summaries).collect();
        // Stable: the histogram of a name shared with a summary first.
        all.sort_by_key(|&(name, _, _)| name);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The histogram this one replaces: every sample in one `Vec`,
    /// sorted whole by a quantile.
    #[derive(Default)]
    struct VecHistogram {
        samples: Vec<f64>,
        sum: f64,
        sum_sq: f64,
    }

    impl VecHistogram {
        fn record(&mut self, v: f64) {
            self.samples.push(v);
            self.sum += v;
            self.sum_sq += v * v;
        }

        fn mean(&self) -> f64 {
            if self.samples.is_empty() {
                return 0.0;
            }
            self.sum / self.samples.len() as f64
        }

        fn stddev(&self) -> f64 {
            let n = self.samples.len();
            if n < 2 {
                return 0.0;
            }
            let m = self.mean();
            let var = ((self.sum_sq - m * m * n as f64) / (n - 1) as f64).max(0.0);
            var.sqrt()
        }

        fn quantile(&mut self, q: f64) -> f64 {
            if self.samples.is_empty() {
                return 0.0;
            }
            self.samples.sort_by(f64::total_cmp);
            let q = q.clamp(0.0, 1.0);
            let idx = ((q * self.samples.len() as f64).ceil() as usize)
                .saturating_sub(1)
                .min(self.samples.len() - 1);
            self.samples[idx]
        }
    }

    /// A run's phase as its rows were read from the `Vec`: the sum of
    /// the range in recording order, and its quantile selected in a
    /// copy.
    fn phase_of_a_copy(samples: &[f64], q: f64) -> (u64, u64) {
        let sum = samples.iter().sum::<f64>();
        if samples.is_empty() {
            return (sum.to_bits(), 0.0f64.to_bits());
        }
        let idx = ((q * samples.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(samples.len() - 1);
        let mut ranked = samples.to_vec();
        let (_, &mut at, _) = ranked.select_nth_unstable_by(idx, f64::total_cmp);
        (sum.to_bits(), at.to_bits())
    }

    fn sample() -> impl Strategy<Value = f64> {
        prop_oneof![
            0.0f64..5_000.0,
            (0u32..20).prop_map(f64::from),
            Just(0.0),
            Just(-0.0),
            Just(-3.5),
            Just(f64::NAN),
        ]
    }

    /// Samples across block boundaries; cuts that split them into
    /// consecutive ranges, each with a quantile; then quantiles of the
    /// whole, each after recording some more samples.
    type Case = (Vec<f64>, Vec<(usize, f64)>, Vec<(f64, Vec<f64>)>);

    fn case() -> impl Strategy<Value = Case> {
        (
            proptest::collection::vec(sample(), 0..3 * BLOCK + 200),
            proptest::collection::vec((0usize..4 * BLOCK, 0.0f64..=1.0), 0..6),
            proptest::collection::vec(
                (
                    0.0f64..=1.0,
                    proptest::collection::vec(sample(), 0..BLOCK + 50),
                ),
                1..5,
            ),
        )
    }

    fn check_against_vec((samples, cuts, queries): Case) -> Result<(), TestCaseError> {
        let mut h = Histogram::new();
        let mut model = VecHistogram::default();
        for &v in &samples {
            h.record(v);
            model.record(v);
        }
        // The ranges, in recording order, one after the other.
        let mut bounds: Vec<(usize, f64)> = cuts;
        bounds.sort_by_key(|&(cut, _)| cut);
        let mut from = 0;
        for (to, q) in bounds {
            let sum = h.range_sum(from..to).to_bits();
            let at = h.range_quantile(from..to, q).to_bits();
            let cut = |i: usize| i.min(samples.len());
            prop_assert_eq!((sum, at), phase_of_a_copy(&samples[cut(from)..cut(to)], q));
            from = to;
        }
        for (q, more) in queries {
            for v in more {
                h.record(v);
                model.record(v);
            }
            prop_assert_eq!(h.quantile(q).to_bits(), model.quantile(q).to_bits());
            prop_assert_eq!(h.count(), model.samples.len());
            prop_assert_eq!(h.sum().to_bits(), model.sum.to_bits());
            prop_assert_eq!(h.mean().to_bits(), model.mean().to_bits());
            prop_assert_eq!(h.stddev().to_bits(), model.stddev().to_bits());
        }
        Ok(())
    }

    proptest! {
        /// Quantiles of the whole and of consecutive ranges, count, sum,
        /// mean and standard deviation are what the `Vec` histogram
        /// gave, bit for bit: ties, signed zeros and NaNs included.
        #[test]
        fn behaves_like_a_vec_histogram(c in case()) {
            check_against_vec(c)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]

        /// The same comparison over more cases (CI's bench job runs it:
        /// `cargo test --release -p groupsafe-sim --lib metrics -- --ignored`).
        #[test]
        #[ignore = "heavy: 1 000 cases, run in release by CI's bench job"]
        fn behaves_like_a_vec_histogram_heavy(c in case()) {
            check_against_vec(c)?;
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("a");
        m.add("a", 4);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        for v in [4.0, 8.0, 6.0, 2.0, 10.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 6.0).abs() < 1e-12);
        assert_eq!(h.min(), 2.0);
        assert_eq!(h.max(), 10.0);
        assert_eq!(h.quantile(0.5), 6.0);
        assert!((h.stddev() - (10.0f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quantiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.quantile(0.95), 95.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(0.01), 1.0);
    }

    #[test]
    fn the_first_query_sorts_in_place() {
        let values = [3.0, -0.0, 0.0, 1.0, f64::NAN, -2.0, 1.0];
        let mut h = Histogram::new();
        for v in values {
            h.record(v);
        }
        let first: *const f64 = h.samples.get(0).expect("recorded");
        assert_eq!(h.quantile(0.5), 1.0);
        assert!(std::ptr::eq(first, h.samples.get(0).expect("still there")));
        // The order a stable sort gives, bit for bit.
        let mut stable = values;
        stable.sort_by(f64::total_cmp);
        let bits = |v: &mut dyn Iterator<Item = f64>| v.map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(&mut h.samples()), bits(&mut stable.into_iter()));
    }

    #[test]
    fn interleaved_record_and_quantile() {
        // Regression for the sorted-prefix cache: queries between
        // recordings must see every sample recorded so far, in whatever
        // order the values arrive (including duplicates and values that
        // land inside, below, and above the already-sorted prefix).
        let mut h = Histogram::new();
        let values = [5.0, 1.0, 9.0, 3.0, 3.0, 7.0, 0.5, 9.5, 4.0, 6.0];
        let mut seen: Vec<f64> = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            h.record(v);
            seen.push(v);
            seen.sort_by(f64::total_cmp);
            // Interrogate min/median/max after every single record.
            assert_eq!(h.min(), seen[0], "min after {} records", i + 1);
            assert_eq!(h.max(), seen[seen.len() - 1], "max after {} records", i + 1);
            let mid = seen.len().div_ceil(2) - 1;
            assert_eq!(h.quantile(0.5), seen[mid], "median after {} records", i + 1);
            assert_eq!(h.count(), seen.len());
            // The running sum/count must track interleaved recording: mean
            // and stddev stay exact against a fresh rescan at every step.
            let n = seen.len() as f64;
            let mean = seen.iter().sum::<f64>() / n;
            assert!(
                (h.mean() - mean).abs() < 1e-12,
                "mean after {} records",
                i + 1
            );
            assert!((h.sum() - seen.iter().sum::<f64>()).abs() < 1e-12);
            if seen.len() >= 2 {
                let var = seen.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
                assert!(
                    (h.stddev() - var.sqrt()).abs() < 1e-9,
                    "stddev after {} records",
                    i + 1
                );
            }
        }
        // A burst of records with no query in between, then one query.
        for v in [2.5, 8.5, 0.1] {
            h.record(v);
            seen.push(v);
        }
        seen.sort_by(f64::total_cmp);
        assert_eq!(h.min(), 0.1);
        assert_eq!(h.max(), 9.5);
        assert_eq!(h.samples().count(), seen.len());
        // After queries the samples, one block of them, are sorted.
        assert!(h.samples().eq(seen.iter().copied()));
    }

    #[test]
    fn empty_histogram_is_safe() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.stddev(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn registry_histograms() {
        let mut m = Metrics::new();
        m.record("resp", 10.0);
        m.record("resp", 20.0);
        assert_eq!(m.histogram("resp").unwrap().count(), 2);
        assert_eq!(m.histogram_mut("resp").quantile(1.0), 20.0);
        assert!(m.histogram("nope").is_none());
    }

    #[test]
    fn a_summary_counts_and_sums_like_a_histogram() {
        let mut m = Metrics::new();
        for v in [0.1, 0.2, 0.3, 1e-9, 7.5] {
            m.record("full", v);
            m.summarize("sum_only", v);
        }
        let rows: Vec<_> = m
            .series()
            .into_iter()
            .map(|(name, count, sum)| (name, count, sum.to_bits()))
            .collect();
        let sum = m.histogram("full").unwrap().sum().to_bits();
        assert_eq!(rows, vec![("full", 5, sum), ("sum_only", 5, sum)]);
        assert!(m.histogram("sum_only").is_none());
    }
}
