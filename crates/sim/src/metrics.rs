//! Simulation metrics: counters, sample histograms and summaries.
//!
//! Metrics are keyed by `&'static str` names. Histograms keep raw samples
//! — 8 bytes each for the whole run — which makes exact percentiles
//! trivial and avoids bucket-resolution artefacts in the paper-figure
//! reproductions; record into one only what some reader asks a quantile
//! of. A summary ([`Metrics::summarize`]) keeps a count and a running
//! sum and nothing else, for a series whose only reader is the
//! Prometheus export's count and sum.

#![expect(
    clippy::indexing_slicing,
    reason = "quantile index is clamped to len-1 after an is_empty early return two lines above"
)]

use std::collections::BTreeMap;

/// A histogram over `f64` samples with exact quantiles.
///
/// Quantile queries keep the sample vector sorted and remember how much of
/// it is (`sorted_len`); a query after new recordings sorts only the
/// unsorted tail and back-merges it into the sorted prefix, instead of
/// re-sorting the full vector on every `quantile`/`min`/`max` call the
/// reporting loops make.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    /// Length of the sorted prefix of `samples`.
    sorted_len: usize,
    /// Running sum of all samples, maintained at record time so `mean`
    /// and `stddev` are O(1) instead of rescanning inside reporting loops.
    sum: f64,
    /// Running sum of squares (for the O(1) `stddev`).
    sum_sq: f64,
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        Histogram {
            samples: Vec::new(),
            sorted_len: 0,
            sum: 0.0,
            sum_sq: 0.0,
        }
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

    fn ensure_sorted(&mut self) {
        if self.sorted_len == self.samples.len() {
            return;
        }
        // total_cmp: NaN-free total order, no panic path (a NaN sample
        // would sort last instead of poisoning quantiles). Samples it
        // calls equal have the same bits, so an unstable sort gives the
        // stable sort's order.
        if self.sorted_len == 0 {
            // Nothing sorted yet: sort in place, copying nothing.
            self.samples.sort_unstable_by(f64::total_cmp);
        } else {
            let mut tail = self.samples.split_off(self.sorted_len);
            tail.sort_by(f64::total_cmp);
            // Back-merge the sorted tail into the sorted prefix: O(tail +
            // displaced-prefix) moves, and the untouched low prefix never
            // moves at all.
            let prefix_len = self.samples.len();
            self.samples.resize(prefix_len + tail.len(), 0.0);
            let mut dst = self.samples.len();
            let mut i = prefix_len;
            let mut j = tail.len();
            while j > 0 {
                dst -= 1;
                if i > 0
                    && self.samples[i - 1].total_cmp(&tail[j - 1]) == std::cmp::Ordering::Greater
                {
                    self.samples[dst] = self.samples[i - 1];
                    i -= 1;
                } else {
                    self.samples[dst] = tail[j - 1];
                    j -= 1;
                }
            }
        }
        self.sorted_len = self.samples.len();
    }

    /// Exact quantile by nearest-rank (`q` in `[0, 1]`; 0.0 if empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.samples.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.samples.len() - 1);
        self.samples[idx]
    }

    /// Smallest sample (0.0 if empty).
    pub fn min(&mut self) -> f64 {
        self.quantile(0.0)
    }

    /// Largest sample (0.0 if empty).
    pub fn max(&mut self) -> f64 {
        self.quantile(1.0)
    }

    /// Borrow the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mutably borrow the raw samples, in recording order until a
    /// quantile sorts them: a caller may reorder them in place (no
    /// statistic depends on their order), and the next quantile sorts
    /// them all again.
    pub fn samples_mut(&mut self) -> &mut [f64] {
        self.sorted_len = 0;
        &mut self.samples
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
        let (ptr, capacity) = (h.samples().as_ptr(), h.samples.capacity());
        assert_eq!(h.quantile(0.5), 1.0);
        assert_eq!(
            (h.samples().as_ptr(), h.samples.capacity()),
            (ptr, capacity)
        );
        // The order a stable sort gives, bit for bit.
        let mut stable = values;
        stable.sort_by(f64::total_cmp);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(h.samples()), bits(&stable));
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
        assert_eq!(h.samples().len(), seen.len());
        // After queries the samples are fully sorted.
        assert_eq!(h.samples(), seen.as_slice());
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
