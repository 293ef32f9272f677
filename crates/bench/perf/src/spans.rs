//! Spans: one per layer boundary, kept in memory and written out at
//! exit as Chrome-trace JSON.
//!
//! Simulated-clock spans are rebuilt from the run's `ObsEvent` stream
//! (`stream.rs`); wall-clock spans are the benchmark's own scoped timers
//! around its calls into each layer.

use std::time::Instant;

use crate::metrics::Clock;

/// One span. Times are nanoseconds on the span's own clock: simulated
/// time since the run began, or host time since the benchmark began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub clock: Clock,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The transaction (or 0): spans of one request share it.
    pub txn: u64,
    /// Display lane: the emitting actor, or 0.
    pub lane: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (overlapping children are not counted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Wall-clock scoped timers: children of one workload span.
pub struct WallSpans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl WallSpans {
    /// Open the workload span (index 0); `close` ends it.
    pub fn open(workload: &'static str) -> WallSpans {
        WallSpans {
            origin: Instant::now(),
            spans: vec![Span {
                name: workload,
                clock: Clock::Wall,
                start_ns: 0,
                end_ns: 0,
                parent: None,
                txn: 0,
                lane: 0,
            }],
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a child of the workload span; returns its result and
    /// the seconds it took.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            clock: Clock::Wall,
            start_ns,
            end_ns,
            parent: Some(0),
            txn: 0,
            lane: 0,
        });
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    pub fn close(&mut self) {
        self.spans[0].end_ns = self.now_ns();
    }

    /// Self time of the workload span: harness time no scoped timer claims.
    pub fn unattributed_s(&self) -> f64 {
        self_times(&self.spans)[0] as f64 / 1e9
    }
}

/// Most spans written to one trace file: a reference run holds hundreds
/// of thousands, and the file is for looking at, not for statistics.
pub const TRACE_FILE_CAP: usize = 40_000;

/// Render spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): complete events, microsecond timestamps, one process per
/// clock, `args` carrying the parent index and the transaction.
pub fn chrome_trace(spans: &[Span], total: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"simulated clock\"}},\n");
    out.push_str(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":\"wall clock\"}}",
    );
    for (i, s) in spans.iter().enumerate() {
        let pid = match s.clock {
            Clock::Sim => 1,
            Clock::Wall => 2,
        };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"id\":{i},\"parent\":{parent},\"txn\":{}}}}}",
            s.name,
            s.lane,
            s.start_ns / 1_000,
            s.start_ns % 1_000,
            s.duration_ns() / 1_000,
            s.duration_ns() % 1_000,
            s.txn,
        ));
    }
    out.push_str(&format!(
        "\n],\"otherData\":{{\"spans_recorded\":{total},\"spans_written\":{}}}}}\n",
        spans.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            clock: Clock::Sim,
            start_ns: start,
            end_ns: end,
            parent,
            txn: 7,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        let spans = vec![
            span(0, 100, None),     // parent
            span(10, 30, Some(0)),  // child
            span(20, 50, Some(0)),  // overlaps the first child
            span(90, 120, Some(0)), // sticks out past the parent
            span(25, 28, Some(1)),  // grandchild: only its own parent's concern
        ];
        // Children cover [10,50) and [90,100): 50 of the parent's 100.
        assert_eq!(self_times(&spans), vec![50, 17, 30, 30, 3]);
    }

    #[test]
    fn a_span_without_children_is_all_self_time() {
        assert_eq!(self_times(&[span(5, 9, None)]), vec![4]);
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let spans = vec![span(1_500, 4_000, None), span(2_000, 3_000, Some(0))];
        let doc = crate::json::parse(&chrome_trace(&spans, 2)).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 4);
        assert_eq!(events[2].get("ts").and_then(|v| v.as_f64()), Some(1.5));
        assert_eq!(
            events[3]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|v| v.as_f64()),
            Some(0.0)
        );
    }
}
