//! `perf --diff old.json new.json`: hold every metric × workload of two
//! result files against the catalogue's bounds.

use crate::json::Json;
use crate::metrics::{self, MetricDef};

/// A metric as a results file records it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Recorded {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

/// The verdict on one end-to-end metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the old value by more than the bound.
    Ok,
    /// Worse than the old value by more than the bound.
    Regressed,
    /// The run-to-run quartile spread is wider than the bound: the two
    /// values cannot be told apart at this resolution.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `new` against `old` under `def`'s bound (`None` for a per-layer
/// metric, which carries no bound).
pub fn verdict(def: &MetricDef, old: Recorded, new: Recorded) -> Option<Verdict> {
    let (relative, absolute) = def.bound?;
    let allowed = (relative * old.value.abs()).max(absolute);
    let spread = (old.q3 - old.q1).max(new.q3 - new.q1);
    let worse_by = if def.higher_is_better {
        old.value - new.value
    } else {
        new.value - old.value
    };
    Some(if spread > allowed {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    })
}

/// Pick a run out of a results file: `path#2` is the third run, a bare
/// path the last one.
pub fn load_run(arg: &str) -> Result<Json, String> {
    let (path, index) = match arg.rsplit_once('#') {
        Some((p, i)) => (
            p,
            Some(
                i.parse::<usize>()
                    .map_err(|_| format!("bad run index in {arg:?}"))?,
            ),
        ),
        None => (arg, None),
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = crate::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = doc.get("runs").map(Json::as_arr).unwrap_or_default();
    let run = match index {
        Some(i) => runs.get(i),
        None => runs.last(),
    };
    run.cloned().ok_or_else(|| format!("{arg}: no such run"))
}

fn recorded(metric: &Json) -> Option<Recorded> {
    let value = metric.get("value")?.as_f64()?;
    let quartile = |key| metric.get(key).and_then(Json::as_f64).unwrap_or(value);
    Some(Recorded {
        value,
        q1: quartile("q1"),
        q3: quartile("q3"),
    })
}

/// Print the comparison; returns how many metrics regressed.
pub fn print(old: &Json, new: &Json) -> usize {
    let mut regressed = 0;
    for side in [old, new] {
        if side.get("quick").and_then(Json::as_bool) == Some(true) {
            println!("note: a --quick run is not comparable; verdicts below mean nothing");
        }
    }
    println!(
        "{:<11} {:<34} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "old", "new", "change"
    );
    let empty = Json::Obj(Vec::new());
    let old_w = old.get("workloads").unwrap_or(&empty);
    let new_w = new.get("workloads").unwrap_or(&empty);
    for (workload, old_entry) in old_w.as_obj() {
        let Some(new_entry) = new_w.get(workload) else {
            println!("{workload:<11} only in the old file: unresolved");
            continue;
        };
        let old_m = old_entry.get("metrics").unwrap_or(&empty);
        let new_m = new_entry.get("metrics").unwrap_or(&empty);
        for def in metrics::CATALOGUE {
            let (a, b) = match (old_m.get(def.name), new_m.get(def.name)) {
                (None, None) => continue,
                (Some(a), Some(b)) => (a, b),
                (a, _) => {
                    let side = if a.is_some() { "old" } else { "new" };
                    println!(
                        "{workload:<11} {:<34} only in the {side} file: unresolved",
                        def.name
                    );
                    continue;
                }
            };
            let (Some(a), Some(b)) = (recorded(a), recorded(b)) else {
                println!("{workload:<11} {:<34} not a number: unresolved", def.name);
                continue;
            };
            let change = if a.value == 0.0 {
                String::new()
            } else {
                format!("{:+.2}%", (b.value - a.value) / a.value.abs() * 100.0)
            };
            let v = verdict(def, a, b);
            regressed += usize::from(v == Some(Verdict::Regressed));
            println!(
                "{workload:<11} {:<34} {:>14.6} {:>14.6} {change:>9}  {}",
                def.name,
                a.value,
                b.value,
                v.map_or("-", Verdict::label)
            );
        }
    }
    for (workload, _) in new_w.as_obj() {
        if old_w.get(workload).is_none() {
            println!("{workload:<11} only in the new file: unresolved");
        }
    }
    println!("{regressed} regressed");
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(value: f64) -> Recorded {
        Recorded {
            value,
            q1: value,
            q3: value,
        }
    }

    fn def(name: &str) -> &'static MetricDef {
        metrics::def(name).unwrap()
    }

    #[test]
    fn lower_is_better_metrics_regress_past_the_bound() {
        let p50 = def("update_p50_ms"); // 10 %
        assert_eq!(verdict(p50, exact(100.0), exact(109.9)), Some(Verdict::Ok));
        assert_eq!(
            verdict(p50, exact(100.0), exact(110.1)),
            Some(Verdict::Regressed)
        );
        assert_eq!(verdict(p50, exact(100.0), exact(50.0)), Some(Verdict::Ok));
    }

    #[test]
    fn the_knee_may_drop_one_rung_not_two() {
        let knee = def("knee_tps"); // higher is better, 17 %
        assert_eq!(verdict(knee, exact(40.0), exact(35.0)), Some(Verdict::Ok));
        assert_eq!(
            verdict(knee, exact(40.0), exact(30.0)),
            Some(Verdict::Regressed)
        );
        assert_eq!(verdict(knee, exact(40.0), exact(50.0)), Some(Verdict::Ok));
    }

    #[test]
    fn absolute_floors_cover_values_near_zero() {
        let failed = def("failed_share"); // absolute 0.001
        assert_eq!(
            verdict(failed, exact(0.0), exact(0.0009)),
            Some(Verdict::Ok)
        );
        assert_eq!(
            verdict(failed, exact(0.0), exact(0.0011)),
            Some(Verdict::Regressed)
        );
        let setup = def("setup_s"); // 25 %, at least 2 ms
        assert_eq!(
            verdict(setup, exact(0.002), exact(0.0035)),
            Some(Verdict::Ok)
        );
        assert_eq!(
            verdict(setup, exact(0.100), exact(0.126)),
            Some(Verdict::Regressed)
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let wall = def("wall_us_per_commit"); // 20 %
        let noisy = Recorded {
            value: 100.0,
            q1: 88.0,
            q3: 110.0,
        };
        assert_eq!(
            verdict(wall, exact(100.0), noisy),
            Some(Verdict::Unresolved)
        );
        assert_eq!(
            verdict(wall, noisy, exact(150.0)),
            Some(Verdict::Unresolved)
        );
        let steady = Recorded {
            value: 100.0,
            q1: 99.0,
            q3: 101.0,
        };
        assert_eq!(
            verdict(wall, steady, exact(121.0)),
            Some(Verdict::Regressed)
        );
    }

    #[test]
    fn per_layer_metrics_carry_no_verdict() {
        assert_eq!(
            verdict(def("sim.events_per_commit"), exact(1.0), exact(9.0)),
            None
        );
    }
}
