//! Checkers for the atomic broadcast properties (paper §2.3 and §4.2).
//!
//! Tests and fault-injection experiments record, per process, the sequence
//! of deliveries the *application* observed. These functions verify the
//! specification against those records:
//!
//! * **Validity** — every delivered message was A-broadcast by someone.
//! * **Uniform Agreement** — if any process delivered `m`, every process
//!   that is not red at the end of the run delivered `m`.
//! * **Uniform Integrity** — no process delivered the same message twice
//!   (end-to-end refinement: no process *successfully* delivered a message
//!   twice; plain redeliveries are allowed).
//! * **Uniform Total Order** — any two processes deliver common messages
//!   in the same relative order.
//! * **End-to-End** — every non-red process that delivered `m` eventually
//!   successfully delivered (processed) `m`.

#![expect(
    clippy::indexing_slicing,
    reason = "pairwise prefix comparison indexes entries/orders by loop bounds derived from their own len(); the property checker is oracle code, not replica code"
)]

use std::collections::{BTreeMap, BTreeSet};

use groupsafe_net::NodeId;
use groupsafe_sim::SimTime;

use crate::message::MsgId;
use crate::process::ProcessClass;

/// One application-observed delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Global sequence number reported by the GC layer.
    pub seq: u64,
    /// Message identity.
    pub id: MsgId,
    /// True if the application finished processing it (`ack(m)` sent).
    pub processed: bool,
    /// When the delivery reached the application.
    pub at: SimTime,
}

/// The full observation of a run, fed to the checkers.
#[derive(Debug, Default, Clone)]
pub struct RunObservation {
    /// Messages A-broadcast during the run.
    pub broadcast: BTreeSet<MsgId>,
    /// Per process: deliveries in the order the application saw them.
    pub deliveries: BTreeMap<NodeId, Vec<DeliveryRecord>>,
    /// Final classification of each process.
    pub classes: BTreeMap<NodeId, ProcessClass>,
}

/// A property violation, with enough context to debug the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which property failed.
    pub property: &'static str,
    /// Human-readable details.
    pub details: String,
}

impl RunObservation {
    /// Record a delivery at `node` at instant `at`.
    pub fn record_delivery(
        &mut self,
        node: NodeId,
        seq: u64,
        id: MsgId,
        processed: bool,
        at: SimTime,
    ) {
        self.deliveries
            .entry(node)
            .or_default()
            .push(DeliveryRecord {
                seq,
                id,
                processed,
                at,
            });
    }

    /// Mark the latest delivery of `id` at `node` as processed.
    pub fn mark_processed(&mut self, node: NodeId, id: MsgId) {
        if let Some(recs) = self.deliveries.get_mut(&node) {
            if let Some(r) = recs.iter_mut().rev().find(|r| r.id == id) {
                r.processed = true;
            }
        }
    }

    /// Run every checker; returns all violations found.
    pub fn check_all(&self, end_to_end: bool) -> Vec<Violation> {
        let mut v = Vec::new();
        v.extend(self.check_validity());
        v.extend(self.check_uniform_agreement());
        v.extend(self.check_uniform_integrity(end_to_end));
        v.extend(self.check_total_order());
        if end_to_end {
            v.extend(self.check_end_to_end());
        }
        v
    }

    /// Validity: delivered ⇒ broadcast.
    pub fn check_validity(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (node, recs) in &self.deliveries {
            for r in recs {
                if !self.broadcast.contains(&r.id) {
                    out.push(Violation {
                        property: "validity",
                        details: format!("{node} delivered {:?} which was never broadcast", r.id),
                    });
                }
            }
        }
        out
    }

    /// Uniform agreement: if any process delivered `m`, every non-red
    /// process delivered `m`.
    pub fn check_uniform_agreement(&self) -> Vec<Violation> {
        let mut delivered_anywhere: BTreeSet<MsgId> = BTreeSet::new();
        for recs in self.deliveries.values() {
            delivered_anywhere.extend(recs.iter().map(|r| r.id));
        }
        let mut out = Vec::new();
        for (node, class) in &self.classes {
            if *class == ProcessClass::Red {
                continue;
            }
            let have: BTreeSet<MsgId> = self
                .deliveries
                .get(node)
                .map(|r| r.iter().map(|d| d.id).collect())
                .unwrap_or_default();
            for m in &delivered_anywhere {
                if !have.contains(m) {
                    out.push(Violation {
                        property: "uniform agreement",
                        details: format!("{node} (non-red) missed delivery of {m:?}"),
                    });
                }
            }
        }
        out
    }

    /// Uniform integrity. Classic: at most one delivery of each message per
    /// process. End-to-end refinement: at most one *successful* delivery;
    /// unprocessed deliveries may repeat.
    pub fn check_uniform_integrity(&self, end_to_end: bool) -> Vec<Violation> {
        let mut out = Vec::new();
        for (node, recs) in &self.deliveries {
            let mut counts: BTreeMap<MsgId, (usize, usize)> = BTreeMap::new();
            for r in recs {
                let e = counts.entry(r.id).or_default();
                e.0 += 1;
                if r.processed {
                    e.1 += 1;
                }
            }
            for (id, (total, processed)) in counts {
                if end_to_end {
                    if processed > 1 {
                        out.push(Violation {
                            property: "uniform integrity (end-to-end)",
                            details: format!(
                                "{node} successfully delivered {id:?} {processed} times"
                            ),
                        });
                    }
                } else if total > 1 {
                    out.push(Violation {
                        property: "uniform integrity",
                        details: format!("{node} delivered {id:?} {total} times"),
                    });
                }
            }
        }
        out
    }

    /// Uniform total order: common messages appear in the same relative
    /// order at every pair of processes.
    pub fn check_total_order(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        // Use the first delivery of each message per process.
        let orders: BTreeMap<NodeId, Vec<MsgId>> = self
            .deliveries
            .iter()
            .map(|(n, recs)| {
                let mut seen = BTreeSet::new();
                let order: Vec<MsgId> = recs
                    .iter()
                    .filter(|r| seen.insert(r.id))
                    .map(|r| r.id)
                    .collect();
                (*n, order)
            })
            .collect();
        let nodes: Vec<NodeId> = orders.keys().copied().collect();
        for (i, &a) in nodes.iter().enumerate() {
            for &b in nodes.iter().skip(i + 1) {
                let oa = &orders[&a];
                let ob = &orders[&b];
                let pos_b: BTreeMap<MsgId, usize> =
                    ob.iter().enumerate().map(|(i, m)| (*m, i)).collect();
                let common: Vec<(usize, MsgId)> = oa
                    .iter()
                    .filter_map(|m| pos_b.get(m).map(|p| (*p, *m)))
                    .collect();
                for w in common.windows(2) {
                    if w[0].0 > w[1].0 {
                        out.push(Violation {
                            property: "uniform total order",
                            details: format!(
                                "{a} and {b} disagree on the order of {:?} and {:?}",
                                w[0].1, w[1].1
                            ),
                        });
                    }
                }
            }
        }
        out
    }

    /// End-to-end: a non-red process that delivered `m` must have
    /// successfully delivered `m` by the end of the run.
    pub fn check_end_to_end(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (node, class) in &self.classes {
            if *class == ProcessClass::Red {
                continue;
            }
            let Some(recs) = self.deliveries.get(node) else {
                continue;
            };
            let mut processed: BTreeSet<MsgId> = BTreeSet::new();
            let mut delivered: BTreeSet<MsgId> = BTreeSet::new();
            for r in recs {
                delivered.insert(r.id);
                if r.processed {
                    processed.insert(r.id);
                }
            }
            for m in delivered.difference(&processed) {
                out.push(Violation {
                    property: "end-to-end",
                    details: format!("{node} delivered {m:?} but never processed it"),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mid(o: u32, c: u64) -> MsgId {
        MsgId {
            origin: NodeId(o),
            counter: c,
        }
    }

    fn obs_two_nodes() -> RunObservation {
        let mut obs = RunObservation::default();
        obs.broadcast.insert(mid(0, 1));
        obs.broadcast.insert(mid(1, 1));
        obs.classes.insert(NodeId(0), ProcessClass::Green);
        obs.classes.insert(NodeId(1), ProcessClass::Green);
        obs
    }

    #[test]
    fn clean_run_passes() {
        let mut obs = obs_two_nodes();
        for n in [0, 1] {
            obs.record_delivery(NodeId(n), 1, mid(0, 1), true, SimTime::ZERO);
            obs.record_delivery(NodeId(n), 2, mid(1, 1), true, SimTime::ZERO);
        }
        assert!(obs.check_all(true).is_empty());
    }

    #[test]
    fn validity_catches_spurious_delivery() {
        let mut obs = obs_two_nodes();
        obs.record_delivery(NodeId(0), 1, mid(9, 9), true, SimTime::ZERO);
        let v = obs.check_validity();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].property, "validity");
    }

    #[test]
    fn agreement_catches_missing_delivery() {
        let mut obs = obs_two_nodes();
        obs.record_delivery(NodeId(0), 1, mid(0, 1), true, SimTime::ZERO);
        // Node 1 is green but never delivered.
        let v = obs.check_uniform_agreement();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].property, "uniform agreement");
    }

    #[test]
    fn agreement_excuses_red_processes() {
        let mut obs = obs_two_nodes();
        obs.classes.insert(NodeId(1), ProcessClass::Red);
        obs.record_delivery(NodeId(0), 1, mid(0, 1), true, SimTime::ZERO);
        assert!(obs.check_uniform_agreement().is_empty());
    }

    #[test]
    fn integrity_classic_rejects_redelivery() {
        let mut obs = obs_two_nodes();
        obs.record_delivery(NodeId(0), 1, mid(0, 1), false, SimTime::ZERO);
        obs.record_delivery(NodeId(0), 1, mid(0, 1), true, SimTime::ZERO);
        assert_eq!(obs.check_uniform_integrity(false).len(), 1);
        // The end-to-end refinement allows it (only one was successful).
        assert!(obs.check_uniform_integrity(true).is_empty());
    }

    #[test]
    fn integrity_e2e_rejects_double_success() {
        let mut obs = obs_two_nodes();
        obs.record_delivery(NodeId(0), 1, mid(0, 1), true, SimTime::ZERO);
        obs.record_delivery(NodeId(0), 1, mid(0, 1), true, SimTime::ZERO);
        assert_eq!(obs.check_uniform_integrity(true).len(), 1);
    }

    #[test]
    fn total_order_catches_swap() {
        let mut obs = obs_two_nodes();
        obs.record_delivery(NodeId(0), 1, mid(0, 1), true, SimTime::ZERO);
        obs.record_delivery(NodeId(0), 2, mid(1, 1), true, SimTime::ZERO);
        obs.record_delivery(NodeId(1), 1, mid(1, 1), true, SimTime::ZERO);
        obs.record_delivery(NodeId(1), 2, mid(0, 1), true, SimTime::ZERO);
        assert_eq!(obs.check_total_order().len(), 1);
    }

    #[test]
    fn end_to_end_catches_unprocessed() {
        let mut obs = obs_two_nodes();
        obs.record_delivery(NodeId(0), 1, mid(0, 1), true, SimTime::ZERO);
        obs.record_delivery(NodeId(1), 1, mid(0, 1), false, SimTime::ZERO);
        let v = obs.check_end_to_end();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].property, "end-to-end");
    }

    #[test]
    fn mark_processed_updates_latest() {
        let mut obs = obs_two_nodes();
        obs.record_delivery(NodeId(0), 1, mid(0, 1), false, SimTime::ZERO);
        obs.mark_processed(NodeId(0), mid(0, 1));
        assert!(obs.check_end_to_end().is_empty());
    }
}
