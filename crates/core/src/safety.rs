//! The paper's safety criteria (§2.1, §5) and their taxonomy
//! (Tables 1–3).
//!
//! A safety criterion fixes *what the client's commit notification means*:
//! on how many replicas the transaction's message is guaranteed
//! **delivered**, and on how many the transaction is guaranteed **logged**
//! (and hence will eventually commit).

use std::fmt;

/// The safety levels of Table 1, ordered by strength of the durability
/// guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SafetyLevel {
    /// Delivered on one replica, logged nowhere. A single crash can lose
    /// the transaction.
    ZeroSafe,
    /// Delivered and logged on the delegate only (classic lazy
    /// replication). A single crash (of the delegate) can lose it.
    OneSafe,
    /// Delivered on all available replicas, logged on none (the paper's
    /// new criterion). Lost only if the whole group fails.
    GroupSafe,
    /// Delivered on all available replicas *and* logged on the delegate.
    /// Lost only if the group fails and the delegate's log is never
    /// recovered.
    GroupOneSafe,
    /// Logged on all available replicas (requires end-to-end atomic
    /// broadcast). Survives the crash of all n replicas.
    TwoSafe,
    /// Logged on all replicas, available or not. A single crash blocks
    /// commits (kept for completeness; "not very practical" — §2.1).
    VerySafe,
}

impl SafetyLevel {
    /// Table 2: the number of simultaneous crashes (out of `n`) the level
    /// tolerates without losing an acknowledged transaction.
    ///
    /// Convention for `n = 0`: a system with no replicas tolerates no
    /// crashes at any level — the group rows saturate to 0 instead of
    /// underflowing.
    pub fn tolerated_crashes(self, n: usize) -> usize {
        match self {
            SafetyLevel::ZeroSafe | SafetyLevel::OneSafe => 0,
            SafetyLevel::GroupSafe | SafetyLevel::GroupOneSafe => n.saturating_sub(1),
            SafetyLevel::TwoSafe | SafetyLevel::VerySafe => n,
        }
    }

    /// Table 3: can an acknowledged transaction be lost under the given
    /// failure pattern? (`group_fails` = all replicas crash before the
    /// transaction is logged anywhere; `delegate_crashes` = the delegate
    /// is among them and never recovers its log.)
    pub fn can_lose(self, group_fails: bool, delegate_crashes: bool) -> bool {
        match self {
            SafetyLevel::ZeroSafe => true,
            SafetyLevel::OneSafe => delegate_crashes,
            SafetyLevel::GroupSafe => group_fails,
            SafetyLevel::GroupOneSafe => group_fails && delegate_crashes,
            SafetyLevel::TwoSafe | SafetyLevel::VerySafe => false,
        }
    }

    /// Whether the client reply may be sent before any disk write
    /// (what makes group-safe fast, §5.1).
    pub fn reply_before_logging(self) -> bool {
        matches!(self, SafetyLevel::ZeroSafe | SafetyLevel::GroupSafe)
    }

    /// Whether a replica's `ack(m)` waits until its processing of the
    /// message is logged (end-to-end atomic broadcast, §4): an acked
    /// message is never redelivered, so what it changed must be durable.
    pub fn acks_after_logging(self) -> bool {
        matches!(self, SafetyLevel::TwoSafe | SafetyLevel::VerySafe)
    }
}

impl fmt::Display for SafetyLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SafetyLevel::ZeroSafe => "0-safe",
            SafetyLevel::OneSafe => "1-safe",
            SafetyLevel::GroupSafe => "group-safe",
            SafetyLevel::GroupOneSafe => "group-1-safe",
            SafetyLevel::TwoSafe => "2-safe",
            SafetyLevel::VerySafe => "very-safe",
        };
        f.write_str(s)
    }
}

/// "On how many replicas" a guarantee holds (the axes of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guarantee {
    /// No replica.
    NoReplica,
    /// Exactly one replica (the delegate).
    OneReplica,
    /// Every available replica.
    AllReplicas,
}

/// Reconstruct Table 1: which safety level sits at a given
/// (delivered, logged) cell. Returns `None` for the impossible cell
/// (logged on all but delivered on one is greyed out in the paper).
pub fn table1(delivered: Guarantee, logged: Guarantee) -> Option<SafetyLevel> {
    match (delivered, logged) {
        (Guarantee::OneReplica, Guarantee::NoReplica) => Some(SafetyLevel::ZeroSafe),
        (Guarantee::OneReplica, Guarantee::OneReplica) => Some(SafetyLevel::OneSafe),
        (Guarantee::AllReplicas, Guarantee::NoReplica) => Some(SafetyLevel::GroupSafe),
        (Guarantee::AllReplicas, Guarantee::OneReplica) => Some(SafetyLevel::GroupOneSafe),
        (Guarantee::AllReplicas, Guarantee::AllReplicas) => Some(SafetyLevel::TwoSafe),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_cells_match_paper() {
        use Guarantee::*;
        assert_eq!(table1(OneReplica, NoReplica), Some(SafetyLevel::ZeroSafe));
        assert_eq!(table1(OneReplica, OneReplica), Some(SafetyLevel::OneSafe));
        assert_eq!(table1(AllReplicas, NoReplica), Some(SafetyLevel::GroupSafe));
        assert_eq!(
            table1(AllReplicas, OneReplica),
            Some(SafetyLevel::GroupOneSafe)
        );
        assert_eq!(table1(AllReplicas, AllReplicas), Some(SafetyLevel::TwoSafe));
        // Greyed-out cell: a transaction cannot be logged before delivery.
        assert_eq!(table1(OneReplica, AllReplicas), None);
    }

    #[test]
    fn table2_crash_tolerance() {
        let n = 9;
        assert_eq!(SafetyLevel::ZeroSafe.tolerated_crashes(n), 0);
        assert_eq!(SafetyLevel::OneSafe.tolerated_crashes(n), 0);
        assert_eq!(SafetyLevel::GroupSafe.tolerated_crashes(n), 8);
        assert_eq!(SafetyLevel::GroupOneSafe.tolerated_crashes(n), 8);
        assert_eq!(SafetyLevel::TwoSafe.tolerated_crashes(n), 9);
    }

    #[test]
    fn table2_degenerate_group_sizes_do_not_underflow() {
        use SafetyLevel::*;
        for level in [
            ZeroSafe,
            OneSafe,
            GroupSafe,
            GroupOneSafe,
            TwoSafe,
            VerySafe,
        ] {
            assert_eq!(level.tolerated_crashes(0), 0, "{level}: n = 0 saturates");
        }
        assert_eq!(GroupSafe.tolerated_crashes(1), 0);
        assert_eq!(TwoSafe.tolerated_crashes(1), 1);
    }

    #[test]
    fn table3_loss_matrix() {
        use SafetyLevel::*;
        // Group does not fail: neither group level loses anything.
        assert!(!GroupSafe.can_lose(false, false));
        assert!(!GroupOneSafe.can_lose(false, true));
        // Group fails, delegate survives: only group-safe is exposed.
        assert!(GroupSafe.can_lose(true, false));
        assert!(!GroupOneSafe.can_lose(true, false));
        // Group fails including the delegate: both exposed.
        assert!(GroupSafe.can_lose(true, true));
        assert!(GroupOneSafe.can_lose(true, true));
        // 2-safe never loses.
        assert!(!TwoSafe.can_lose(true, true));
        // 1-safe loses exactly when the delegate crashes.
        assert!(OneSafe.can_lose(false, true));
        assert!(!OneSafe.can_lose(false, false));
    }

    #[test]
    fn reply_points() {
        assert!(SafetyLevel::GroupSafe.reply_before_logging());
        assert!(SafetyLevel::ZeroSafe.reply_before_logging());
        assert!(!SafetyLevel::GroupOneSafe.reply_before_logging());
        assert!(!SafetyLevel::TwoSafe.reply_before_logging());
        assert!(SafetyLevel::TwoSafe.acks_after_logging());
        assert!(SafetyLevel::VerySafe.acks_after_logging());
        assert!(!SafetyLevel::GroupOneSafe.acks_after_logging());
        assert!(!SafetyLevel::GroupSafe.acks_after_logging());
        assert!(!SafetyLevel::ZeroSafe.acks_after_logging());
    }

    #[test]
    fn ordering_reflects_strength() {
        assert!(SafetyLevel::ZeroSafe < SafetyLevel::OneSafe);
        assert!(SafetyLevel::OneSafe < SafetyLevel::GroupSafe);
        assert!(SafetyLevel::GroupSafe < SafetyLevel::GroupOneSafe);
        assert!(SafetyLevel::GroupOneSafe < SafetyLevel::TwoSafe);
        assert!(SafetyLevel::TwoSafe < SafetyLevel::VerySafe);
    }
}
