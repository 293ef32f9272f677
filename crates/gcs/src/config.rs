//! Group communication configuration.

use groupsafe_sim::SimDuration;

/// Sequencer-side batching of the ordering pipeline.
///
/// The sequencer assigns a sequence number when a forward arrives and
/// holds the entry in an accumulator; it ships the accumulator as one
/// `Ordered` frame carrying a contiguous sequence range. Every receiver
/// persists a frame with a single stable-log write and votes for it with
/// one `Ack` covering the range. The total order a run produces is
/// independent of the knobs — only the framing (and therefore the
/// per-transaction message and CPU cost) changes.
///
/// Unbatched is a frame of one: with `max_msgs = 1` every entry is
/// flushed as it is ordered, on the same pipeline. A frame of one costs
/// one message's wire time (`latency + (1 − 1) × frame_unit_cost`).
///
/// A batch is flushed as soon as *either* trigger fires:
/// * it holds `max_msgs` messages,
/// * `max_delay` elapsed since the first message entered the
///   accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush when this many messages accumulated. `1` is unbatched:
    /// every frame holds one message.
    pub max_msgs: usize,
    /// Flush when the oldest accumulated message has waited this long.
    pub max_delay: SimDuration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig::unbatched()
    }
}

impl BatchConfig {
    /// One message per frame: the unbatched pipeline.
    pub fn unbatched() -> Self {
        BatchConfig {
            max_msgs: 1,
            max_delay: SimDuration::ZERO,
        }
    }

    /// Batch up to `max_msgs` messages, flushing after at most
    /// `max_delay`.
    pub fn of(max_msgs: usize, max_delay: SimDuration) -> Self {
        assert!(max_msgs >= 1, "a batch holds at least one message");
        BatchConfig {
            max_msgs,
            max_delay,
        }
    }
}

/// Which of the paper's two system models the endpoint runs in (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcsModel {
    /// Dynamic crash no-recovery (Isis-style, view based): crashed
    /// processes rejoin with a new identity via state transfer; no group
    /// communication state on stable storage. Cannot tolerate the crash of
    /// all members.
    ViewBased,
    /// Static crash-recovery: fixed group, processes keep their identity
    /// across crashes, the GC component logs entries to stable storage.
    /// Tolerates the simultaneous crash of all processes.
    CrashRecovery,
}

/// Delivery guarantee strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryGuarantee {
    /// Deliver as soon as the entry arrives in order (no stability wait).
    /// Uniform agreement does NOT hold: a process may deliver and crash
    /// before anyone else receives the entry. This is what 0-safe
    /// replication runs on.
    NonUniform,
    /// Deliver only once a majority of the view/group has acknowledged the
    /// entry (uniform agreement; "safe delivery"). Group-safe replication
    /// requires this.
    Uniform,
}

/// Configuration of a [`crate::endpoint::GcsEndpoint`].
#[derive(Debug, Clone)]
pub struct GcsConfig {
    /// System model.
    pub model: GcsModel,
    /// Delivery guarantee.
    pub guarantee: DeliveryGuarantee,
    /// End-to-end atomic broadcast (paper §4): track application-level
    /// `ack(m)` in the stable log and redeliver unacknowledged messages on
    /// recovery. Only meaningful in the crash-recovery model.
    pub end_to_end: bool,
    /// Heartbeat period of the failure detector.
    pub hb_interval: SimDuration,
    /// Silence threshold after which a peer is suspected.
    pub hb_timeout: SimDuration,
    /// Timeout for view-change and join attempts before retrying.
    pub change_timeout: SimDuration,
    /// Sequencer-side batching of the ordering pipeline.
    pub batch: BatchConfig,
}

impl GcsConfig {
    /// This configuration with the given batching knobs.
    pub fn with_batching(self, batch: BatchConfig) -> Self {
        GcsConfig { batch, ..self }
    }
}

impl GcsConfig {
    /// Classic view-based uniform atomic broadcast (what group-safe and
    /// group-1-safe replication use).
    pub fn view_based_uniform() -> Self {
        GcsConfig {
            model: GcsModel::ViewBased,
            guarantee: DeliveryGuarantee::Uniform,
            end_to_end: false,
            hb_interval: SimDuration::from_millis(10),
            hb_timeout: SimDuration::from_millis(35),
            change_timeout: SimDuration::from_millis(50),
            batch: BatchConfig::unbatched(),
        }
    }

    /// View-based non-uniform atomic broadcast (0-safe replication).
    pub fn view_based_non_uniform() -> Self {
        GcsConfig {
            guarantee: DeliveryGuarantee::NonUniform,
            ..GcsConfig::view_based_uniform()
        }
    }

    /// Static crash-recovery atomic broadcast *without* end-to-end
    /// guarantees (persists entries, cannot redeliver — §3's second
    /// problem).
    pub fn crash_recovery() -> Self {
        GcsConfig {
            model: GcsModel::CrashRecovery,
            end_to_end: false,
            ..GcsConfig::view_based_uniform()
        }
    }

    /// End-to-end atomic broadcast (paper §4): crash-recovery model plus
    /// application acknowledgements and redelivery. The primitive 2-safe
    /// replication needs.
    pub fn end_to_end() -> Self {
        GcsConfig {
            model: GcsModel::CrashRecovery,
            end_to_end: true,
            ..GcsConfig::view_based_uniform()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_consistent() {
        let v = GcsConfig::view_based_uniform();
        assert_eq!(v.model, GcsModel::ViewBased);
        assert_eq!(v.guarantee, DeliveryGuarantee::Uniform);
        assert!(!v.end_to_end);

        let nu = GcsConfig::view_based_non_uniform();
        assert_eq!(nu.guarantee, DeliveryGuarantee::NonUniform);

        let cr = GcsConfig::crash_recovery();
        assert_eq!(cr.model, GcsModel::CrashRecovery);
        assert!(!cr.end_to_end);

        let e2e = GcsConfig::end_to_end();
        assert_eq!(e2e.model, GcsModel::CrashRecovery);
        assert!(e2e.end_to_end);
        assert_eq!(e2e.guarantee, DeliveryGuarantee::Uniform);
    }

    #[test]
    fn heartbeat_timeout_exceeds_interval() {
        let c = GcsConfig::view_based_uniform();
        assert!(c.hb_timeout > c.hb_interval);
    }

    #[test]
    fn presets_default_to_unbatched() {
        for cfg in [
            GcsConfig::view_based_uniform(),
            GcsConfig::view_based_non_uniform(),
            GcsConfig::crash_recovery(),
            GcsConfig::end_to_end(),
        ] {
            assert_eq!(cfg.batch, BatchConfig::unbatched());
            assert_eq!(cfg.batch.max_msgs, 1);
        }
        let batched = GcsConfig::end_to_end()
            .with_batching(BatchConfig::of(16, SimDuration::from_micros(300)));
        assert_eq!(batched.batch.max_msgs, 16);
        assert_eq!(batched.batch.max_delay, SimDuration::from_micros(300));
    }
}
