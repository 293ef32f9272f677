//! Effects the group communication endpoint hands back to its host.
//!
//! The endpoint is a passive state machine embedded in a server actor. It
//! sends network messages itself (through the shared [`groupsafe_net::Network`])
//! but everything directed at the *application* is returned as a
//! [`GcsOutput`] for the host to interpret — this is the paper's
//! inter-component message boundary (`⟨m, A-deliver⟩` etc., Figs. 4 and 6).

use groupsafe_net::NodeId;

use crate::message::MsgId;
use crate::view::View;

/// Application-facing effects produced by the endpoint.
///
/// `P` is the payload type, `S` the application checkpoint type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcsOutput<P, S> {
    /// `⟨m, A-deliver⟩`: hand `payload` to the application. In end-to-end
    /// mode the application must eventually call
    /// [`crate::endpoint::GcsEndpoint::app_ack`] with `seq` once the
    /// message is *processed* (successful delivery, §4.2).
    Deliver {
        /// Global total-order position.
        seq: u64,
        /// Message identity.
        id: MsgId,
        /// The payload.
        payload: P,
        /// Messages in the frame that carried it (1 unbatched, and for
        /// an entry that came by catch-up or retransmission, a frame of
        /// one): the host spreads per-frame costs over them.
        span: u32,
    },
    /// A new view was installed (dynamic model).
    ViewInstalled {
        /// The view.
        view: View,
    },
    /// The coordinator needs an application checkpoint to serve a state
    /// transfer to `joiner`. The host must call
    /// [`crate::endpoint::GcsEndpoint::checkpoint_ready`].
    CheckpointRequest {
        /// Node that is joining.
        joiner: NodeId,
        /// Join generation (echo back in `checkpoint_ready`).
        generation: u64,
    },
    /// State transfer received: replace the application state with `state`
    /// (a checkpoint covering deliveries up to `applied_seq`); entries
    /// after it arrive as ordinary `Deliver` outputs.
    InstallState {
        /// The checkpoint to adopt.
        state: S,
        /// The sequence number the checkpoint covers.
        applied_seq: u64,
    },
    /// This endpoint joined (or re-joined) the group.
    Joined {
        /// The view joined.
        view: View,
    },
    /// The group has failed: every member of the view is down or
    /// unreachable. Durability-by-the-group is lost (Tables 2 and 3).
    GroupFailed,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_compare() {
        let a: GcsOutput<u32, ()> = GcsOutput::Deliver {
            seq: 1,
            id: MsgId {
                origin: NodeId(0),
                counter: 1,
            },
            payload: 9,
            span: 1,
        };
        assert_eq!(a.clone(), a);
        assert_ne!(a, GcsOutput::GroupFailed);
    }
}
