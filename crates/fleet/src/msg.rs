//! Messages exchanged between node actors and the fusion service.
//!
//! The co-simulation is actor-shaped: every sensor node is an actor that
//! emits [`FrameMsg`]s into its shard's mailbox, and the shard front-end
//! turns each message into a [`DeliveryStatus`]. Delivery is
//! *virtual-time* message passing — the scheduler sorts all messages by
//! `(arrival_ns, node, seq)` and replays them serially, so the mailbox
//! order is a pure function of the fleet seed and never of host timing.
//! The frame payload stays in the owning node's
//! [`FaultyStream`](pcount_resilience::FaultyStream) and is referenced by
//! `(node, seq)` instead of being cloned into every message.

/// One frame delivery announced by a node actor to its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMsg {
    /// The emitting node's fleet-wide id.
    pub node: usize,
    /// Index of the tick in the node's faulty stream.
    pub seq: usize,
    /// Virtual arrival time at the service, in nanoseconds: the tick's
    /// (possibly jittered) timestamp plus the node's clock skew, clamped
    /// to the start of the run.
    pub arrival_ns: i64,
}

/// How the service disposed of one delivered message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryStatus {
    /// The frame never arrived (injected sensor drop): the room holds its
    /// last good estimate.
    Gap,
    /// Admission control shed the frame — the shard's bounded queue was
    /// at capacity. The room holds its last good estimate.
    Shed,
    /// The node was under backpressure and downsampled this frame at the
    /// source (every other frame while its shard is throttled).
    Downsampled,
    /// Admitted and inferred on the first attempt.
    Ok,
    /// Admitted and recovered by a retry after `failed_attempts` faulted
    /// attempts.
    Recovered {
        /// Attempts that faulted before the success.
        failed_attempts: u32,
    },
    /// Admitted, but every attempt faulted; the node's hold-last-good
    /// estimate was used instead.
    Fallback,
    /// Lost in a shard crash: the frame was queued on a shard that went
    /// down and the crash policy disposed of it (shed outright, or no
    /// surviving shard could absorb a re-route). The room holds its last
    /// good estimate.
    CrashLost,
}

impl DeliveryStatus {
    /// `true` when the frame was admitted past the front-end and actually
    /// ran on a pooled CPU ([`Ok`](Self::Ok), [`Recovered`](Self::Recovered)
    /// or [`Fallback`](Self::Fallback)).
    pub fn executed(self) -> bool {
        matches!(
            self,
            DeliveryStatus::Ok | DeliveryStatus::Recovered { .. } | DeliveryStatus::Fallback
        )
    }
}

/// The folded record of one message's journey through the service — the
/// unit the backpressure/quarantine invariant tests assert over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The delivered message.
    pub msg: FrameMsg,
    /// Room the node reports into.
    pub room: usize,
    /// Shard that served the message.
    pub shard: usize,
    /// How the service disposed of it.
    pub status: DeliveryStatus,
    /// Shard queue depth right after this message's admission decision.
    pub queue_depth_after: usize,
    /// End-to-end request latency (arrival to completion) in simulated
    /// nanoseconds, for executed frames.
    pub latency_ns: Option<u64>,
    /// `true` when the node was quarantined while this message was
    /// disposed of (its prediction, if any, was withheld from fusion).
    pub quarantined: bool,
    /// `true` when this message's fresh prediction reached room fusion.
    pub fused: bool,
    /// `true` when the message was served away from its room's home
    /// shard (admitted to a failover shard while the home was down, or
    /// re-routed out of a crashing shard's queue).
    pub rerouted: bool,
}
