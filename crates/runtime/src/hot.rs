//! Dense struct-of-arrays node state: the per-node fields the event loop
//! touches on every dispatch, split out of [`NodeStack`] into parallel `Vec`s.
//!
//! Every event gate reads the acting node's session epoch and ground-truth
//! adversary flag; keeping those inside the (large, pointer-rich) stack
//! structs means a gate check drags a whole `NodeStack` cache line in just to
//! reject a stale timer. Packing them into dense arrays keeps the hot loop's
//! working set at a few bytes per node — at 100k nodes the epoch column is
//! 400 KB instead of 100k scattered struct reads.

use lifting_sim::NodeId;

use crate::layers::NodeStack;

/// Hot per-node columns (struct-of-arrays), indexed by node id.
#[derive(Debug)]
pub(crate) struct HotNodeState {
    /// Per-node session epoch: bumped when churn rebuilds the node's stack,
    /// so events scheduled for an earlier session are dropped (see
    /// [`crate::message::Event`]).
    pub(crate) epochs: Vec<u32>,
    /// Ground-truth freerider flag (dense mirror of each stack's cached
    /// adversary verdict; used only by metrics and closed-loop feedback,
    /// never by the protocol).
    pub(crate) freerider: Vec<bool>,
}

impl HotNodeState {
    /// Builds the columns for freshly constructed stacks (epoch 0 everywhere).
    pub(crate) fn from_stacks(stacks: &[NodeStack]) -> Self {
        HotNodeState {
            epochs: vec![0; stacks.len()],
            freerider: stacks.iter().map(|s| s.is_freerider).collect(),
        }
    }

    /// The session epoch of `node`.
    #[inline]
    pub(crate) fn epoch(&self, node: NodeId) -> u32 {
        self.epochs[node.index()]
    }

    /// Re-mirrors the freerider flag after a stack rebuild (the adversary is
    /// re-derived deterministically, so this is normally a no-op; kept for
    /// the invariant rather than out of need).
    pub(crate) fn refresh(&mut self, node: NodeId, stack: &NodeStack) {
        self.freerider[node.index()] = stack.is_freerider;
    }

    /// Heap bytes held by the columns (capacity walk, deterministic).
    pub(crate) fn estimated_heap_bytes(&self) -> usize {
        self.epochs.capacity() * std::mem::size_of::<u32>() + self.freerider.capacity()
    }
}
