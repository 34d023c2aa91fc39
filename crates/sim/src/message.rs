//! Message state.

use icn_topology::NodeId;

/// Globally unique message identifier (monotonic per network).
pub type MessageId = u64;

/// What a message is currently doing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgPhase {
    /// Header still needs to acquire its next resource (VC or reception).
    Routing,
    /// Header reached the destination and owns the reception channel;
    /// flits drain at one per cycle.
    Ejecting,
    /// Named a deadlock victim: flits drain through the recovery lane from
    /// wherever the header sits, releasing VCs as the tail passes.
    Recovering,
}

/// Internal per-message record: plain data. The owned VC chain itself is
/// the network's link tables — `vc_next` forward, each VC's occupancy
/// feed back — and the record keeps only its two ends.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Message {
    pub id: MessageId,
    pub src: NodeId,
    pub dst: NodeId,
    pub len: u32,
    /// Cycle the message was generated (entered the source queue).
    pub born: u64,
    /// Cycle the header acquired its first VC.
    pub injected_at: u64,
    /// Tail-most and header-most owned VCs, `NO_OWNER` when none.
    pub front: u32,
    pub head: u32,
    /// Owned VC count.
    pub chain_len: u32,
    /// Next acquisition sequence number (total acquisitions so far).
    pub next_seq: u32,
    /// Flits ejected (reception or recovery lane).
    pub delivered: u32,
    pub phase: MsgPhase,
    /// Header attempted an acquisition this cycle and failed.
    pub blocked: bool,
    /// Cycle the current blocking episode began.
    pub blocked_since: Option<u64>,
    /// Dimension of the last hop (selection-policy state).
    pub last_dim: Option<u8>,
    /// Per-dimension dateline-crossing bits (avoidance-baseline state).
    pub crossed: u8,
    /// Non-minimal hops taken (misrouting-relation state).
    pub misroutes: u8,
    /// Still holds its source's injection channel.
    pub holds_injection: bool,
}

impl Message {
    /// Flit-conservation check: source + in-network + delivered = length.
    /// `uninjected` lives in the network's hot-state vectors (it is read
    /// every transfer cycle), so the caller passes it in.
    pub fn flits_in_network(&self, uninjected: u32) -> u32 {
        self.len - uninjected - self.delivered
    }
}

/// Read-only view of a message, for callers and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MessageInfo {
    pub id: MessageId,
    pub src: NodeId,
    pub dst: NodeId,
    pub len: u32,
    pub born: u64,
    pub phase: MsgPhase,
    pub blocked: bool,
    /// VCs currently owned.
    pub chain_len: usize,
    /// Total VC acquisitions so far (hops taken by the header).
    pub hops: u32,
    pub uninjected: u32,
    pub delivered: u32,
}

impl MessageInfo {
    pub(crate) fn of(m: &Message, uninjected: u32) -> Self {
        MessageInfo {
            id: m.id,
            src: m.src,
            dst: m.dst,
            len: m.len,
            born: m.born,
            phase: m.phase,
            blocked: m.blocked,
            chain_len: m.chain_len as usize,
            hops: m.next_seq,
            uninjected,
            delivered: m.delivered,
        }
    }
}
