//! The wait-for snapshot as data: who owns what, who waits for what.
//!
//! [`CwgSnapshot`] is the one owned record of the paper's §2 problem
//! statement in the workspace: per message, the VC chain it holds (the
//! solid arcs) and the VCs it waits for (the dashed arcs). Forensic
//! incidents store it, the validation oracle reads it, and tools capture
//! it from a live network. The graph structure is derivable, so the record
//! keeps none: [`build_graph`](CwgSnapshot::build_graph) derives it through
//! the same [`WaitGraph`] constructors the detector uses, and
//! [`from_json`](CwgSnapshot::from_json) rejects any record those
//! constructors would refuse — a parsed snapshot can never describe a
//! graph the detector could not build.

use std::collections::HashSet;

use crate::graph::{MessageId, VertexId, WaitGraph};
use crate::jsonio::{bad, get, get_u64, obj, u64_arr, Json, ParseError};
use crate::serialize::get_u32_arr;

/// One message of a [`CwgSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CwgMsg {
    /// Message id.
    pub id: MessageId,
    /// Vertices the message holds (acquisition order, tail first, head
    /// last). Non-empty and disjoint from every other message's chain.
    pub chain: Vec<VertexId>,
    /// Vertices the message is blocked waiting for (empty when moving).
    pub requests: Vec<VertexId>,
}

/// An owned copy of one instant's channel wait-for graph, as data. An
/// incident keeps this rather than a [`WaitGraph`] because recovery
/// mutates the live graph in place; a capture is immutable, so the record
/// is pre-recovery by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CwgSnapshot {
    /// Total vertex count (VCs plus reception channels).
    pub num_vertices: usize,
    /// Per-message ownership chains and request sets.
    pub messages: Vec<CwgMsg>,
}

impl CwgSnapshot {
    /// Copies a capture given as `(id, chain, requests)` triples — e.g.
    /// `arena.messages().map(|m| (m.id, m.chain, m.requests))` over an
    /// `icn_sim::SnapshotArena`.
    pub fn from_messages<'a>(
        num_vertices: usize,
        messages: impl IntoIterator<Item = (MessageId, &'a [VertexId], &'a [VertexId])>,
    ) -> Self {
        CwgSnapshot {
            num_vertices,
            messages: messages
                .into_iter()
                .map(|(id, chain, requests)| CwgMsg {
                    id,
                    chain: chain.to_vec(),
                    requests: requests.to_vec(),
                })
                .collect(),
        }
    }

    /// The graph this snapshot describes, ready for analysis. Messages are
    /// registered once each, chain then requests: a vertex's out-arcs come
    /// from its one owner only, so this is edge-for-edge the graph of a
    /// build that registers every chain before any request.
    ///
    /// # Panics
    /// Panics on a record [`from_json`](Self::from_json) would reject.
    pub fn build_graph(&self) -> WaitGraph {
        let mut g = WaitGraph::new(self.num_vertices);
        for m in &self.messages {
            g.add_chain(m.id, &m.chain);
            if !m.requests.is_empty() {
                g.add_requests(m.id, &m.requests);
            }
        }
        g
    }

    /// Serializes the snapshot: vertex count plus each message's chain and
    /// request set, in message order.
    pub fn to_json(&self) -> Json {
        let messages: Vec<Json> = self
            .messages
            .iter()
            .map(|m| {
                obj(vec![
                    ("id", Json::U64(m.id)),
                    ("chain", u64_arr(m.chain.iter().map(|&v| v as u64))),
                    ("requests", u64_arr(m.requests.iter().map(|&v| v as u64))),
                ])
            })
            .collect();
        obj(vec![
            ("num_vertices", Json::U64(self.num_vertices as u64)),
            ("messages", Json::Arr(messages)),
        ])
    }

    /// Parses a snapshot and re-validates it against what
    /// [`build_graph`](Self::build_graph) accepts: every message needs a
    /// non-empty chain of in-range vertices no other message owns, a
    /// unique id, and in-range requests. A violation is a parse error,
    /// never a panic.
    pub fn from_json(v: &Json) -> Result<Self, ParseError> {
        let num_vertices = get_u64(v, "num_vertices")? as usize;
        let mut owned: HashSet<VertexId> = HashSet::new();
        let mut ids: HashSet<MessageId> = HashSet::new();
        let mut messages = Vec::new();
        for m in get(v, "messages")?
            .as_arr()
            .ok_or_else(|| bad("`messages` must be an array"))?
        {
            let id = get_u64(m, "id")?;
            let chain = get_u32_arr(m, "chain")?;
            let requests = get_u32_arr(m, "requests")?;
            if chain.is_empty() {
                return Err(bad("message chain may not be empty"));
            }
            if chain
                .iter()
                .chain(&requests)
                .any(|&x| x as usize >= num_vertices)
            {
                return Err(bad("vertex index out of range"));
            }
            if !chain.iter().all(|&x| owned.insert(x)) {
                return Err(bad("vertex owned twice"));
            }
            if !ids.insert(id) {
                return Err(bad("message registered twice"));
            }
            messages.push(CwgMsg {
                id,
                chain,
                requests,
            });
        }
        Ok(CwgSnapshot {
            num_vertices,
            messages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonio::parse;

    fn figure1_like() -> CwgSnapshot {
        let msg = |id, chain: &[u32], requests: &[u32]| CwgMsg {
            id,
            chain: chain.to_vec(),
            requests: requests.to_vec(),
        };
        CwgSnapshot {
            num_vertices: 10,
            messages: vec![
                msg(1, &[1, 2], &[3]),
                msg(2, &[3, 4, 5], &[6]),
                msg(3, &[6, 7, 0], &[1]),
                msg(4, &[8], &[]),
            ],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let s = figure1_like();
        let back = CwgSnapshot::from_json(&parse(&s.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(
            back.build_graph().analyze(1000),
            s.build_graph().analyze(1000)
        );
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let s = CwgSnapshot {
            num_vertices: 0,
            messages: Vec::new(),
        };
        assert_eq!(CwgSnapshot::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn build_graph_matches_the_chains_first_build() {
        let s = figure1_like();
        let one_pass = s.build_graph();
        let mut two_pass = WaitGraph::new(s.num_vertices);
        for m in &s.messages {
            two_pass.add_chain(m.id, &m.chain);
        }
        for m in s.messages.iter().filter(|m| !m.requests.is_empty()) {
            two_pass.add_requests(m.id, &m.requests);
        }
        for v in 0..s.num_vertices as u32 {
            assert_eq!(one_pass.edges(v), two_pass.edges(v), "vertex {v}");
        }
    }

    #[test]
    fn corrupt_graphs_are_rejected_not_panicked() {
        for text in [
            "{}",
            "{\"num_vertices\": 4, \"messages\": 3}",
            // vertex out of range
            "{\"num_vertices\":2,\"messages\":[{\"id\":1,\"chain\":[5],\"requests\":[]}]}",
            // empty chain
            "{\"num_vertices\":2,\"messages\":[{\"id\":1,\"chain\":[],\"requests\":[]}]}",
            // double ownership
            "{\"num_vertices\":3,\"messages\":[{\"id\":1,\"chain\":[0],\"requests\":[]},{\"id\":2,\"chain\":[0],\"requests\":[]}]}",
            // duplicate message id
            "{\"num_vertices\":3,\"messages\":[{\"id\":1,\"chain\":[0],\"requests\":[]},{\"id\":1,\"chain\":[1],\"requests\":[]}]}",
        ] {
            assert!(
                CwgSnapshot::from_json(&parse(text).unwrap()).is_err(),
                "accepted: {text}"
            );
        }
    }

    #[test]
    fn malformed_elements_are_rejected() {
        for text in [
            // missing `requests`
            "{\"num_vertices\":2,\"messages\":[{\"id\":1,\"chain\":[0]}]}",
            // non-u32 vertex
            "{\"num_vertices\":2,\"messages\":[{\"id\":1,\"chain\":[4294967296],\"requests\":[]}]}",
            // request out of range
            "{\"num_vertices\":2,\"messages\":[{\"id\":1,\"chain\":[0],\"requests\":[2]}]}",
            // a vertex repeated inside one chain
            "{\"num_vertices\":2,\"messages\":[{\"id\":1,\"chain\":[0,0],\"requests\":[]}]}",
        ] {
            assert!(
                CwgSnapshot::from_json(&parse(text).unwrap()).is_err(),
                "accepted: {text}"
            );
        }
    }
}
