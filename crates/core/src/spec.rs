//! Cloneable specifications for topology, routing, and recovery.

use icn_routing::{
    DatelineDor, Dor, DuatoFar, MisroutingTfar, NegativeFirst, RoutingAlgorithm, Tfar, WestFirst,
};
use icn_topology::{KAryNCube, MAX_DIMS};

mod codec;
pub use codec::{config_from_json, config_to_json};
pub(crate) use codec::{recovery_from_name, recovery_name};

/// Most virtual channels a configuration's network may hold: nodes ×
/// dimensions × directions × `vcs_per_channel`. Every network a caller
/// here builds is far below it — the largest, the 16-ary 3-cube with 2 VCs
/// that `perfbench`'s `flow_large` runs, holds 49 152 — while a config read
/// off the network or the disk could otherwise ask for a network whose
/// allocation fails, which aborts the process instead of unwinding.
const MAX_VCS: u64 = 1 << 20;

/// Network-shape specification (buildable, cloneable, comparable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopologySpec {
    pub k: u16,
    pub n: usize,
    pub torus: bool,
    pub bidirectional: bool,
}

impl TopologySpec {
    /// A k-ary n-cube torus.
    pub fn torus(k: u16, n: usize, bidirectional: bool) -> Self {
        TopologySpec {
            k,
            n,
            torus: true,
            bidirectional,
        }
    }

    /// A k-ary n-mesh.
    pub fn mesh(k: u16, n: usize) -> Self {
        TopologySpec {
            k,
            n,
            torus: false,
            bidirectional: true,
        }
    }

    /// The network's node and channel counts, computed without building
    /// it, for a network with `vcs_per_channel` VCs per channel. Refuses a
    /// shape [`TopologySpec::build`] would assert on, and a network whose
    /// ports (nodes × dimensions × directions) × `vcs_per_channel` exceed
    /// 2^20 virtual channels.
    pub fn sizes(&self, vcs_per_channel: usize) -> Result<(usize, usize), String> {
        if self.k < 2 {
            return Err("`k` must be at least 2".into());
        }
        if !(1..=MAX_DIMS).contains(&self.n) {
            return Err(format!("`n` must be in 1..={MAX_DIMS}"));
        }
        if !self.torus && !self.bidirectional {
            return Err("a unidirectional mesh is disconnected".into());
        }
        let k = u64::from(self.k);
        let n = self.n as u64;
        let directions = if self.bidirectional { 2 } else { 1 };
        let nodes = k
            .checked_pow(self.n as u32)
            .filter(|nodes| {
                nodes
                    .checked_mul(n * directions)
                    .and_then(|ports| ports.checked_mul(vcs_per_channel as u64))
                    .is_some_and(|vcs| vcs <= MAX_VCS)
            })
            .ok_or_else(|| format!("the network holds more than {MAX_VCS} virtual channels"))?;
        // A torus has every port; a mesh lacks the edge nodes' outward
        // ones, leaving k - 1 channels each way per line of k nodes.
        let channels = if self.torus {
            nodes * n * directions
        } else {
            nodes / k * (k - 1) * n * 2
        };
        Ok((nodes as usize, channels as usize))
    }

    /// Builds the topology.
    pub fn build(&self) -> KAryNCube {
        if self.torus {
            KAryNCube::torus(self.k, self.n, self.bidirectional)
        } else {
            KAryNCube::mesh(self.k, self.n)
        }
    }

    /// Label like `bi-16ary2` or `mesh-8ary2`.
    pub fn label(&self) -> String {
        let kind = match (self.torus, self.bidirectional) {
            (true, true) => "bi",
            (true, false) => "uni",
            (false, _) => "mesh",
        };
        format!("{kind}-{}ary{}", self.k, self.n)
    }
}

/// Routing-relation specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingSpec {
    /// Dimension-order routing, unrestricted VCs (deadlock possible).
    Dor,
    /// Minimal true fully adaptive routing, unrestricted VCs (deadlock
    /// possible).
    Tfar,
    /// Dateline DOR (avoidance baseline, needs ≥2 VCs).
    DatelineDor,
    /// Duato's protocol (avoidance baseline, needs ≥3 VCs).
    Duato,
    /// West-first turn model (2-D meshes only).
    WestFirst,
    /// Negative-first turn model (meshes/hypercubes, any dimension).
    NegativeFirst,
    /// TFAR with a bounded misroute budget per message (non-minimal;
    /// deadlock possible — recovery based).
    Misroute { budget: u8 },
}

impl RoutingSpec {
    /// Instantiates the algorithm.
    pub fn build(&self) -> Box<dyn RoutingAlgorithm> {
        match self {
            RoutingSpec::Dor => Box::new(Dor),
            RoutingSpec::Tfar => Box::new(Tfar),
            RoutingSpec::DatelineDor => Box::new(DatelineDor),
            RoutingSpec::Duato => Box::new(DuatoFar),
            RoutingSpec::WestFirst => Box::new(WestFirst),
            RoutingSpec::NegativeFirst => Box::new(NegativeFirst),
            RoutingSpec::Misroute { budget } => Box::new(MisroutingTfar {
                max_misroutes: *budget,
            }),
        }
    }

    /// The algorithm's display name.
    pub fn name(&self) -> &'static str {
        match self {
            RoutingSpec::Dor => "DOR",
            RoutingSpec::Tfar => "TFAR",
            RoutingSpec::DatelineDor => "DOR-dateline",
            RoutingSpec::Duato => "Duato",
            RoutingSpec::WestFirst => "west-first",
            RoutingSpec::NegativeFirst => "negative-first",
            RoutingSpec::Misroute { .. } => "TFAR-misroute",
        }
    }
}

/// What to do when the detector finds a knot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Leave deadlocks in place (characterization only; the network wedges).
    None,
    /// Remove the oldest (lowest-id) deadlock-set message, as a Disha-style
    /// token would resolve in favour of the longest-waiting packet.
    RemoveOldest,
    /// Remove the youngest deadlock-set message.
    RemoveYoungest,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_labels() {
        assert_eq!(TopologySpec::torus(16, 2, true).label(), "bi-16ary2");
        assert_eq!(TopologySpec::torus(16, 2, false).label(), "uni-16ary2");
        assert_eq!(TopologySpec::mesh(8, 2).label(), "mesh-8ary2");
    }

    #[test]
    fn build_matches_spec() {
        let t = TopologySpec::torus(4, 3, false).build();
        assert_eq!(t.num_nodes(), 64);
        assert_eq!(t.ports_per_node(), t.n(), "one port per dimension");
        let m = TopologySpec::mesh(5, 2).build();
        assert!(!m.is_torus());
    }

    #[test]
    fn sizes_match_the_built_network() {
        for spec in [
            TopologySpec::torus(16, 2, true),
            TopologySpec::torus(4, 3, false),
            TopologySpec::torus(2, 3, true),
            TopologySpec::torus(6, 1, false),
            TopologySpec::mesh(8, 2),
            TopologySpec::mesh(5, 3),
            TopologySpec::mesh(2, 4),
        ] {
            let t = spec.build();
            assert_eq!(
                spec.sizes(1),
                Ok((t.num_nodes(), t.num_channels())),
                "{spec:?}"
            );
        }
    }

    #[test]
    fn routing_specs_build() {
        for spec in [
            RoutingSpec::Dor,
            RoutingSpec::Tfar,
            RoutingSpec::DatelineDor,
            RoutingSpec::Duato,
            RoutingSpec::WestFirst,
            RoutingSpec::NegativeFirst,
            RoutingSpec::Misroute { budget: 4 },
        ] {
            let algo = spec.build();
            assert!(!algo.name().is_empty());
        }
    }
}
