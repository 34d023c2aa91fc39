//! Cloneable specifications for topology, routing, and recovery.

use icn_routing::{
    DatelineDor, Dor, DuatoFar, MisroutingTfar, NegativeFirst, RoutingAlgorithm, Tfar, WestFirst,
};
use icn_topology::KAryNCube;

mod codec;
pub use codec::{config_from_json, config_to_json};
pub(crate) use codec::{recovery_from_name, recovery_name};

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

    /// Whether the relation is deadlock-free by construction.
    pub fn is_deadlock_free(&self) -> bool {
        matches!(
            self,
            RoutingSpec::DatelineDor
                | RoutingSpec::Duato
                | RoutingSpec::WestFirst
                | RoutingSpec::NegativeFirst
        )
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
        assert!(!t.is_bidirectional());
        let m = TopologySpec::mesh(5, 2).build();
        assert!(!m.is_torus());
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
            assert_eq!(algo.is_deadlock_free(), spec.is_deadlock_free());
        }
    }
}
