//! Simulator configuration.

use icn_routing::{RoutingAlgorithm, MAX_VCS};

/// Per-run simulator parameters.
///
/// The paper's defaults (§3): 32-flit messages, edge buffers of 2 flits,
/// and a VC count swept from 1 to 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimConfig {
    /// Virtual channels per physical channel (1–16).
    pub vcs_per_channel: usize,
    /// Per-VC edge-buffer depth, in flits. Depth ≥ `msg_len` yields virtual
    /// cut-through behaviour.
    pub buffer_depth: usize,
    /// Message length in flits.
    pub msg_len: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            vcs_per_channel: 1,
            buffer_depth: 2,
            msg_len: 32,
        }
    }
}

impl SimConfig {
    /// Checks the configuration, describing the first rule it breaks.
    pub fn check(&self) -> Result<(), String> {
        let rule = if !(1..=MAX_VCS).contains(&self.vcs_per_channel) {
            format!("vcs_per_channel must be 1..={MAX_VCS}")
        } else if self.buffer_depth < 1 {
            "buffers hold at least one flit".into()
        } else if self.buffer_depth > u16::MAX as usize {
            "buffer depth exceeds occupancy counter range".into()
        } else if self.msg_len < 1 {
            "messages have at least one flit".into()
        } else if self.msg_len > u32::MAX as usize {
            "message too long".into()
        } else {
            return Ok(());
        };
        Err(rule)
    }

    /// [`SimConfig::check`], then the VC minimum `routing` needs.
    pub fn check_for(&self, routing: &dyn RoutingAlgorithm) -> Result<(), String> {
        self.check()?;
        if self.vcs_per_channel < routing.min_vcs() {
            return Err(format!(
                "{} requires at least {} VCs",
                routing.name(),
                routing.min_vcs()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_default() {
        let c = SimConfig::default();
        c.check().unwrap();
        assert_eq!(c.msg_len, 32);
        assert_eq!(c.buffer_depth, 2);
    }

    #[test]
    fn zero_vcs_rejected() {
        let c = SimConfig {
            vcs_per_channel: 0,
            ..Default::default()
        };
        assert!(c.check().unwrap_err().contains("vcs_per_channel"));
    }

    #[test]
    fn zero_depth_rejected() {
        let c = SimConfig {
            buffer_depth: 0,
            ..Default::default()
        };
        assert!(c.check().unwrap_err().contains("at least one flit"));
    }
}
