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
    /// Edge-buffer depth per VC, in flits. Depth ≥ `msg_len` yields virtual
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

    /// Validates the configuration, panicking with
    /// [`SimConfig::check`]'s description on error.
    pub fn validate(&self) {
        self.check().unwrap_or_else(|e| panic!("{e}"));
    }

    /// True when a whole message fits in a single VC buffer (virtual
    /// cut-through switching).
    pub fn is_cut_through(&self) -> bool {
        self.buffer_depth >= self.msg_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_default() {
        let c = SimConfig::default();
        c.validate();
        assert_eq!(c.msg_len, 32);
        assert_eq!(c.buffer_depth, 2);
        assert!(!c.is_cut_through());
    }

    #[test]
    fn cut_through_detection() {
        let c = SimConfig {
            buffer_depth: 32,
            ..Default::default()
        };
        assert!(c.is_cut_through());
    }

    #[test]
    #[should_panic(expected = "vcs_per_channel")]
    fn zero_vcs_rejected() {
        SimConfig {
            vcs_per_channel: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_depth_rejected() {
        SimConfig {
            buffer_depth: 0,
            ..Default::default()
        }
        .validate();
    }
}
