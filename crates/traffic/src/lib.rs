//! Traffic generation for the deadlock characterization study.
//!
//! The paper drives its networks with uniform traffic by default and checks
//! robustness against the four classic non-uniform patterns (§3.6):
//! bit-reversal, matrix-transpose, perfect-shuffle, and hot-spot. Offered
//! load is always expressed as a fraction of **network capacity**, computed
//! from total link bandwidth and average inter-node distance, so that
//! different topologies (uni vs bi, 2-D vs 4-D) are compared at equivalent
//! utilization.

mod injection;
mod length;
mod pattern;

pub use injection::{check_load, message_rate, BernoulliInjector};
pub use length::MsgLenDist;
pub use pattern::Pattern;
