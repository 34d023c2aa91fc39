//! Checkpoint reads shared by the campaign-server test suites.

use std::path::Path;

use deadlock_characterization::flexsim::jsonio::{scan_records, Json};

/// The slot index of every verified result record in the checkpoint, in
/// file order: `0..n` exactly when each slot was recorded once and only
/// once.
pub fn result_indices(ckpt: &Path) -> Vec<u64> {
    let text = std::fs::read_to_string(ckpt).unwrap_or_default();
    scan_records(&text)
        .values
        .iter()
        .filter(|(_, v)| v.get("result").is_some())
        .filter_map(|(_, v)| v.get("index").and_then(Json::as_u64))
        .collect()
}
