//! Pinned output hashes: `expected_digests.json` holds, per
//! `flexsim::ENGINE_VERSION`, an FNV-1a hash of each workload's digest
//! set for one seed. An engine version the file does not know is not an
//! error — the cross-pass and cross-path checks still run — so a
//! legitimate version bump needs no benchmark edit in the same change.

use flexsim::jsonio::{parse, Json};

use crate::host::bench_dir;
use crate::outcome::Outcome;

pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn hash_hex(text: &str) -> String {
    format!("{:016x}", fnv64(text.as_bytes()))
}

/// The pinned hash for `key` at `seed` under the running engine version,
/// if the file has one.
fn expected(key: &str, seed: u64) -> Option<String> {
    let text = std::fs::read_to_string(bench_dir().join("expected_digests.json")).ok()?;
    let file = parse(&text).ok()?;
    let pins = file.get(flexsim::ENGINE_VERSION)?;
    if pins.get("seed").and_then(Json::as_u64) != Some(seed) {
        return None;
    }
    pins.get(key)?.as_str().map(str::to_string)
}

/// Records the hash of `digest_set` under `key` and fails the outcome if
/// it contradicts a pinned one.
pub fn check(out: &mut Outcome, key: &str, seed: u64, digest_set: &str) {
    let actual = hash_hex(digest_set);
    let pinned = expected(key, seed);
    if let Some(want) = &pinned {
        if *want != actual {
            out.fail(format!(
                "{key}: digest hash {actual} differs from pinned {want}"
            ));
        }
    }
    out.detail("digest_pinned", Json::Bool(pinned.is_some()));
    out.detail("digest_fnv", Json::Str(actual));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash_hex("foobar"), "85944171f73967e8");
    }
}
