//! Content-addressed result cache.
//!
//! Every completed configuration is stored under a key derived from its
//! *canonical digest*: the full [`config_to_json`] rendering (seed and
//! fault plan included) concatenated with [`flexsim::ENGINE_VERSION`].
//! Resubmitting any previously run configuration is answered from disk
//! without simulating; an engine-semantics bump invalidates everything
//! at once by changing every key.
//!
//! Entries carry the full canonical config text and are compared on
//! lookup, so a 128-bit hash collision degrades to a miss, never to a
//! wrong result.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use flexsim::jsonio::{obj, parse, Json};
use flexsim::{config_to_json, decode_result, encode_result, RunConfig, RunResult, ENGINE_VERSION};

/// FNV-1a over `bytes`, seeded with `basis`.
fn fnv1a(bytes: &[u8], basis: u64) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical config text a cache key digests: the config JSON plus
/// the engine version. (`config_to_json` writes the retired `detection`
/// and `shards` members as constants, so neither can fragment the cache.)
pub fn canonical_config(cfg: &RunConfig) -> String {
    format!("{}\u{0}{ENGINE_VERSION}", config_to_json(cfg))
}

/// 128-bit content key as 32 hex chars (two FNV-1a streams with distinct
/// bases; collisions are additionally guarded by full-text comparison).
pub fn config_key(cfg: &RunConfig) -> String {
    key_of(&canonical_config(cfg))
}

/// The key of an already rendered [`canonical_config`] text.
fn key_of(canon: &str) -> String {
    let h1 = fnv1a(canon.as_bytes(), 0xcbf2_9ce4_8422_2325);
    let h2 = fnv1a(canon.as_bytes(), 0x6c62_272e_07bb_0142);
    format!("{h1:016x}{h2:016x}")
}

/// A directory of cached results with hit/miss counters.
pub struct ResultCache {
    dir: PathBuf,
    pub hits: AtomicU64,
    pub misses: AtomicU64,
}

impl ResultCache {
    /// Opens (creating if needed) the cache directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        fs::create_dir_all(&dir)?;
        Ok(ResultCache {
            dir: dir.as_ref().to_path_buf(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Looks up a configuration. `Some` counts as a hit, `None` (absent,
    /// undecodable, stale engine version, or canonical-text mismatch)
    /// as a miss.
    pub fn lookup(&self, cfg: &RunConfig) -> Option<RunResult> {
        let canon = canonical_config(cfg);
        let key = key_of(&canon);
        let hit = (|| {
            let text = fs::read_to_string(self.path_for(&key)).ok()?;
            let v = parse(&text).ok()?;
            if v.get("config").and_then(Json::as_str) != Some(canon.as_str()) {
                return None;
            }
            decode_result(v.get("result")?).ok()
        })();
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Stores a result through the durable atomic-write path (temp file,
    /// fsync, rename, directory fsync), so readers — in this process or a
    /// sibling sharing the cache dir — never observe a half-written
    /// entry and a crash never leaves one at rest. A same-key race ends
    /// with one winner and identical content either way (the engine is
    /// deterministic).
    pub fn store(&self, cfg: &RunConfig, result: &RunResult) -> io::Result<()> {
        let canon = canonical_config(cfg);
        let key = key_of(&canon);
        let entry = obj(vec![
            ("key", Json::Str(key.clone())),
            ("config", Json::Str(canon)),
            ("label", Json::Str(cfg.label())),
            ("result", encode_result(result)),
        ]);
        flexsim::jsonio::durable::write_atomic(&self.path_for(&key), entry.to_string().as_bytes())
    }

    /// Number of entries on disk.
    pub fn entries(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().map(|x| x == "json").unwrap_or(false))
                    .count()
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexsim::run;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "icn-cache-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quick_cfg() -> RunConfig {
        let mut c = RunConfig::small_default();
        c.warmup = 100;
        c.measure = 300;
        c.load = 0.2;
        c
    }

    #[test]
    fn key_ignores_shards_but_not_seed() {
        let a = quick_cfg();
        let mut s = a.clone();
        s.shards = 8;
        assert_eq!(
            config_key(&a),
            config_key(&s),
            "shard count must not fragment"
        );
        let mut c = a.clone();
        c.seed ^= 1;
        assert_ne!(
            config_key(&a),
            config_key(&c),
            "seed is part of the identity"
        );
        let mut d = a.clone();
        d.faults.link_outage(0, 10, 20);
        assert_ne!(
            config_key(&a),
            config_key(&d),
            "fault plan is part of the identity"
        );
    }

    /// Keys name entries on disk, so they must survive refactors of
    /// `RunConfig` and of `config_to_json`: this is the key the paper's
    /// default config has had since `flexsim-engine-v2`.
    #[test]
    fn paper_default_key_is_stable() {
        assert_eq!(
            config_key(&RunConfig::paper_default()),
            "27c9cf890d8ee50fa49895efdd7e1fd6"
        );
    }

    #[test]
    fn store_then_lookup_is_digest_exact() {
        let cache = ResultCache::open(tmp_dir("roundtrip")).unwrap();
        let cfg = quick_cfg();
        let r = run(&cfg);
        assert!(cache.lookup(&cfg).is_none(), "cold cache misses");
        cache.store(&cfg, &r).unwrap();
        let back = cache.lookup(&cfg).expect("entry should hit");
        assert_eq!(back.digest(), r.digest());
        assert_eq!(cache.hits.load(Ordering::Relaxed), 1);
        assert_eq!(cache.misses.load(Ordering::Relaxed), 1);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn corrupt_entry_degrades_to_miss() {
        let cache = ResultCache::open(tmp_dir("corrupt")).unwrap();
        let cfg = quick_cfg();
        let r = run(&cfg);
        cache.store(&cfg, &r).unwrap();
        fs::write(cache.path_for(&config_key(&cfg)), "{\"half\":").unwrap();
        assert!(cache.lookup(&cfg).is_none());
    }
}
