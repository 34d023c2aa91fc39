//! Content-addressed result cache.
//!
//! Every completed configuration is stored under a key derived from its
//! *canonical digest*: the full [`config_to_json`] rendering (seed and
//! fault plan included) concatenated with [`flexsim::ENGINE_VERSION`].
//! Resubmitting any previously run configuration is answered from disk
//! without simulating; an engine-semantics bump invalidates everything
//! at once by changing every key.
//!
//! An entry is one CRC-framed record (`~<len>:<crc>:<payload>\n`, the
//! checkpoint frame) whose payload is
//! `{"key":…,"config":…,"label":…,"codec":…,"result":<text>}`: a header
//! binding the key, the full canonical config text, the label and the
//! [`RESULT_CODEC`] tag, then the [`encode_result`](flexsim::encode_result)
//! text. A lookup verifies the frame, compares the header byte for byte
//! with the one this configuration would be stored under, and returns the
//! text — it parses nothing. So a 128-bit hash collision, another
//! configuration's entry copied under this key, another codec's entry or
//! a damaged one all degrade to a miss, never to a wrong result; and an
//! entry in any other format (such as the unframed JSON object of earlier
//! versions) is a miss that the run after it overwrites.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use flexsim::jsonio::{frame_record, obj, record_payload, Json};
use flexsim::{config_to_json, EncodedResult, RunConfig, RunResult, ENGINE_VERSION, RESULT_CODEC};

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

    /// The header an entry for `cfg` is stored under, and its file: the
    /// payload's members up to and including `"result":`.
    fn entry_header(&self, cfg: &RunConfig) -> (String, PathBuf) {
        let canon = canonical_config(cfg);
        let key = key_of(&canon);
        let mut header = obj(vec![
            ("key", Json::Str(key.clone())),
            ("config", Json::Str(canon)),
            ("label", Json::Str(cfg.label())),
            ("codec", Json::Str(RESULT_CODEC.to_string())),
        ])
        .to_string();
        header.pop();
        header.push_str(",\"result\":");
        (header, self.path_for(&key))
    }

    /// Looks up a configuration: the stored result text of a verified
    /// entry whose header is this configuration's. `Some` counts as a
    /// hit, `None` (absent, damaged, another format, another codec, or
    /// another configuration's entry) as a miss.
    pub fn lookup(&self, cfg: &RunConfig) -> Option<EncodedResult> {
        let (header, path) = self.entry_header(cfg);
        let hit = (|| {
            let entry = fs::read_to_string(path).ok()?;
            let payload = record_payload(entry.strip_suffix('\n')?)?;
            let text = payload.strip_prefix(header.as_str())?.strip_suffix('}')?;
            Some(EncodedResult::from_text(text.to_string()))
        })();
        match &hit {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Stores a result; see [`store_encoded`](Self::store_encoded).
    pub fn store(&self, cfg: &RunConfig, result: &RunResult) -> io::Result<()> {
        self.store_encoded(cfg, &EncodedResult::new(result))
    }

    /// Stores an encoded result through the durable atomic-write path
    /// (temp file, fsync, rename, directory fsync), so readers — in this
    /// process or a sibling sharing the cache dir — never observe a
    /// half-written entry and a crash never leaves one at rest. A same-key
    /// race ends with one winner and identical content either way (the
    /// engine is deterministic).
    pub fn store_encoded(&self, cfg: &RunConfig, result: &EncodedResult) -> io::Result<()> {
        let (header, path) = self.entry_header(cfg);
        let mut entry = frame_record(&format!("{header}{}}}", result.as_str()));
        entry.push('\n');
        flexsim::jsonio::durable::write_atomic(&path, entry.as_bytes())
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

    /// An entry is a trust boundary: every single-byte flip and every
    /// truncation of a stored entry is a miss or reads the identical text
    /// (a flipped hex digit's case, say) — never a panic, never other text.
    #[test]
    fn every_flip_and_truncation_of_an_entry_misses_or_reads_the_same() {
        let cache = ResultCache::open(tmp_dir("flips")).unwrap();
        let cfg = quick_cfg();
        cache.store(&cfg, &run(&cfg)).unwrap();
        let want = cache.lookup(&cfg).expect("a stored entry hits");
        let path = cache.path_for(&config_key(&cfg));
        let entry = fs::read(&path).unwrap();
        let check = |bytes: &[u8], what: &str| {
            fs::write(&path, bytes).unwrap();
            if let Some(got) = cache.lookup(&cfg) {
                assert_eq!(got, want, "{what} read other text");
            }
        };
        for at in 0..entry.len() {
            for mask in [0x01, 0x20, 0xff] {
                let mut bytes = entry.clone();
                bytes[at] ^= mask;
                check(&bytes, &format!("flip {mask:#x} at byte {at}"));
            }
        }
        for len in 0..entry.len() {
            check(&entry[..len], &format!("truncation to {len} bytes"));
        }
        fs::write(&path, &entry).unwrap();
        assert_eq!(cache.lookup(&cfg), Some(want), "the intact entry hits");
    }

    /// An entry as earlier versions wrote it — one unframed JSON object
    /// with the result as a member — is a miss, and storing the result
    /// again makes it a hit.
    #[test]
    fn parent_format_entry_misses_until_stored_again() {
        let cache = ResultCache::open(tmp_dir("parent-format")).unwrap();
        let cfg = quick_cfg();
        let r = run(&cfg);
        let canon = canonical_config(&cfg);
        let entry = obj(vec![
            ("key", Json::Str(key_of(&canon))),
            ("config", Json::Str(canon.clone())),
            ("label", Json::Str(cfg.label())),
            ("result", flexsim::encode_result(&r)),
        ]);
        fs::write(cache.path_for(&key_of(&canon)), entry.to_string()).unwrap();
        assert_eq!(cache.lookup(&cfg), None, "an unframed entry misses");
        cache.store(&cfg, &r).unwrap();
        let back = cache.lookup(&cfg).expect("the rewritten entry hits");
        assert_eq!(back.digest(), r.digest());
        assert_eq!(cache.entries(), 1);
    }

    /// A well-framed entry whose header is not this configuration's under
    /// this codec misses: one tagged with another codec, and another
    /// configuration's entry copied under this key.
    #[test]
    fn foreign_codec_and_foreign_config_entries_miss() {
        let cache = ResultCache::open(tmp_dir("foreign")).unwrap();
        let cfg = quick_cfg();
        let mut other = cfg.clone();
        other.seed ^= 1;
        cache.store(&cfg, &run(&cfg)).unwrap();
        cache.store(&other, &run(&other)).unwrap();
        let path = cache.path_for(&config_key(&cfg));
        let entry = fs::read_to_string(&path).unwrap();

        let payload = record_payload(entry.trim_end()).expect("a framed entry");
        let tag = format!("\"codec\":\"{RESULT_CODEC}\"");
        assert!(payload.contains(&tag));
        let retagged = payload.replace(&tag, "\"codec\":\"run-result-v0\"");
        fs::write(&path, format!("{}\n", frame_record(&retagged))).unwrap();
        assert_eq!(cache.lookup(&cfg), None, "another codec's entry misses");

        fs::copy(cache.path_for(&config_key(&other)), &path).unwrap();
        assert_eq!(cache.lookup(&cfg), None, "another config's entry misses");
        assert!(cache.lookup(&other).is_some());

        fs::write(&path, entry).unwrap();
        assert!(cache.lookup(&cfg).is_some(), "the genuine entry hits");
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
