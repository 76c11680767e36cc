//! The content-addressed on-disk result cache.
//!
//! One file per canonical spec: `<dir>/<hash>.json`, where `<hash>` is
//! the 16-hex-digit `wormspec` content hash and the payload is the
//! `wormserve/1` verdict document byte-for-byte. Because the hash is
//! taken over the *canonical* text, any surface rewrite of a spec —
//! whitespace, comments, key order, spelled-out defaults — hits the
//! same entry, and because the verdict document is deterministic, a hit
//! can be replayed without rerunning any engine and without byte drift.
//!
//! Each store writes a temp sibling of its own (process id plus a
//! per-process counter) and renames it into place, so neither a crash
//! mid-write nor two workers storing the same hash at once can leave a
//! torn entry; a crash can leave a stray temp file.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Numbers this process's temp files, so no two stores share one.
static NEXT_TMP: AtomicU64 = AtomicU64::new(0);

/// A directory of verdict documents keyed by canonical spec hash.
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The directory backing this cache.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry path for a canonical hash.
    pub fn entry_path(&self, hash: &str) -> PathBuf {
        self.dir.join(format!("{hash}.json"))
    }

    /// The stored verdict for `hash`, if present.
    pub fn lookup(&self, hash: &str) -> Option<String> {
        fs::read_to_string(self.entry_path(hash)).ok()
    }

    /// Store `verdict` under `hash` atomically: write a temp file no
    /// other store writes, then rename it into place.
    pub fn store(&self, hash: &str, verdict: &str) -> io::Result<()> {
        let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{hash}.json.{}-{n}.tmp", std::process::id()));
        fs::write(&tmp, verdict)?;
        fs::rename(&tmp, self.entry_path(hash)).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
    }

    /// Entry count (for monitoring and tests).
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("wormserve-cache-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn store_then_lookup_replays_the_exact_bytes() {
        let cache = ResultCache::open(tmpdir("roundtrip")).unwrap();
        assert!(cache.lookup("00112233aabbccdd").is_none());
        let verdict = "{\"schema\":\"wormserve/1\"}";
        cache.store("00112233aabbccdd", verdict).unwrap();
        assert_eq!(cache.lookup("00112233aabbccdd").as_deref(), Some(verdict));
        assert_eq!(cache.len(), 1);
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn a_stray_temp_path_does_not_block_a_store() {
        let cache = ResultCache::open(tmpdir("stray")).unwrap();
        // `<hash>.json.tmp`, the temp path every store of a hash once
        // shared, made a directory so that no file can be written there.
        fs::create_dir(cache.dir().join("00112233aabbccdd.json.tmp")).unwrap();
        cache.store("00112233aabbccdd", "A").unwrap();
        assert_eq!(cache.lookup("00112233aabbccdd").as_deref(), Some("A"));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn concurrent_stores_of_one_hash_never_serve_a_torn_entry() {
        let cache = ResultCache::open(tmpdir("concurrent")).unwrap();
        let hash = "0123456789abcdef";
        // Large enough that writing it takes more than one syscall.
        let doc = format!("{{\"pad\":\"{}\"}}", "x".repeat(256 * 1024));
        let done = AtomicBool::new(false);
        let start = Barrier::new(3);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        (0..40).try_for_each(|_| cache.store(hash, &doc))
                    })
                })
                .collect();
            let reader = s.spawn(|| {
                start.wait();
                let mut hits = 0;
                loop {
                    let last = done.load(Ordering::Acquire);
                    if let Some(found) = cache.lookup(hash) {
                        assert!(found == doc, "a hit read {} bytes", found.len());
                        hits += 1;
                    }
                    if last {
                        return hits;
                    }
                }
            });
            let stored: Vec<io::Result<()>> =
                writers.into_iter().map(|w| w.join().unwrap()).collect();
            done.store(true, Ordering::Release);
            let hits = reader.join();
            for r in stored {
                r.expect("every store succeeds");
            }
            assert!(hits.expect("every hit is the full document") > 0);
        });
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entries_are_isolated_by_hash() {
        let cache = ResultCache::open(tmpdir("isolated")).unwrap();
        cache.store("aaaaaaaaaaaaaaaa", "A").unwrap();
        cache.store("bbbbbbbbbbbbbbbb", "B").unwrap();
        assert_eq!(cache.lookup("aaaaaaaaaaaaaaaa").as_deref(), Some("A"));
        assert_eq!(cache.lookup("bbbbbbbbbbbbbbbb").as_deref(), Some("B"));
        assert_eq!(cache.len(), 2);
        let _ = fs::remove_dir_all(cache.dir());
    }
}
