//! Content-addressed, filesystem-backed result store.
//!
//! Every entry is one JSON file named by the FNV-1a 64 hash of its
//! canonical spec (`<hash>.json`), holding the spec itself, the wire
//! result, an insertion sequence number and a checksum:
//!
//! ```json
//! {"seq":7,"check":"<fnv64 of result string>","spec":"<canonical spec>","result":"<wire result>"}
//! ```
//!
//! The hash is only the *filing* address — `get` always verifies the
//! stored spec string against the requested one, so a hash collision (or
//! a tampered entry) degrades to a cache miss, never to serving the wrong
//! result. Likewise any unreadable, unparsable or checksum-failing entry
//! is a miss: callers recompute, the store never surfaces corruption as
//! data.
//!
//! The store carries two planes over the same envelope: the typed
//! [`ResultCache::get`]/[`ResultCache::put`] plane for [`WireResult`]s,
//! and the raw-JSON `get_json`/`put_json` plane the distributed campaign
//! subsystem uses for epoch-outcome documents. Entry writes go through a
//! per-writer temp file plus an atomic rename, so the store is safe as
//! the *shared* result plane of many concurrent worker processes.
//!
//! Eviction is deterministic and wall-clock-free: entries carry a
//! monotonic sequence number from a persisted counter, and
//! [`FsResultStore::gc`] drops the lowest `(seq, filename)` order first —
//! insertion-order FIFO without ever consulting file mtimes. Concurrent
//! writers may duplicate a sequence number; the filename tiebreak keeps
//! the GC order total and stable regardless.

use sensorwise::codec::{json_string, JsonValue};
use sensorwise::{spec_key, ResultCache, WireResult};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Why a store maintenance operation failed (lookup and insertion never
/// fail — they degrade to miss / no-op by design).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The underlying directory or file operation failed.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "result store I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Aggregate store statistics, as reported by `nbti-noc cache stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of result entries on disk.
    pub entries: usize,
    /// Total size of those entries in bytes.
    pub bytes: u64,
}

/// What a garbage-collection pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcReport {
    /// Entries removed (oldest first).
    pub removed: usize,
    /// Entries still present afterwards.
    pub kept: usize,
}

/// A directory of content-addressed [`WireResult`]s implementing the
/// engine-side [`ResultCache`] contract.
#[derive(Debug, Clone)]
pub struct FsResultStore {
    dir: PathBuf,
}

const SEQ_FILE: &str = "seq";

impl FsResultStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<FsResultStore, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StoreError::Io(e.to_string()))?;
        Ok(FsResultStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, spec: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.json", spec_key(spec)))
    }

    /// Claims the next insertion sequence number. Failures fall back to 0
    /// (the entry then just looks oldest to the GC); caching must never
    /// abort the computation it memoizes.
    fn bump_seq(&self) -> u64 {
        let path = self.dir.join(SEQ_FILE);
        let current = fs::read_to_string(&path)
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
            .unwrap_or(0);
        let tmp = self.dir.join(format!("{SEQ_FILE}.tmp"));
        let next = current.wrapping_add(1);
        if fs::write(&tmp, next.to_string()).is_ok() {
            let _ = fs::rename(&tmp, &path);
        }
        current
    }

    /// All result entries as `(seq, filename, path, bytes)`, skipping
    /// anything unreadable. An entry whose JSON is damaged sorts with
    /// `seq = 0` so the GC retires it first.
    fn entries(&self) -> Result<Vec<(u64, String, PathBuf, u64)>, StoreError> {
        let mut out = Vec::new();
        let listing = fs::read_dir(&self.dir).map_err(|e| StoreError::Io(e.to_string()))?;
        for dirent in listing.flatten() {
            let path = dirent.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !name.ends_with(".json") {
                continue;
            }
            let bytes = dirent.metadata().map(|m| m.len()).unwrap_or(0);
            let seq = fs::read_to_string(&path)
                .ok()
                .and_then(|text| JsonValue::parse(&text).ok())
                .and_then(|v| v.get("seq").and_then(JsonValue::as_u64))
                .unwrap_or(0);
            out.push((seq, name.to_string(), path, bytes));
        }
        Ok(out)
    }

    /// Store statistics: entry count and total bytes.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let entries = self.entries()?;
        Ok(StoreStats {
            entries: entries.len(),
            bytes: entries.iter().map(|e| e.3).sum(),
        })
    }

    /// Evicts oldest-first until at most `keep` entries remain.
    pub fn gc(&self, keep: usize) -> Result<GcReport, StoreError> {
        let mut entries = self.entries()?;
        entries.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let excess = entries.len().saturating_sub(keep);
        let mut removed = 0;
        for (_, _, path, _) in entries.iter().take(excess) {
            match fs::remove_file(path) {
                Ok(()) => removed += 1,
                Err(e) => return Err(StoreError::Io(e.to_string())),
            }
        }
        Ok(GcReport {
            removed,
            kept: entries.len() - removed,
        })
    }
}

impl FsResultStore {
    /// Reads and verifies an entry, returning the raw stored result text.
    /// Any damage — unreadable file, bad JSON, foreign spec, checksum
    /// mismatch — is a miss.
    fn read_verified(&self, spec: &str) -> Option<String> {
        let text = fs::read_to_string(self.entry_path(spec)).ok()?;
        let entry = JsonValue::parse(&text).ok()?;
        let stored_spec = entry.get("spec")?.as_str()?;
        if stored_spec != spec {
            // Hash collision or relocated entry: a different spec filed
            // under our address is a miss, never a wrong answer.
            return None;
        }
        let result_text = entry.get("result")?.as_str()?;
        let check = entry.get("check")?.as_str()?;
        if format!("{:016x}", spec_key(result_text)) != check {
            return None;
        }
        Some(result_text.to_string())
    }

    /// Writes an entry atomically: the full envelope goes to a temp file
    /// unique to this writer (pid + process-wide counter), which is then
    /// renamed over the address. Racing writers on the same key — two
    /// remote workers finishing the same epoch, say — each write a
    /// complete entry and rename it; rename is atomic, so a reader sees
    /// one whole winner, never a splice of both.
    fn write_entry(&self, spec: &str, result_text: &str) {
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = self.bump_seq();
        let entry = format!(
            "{{\"seq\":{seq},\"check\":\"{:016x}\",\"spec\":{},\"result\":{}}}",
            spec_key(result_text),
            json_string(spec),
            json_string(result_text)
        );
        let path = self.entry_path(spec);
        let nonce = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            "{:016x}.{}.{nonce}.tmp",
            spec_key(spec),
            std::process::id()
        ));
        if fs::write(&tmp, entry).is_ok() {
            let _ = fs::rename(&tmp, &path);
        }
    }
}

impl ResultCache for FsResultStore {
    fn get(&self, spec: &str) -> Option<WireResult> {
        let result_text = self.read_verified(spec)?;
        WireResult::from_json(&result_text).ok()
    }

    fn put(&self, spec: &str, result: &WireResult) {
        self.write_entry(spec, &result.to_json());
    }

    fn get_json(&self, spec: &str) -> Option<String> {
        self.read_verified(spec)
    }

    fn put_json(&self, spec: &str, json: &str) {
        self.write_entry(spec, json);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorwise::policy::PolicyKind;
    use sensorwise::{spec_to_json, ExperimentConfig, ExperimentJob, TrafficSpec};

    fn temp_store(tag: &str) -> FsResultStore {
        let dir =
            std::env::temp_dir().join(format!("nbti-store-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        FsResultStore::open(dir).unwrap()
    }

    fn job(seed: u64) -> ExperimentJob {
        ExperimentJob {
            cfg: ExperimentConfig::new(
                noc_sim::config::NocConfig::paper_synthetic(4, 2),
                PolicyKind::RrNoSensor,
            )
            .with_cycles(100, 800)
            .with_pv_seed(seed),
            traffic: TrafficSpec::Uniform {
                rate: 0.1,
                seed: seed ^ 0xABCD,
            },
        }
    }

    #[test]
    fn round_trips_byte_identical_results_and_misses_on_other_specs() {
        let store = temp_store("roundtrip");
        let spec = spec_to_json(&job(1)).unwrap();
        let other = spec_to_json(&job(2)).unwrap();
        assert!(store.get(&spec).is_none());
        let result = WireResult::from(&job(1).run());
        store.put(&spec, &result);
        let cached = store.get(&spec).expect("hit after put");
        assert_eq!(cached.to_json(), result.to_json());
        assert!(store.get(&other).is_none(), "different spec must miss");
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupted_entries_are_misses_not_errors() {
        let store = temp_store("corrupt");
        let spec = spec_to_json(&job(3)).unwrap();
        let result = WireResult::from(&job(3).run());
        store.put(&spec, &result);
        let path = store.entry_path(&spec);

        // Flip bytes inside the entry: the spec check or the result
        // checksum must catch it, in either case a miss.
        let text = fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("rr-no-sensor", "rr-no-sensog", 1);
        assert_ne!(tampered, text, "tamper target not found");
        fs::write(&path, &tampered).unwrap();
        assert!(store.get(&spec).is_none(), "tampered entry must miss");

        // Outright garbage parses to a miss too.
        fs::write(&path, "not json at all {{{").unwrap();
        assert!(store.get(&spec).is_none());

        // And a re-put repairs the entry.
        store.put(&spec, &result);
        assert_eq!(store.get(&spec).unwrap().to_json(), result.to_json());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn entry_under_our_address_with_foreign_spec_is_a_miss() {
        let store = temp_store("collision");
        let spec = spec_to_json(&job(4)).unwrap();
        let foreign = spec_to_json(&job(5)).unwrap();
        let result = WireResult::from(&job(5).run());
        // Simulate a hash collision: file the foreign spec's entry under
        // our spec's address.
        store.put(&foreign, &result);
        fs::rename(store.entry_path(&foreign), store.entry_path(&spec)).unwrap();
        assert!(
            store.get(&spec).is_none(),
            "spec verification must reject a colliding entry"
        );
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn raw_json_plane_round_trips_and_verifies_like_the_typed_one() {
        let store = temp_store("rawjson");
        let spec = "{\"campaign_epoch\":0,\"campaign\":\"demo\"}";
        assert!(store.get_json(spec).is_none());
        let doc = "{\"kind\":\"epoch_outcome\",\"drain_cycles\":17}";
        store.put_json(spec, doc);
        assert_eq!(store.get_json(spec).as_deref(), Some(doc));
        // The typed getter refuses the same entry (it is not a
        // WireResult) without erroring — planes are kept honest.
        assert!(store.get(spec).is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn racing_writers_on_one_key_converge_to_one_valid_entry() {
        let store = temp_store("race");
        let spec = spec_to_json(&job(20)).unwrap();
        let result = WireResult::from(&job(20).run());
        let expected = result.to_json();
        // Two workers finishing the same epoch push the identical result
        // concurrently, many times over to widen the race window.
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        store.put(&spec, &result);
                    }
                });
            }
        });
        let cached = store.get(&spec).expect("entry must survive the race");
        assert_eq!(cached.to_json(), expected);
        // No torn temp files left behind, and exactly one entry on disk.
        let leftovers: Vec<_> = fs::read_dir(store.dir())
            .unwrap()
            .flatten()
            .filter(|d| d.path().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        assert_eq!(store.stats().unwrap().entries, 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_entry_on_the_raw_plane_is_a_miss_then_a_recompute() {
        let store = temp_store("rawcorrupt");
        let spec = "{\"campaign_epoch\":2,\"campaign\":\"demo\"}";
        let doc = "{\"kind\":\"epoch_outcome\",\"drain_cycles\":99}";
        store.put_json(spec, doc);
        let path = store.entry_path(spec);
        // A remote worker's torn write / bit rot: flip a byte inside the
        // stored result.
        let text = fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("99", "98", 1);
        assert_ne!(tampered, text);
        fs::write(&path, tampered).unwrap();
        assert!(
            store.get_json(spec).is_none(),
            "checksum must catch the tampered result"
        );
        // The caller recomputes and re-files; the plane heals.
        store.put_json(spec, doc);
        assert_eq!(store.get_json(spec).as_deref(), Some(doc));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn gc_evicts_oldest_first_and_stats_track_bytes() {
        let store = temp_store("gc");
        let specs: Vec<String> = (10..14).map(|s| spec_to_json(&job(s)).unwrap()).collect();
        let result = WireResult::from(&job(10).run());
        for spec in &specs {
            store.put(spec, &result);
        }
        let stats = store.stats().unwrap();
        assert_eq!(stats.entries, 4);
        assert!(stats.bytes > 0);

        let report = store.gc(2).unwrap();
        assert_eq!(
            report,
            GcReport {
                removed: 2,
                kept: 2
            }
        );
        // The two oldest inserts are gone, the two newest survive.
        assert!(store.get(&specs[0]).is_none());
        assert!(store.get(&specs[1]).is_none());
        assert!(store.get(&specs[2]).is_some());
        assert!(store.get(&specs[3]).is_some());
        // keep >= len is a no-op.
        assert_eq!(
            store.gc(10).unwrap(),
            GcReport {
                removed: 0,
                kept: 2
            }
        );
        let _ = fs::remove_dir_all(store.dir());
    }
}
