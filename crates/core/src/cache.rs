//! Content-addressed experiment result caching.
//!
//! Every servable experiment is fully described by its canonical spec JSON
//! ([`crate::codec::spec_to_json`]): all randomness derives from seeds
//! embedded in the spec, so **identical spec ⇒ bit-identical
//! [`WireResult`]**. That turns the spec string into a content address and
//! makes memoization semantically invisible — a cache hit returns exactly
//! the bytes a recompute would produce.
//!
//! This module defines the [`ResultCache`] interface shared by the sweep
//! memoization ([`run_batch_cached`], [`crate::sweep::gap_sweep_cached`])
//! and the serving layer (`noc-service` consults a cache before occupying a
//! worker), plus an in-memory reference implementation. The durable
//! on-disk store lives in the `noc-campaign` crate (`FsResultStore`).
//!
//! Correctness rules every implementation must follow:
//!
//! * keys are the **canonical spec JSON**, never a truncated digest alone —
//!   a store may *address* by hash but must verify the full spec on read,
//!   so hash collisions degrade to misses, never wrong results;
//! * a corrupted or undecodable entry is a **miss** (callers recompute),
//!   never an error surfaced as a result.

use crate::codec::{spec_to_json, CodecError, WireResult};
use crate::parallel::{parallel_map, ExperimentJob};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A memoization store for experiment results, addressed by canonical spec
/// JSON.
pub trait ResultCache {
    /// Looks up the result previously stored for `spec`. Returns `None` on
    /// a miss *and* on any unreadable/corrupted entry.
    fn get(&self, spec: &str) -> Option<WireResult>;

    /// Persists `result` under `spec`. Failures are swallowed: caching is
    /// an optimization, so a store that cannot write must degrade to
    /// recomputation, not abort the experiment.
    fn put(&self, spec: &str, result: &WireResult);

    /// Looks up an arbitrary canonical JSON payload stored under `spec`
    /// (the distributed campaign path files epoch outcomes this way).
    /// Stores that only understand [`WireResult`] entries keep the default,
    /// which degrades to a miss — callers recompute.
    fn get_json(&self, _spec: &str) -> Option<String> {
        None
    }

    /// Persists an arbitrary canonical JSON payload under `spec`. The
    /// default swallows the write (see [`ResultCache::put`]): a store that
    /// cannot file raw payloads degrades to recomputation downstream.
    fn put_json(&self, _spec: &str, _json: &str) {}
}

/// FNV-1a 64-bit hash of a spec string — the address stores may file
/// entries under. Stable across runs and platforms (no randomized state).
pub fn spec_key(spec: &str) -> u64 {
    noc_telemetry::digest::fnv1a_64(spec.as_bytes())
}

/// An in-memory [`ResultCache`]: the reference implementation, used by
/// tests and as the service's default when no store directory is given.
///
/// Entries are kept as canonical result JSON (not decoded structs), so a
/// hit exercises the same decode path an on-disk store would.
#[derive(Debug, Default)]
pub struct MemoryCache {
    entries: Mutex<BTreeMap<String, String>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoryCache {
    /// An empty cache.
    pub fn new() -> Self {
        MemoryCache::default()
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock poisoned").len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

impl ResultCache for MemoryCache {
    fn get(&self, spec: &str) -> Option<WireResult> {
        let stored = {
            let entries = self.entries.lock().expect("cache lock poisoned");
            entries.get(spec).cloned()
        };
        let decoded = stored.and_then(|json| WireResult::from_json(&json).ok());
        match decoded {
            Some(r) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn put(&self, spec: &str, result: &WireResult) {
        let mut entries = self.entries.lock().expect("cache lock poisoned");
        entries.insert(spec.to_string(), result.to_json());
    }

    fn get_json(&self, spec: &str) -> Option<String> {
        let entries = self.entries.lock().expect("cache lock poisoned");
        entries.get(spec).cloned()
    }

    fn put_json(&self, spec: &str, json: &str) {
        let mut entries = self.entries.lock().expect("cache lock poisoned");
        entries.insert(spec.to_string(), json.to_string());
    }
}

/// Outcome of a memoized batch run.
#[derive(Debug, Clone)]
pub struct CachedBatch {
    /// One wire result per job, in input order; hits and recomputes are
    /// indistinguishable by construction.
    pub results: Vec<WireResult>,
    /// How many jobs were served from the cache.
    pub hits: usize,
    /// How many jobs were computed (and then stored).
    pub misses: usize,
}

/// Runs a batch like [`crate::parallel::run_batch`], but consults `cache`
/// first: jobs whose canonical spec is already stored are skipped entirely,
/// only the misses fan out across the worker pool, and every computed
/// result is stored before returning.
///
/// The returned results are bit-identical to an uncached `run_batch`
/// mapped through [`WireResult::from`], for any mix of hits and misses —
/// that is the content-address contract, and `tests/` assert it.
///
/// # Errors
///
/// Returns an error when a job is not canonically encodable (e.g. a
/// quantized-sensor config, which the wire schema refuses).
///
/// # Panics
///
/// Panics if `jobs == 0` or a recomputed job's configuration is invalid.
pub fn run_batch_cached(
    batch: &[ExperimentJob],
    jobs: usize,
    cache: &(dyn ResultCache + Sync),
) -> Result<CachedBatch, CodecError> {
    let specs: Vec<String> = batch.iter().map(spec_to_json).collect::<Result<_, _>>()?;
    let mut results: Vec<Option<WireResult>> = specs.iter().map(|s| cache.get(s)).collect();
    let miss_indices: Vec<usize> = results
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.is_none().then_some(i))
        .collect();
    let hits = batch.len() - miss_indices.len();
    if !miss_indices.is_empty() {
        let computed = parallel_map(&miss_indices, jobs.max(1), |_, &i| {
            WireResult::from(&batch[i].run())
        });
        for (&i, wire) in miss_indices.iter().zip(computed) {
            cache.put(&specs[i], &wire);
            results[i] = Some(wire);
        }
    }
    Ok(CachedBatch {
        results: results
            .into_iter()
            .map(|r| r.expect("every slot is a hit or was computed"))
            .collect(),
        hits,
        misses: miss_indices.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentConfig, SyntheticScenario};
    use crate::parallel::TrafficSpec;
    use crate::policy::PolicyKind;
    use noc_sim::config::NocConfig;

    fn job(policy: PolicyKind, seed: u64) -> ExperimentJob {
        let s = SyntheticScenario {
            cores: 4,
            vcs: 2,
            injection_rate: 0.15,
        };
        ExperimentJob {
            cfg: ExperimentConfig::new(NocConfig::paper_synthetic(s.cores, s.vcs), policy)
                .with_cycles(200, 1_500)
                .with_pv_seed(seed),
            traffic: TrafficSpec::Uniform {
                rate: s.effective_rate(),
                seed: seed ^ 0x7261_6666,
            },
        }
    }

    #[test]
    fn spec_key_is_stable_and_spreads() {
        assert_eq!(spec_key(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(spec_key("{\"a\":1}"), spec_key("{\"a\":2}"));
    }

    #[test]
    fn second_batch_is_served_entirely_from_cache() {
        let cache = MemoryCache::new();
        let batch = vec![
            job(PolicyKind::RrNoSensor, 3),
            job(PolicyKind::SensorWise, 3),
        ];
        let first = run_batch_cached(&batch, 2, &cache).unwrap();
        assert_eq!((first.hits, first.misses), (0, 2));
        assert_eq!(cache.len(), 2);
        let second = run_batch_cached(&batch, 2, &cache).unwrap();
        assert_eq!((second.hits, second.misses), (2, 0));
        // Byte-identical: hit and recompute encode to the same JSON.
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(a.to_json(), b.to_json());
        }
    }

    #[test]
    fn changed_seed_misses() {
        let cache = MemoryCache::new();
        let _ = run_batch_cached(&[job(PolicyKind::SensorWise, 3)], 1, &cache).unwrap();
        let other = run_batch_cached(&[job(PolicyKind::SensorWise, 4)], 1, &cache).unwrap();
        assert_eq!((other.hits, other.misses), (0, 1));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cached_results_match_uncached_run_batch() {
        let cache = MemoryCache::new();
        let batch = vec![
            job(PolicyKind::RrNoSensor, 9),
            job(PolicyKind::SensorWise, 9),
        ];
        // Warm the cache, then answer from it.
        let _ = run_batch_cached(&batch, 2, &cache).unwrap();
        let cached = run_batch_cached(&batch, 2, &cache).unwrap();
        assert_eq!(cached.hits, 2);
        let direct = crate::parallel::run_batch(&batch, 1);
        for (c, d) in cached.results.iter().zip(&direct) {
            assert_eq!(c, &WireResult::from(d));
        }
    }

    #[test]
    fn corrupted_entry_is_a_miss_and_gets_recomputed() {
        let cache = MemoryCache::new();
        let batch = vec![job(PolicyKind::SensorWise, 5)];
        let spec = spec_to_json(&batch[0]).unwrap();
        let first = run_batch_cached(&batch, 1, &cache).unwrap();
        // Corrupt the stored JSON behind the trait's back.
        cache
            .entries
            .lock()
            .unwrap()
            .insert(spec.clone(), "{\"policy\":".to_string());
        let again = run_batch_cached(&batch, 1, &cache).unwrap();
        assert_eq!((again.hits, again.misses), (0, 1));
        assert_eq!(again.results, first.results);
        // The recompute repaired the entry.
        assert!(cache.get(&spec).is_some());
    }
}
