//! Resuming a distributed campaign after a kill.
//!
//! The shared [`FsResultStore`] is the result plane every worker writes
//! finished epochs into, keyed by the canonical [`WireEpochRequest`] JSON.
//! Because the request for a given epoch is a deterministic function of
//! the campaign state, a resumed front end rebuilds byte-identical keys —
//! so an epoch whose worker filed its outcome before anyone died is
//! recovered straight from the store, no re-simulation and no worker
//! contact. A corrupt or undecodable entry reads as a miss (the store
//! checksums every entry) and the epoch is simply re-dispatched.

use crate::engine::{Campaign, CampaignError, EpochExecutor, EpochReport};
use crate::store::FsResultStore;
use sensorwise::{ResultCache, WireEpochOutcome, WireEpochRequest};

/// An executor that only answers from the shared result store: a hit
/// yields the stored outcome, a miss is a [`CampaignError::Dispatch`].
/// Never simulates and never contacts a worker — the recovery loop uses
/// the error as its stop condition.
#[derive(Debug)]
pub struct StoreExecutor<'a> {
    store: &'a FsResultStore,
}

impl<'a> StoreExecutor<'a> {
    /// An executor over `store`.
    pub fn new(store: &'a FsResultStore) -> StoreExecutor<'a> {
        StoreExecutor { store }
    }
}

impl EpochExecutor for StoreExecutor<'_> {
    fn execute(
        &self,
        index: u32,
        request: &WireEpochRequest,
    ) -> Result<WireEpochOutcome, CampaignError> {
        let key = request
            .to_json()
            .map_err(|e| CampaignError::Spec(e.to_string()))?;
        let doc = self.store.get_json(&key).ok_or_else(|| {
            CampaignError::Dispatch(format!("epoch {index} is not in the result store"))
        })?;
        WireEpochOutcome::from_json(&doc).map_err(|e| {
            CampaignError::Dispatch(format!(
                "stored outcome for epoch {index} is undecodable: {e}"
            ))
        })
    }
}

/// Integrates every consecutive epoch already present in the shared
/// store, stopping at the first miss (or campaign completion). Returns
/// the recovered reports; the caller dispatches whatever remains.
///
/// This is the first thing a `campaign resume --remote` does after
/// loading the checkpoint: epochs that finished on surviving workers
/// while the front end was dead are folded in for free, and only then do
/// the in-flight entries of the dispatch ledger go back out to the pool.
///
/// # Errors
///
/// Anything other than a store miss — a recovered outcome that fails
/// ledger integration, say — is a real [`CampaignError`].
pub fn recover_from_store(
    campaign: &mut Campaign,
    store: &FsResultStore,
) -> Result<Vec<EpochReport>, CampaignError> {
    let exec = StoreExecutor::new(store);
    let mut recovered = Vec::new();
    while !campaign.is_finished() {
        match campaign.run_next_epoch_with(&exec, Some(store as &dyn ResultCache)) {
            Ok(report) => recovered.push(report),
            Err(CampaignError::Dispatch(_)) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CampaignSpec, LocalExecutor};
    use sensorwise::policy::PolicyKind;
    use sensorwise::{ExperimentConfig, ExperimentJob, TrafficSpec};
    use std::fs;

    fn small_spec(epochs: u32) -> CampaignSpec {
        CampaignSpec {
            base: ExperimentJob {
                cfg: ExperimentConfig::new(
                    noc_sim::config::NocConfig::paper_synthetic(4, 2),
                    PolicyKind::SensorWise,
                )
                .with_cycles(200, 1_200)
                .with_pv_seed(17),
                traffic: TrafficSpec::Uniform {
                    rate: 0.12,
                    seed: 999,
                },
            },
            epochs,
            age_acceleration: 1.0e9,
            drain_limit: 5_000,
        }
    }

    fn temp_store(tag: &str) -> FsResultStore {
        let dir =
            std::env::temp_dir().join(format!("nbti-recovery-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        FsResultStore::open(dir).unwrap()
    }

    /// Simulates a worker having filed epoch outcomes into the shared
    /// store: runs a shadow campaign locally, writing each epoch's wire
    /// outcome under its request key.
    fn file_epochs(store: &FsResultStore, spec: CampaignSpec, epochs: u32) {
        let mut shadow = Campaign::new(spec).unwrap();
        for _ in 0..epochs {
            let request = shadow.epoch_request().unwrap();
            let key = request.to_json().unwrap();
            let outcome = LocalExecutor.execute(shadow.completed(), &request).unwrap();
            store.put_json(&key, &outcome.to_json());
            shadow.run_next_epoch(None).unwrap();
        }
    }

    #[test]
    fn recovers_filed_epochs_bit_identically_then_stops_at_the_miss() {
        let store = temp_store("partial");
        // A worker finished epochs 0 and 1 of a 4-epoch campaign before
        // the front end died.
        file_epochs(&store, small_spec(4), 2);

        let mut resumed = Campaign::new(small_spec(4)).unwrap();
        let recovered = recover_from_store(&mut resumed, &store).unwrap();
        assert_eq!(recovered.len(), 2, "exactly the filed epochs recover");
        assert_eq!(resumed.completed(), 2);

        // The recovered prefix is bit-identical to a pure local run.
        let mut local = Campaign::new(small_spec(4)).unwrap();
        local.run_next_epoch(None).unwrap();
        local.run_next_epoch(None).unwrap();
        assert_eq!(resumed.chained_digest(), local.chained_digest());
        assert_eq!(resumed.epoch_ends(), local.epoch_ends());

        // Finishing locally from the recovered state still matches an
        // uninterrupted run end-to-end.
        local.run_next_epoch(None).unwrap();
        local.run_next_epoch(None).unwrap();
        resumed.run_next_epoch(None).unwrap();
        resumed.run_next_epoch(None).unwrap();
        assert_eq!(resumed.chained_digest(), local.chained_digest());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_store_entry_is_a_miss_not_a_wrong_resume() {
        let store = temp_store("corrupt");
        file_epochs(&store, small_spec(2), 1);

        // Corrupt the filed entry in place: flip one byte of the stored
        // result text.
        let mut resumed = Campaign::new(small_spec(2)).unwrap();
        let key = resumed.epoch_request().unwrap().to_json().unwrap();
        let path = store
            .dir()
            .join(format!("{:016x}.json", sensorwise::spec_key(&key)));
        let text = fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("epoch_outcome", "epoch_outcomf", 1);
        assert_ne!(tampered, text);
        fs::write(&path, tampered).unwrap();

        // Recovery sees a miss and recovers nothing; it never serves the
        // damaged bytes.
        let recovered = recover_from_store(&mut resumed, &store).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(resumed.completed(), 0);

        // Recomputing heals the plane and the digest matches local.
        let request = resumed.epoch_request().unwrap();
        let outcome = LocalExecutor.execute(0, &request).unwrap();
        store.put_json(&request.to_json().unwrap(), &outcome.to_json());
        let recovered = recover_from_store(&mut resumed, &store).unwrap();
        assert_eq!(recovered.len(), 1);

        let mut local = Campaign::new(small_spec(2)).unwrap();
        local.run_next_epoch(None).unwrap();
        assert_eq!(resumed.chained_digest(), local.chained_digest());
        let _ = fs::remove_dir_all(store.dir());
    }
}
