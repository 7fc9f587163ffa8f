//! The lifetime campaign engine.
//!
//! A *campaign* chains epochs of the cycle-accurate experiment into one
//! simulated lifetime: each epoch resumes the network exactly where the
//! previous epoch left it (drained-boundary [`NetworkSnapshot`]), and the
//! per-buffer `ΔVth` accumulated by the [`LifetimeLedger`] feeds back into
//! the next epoch's sensor readings — so the gating policy under test
//! shapes the very degradation landscape it later reacts to (the paper's
//! sensor-wise feedback loop, extended across a lifetime).
//!
//! Determinism contract: a campaign checkpointed at any epoch boundary and
//! resumed from the snapshot produces bit-identical epoch digests, network
//! state and ledger trajectories to the uninterrupted run. The witness is
//! the chained [`EventDigest`] over the campaign's
//! [`EventKind::EpochEnd`] boundary events, verifiable cheaply from a
//! checkpoint alone.

use crate::ledger::{LedgerError, LifetimeLedger};
use crate::snapshot::SnapshotError;
use nbti_model::rd::RdState;
use nbti_model::{AlphaPowerModel, Volt};
use noc_sim::snapshot::NetworkSnapshot;
use noc_telemetry::{derive_id, EventDigest, EventKind, SpanKind, SpanLog, TraceEvent, NO_PARENT};
use sensorwise::codec::{json_string, spec_from_json, spec_to_json, JsonValue};
use sensorwise::experiment::SensorModel;
use sensorwise::{
    EpochError, ExperimentConfig, ExperimentJob, ResultCache, TrafficSpec, WireEpochOutcome,
    WireEpochRequest, WireResult,
};
use std::fmt;
use std::path::Path;
use std::sync::atomic::AtomicBool;

/// The per-epoch traffic-seed stride (the 64-bit golden-ratio constant):
/// epoch `e` injects with seed `base + e·stride`, giving every epoch an
/// independent but fully reproducible traffic stream.
pub const EPOCH_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Everything that defines a campaign: the base experiment and the
/// lifetime parameters layered on top of it.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// The base experiment (config + traffic recipe). Its seeds anchor all
    /// campaign randomness; its warmup/measure windows shape every epoch.
    pub base: ExperimentJob,
    /// How many epochs the campaign runs.
    pub epochs: u32,
    /// Lifetime scale factor: one simulated cycle ages the devices
    /// `age_acceleration × tclk` seconds.
    pub age_acceleration: f64,
    /// Maximum drain cycles tolerated at each epoch boundary before the
    /// epoch fails with a timeout.
    pub drain_limit: u64,
}

impl CampaignSpec {
    /// The injection seed for epoch `index` (epoch 0 keeps the base seed).
    pub fn epoch_seed(&self, index: u32) -> u64 {
        let base = match &self.base.traffic {
            TrafficSpec::Uniform { seed, .. }
            | TrafficSpec::Pattern { seed, .. }
            | TrafficSpec::Mix { seed, .. } => *seed,
        };
        base.wrapping_add(u64::from(index).wrapping_mul(EPOCH_SEED_STRIDE))
    }

    /// The canonical JSON form of this spec — the campaign's identity for
    /// content addressing and checkpoints. The base experiment is embedded
    /// as its own canonical wire-codec string, so two specs are equal iff
    /// their canonical JSON is equal.
    pub fn canonical_json(&self) -> Result<String, CampaignError> {
        let base = spec_to_json(&self.base).map_err(|e| CampaignError::Spec(e.to_string()))?;
        Ok(format!(
            "{{\"campaign\":{{\"epochs\":{},\"age_acceleration\":{},\"drain_limit\":{}}},\"base_spec\":{}}}",
            self.epochs,
            self.age_acceleration,
            self.drain_limit,
            json_string(&base)
        ))
    }

    /// Parses a spec back from its canonical JSON.
    pub fn from_json(text: &str) -> Result<CampaignSpec, CampaignError> {
        let bad = |msg: &str| CampaignError::Spec(msg.to_string());
        let v = JsonValue::parse(text).map_err(|e| CampaignError::Spec(e.to_string()))?;
        let c = v
            .get("campaign")
            .ok_or_else(|| bad("missing \"campaign\" object"))?;
        let epochs_raw = c
            .get("epochs")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| bad("missing or non-integer \"epochs\""))?;
        let epochs =
            u32::try_from(epochs_raw).map_err(|_| bad("\"epochs\" exceeds the supported range"))?;
        let age_acceleration = c
            .get("age_acceleration")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| bad("missing or non-numeric \"age_acceleration\""))?;
        let drain_limit = c
            .get("drain_limit")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| bad("missing or non-integer \"drain_limit\""))?;
        let base_text = v
            .get("base_spec")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| bad("missing \"base_spec\" string"))?;
        let base = spec_from_json(base_text).map_err(|e| CampaignError::Spec(e.to_string()))?;
        Ok(CampaignSpec {
            base,
            epochs,
            age_acceleration,
            drain_limit,
        })
    }
}

/// Why a campaign operation failed.
#[derive(Debug)]
pub enum CampaignError {
    /// Every epoch already ran; there is nothing left to do.
    Finished,
    /// The spec is unusable (zero epochs, bad acceleration, codec
    /// rejection, …).
    Spec(String),
    /// An epoch failed inside the experiment engine.
    Epoch(EpochError),
    /// The aging ledger rejected the epoch's duty totals.
    Ledger(LedgerError),
    /// A checkpoint could not be written or read.
    Snapshot(SnapshotError),
    /// An epoch produced no trace digest (telemetry harvest missing).
    MissingTrace,
    /// A remote dispatch could not be completed: every worker refused,
    /// died, or the retry budget ran out.
    Dispatch(String),
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Finished => write!(f, "campaign already ran all its epochs"),
            CampaignError::Spec(msg) => write!(f, "invalid campaign spec: {msg}"),
            CampaignError::Epoch(e) => write!(f, "epoch failed: {e}"),
            CampaignError::Ledger(e) => write!(f, "aging ledger rejected the epoch: {e}"),
            CampaignError::Snapshot(e) => write!(f, "checkpoint error: {e}"),
            CampaignError::MissingTrace => {
                write!(
                    f,
                    "epoch returned no trace digest despite tracing being forced on"
                )
            }
            CampaignError::Dispatch(msg) => write!(f, "remote dispatch failed: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Epoch(e) => Some(e),
            CampaignError::Ledger(e) => Some(e),
            CampaignError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EpochError> for CampaignError {
    fn from(e: EpochError) -> Self {
        CampaignError::Epoch(e)
    }
}

impl From<LedgerError> for CampaignError {
    fn from(e: LedgerError) -> Self {
        CampaignError::Ledger(e)
    }
}

impl From<SnapshotError> for CampaignError {
    fn from(e: SnapshotError) -> Self {
        CampaignError::Snapshot(e)
    }
}

/// Where a campaign's epochs actually run.
///
/// The engine never simulates directly: it builds a [`WireEpochRequest`]
/// for the next epoch, hands it to an executor, and integrates the
/// returned [`WireEpochOutcome`]. Because *both* the in-process
/// [`LocalExecutor`] and the service-backed remote executor consume the
/// same wire types, a remote campaign is bit-identical to a local one by
/// construction — the only thing an executor may vary is *where* the
/// deterministic function runs, never its inputs or outputs.
pub trait EpochExecutor {
    /// Runs epoch `index` described by `request` to completion.
    ///
    /// # Errors
    ///
    /// Simulation failures ([`CampaignError::Epoch`]) or, for remote
    /// executors, exhausted dispatch attempts ([`CampaignError::Spec`] is
    /// never used here; remotes surface [`CampaignError::Dispatch`]).
    fn execute(
        &self,
        index: u32,
        request: &WireEpochRequest,
    ) -> Result<WireEpochOutcome, CampaignError>;

    /// The executor's span log, when it records dispatch timing. The
    /// engine parents its `integrate` spans under the matching epoch span.
    fn span_log(&self) -> Option<&SpanLog> {
        None
    }
}

/// Runs epochs in-process, on the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalExecutor;

impl EpochExecutor for LocalExecutor {
    fn execute(
        &self,
        _index: u32,
        request: &WireEpochRequest,
    ) -> Result<WireEpochOutcome, CampaignError> {
        static NEVER: AtomicBool = AtomicBool::new(false);
        let outcome = request.run_cancellable(&NEVER)?;
        Ok(WireEpochOutcome::from(&outcome))
    }
}

/// One in-flight (or historical) remote dispatch, as recorded in the
/// checkpoint's coordination log. An entry present in a loaded checkpoint
/// means the front end died while that epoch was out on that worker — the
/// resume path re-dispatches it (the shared result store absorbs the
/// duplicate if the original worker finished the job before dying).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchEntry {
    /// The epoch that was dispatched.
    pub epoch: u32,
    /// The worker address it went to.
    pub worker: String,
    /// Zero-based attempt number (bumps on reassignment).
    pub attempt: u32,
}

/// What one finished epoch reports back.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Zero-based epoch index.
    pub index: u32,
    /// The network cycle at the drained epoch boundary.
    pub end_cycle: u64,
    /// The epoch's own whole-stream event digest.
    pub digest: u64,
    /// The campaign digest chained over all boundary events so far.
    pub chained_digest: u64,
    /// Drain cycles spent settling in-flight traffic at the boundary.
    pub drain_cycles: u64,
    /// Worst accumulated `ΔVth` across all buffers after this epoch (mV).
    pub max_delta_vth_mv: f64,
    /// Worst per-buffer critical-path delay degradation after this epoch
    /// (percent, alpha-power model).
    pub worst_delay_degradation_percent: f64,
    /// The epoch's measurement window, in wire form.
    pub result: WireResult,
}

/// A running (or resumed) lifetime campaign.
#[derive(Debug, Clone)]
pub struct Campaign {
    pub(crate) spec: CampaignSpec,
    pub(crate) spec_json: String,
    pub(crate) cfg: ExperimentConfig,
    pub(crate) completed: u32,
    pub(crate) epoch_ends: Vec<(u64, u64)>,
    pub(crate) net: Option<NetworkSnapshot>,
    pub(crate) ledger: Option<LifetimeLedger>,
    pub(crate) dispatch: Vec<DispatchEntry>,
}

impl Campaign {
    /// Starts a fresh campaign.
    ///
    /// The base spec is normalized through the wire codec (serialize +
    /// reparse) so an uninterrupted run and a checkpoint-resumed run use
    /// byte-identical configurations, and event tracing is forced on —
    /// the per-epoch digest is the campaign's determinism witness, not an
    /// optional extra.
    pub fn new(spec: CampaignSpec) -> Result<Campaign, CampaignError> {
        if spec.epochs == 0 {
            return Err(CampaignError::Spec(
                "a campaign needs at least one epoch".to_string(),
            ));
        }
        if !spec.age_acceleration.is_finite() || spec.age_acceleration <= 0.0 {
            return Err(CampaignError::Spec(format!(
                "age acceleration must be finite and positive (got {})",
                spec.age_acceleration
            )));
        }
        if spec.drain_limit == 0 {
            return Err(CampaignError::Spec(
                "drain limit must be at least 1 cycle".to_string(),
            ));
        }
        if !matches!(spec.base.cfg.sensor, SensorModel::Ideal) {
            return Err(CampaignError::Epoch(EpochError::UnsupportedSensor));
        }
        let base_json = spec_to_json(&spec.base).map_err(|e| CampaignError::Spec(e.to_string()))?;
        let base = spec_from_json(&base_json).map_err(|e| CampaignError::Spec(e.to_string()))?;
        let spec = CampaignSpec { base, ..spec };
        let spec_json = spec.canonical_json()?;
        let mut cfg = spec.base.cfg.clone();
        cfg.telemetry.trace = true;
        Ok(Campaign {
            spec,
            spec_json,
            cfg,
            completed: 0,
            epoch_ends: Vec::new(),
            net: None,
            ledger: None,
            dispatch: Vec::new(),
        })
    }

    /// Rebuilds a campaign from decoded checkpoint parts, cross-checking
    /// their internal consistency (used by the snapshot codec).
    pub(crate) fn from_parts(
        spec: CampaignSpec,
        completed: u32,
        epoch_ends: Vec<(u64, u64)>,
        net: Option<NetworkSnapshot>,
        states: Option<Vec<Vec<(Volt, RdState)>>>,
    ) -> Result<Campaign, SnapshotError> {
        let mut campaign =
            Campaign::new(spec).map_err(|e| SnapshotError::Malformed(e.to_string()))?;
        if u64::from(completed) != epoch_ends.len() as u64 {
            return Err(SnapshotError::Malformed(format!(
                "completed-epoch count {completed} disagrees with {} boundary records",
                epoch_ends.len()
            )));
        }
        if completed > campaign.spec.epochs {
            return Err(SnapshotError::Malformed(format!(
                "checkpoint claims {completed} completed epochs of a {}-epoch campaign",
                campaign.spec.epochs
            )));
        }
        if (completed > 0) != net.is_some() || (completed > 0) != states.is_some() {
            return Err(SnapshotError::Malformed(
                "network/ledger state must be present exactly when epochs completed".to_string(),
            ));
        }
        campaign.ledger = match states {
            Some(rows) => Some(
                LifetimeLedger::from_states(
                    &rows,
                    campaign.cfg.model,
                    campaign.spec.age_acceleration,
                )
                .map_err(|e| SnapshotError::Malformed(e.to_string()))?,
            ),
            None => None,
        };
        campaign.completed = completed;
        campaign.epoch_ends = epoch_ends;
        campaign.net = net;
        Ok(campaign)
    }

    /// The campaign's spec.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// The canonical spec JSON — the campaign's content address.
    pub fn spec_json(&self) -> &str {
        &self.spec_json
    }

    /// Epochs finished so far.
    pub fn completed(&self) -> u32 {
        self.completed
    }

    /// `true` once every epoch has run.
    pub fn is_finished(&self) -> bool {
        self.completed >= self.spec.epochs
    }

    /// Per-epoch `(end cycle, digest)` boundary records.
    pub fn epoch_ends(&self) -> &[(u64, u64)] {
        &self.epoch_ends
    }

    /// The network cycle of the latest drained boundary, if any epoch ran.
    pub fn current_cycle(&self) -> Option<u64> {
        self.net.as_ref().map(|snapshot| snapshot.cycle)
    }

    /// The aging ledger, once epoch 0 has seeded it.
    pub fn ledger(&self) -> Option<&LifetimeLedger> {
        self.ledger.as_ref()
    }

    /// The campaign-level determinism witness: an [`EventDigest`] folded
    /// over one [`EventKind::EpochEnd`] event per finished epoch. Equal
    /// chained digests mean equal epoch boundaries — cycle, stream digest
    /// and order — which the resume tests tie back to bit-identical state.
    pub fn chained_digest(&self) -> u64 {
        let mut digest = EventDigest::new();
        for (i, &(cycle, epoch_digest)) in self.epoch_ends.iter().enumerate() {
            digest.update(&TraceEvent {
                cycle,
                kind: EventKind::EpochEnd {
                    index: i as u32,
                    digest: epoch_digest,
                },
            });
        }
        digest.value()
    }

    /// The content-address under which epoch `index` of this campaign is
    /// filed in a result store.
    pub fn epoch_store_key(&self, index: u32) -> String {
        format!(
            "{{\"campaign_epoch\":{index},\"campaign\":{}}}",
            self.spec_json
        )
    }

    /// The checkpoint's coordination log: dispatches that were in flight
    /// when the checkpoint was written.
    pub fn dispatch_ledger(&self) -> &[DispatchEntry] {
        &self.dispatch
    }

    /// Records an in-flight dispatch (checkpoint it before dispatching so
    /// a front-end death leaves a visible trail).
    pub fn push_dispatch(&mut self, entry: DispatchEntry) {
        self.dispatch.push(entry);
    }

    /// Clears the in-flight ledger (the epoch's outcome is integrated).
    pub fn clear_dispatch(&mut self) {
        self.dispatch.clear();
    }

    /// Builds the wire request describing the *next* epoch: the base
    /// experiment re-seeded for this epoch, the drained boundary snapshot
    /// to resume from, and the ledger's aged threshold voltages. This is
    /// the complete, self-contained input a worker needs — local and
    /// remote execution consume the identical request.
    pub fn epoch_request(&self) -> Result<WireEpochRequest, CampaignError> {
        if self.is_finished() {
            return Err(CampaignError::Finished);
        }
        let index = self.completed;
        let traffic = self
            .spec
            .base
            .traffic
            .with_seed(self.spec.epoch_seed(index));
        let base = ExperimentJob {
            cfg: self.cfg.clone(),
            traffic,
        };
        let vths_bits = self
            .ledger
            .as_ref()
            .map(|ledger| WireEpochRequest::encode_vths(&ledger.aged_vths()));
        Ok(WireEpochRequest {
            base,
            resume: self.net.clone(),
            vths_bits,
            drain_limit: self.spec.drain_limit,
        })
    }

    /// Folds a finished epoch's wire outcome into the campaign: seeds or
    /// ages the ledger, advances the boundary chain, and files the result.
    fn integrate_outcome(
        &mut self,
        index: u32,
        wire: WireEpochOutcome,
        store: Option<&dyn ResultCache>,
    ) -> Result<EpochReport, CampaignError> {
        let digest = wire
            .result
            .trace_digest
            .ok_or(CampaignError::MissingTrace)?;
        if self.ledger.is_none() {
            let initial = wire.initial_vths();
            self.ledger = Some(LifetimeLedger::new(
                &initial,
                self.cfg.model,
                self.spec.age_acceleration,
            )?);
        }
        let (max_delta_vth_mv, worst_delay) = match self.ledger.as_mut() {
            Some(ledger) => {
                ledger.integrate_epoch(&wire.duty_totals)?;
                (
                    ledger.max_delta_vth_mv(),
                    ledger.worst_delay_degradation_percent(&AlphaPowerModel::paper_45nm()),
                )
            }
            None => (0.0, 0.0),
        };
        let end_cycle = wire.snapshot.cycle;
        self.epoch_ends.push((end_cycle, digest));
        self.net = Some(wire.snapshot);
        self.completed = index + 1;
        if let Some(store) = store {
            store.put(&self.epoch_store_key(index), &wire.result);
        }
        Ok(EpochReport {
            index,
            end_cycle,
            digest,
            chained_digest: self.chained_digest(),
            drain_cycles: wire.drain_cycles,
            max_delta_vth_mv,
            worst_delay_degradation_percent: worst_delay,
            result: wire.result,
        })
    }

    /// Runs the next epoch through `exec`: builds the wire request,
    /// executes it (locally or on a remote worker), then integrates the
    /// wire outcome. When the executor carries a [`SpanLog`], the
    /// integration step is recorded as an `integrate` span parented under
    /// the epoch's derived span id.
    pub fn run_next_epoch_with(
        &mut self,
        exec: &dyn EpochExecutor,
        store: Option<&dyn ResultCache>,
    ) -> Result<EpochReport, CampaignError> {
        let index = self.completed;
        let request = self.epoch_request()?;
        let wire = exec.execute(index, &request)?;
        let started = exec.span_log().map(SpanLog::now_us);
        let report = self.integrate_outcome(index, wire, store)?;
        if let (Some(log), Some(start)) = (exec.span_log(), started) {
            let parent = derive_id(SpanKind::Epoch, &format!("epoch-{index}"), NO_PARENT);
            log.record(
                SpanKind::Integrate,
                &format!("integrate-e{index}"),
                parent,
                start,
            );
        }
        Ok(report)
    }

    /// Runs the next epoch: resumes the drained network, seeds sensors
    /// with the ledger's aged `Vth`s, simulates warmup + measurement +
    /// drain, then folds the epoch's duty totals back into the ledger.
    ///
    /// When a `store` is given, the epoch's wire result is persisted under
    /// [`epoch_store_key`](Campaign::epoch_store_key) for later inspection
    /// (`campaign status`, the service's cache endpoints). Epochs are
    /// never *served* from the store — the snapshot chain, not the result
    /// cache, is the resume mechanism.
    pub fn run_next_epoch(
        &mut self,
        store: Option<&dyn ResultCache>,
    ) -> Result<EpochReport, CampaignError> {
        self.run_next_epoch_with(&LocalExecutor, store)
    }

    /// Runs every remaining epoch, checkpointing after each one when a
    /// path is given (so a kill at any moment loses at most the epoch in
    /// flight).
    pub fn run_to_completion(
        &mut self,
        store: Option<&dyn ResultCache>,
        checkpoint: Option<&Path>,
    ) -> Result<Vec<EpochReport>, CampaignError> {
        let mut reports = Vec::new();
        while !self.is_finished() {
            let report = self.run_next_epoch(store)?;
            if let Some(path) = checkpoint {
                self.save(path)?;
            }
            reports.push(report);
        }
        Ok(reports)
    }
}
