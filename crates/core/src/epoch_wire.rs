//! Wire types for campaign epochs: the unit of distributed execution.
//!
//! A campaign epoch is fully described by four inputs — the base
//! experiment spec, the drained-boundary [`NetworkSnapshot`] it resumes
//! from, the aged per-VC threshold voltages carried by the lifetime
//! ledger, and the drain budget. [`WireEpochRequest`] carries exactly
//! those four over the service's JSON codec, and [`WireEpochOutcome`]
//! carries back everything the campaign engine integrates: the
//! [`WireResult`], the boundary snapshot, the duty totals and the
//! epoch-0 initial voltages the ledger seeds from.
//!
//! Encoding rules that keep the distributed path bit-identical to the
//! local one:
//!
//! * every integer crosses as a JSON number whose raw text round-trips
//!   `u64` exactly (the codec never squeezes numbers through `f64`);
//! * every `f64` (threshold voltages) crosses as its IEEE-754 bit
//!   pattern in a `u64`, so `decode(encode(x))` is the *same float*,
//!   not a close one;
//! * `to_json` is canonical — encode∘decode∘encode is byte-identical —
//!   so the request text doubles as the content address under which
//!   workers file the outcome in the shared result store.

use crate::codec::{json_string, spec_from_json, spec_to_json, CodecError, JsonValue, WireResult};
use crate::experiment::{run_epoch_cancellable, EpochError, EpochOutcome};
use crate::parallel::ExperimentJob;
use nbti_model::Volt;
use noc_sim::snapshot::{NetworkSnapshot, PortState};
use noc_sim::stats::{NetStats, LATENCY_BUCKETS};
use noc_telemetry::WorkCounters;
use std::sync::atomic::AtomicBool;

/// One campaign epoch, as shipped to a `noc-service` worker.
#[derive(Debug, Clone)]
pub struct WireEpochRequest {
    /// The base experiment (config + traffic recipe). The traffic seed is
    /// already the *epoch* seed — the campaign front end applies the
    /// per-epoch stride before building the request.
    pub base: ExperimentJob,
    /// The predecessor epoch's boundary snapshot, absent for epoch 0.
    pub resume: Option<NetworkSnapshot>,
    /// Aged per-port, per-VC threshold voltages as IEEE-754 bit patterns,
    /// absent for epoch 0 (the worker then samples process variation from
    /// the spec's `pv_seed`, exactly as a local run would).
    pub vths_bits: Option<Vec<Vec<u64>>>,
    /// Post-measurement drain budget in cycles.
    pub drain_limit: u64,
}

impl WireEpochRequest {
    /// The aged voltages, decoded bit-exactly.
    #[must_use]
    pub fn vths(&self) -> Option<Vec<Vec<Volt>>> {
        self.vths_bits.as_ref().map(|ports| {
            ports
                .iter()
                .map(|vcs| vcs.iter().map(|&b| Volt::from_volts(f64::from_bits(b))).collect())
                .collect()
        })
    }

    /// Encodes the aged voltages of a ledger into wire bit patterns.
    #[must_use]
    pub fn encode_vths(vths: &[Vec<Volt>]) -> Vec<Vec<u64>> {
        vths.iter()
            .map(|vcs| vcs.iter().map(|v| v.as_volts().to_bits()).collect())
            .collect()
    }

    /// Encodes the request as canonical JSON (also its content address).
    ///
    /// # Errors
    ///
    /// Returns an error when the base spec is not wire-encodable.
    pub fn to_json(&self) -> Result<String, CodecError> {
        let spec = spec_to_json(&self.base)?;
        let mut out = String::with_capacity(512);
        out.push_str("{\"kind\":\"epoch\",\"drain_limit\":");
        out.push_str(&self.drain_limit.to_string());
        out.push_str(",\"base_spec\":");
        out.push_str(&json_string(&spec));
        out.push_str(",\"vths\":");
        match &self.vths_bits {
            None => out.push_str("null"),
            Some(ports) => push_u64_matrix(&mut out, ports),
        }
        out.push_str(",\"resume\":");
        match &self.resume {
            None => out.push_str("null"),
            Some(snap) => push_snapshot(&mut out, snap),
        }
        out.push('}');
        Ok(out)
    }

    /// Decodes a request from its wire JSON.
    ///
    /// # Errors
    ///
    /// Returns an error on syntax problems, a missing `kind` marker, or an
    /// invalid embedded spec.
    pub fn from_json(text: &str) -> Result<WireEpochRequest, CodecError> {
        let root = JsonValue::parse(text)?;
        if root.get("kind").and_then(JsonValue::as_str) != Some("epoch") {
            return Err(CodecError::new("not an epoch request (missing kind)"));
        }
        let spec = root
            .get("base_spec")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| CodecError::new("epoch request missing `base_spec`"))?;
        let base = spec_from_json(spec)?;
        let vths_bits = match root.get("vths") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(read_u64_matrix(v, "vths")?),
        };
        let resume = match root.get("resume") {
            None | Some(JsonValue::Null) => None,
            Some(v) => Some(read_snapshot(v)?),
        };
        Ok(WireEpochRequest {
            base,
            resume,
            vths_bits,
            drain_limit: root
                .get("drain_limit")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| CodecError::new("epoch request missing `drain_limit`"))?,
        })
    }

    /// Runs the epoch this request describes, honouring a cooperative
    /// cancellation flag. This is the worker-side entry point; it is the
    /// exact code path a local campaign takes, so served and local epochs
    /// are bit-identical by construction.
    ///
    /// # Errors
    ///
    /// Propagates [`EpochError`] from the engine (cancellation, drain
    /// timeout, snapshot rejection, unsupported sensor).
    ///
    /// # Panics
    ///
    /// Panics if the embedded network configuration is invalid (decoding
    /// validates it, so a request that decoded cleanly never panics).
    pub fn run_cancellable(&self, cancel: &AtomicBool) -> Result<EpochOutcome, EpochError> {
        let vths = self.vths();
        let mut traffic = self.base.traffic.build(&self.base.cfg.noc);
        run_epoch_cancellable(
            &self.base.cfg,
            traffic.as_mut(),
            self.resume.as_ref(),
            vths.as_deref(),
            self.drain_limit,
            cancel,
        )
    }
}

/// `true` when a service submission body is an epoch request rather than a
/// plain experiment spec (cheap structural probe, no full decode).
#[must_use]
pub fn is_epoch_request(text: &str) -> bool {
    JsonValue::parse(text)
        .ok()
        .and_then(|root| root.get("kind").and_then(JsonValue::as_str).map(|k| k == "epoch"))
        .unwrap_or(false)
}

/// Everything a worker hands back from one epoch: the measurement, the
/// boundary snapshot, the aging inputs for the ledger, and the epoch-0
/// initial voltages the ledger seeds from.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEpochOutcome {
    /// The epoch's measurement in wire form.
    pub result: WireResult,
    /// Per-port initial threshold voltages as IEEE-754 bit patterns
    /// (ledger seed on epoch 0).
    pub initial_vths_bits: Vec<Vec<u64>>,
    /// Per-port, per-VC `(stress, recovery)` cycle totals.
    pub duty_totals: Vec<Vec<(u64, u64)>>,
    /// The drained boundary state the next epoch resumes from.
    pub snapshot: NetworkSnapshot,
    /// Cycles spent draining and settling after the measured window.
    pub drain_cycles: u64,
}

impl From<&EpochOutcome> for WireEpochOutcome {
    fn from(o: &EpochOutcome) -> Self {
        WireEpochOutcome {
            result: WireResult::from(&o.result),
            initial_vths_bits: o
                .result
                .ports
                .iter()
                .map(|p| p.initial_vths.iter().map(|v| v.as_volts().to_bits()).collect())
                .collect(),
            duty_totals: o.duty_totals.clone(),
            snapshot: o.snapshot.clone(),
            drain_cycles: o.drain_cycles,
        }
    }
}

impl WireEpochOutcome {
    /// The per-port initial voltages, decoded bit-exactly.
    #[must_use]
    pub fn initial_vths(&self) -> Vec<Vec<Volt>> {
        self.initial_vths_bits
            .iter()
            .map(|vcs| vcs.iter().map(|&b| Volt::from_volts(f64::from_bits(b))).collect())
            .collect()
    }

    /// Encodes the outcome as canonical JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"kind\":\"epoch_outcome\",\"drain_cycles\":");
        out.push_str(&self.drain_cycles.to_string());
        out.push_str(",\"result\":");
        out.push_str(&json_string(&self.result.to_json()));
        out.push_str(",\"initial_vths\":");
        push_u64_matrix(&mut out, &self.initial_vths_bits);
        out.push_str(",\"duty\":[");
        for (i, port) in self.duty_totals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, (s, r)) in port.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{s},{r}]"));
            }
            out.push(']');
        }
        out.push_str("],\"snapshot\":");
        push_snapshot(&mut out, &self.snapshot);
        out.push('}');
        out
    }

    /// Decodes an outcome from its wire JSON.
    ///
    /// # Errors
    ///
    /// Returns an error on syntax problems or missing required fields —
    /// callers reading through a result store treat any error as a cache
    /// miss and recompute.
    pub fn from_json(text: &str) -> Result<WireEpochOutcome, CodecError> {
        let root = JsonValue::parse(text)?;
        if root.get("kind").and_then(JsonValue::as_str) != Some("epoch_outcome") {
            return Err(CodecError::new("not an epoch outcome (missing kind)"));
        }
        let result_text = root
            .get("result")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| CodecError::new("epoch outcome missing `result`"))?;
        let result = WireResult::from_json(result_text)?;
        let initial_vths_bits = read_u64_matrix(
            root.get("initial_vths")
                .ok_or_else(|| CodecError::new("epoch outcome missing `initial_vths`"))?,
            "initial_vths",
        )?;
        let mut duty_totals = Vec::new();
        for port in root
            .get("duty")
            .and_then(JsonValue::as_arr)
            .ok_or_else(|| CodecError::new("epoch outcome missing `duty`"))?
        {
            let mut rows = Vec::new();
            for pair in port
                .as_arr()
                .ok_or_else(|| CodecError::new("duty rows must be arrays"))?
            {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| CodecError::new("duty entries must be [stress,recovery]"))?;
                rows.push((
                    pair[0]
                        .as_u64()
                        .ok_or_else(|| CodecError::new("duty stress must be u64"))?,
                    pair[1]
                        .as_u64()
                        .ok_or_else(|| CodecError::new("duty recovery must be u64"))?,
                ));
            }
            duty_totals.push(rows);
        }
        let snapshot = read_snapshot(
            root.get("snapshot")
                .ok_or_else(|| CodecError::new("epoch outcome missing `snapshot`"))?,
        )?;
        Ok(WireEpochOutcome {
            result,
            initial_vths_bits,
            duty_totals,
            snapshot,
            drain_cycles: root
                .get("drain_cycles")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| CodecError::new("epoch outcome missing `drain_cycles`"))?,
        })
    }
}

fn push_u64_list(out: &mut String, items: &[u64]) {
    out.push('[');
    for (i, v) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn push_u64_matrix(out: &mut String, rows: &[Vec<u64>]) {
    out.push('[');
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_u64_list(out, row);
    }
    out.push(']');
}

fn read_u64_list(v: &JsonValue, what: &str) -> Result<Vec<u64>, CodecError> {
    v.as_arr()
        .ok_or_else(|| CodecError::new(format!("`{what}` must be an array")))?
        .iter()
        .map(|x| {
            x.as_u64()
                .ok_or_else(|| CodecError::new(format!("`{what}` entries must be u64")))
        })
        .collect()
}

fn read_u64_matrix(v: &JsonValue, what: &str) -> Result<Vec<Vec<u64>>, CodecError> {
    v.as_arr()
        .ok_or_else(|| CodecError::new(format!("`{what}` must be an array")))?
        .iter()
        .map(|row| read_u64_list(row, what))
        .collect()
}

fn req_u64(obj: &JsonValue, key: &str) -> Result<u64, CodecError> {
    obj.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| CodecError::new(format!("snapshot missing `{key}`")))
}

fn push_snapshot(out: &mut String, snap: &NetworkSnapshot) {
    out.push_str(&format!(
        "{{\"cycle\":{},\"next_packet\":{},\"flits_sent_total\":{},\"flits_ejected_total\":{}",
        snap.cycle, snap.next_packet, snap.flits_sent_total, snap.flits_ejected_total
    ));
    let s = &snap.stats;
    out.push_str(&format!(
        ",\"stats\":{{\"packets_injected\":{},\"packets_ejected\":{},\"flits_sent\":{},\
         \"flits_ejected\":{},\"latency_sum\":{},\"latency_max\":{},\"latency_histogram\":",
        s.packets_injected, s.packets_ejected, s.flits_sent, s.flits_ejected, s.latency_sum,
        s.latency_max
    ));
    push_u64_list(out, &s.latency_histogram);
    out.push_str(&format!(
        ",\"invariant_checks\":{},\"invariant_violations\":{}}}",
        s.invariant_checks, s.invariant_violations
    ));
    let w = &snap.work;
    out.push_str(&format!(
        ",\"work\":{{\"bw_writes\":{},\"rc_computes\":{},\"va_grants\":{},\"sa_grants\":{},\
         \"gate_commands\":{},\"policy_evaluations\":{},\"sensor_reads\":{}}}",
        w.bw_writes, w.rc_computes, w.va_grants, w.sa_grants, w.gate_commands,
        w.policy_evaluations, w.sensor_reads
    ));
    out.push_str(",\"ports\":[");
    for (i, p) in snap.ports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"powered_mask\":{},\"allocatable_mask\":{},\"usable_at\":",
            p.powered_mask, p.allocatable_mask
        ));
        push_u64_list(out, &p.usable_at);
        out.push_str(&format!(
            ",\"gate_transitions\":{},\"flits_received\":{}}}",
            p.gate_transitions, p.flits_received
        ));
    }
    out.push_str("],\"arbiters\":");
    let arbs: Vec<u64> = snap.arbiters.iter().map(|&a| u64::from(a)).collect();
    push_u64_list(out, &arbs);
    out.push('}');
}

fn read_snapshot(v: &JsonValue) -> Result<NetworkSnapshot, CodecError> {
    let stats_obj = v
        .get("stats")
        .ok_or_else(|| CodecError::new("snapshot missing `stats`"))?;
    let hist = read_u64_list(
        stats_obj
            .get("latency_histogram")
            .ok_or_else(|| CodecError::new("snapshot missing `latency_histogram`"))?,
        "latency_histogram",
    )?;
    if hist.len() != LATENCY_BUCKETS {
        return Err(CodecError::new(format!(
            "latency_histogram has {} buckets, expected {LATENCY_BUCKETS}",
            hist.len()
        )));
    }
    let mut latency_histogram = [0u64; LATENCY_BUCKETS];
    latency_histogram.copy_from_slice(&hist);
    let stats = NetStats {
        packets_injected: req_u64(stats_obj, "packets_injected")?,
        packets_ejected: req_u64(stats_obj, "packets_ejected")?,
        flits_sent: req_u64(stats_obj, "flits_sent")?,
        flits_ejected: req_u64(stats_obj, "flits_ejected")?,
        latency_sum: req_u64(stats_obj, "latency_sum")?,
        latency_max: req_u64(stats_obj, "latency_max")?,
        latency_histogram,
        invariant_checks: req_u64(stats_obj, "invariant_checks")?,
        invariant_violations: req_u64(stats_obj, "invariant_violations")?,
    };
    let work_obj = v
        .get("work")
        .ok_or_else(|| CodecError::new("snapshot missing `work`"))?;
    let work = WorkCounters {
        bw_writes: req_u64(work_obj, "bw_writes")?,
        rc_computes: req_u64(work_obj, "rc_computes")?,
        va_grants: req_u64(work_obj, "va_grants")?,
        sa_grants: req_u64(work_obj, "sa_grants")?,
        gate_commands: req_u64(work_obj, "gate_commands")?,
        policy_evaluations: req_u64(work_obj, "policy_evaluations")?,
        sensor_reads: req_u64(work_obj, "sensor_reads")?,
    };
    let mut ports = Vec::new();
    for p in v
        .get("ports")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| CodecError::new("snapshot missing `ports`"))?
    {
        let powered = req_u64(p, "powered_mask")?;
        let allocatable = req_u64(p, "allocatable_mask")?;
        ports.push(PortState {
            powered_mask: u32::try_from(powered)
                .map_err(|_| CodecError::new("powered_mask out of range"))?,
            allocatable_mask: u32::try_from(allocatable)
                .map_err(|_| CodecError::new("allocatable_mask out of range"))?,
            usable_at: read_u64_list(
                p.get("usable_at")
                    .ok_or_else(|| CodecError::new("port state missing `usable_at`"))?,
                "usable_at",
            )?,
            gate_transitions: req_u64(p, "gate_transitions")?,
            flits_received: req_u64(p, "flits_received")?,
        });
    }
    let arbiters = read_u64_list(
        v.get("arbiters")
            .ok_or_else(|| CodecError::new("snapshot missing `arbiters`"))?,
        "arbiters",
    )?
    .into_iter()
    .map(|a| u32::try_from(a).map_err(|_| CodecError::new("arbiter pointer out of range")))
    .collect::<Result<Vec<u32>, _>>()?;
    Ok(NetworkSnapshot {
        cycle: req_u64(v, "cycle")?,
        next_packet: req_u64(v, "next_packet")?,
        flits_sent_total: req_u64(v, "flits_sent_total")?,
        flits_ejected_total: req_u64(v, "flits_ejected_total")?,
        stats,
        work,
        ports,
        arbiters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentConfig, SyntheticScenario};
    use crate::parallel::TrafficSpec;
    use crate::policy::PolicyKind;
    use noc_sim::config::NocConfig;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn epoch_job() -> ExperimentJob {
        let s = SyntheticScenario {
            cores: 4,
            vcs: 2,
            injection_rate: 0.15,
        };
        let mut cfg = ExperimentConfig::new(
            NocConfig::paper_synthetic(s.cores, s.vcs),
            PolicyKind::SensorWise,
        )
        .with_cycles(200, 1_200)
        .with_pv_seed(7);
        cfg.telemetry.trace = true;
        ExperimentJob {
            cfg,
            traffic: TrafficSpec::Uniform {
                rate: s.effective_rate(),
                seed: 0xA5A5,
            },
        }
    }

    #[test]
    fn request_round_trips_canonically() {
        let req = WireEpochRequest {
            base: epoch_job(),
            resume: None,
            vths_bits: Some(vec![vec![0.42f64.to_bits(), 0.43f64.to_bits()]]),
            drain_limit: 9_999,
        };
        let text = req.to_json().unwrap();
        assert!(is_epoch_request(&text));
        let back = WireEpochRequest::from_json(&text).unwrap();
        assert_eq!(back.drain_limit, req.drain_limit);
        assert_eq!(back.vths_bits, req.vths_bits);
        // Canonical: re-encode is byte-identical (the content address).
        assert_eq!(back.to_json().unwrap(), text);
        // A plain experiment spec is not an epoch request.
        assert!(!is_epoch_request(&spec_to_json(&epoch_job()).unwrap()));
    }

    #[test]
    fn outcome_round_trips_bit_exactly_including_snapshot() {
        let never = AtomicBool::new(false);
        let req = WireEpochRequest {
            base: epoch_job(),
            resume: None,
            vths_bits: None,
            drain_limit: 10_000,
        };
        let outcome = req.run_cancellable(&never).unwrap();
        let wire = WireEpochOutcome::from(&outcome);
        let text = wire.to_json();
        let back = WireEpochOutcome::from_json(&text).unwrap();
        assert_eq!(back, wire);
        assert_eq!(back.snapshot, outcome.snapshot);
        assert_eq!(back.duty_totals, outcome.duty_totals);
        assert_eq!(back.to_json(), text);
        // Voltages decode to the same floats, bit for bit.
        for (a, b) in back
            .initial_vths()
            .iter()
            .flatten()
            .zip(outcome.result.ports.iter().flat_map(|p| &p.initial_vths))
        {
            assert_eq!(a.as_volts().to_bits(), b.as_volts().to_bits());
        }
    }

    #[test]
    fn served_epoch_chain_is_bit_identical_to_local() {
        let never = AtomicBool::new(false);
        // Epoch 0 locally.
        let job = epoch_job();
        let mut traffic = job.traffic.build(&job.cfg.noc);
        let local0 =
            crate::experiment::run_epoch(&job.cfg, traffic.as_mut(), None, None, 10_000).unwrap();
        // Epoch 0 through the wire.
        let req0 = WireEpochRequest {
            base: job.clone(),
            resume: None,
            vths_bits: None,
            drain_limit: 10_000,
        };
        let req0 = WireEpochRequest::from_json(&req0.to_json().unwrap()).unwrap();
        let wire0 = WireEpochOutcome::from(&req0.run_cancellable(&never).unwrap());
        assert_eq!(wire0.result.trace_digest, local0.result.trace_digest());
        // Epoch 1 resumed through the wire matches a local resume.
        let local1 = crate::experiment::run_epoch(
            &job.cfg,
            job.traffic.with_seed(99).build(&job.cfg.noc).as_mut(),
            Some(&local0.snapshot),
            None,
            10_000,
        )
        .unwrap();
        let mut base1 = job.clone();
        base1.traffic = job.traffic.with_seed(99);
        let req1 = WireEpochRequest {
            base: base1,
            resume: Some(wire0.snapshot.clone()),
            vths_bits: None,
            drain_limit: 10_000,
        };
        let req1 = WireEpochRequest::from_json(&req1.to_json().unwrap()).unwrap();
        let wire1 = WireEpochOutcome::from(&req1.run_cancellable(&never).unwrap());
        assert_eq!(wire1.result.trace_digest, local1.result.trace_digest());
        assert_eq!(wire1.snapshot, local1.snapshot);
    }

    /// Array/object nesting depth of a parsed document.
    fn depth(v: &JsonValue) -> usize {
        match v {
            JsonValue::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
            JsonValue::Obj(pairs) => 1 + pairs.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
            _ => 0,
        }
    }

    #[test]
    fn deepest_wire_forms_nest_well_under_the_json_depth_bound() {
        let never = AtomicBool::new(false);
        let req0 = WireEpochRequest {
            base: epoch_job(),
            resume: None,
            vths_bits: None,
            drain_limit: 10_000,
        };
        let wire0 = WireEpochOutcome::from(&req0.run_cancellable(&never).unwrap());
        let req1 = WireEpochRequest {
            base: epoch_job(),
            resume: Some(wire0.snapshot.clone()),
            vths_bits: Some(vec![vec![0.42f64.to_bits(), 0.43f64.to_bits()]]),
            drain_limit: 10_000,
        };
        for text in [req1.to_json().unwrap(), wire0.to_json()] {
            let d = depth(&JsonValue::parse(&text).unwrap());
            assert!(d < 10, "depth {d}");
        }
    }

    #[test]
    fn cancelled_epoch_reports_cancelled() {
        let cancelled = AtomicBool::new(true);
        cancelled.store(true, Ordering::SeqCst);
        let req = WireEpochRequest {
            base: epoch_job(),
            resume: None,
            vths_bits: None,
            drain_limit: 10_000,
        };
        assert!(matches!(
            req.run_cancellable(&cancelled),
            Err(EpochError::Cancelled)
        ));
    }

    #[test]
    fn corrupt_outcome_json_is_an_error_not_a_wrong_value() {
        let req = WireEpochRequest {
            base: epoch_job(),
            resume: None,
            vths_bits: None,
            drain_limit: 10_000,
        };
        let never = AtomicBool::new(false);
        let text = WireEpochOutcome::from(&req.run_cancellable(&never).unwrap()).to_json();
        assert!(WireEpochOutcome::from_json(&text[..text.len() / 2]).is_err());
        let tampered = text.replacen("\"drain_cycles\":", "\"drain_cycle\":", 1);
        assert!(WireEpochOutcome::from_json(&tampered).is_err());
    }
}
