//! Typed trace events and their JSONL encoding.
//!
//! Events are the paper's observable protocol actions: power-gating
//! transitions, the `Up_Down` / `Down_Up` control-link payloads
//! (Algorithms 1 and 2), VC-allocation grants, flit movement at the NICs,
//! packet completions, and runtime invariant violations.
//!
//! The JSONL encoding is one object per line with short, fixed keys
//! (`{"c":5,"t":"gate_on","port":"r0-E","vc":1}`); the parser accepts keys
//! in any order. [`TraceEvent`] round-trips exactly: `parse(write(ev)) ==
//! ev`, and the [digest](crate::digest::EventDigest) of a parsed stream
//! equals the digest recorded while emitting it.

use std::fmt;

/// A buffer-port address, decoupled from the simulator's own `PortId`.
///
/// `kind` values `0..=4` are router input ports by direction index
/// (N, S, E, W, Local); [`PortCode::EJECT`] is the NIC ejection port. The
/// `Display` form matches the simulator's (`r2-W`, `r1-eject`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortCode {
    /// Tile index hosting the buffers.
    pub node: u32,
    /// Port kind: a direction index in `0..=4`, or [`PortCode::EJECT`].
    pub kind: u8,
}

impl PortCode {
    /// `kind` value of the NIC ejection port.
    pub const EJECT: u8 = 5;

    const DIR_LETTERS: [&'static str; 5] = ["N", "S", "E", "W", "L"];

    /// A router input port addressed by direction index (`0..=4`).
    pub const fn router_input(node: u32, dir_index: u8) -> Self {
        PortCode {
            node,
            kind: dir_index,
        }
    }

    /// The NIC ejection port of a tile.
    pub const fn nic_eject(node: u32) -> Self {
        PortCode {
            node,
            kind: PortCode::EJECT,
        }
    }

    /// Parses the `Display` form (`r2-W`, `r1-eject`).
    pub fn parse(s: &str) -> Result<Self, ParseError> {
        let bad = || ParseError::new(format!("bad port `{s}`"));
        let rest = s.strip_prefix('r').ok_or_else(bad)?;
        let (node, kind) = rest.split_once('-').ok_or_else(bad)?;
        let node: u32 = node.parse().map_err(|_| bad())?;
        if kind == "eject" {
            return Ok(PortCode::nic_eject(node));
        }
        let dir = PortCode::DIR_LETTERS
            .iter()
            .position(|&l| l == kind)
            .ok_or_else(bad)?;
        Ok(PortCode::router_input(node, dir as u8))
    }
}

impl fmt::Display for PortCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.kind == PortCode::EJECT {
            write!(f, "r{}-eject", self.node)
        } else {
            write!(
                f,
                "r{}-{}",
                self.node,
                PortCode::DIR_LETTERS[self.kind as usize]
            )
        }
    }
}

/// What happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A power-gated VC buffer was switched back on (`Up_Down` effect).
    GateOn {
        /// The buffer port.
        port: PortCode,
        /// The VC that woke.
        vc: u8,
    },
    /// An idle VC buffer was power-gated off (NBTI recovery begins).
    GateOff {
        /// The buffer port.
        port: PortCode,
        /// The VC that was gated.
        vc: u8,
    },
    /// The `Up_Down` link payload changed: a new designation mask for the
    /// port's idle VCs (emitted on change only, not every cycle).
    UpDown {
        /// The buffer port.
        port: PortCode,
        /// The paper's `enable` bit: `false` means *gate every idle VC*.
        enable: bool,
        /// Bit `v` keeps VC `v` idle-on (the designated set).
        mask: u32,
    },
    /// The `Down_Up` link payload changed: the sensors elected a new most
    /// degraded VC for this port.
    DownUp {
        /// The buffer port.
        port: PortCode,
        /// The elected most-degraded VC.
        md_vc: u8,
    },
    /// The VA stage granted an output VC to a waiting head flit.
    VaGrant {
        /// Router node.
        node: u32,
        /// Input port index of the waiting head.
        in_port: u8,
        /// Input VC of the waiting head.
        vc: u8,
        /// Granted output port index.
        out_port: u8,
        /// Granted output VC.
        out_vc: u8,
    },
    /// A NIC streamed one flit into its router (the BW-side entry point).
    FlitInject {
        /// Source tile.
        node: u32,
        /// Packet id.
        packet: u64,
        /// The injection VC.
        vc: u8,
    },
    /// A NIC drained one flit from its ejection buffers.
    FlitEject {
        /// Destination tile.
        node: u32,
        /// Packet id.
        packet: u64,
        /// The ejection VC.
        vc: u8,
    },
    /// A packet fully ejected; `latency` is end-to-end in cycles, queuing
    /// included.
    PacketDone {
        /// Destination tile.
        node: u32,
        /// Packet id.
        packet: u64,
        /// End-to-end latency in cycles.
        latency: u64,
    },
    /// The runtime invariant checker recorded a violation of this kind
    /// (kebab-case id, e.g. `gating-safety`).
    Violation {
        /// The invariant's kebab-case identifier.
        kind: String,
    },
    /// A lifetime-campaign epoch completed at this cycle. `digest` is the
    /// epoch's own whole-stream [`EventDigest`](crate::digest::EventDigest)
    /// value; folding these boundary events into a campaign-level digest
    /// chains per-epoch streams into one resumable determinism witness.
    EpochEnd {
        /// Zero-based epoch index within the campaign.
        index: u32,
        /// The completed epoch's event-stream digest.
        digest: u64,
    },
}

impl EventKind {
    /// The event's `"t"` tag in the JSONL encoding.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::GateOn { .. } => "gate_on",
            EventKind::GateOff { .. } => "gate_off",
            EventKind::UpDown { .. } => "up_down",
            EventKind::DownUp { .. } => "down_up",
            EventKind::VaGrant { .. } => "va",
            EventKind::FlitInject { .. } => "inject",
            EventKind::FlitEject { .. } => "eject",
            EventKind::PacketDone { .. } => "done",
            EventKind::Violation { .. } => "violation",
            EventKind::EpochEnd { .. } => "epoch",
        }
    }

    /// Every tag, in canonical (digest tag-byte) order.
    pub const TAGS: [&'static str; 10] = [
        "gate_on",
        "gate_off",
        "up_down",
        "down_up",
        "va",
        "inject",
        "eject",
        "done",
        "violation",
        "epoch",
    ];
}

/// One timestamped event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The simulated cycle the event happened in.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Appends the one-line JSONL encoding (newline included) to `out`.
    pub fn write_jsonl(&self, out: &mut String) {
        use fmt::Write;
        let c = self.cycle;
        let t = self.kind.tag();
        // Writing to a String cannot fail.
        let _ = match &self.kind {
            EventKind::GateOn { port, vc } | EventKind::GateOff { port, vc } => {
                write!(out, r#"{{"c":{c},"t":"{t}","port":"{port}","vc":{vc}}}"#)
            }
            EventKind::UpDown { port, enable, mask } => write!(
                out,
                r#"{{"c":{c},"t":"{t}","port":"{port}","en":{enable},"mask":{mask}}}"#
            ),
            EventKind::DownUp { port, md_vc } => {
                write!(out, r#"{{"c":{c},"t":"{t}","port":"{port}","md":{md_vc}}}"#)
            }
            EventKind::VaGrant {
                node,
                in_port,
                vc,
                out_port,
                out_vc,
            } => write!(
                out,
                r#"{{"c":{c},"t":"{t}","node":{node},"in":{in_port},"vc":{vc},"out":{out_port},"ovc":{out_vc}}}"#
            ),
            EventKind::FlitInject { node, packet, vc }
            | EventKind::FlitEject { node, packet, vc } => write!(
                out,
                r#"{{"c":{c},"t":"{t}","node":{node},"pkt":{packet},"vc":{vc}}}"#
            ),
            EventKind::PacketDone {
                node,
                packet,
                latency,
            } => write!(
                out,
                r#"{{"c":{c},"t":"{t}","node":{node},"pkt":{packet},"lat":{latency}}}"#
            ),
            EventKind::Violation { kind } => {
                write!(out, r#"{{"c":{c},"t":"{t}","kind":"{kind}"}}"#)
            }
            EventKind::EpochEnd { index, digest } => {
                write!(
                    out,
                    r#"{{"c":{c},"t":"{t}","idx":{index},"dg":"{digest:016x}"}}"#
                )
            }
        };
        out.push('\n');
    }

    /// The one-line JSONL encoding (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::new();
        self.write_jsonl(&mut s);
        s.pop();
        s
    }

    /// Parses one JSONL line back into an event. Keys may appear in any
    /// order; unknown keys are rejected implicitly by the missing-field
    /// checks.
    pub fn parse_jsonl(line: &str) -> Result<Self, ParseError> {
        let cycle = field_u64(line, "c")?;
        let tag = field_str(line, "t")?;
        let kind = match tag {
            "gate_on" => EventKind::GateOn {
                port: PortCode::parse(field_str(line, "port")?)?,
                vc: field_u64(line, "vc")? as u8,
            },
            "gate_off" => EventKind::GateOff {
                port: PortCode::parse(field_str(line, "port")?)?,
                vc: field_u64(line, "vc")? as u8,
            },
            "up_down" => EventKind::UpDown {
                port: PortCode::parse(field_str(line, "port")?)?,
                enable: field_bool(line, "en")?,
                mask: field_u64(line, "mask")? as u32,
            },
            "down_up" => EventKind::DownUp {
                port: PortCode::parse(field_str(line, "port")?)?,
                md_vc: field_u64(line, "md")? as u8,
            },
            "va" => EventKind::VaGrant {
                node: field_u64(line, "node")? as u32,
                in_port: field_u64(line, "in")? as u8,
                vc: field_u64(line, "vc")? as u8,
                out_port: field_u64(line, "out")? as u8,
                out_vc: field_u64(line, "ovc")? as u8,
            },
            "inject" => EventKind::FlitInject {
                node: field_u64(line, "node")? as u32,
                packet: field_u64(line, "pkt")?,
                vc: field_u64(line, "vc")? as u8,
            },
            "eject" => EventKind::FlitEject {
                node: field_u64(line, "node")? as u32,
                packet: field_u64(line, "pkt")?,
                vc: field_u64(line, "vc")? as u8,
            },
            "done" => EventKind::PacketDone {
                node: field_u64(line, "node")? as u32,
                packet: field_u64(line, "pkt")?,
                latency: field_u64(line, "lat")?,
            },
            "violation" => EventKind::Violation {
                kind: field_str(line, "kind")?.to_string(),
            },
            "epoch" => EventKind::EpochEnd {
                index: field_u64(line, "idx")? as u32,
                digest: {
                    let hex = field_str(line, "dg")?;
                    u64::from_str_radix(hex, 16)
                        .map_err(|_| ParseError::new(format!("bad digest hex `{hex}`")))?
                },
            },
            other => return Err(ParseError::new(format!("unknown event tag `{other}`"))),
        };
        Ok(TraceEvent { cycle, kind })
    }
}

/// Parses a whole JSONL document (one event per non-empty line).
pub fn read_jsonl(text: &str) -> Result<Vec<TraceEvent>, ParseError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        events.push(
            TraceEvent::parse_jsonl(line)
                .map_err(|e| ParseError::new(format!("line {}: {e}", i + 1)))?,
        );
    }
    Ok(events)
}

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    msg: String,
}

impl ParseError {
    pub(crate) fn new(msg: String) -> Self {
        ParseError { msg }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ParseError {}

/// The raw text of `"key":` … up to the next `,` or `}` at top level.
/// Sufficient for this crate's own output: values are numbers, booleans,
/// or strings without escapes.
pub(crate) fn field_raw<'a>(line: &'a str, key: &str) -> Result<&'a str, ParseError> {
    let needle = format!("\"{key}\":");
    let start = line
        .find(&needle)
        .ok_or_else(|| ParseError::new(format!("missing field `{key}`")))?
        + needle.len();
    let rest = &line[start..];
    let end = if let Some(inner) = rest.strip_prefix('"') {
        inner
            .find('"')
            .map(|i| i + 2)
            .ok_or_else(|| ParseError::new(format!("unterminated string for `{key}`")))?
    } else {
        rest.find([',', '}'])
            .ok_or_else(|| ParseError::new(format!("unterminated value for `{key}`")))?
    };
    Ok(&rest[..end])
}

pub(crate) fn field_u64(line: &str, key: &str) -> Result<u64, ParseError> {
    field_raw(line, key)?
        .parse()
        .map_err(|_| ParseError::new(format!("field `{key}` is not an integer")))
}

fn field_bool(line: &str, key: &str) -> Result<bool, ParseError> {
    match field_raw(line, key)? {
        "true" => Ok(true),
        "false" => Ok(false),
        _ => Err(ParseError::new(format!("field `{key}` is not a boolean"))),
    }
}

pub(crate) fn field_str<'a>(line: &'a str, key: &str) -> Result<&'a str, ParseError> {
    let raw = field_raw(line, key)?;
    raw.strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .ok_or_else(|| ParseError::new(format!("field `{key}` is not a string")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                cycle: 0,
                kind: EventKind::GateOn {
                    port: PortCode::router_input(0, 2),
                    vc: 1,
                },
            },
            TraceEvent {
                cycle: 7,
                kind: EventKind::GateOff {
                    port: PortCode::nic_eject(3),
                    vc: 0,
                },
            },
            TraceEvent {
                cycle: 8,
                kind: EventKind::UpDown {
                    port: PortCode::router_input(1, 4),
                    enable: true,
                    mask: 0b10,
                },
            },
            TraceEvent {
                cycle: 64,
                kind: EventKind::DownUp {
                    port: PortCode::router_input(2, 3),
                    md_vc: 3,
                },
            },
            TraceEvent {
                cycle: 9,
                kind: EventKind::VaGrant {
                    node: 5,
                    in_port: 3,
                    vc: 1,
                    out_port: 2,
                    out_vc: 0,
                },
            },
            TraceEvent {
                cycle: 10,
                kind: EventKind::FlitInject {
                    node: 0,
                    packet: 42,
                    vc: 1,
                },
            },
            TraceEvent {
                cycle: 21,
                kind: EventKind::FlitEject {
                    node: 3,
                    packet: 42,
                    vc: 0,
                },
            },
            TraceEvent {
                cycle: 22,
                kind: EventKind::PacketDone {
                    node: 3,
                    packet: 42,
                    latency: 12,
                },
            },
            TraceEvent {
                cycle: 23,
                kind: EventKind::Violation {
                    kind: "gating-safety".to_string(),
                },
            },
            TraceEvent {
                cycle: 5_000,
                kind: EventKind::EpochEnd {
                    index: 2,
                    digest: 0xdead_beef_cafe_f00d,
                },
            },
        ]
    }

    #[test]
    fn port_code_display_matches_simulator_naming() {
        assert_eq!(PortCode::router_input(2, 3).to_string(), "r2-W");
        assert_eq!(PortCode::router_input(0, 4).to_string(), "r0-L");
        assert_eq!(PortCode::nic_eject(1).to_string(), "r1-eject");
    }

    #[test]
    fn port_code_round_trips() {
        for p in [
            PortCode::router_input(0, 0),
            PortCode::router_input(15, 4),
            PortCode::nic_eject(7),
        ] {
            assert_eq!(PortCode::parse(&p.to_string()), Ok(p));
        }
        assert!(PortCode::parse("x2-W").is_err());
        assert!(PortCode::parse("r2-Q").is_err());
        assert!(PortCode::parse("r2").is_err());
    }

    #[test]
    fn every_event_round_trips_through_jsonl() {
        for ev in samples() {
            let line = ev.to_jsonl();
            let back = TraceEvent::parse_jsonl(&line)
                .unwrap_or_else(|e| panic!("parse failed on `{line}`: {e}"));
            assert_eq!(back, ev, "line `{line}`");
        }
    }

    #[test]
    fn parser_accepts_reordered_keys() {
        let ev = TraceEvent::parse_jsonl(r#"{"t":"inject","vc":1,"pkt":42,"node":0,"c":10}"#)
            .expect("reordered keys parse");
        assert_eq!(
            ev,
            TraceEvent {
                cycle: 10,
                kind: EventKind::FlitInject {
                    node: 0,
                    packet: 42,
                    vc: 1
                }
            }
        );
    }

    #[test]
    fn read_jsonl_skips_blank_lines_and_reports_line_numbers() {
        let mut doc = String::new();
        for ev in samples() {
            ev.write_jsonl(&mut doc);
            doc.push('\n'); // blank separator line
        }
        let events = read_jsonl(&doc).expect("well-formed document");
        assert_eq!(events, samples());
        let err = read_jsonl("{\"c\":1,\"t\":\"nope\"}\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn tags_cover_every_variant() {
        let seen: Vec<&str> = samples().iter().map(|e| e.kind.tag()).collect();
        assert_eq!(seen, EventKind::TAGS);
    }
}
