//! # noc-sim — a cycle-accurate 2D-mesh NoC simulator with per-VC power gating
//!
//! This crate is the simulation substrate of the DATE 2013 reproduction
//! *"Sensor-wise methodology to face NBTI stress of NoC buffers"*. It models
//! what the paper's GEM5/Garnet setup provides:
//!
//! * a `cols × rows` 2D mesh ([`topology::Mesh2D`]) of 3-stage
//!   virtual-channel routers (BW+RC / VA+SA / ST+LT) with wormhole switching,
//!   credit-based flow control and dimension-ordered routing,
//! * per-VC input buffers that can be **power-gated** individually,
//! * the paper's cooperative control surface: for every buffer port the
//!   upstream agent exposes its *output VC state* and the
//!   `is_new_traffic_outport_x()` predicate ([`Network::port_view`]), and
//!   accepts `Up_Down`-link gating commands ([`Network::apply_gate`]).
//!
//! The crate knows nothing about NBTI: aging models and mitigation policies
//! live in the `nbti-model` and `sensorwise` crates.
//!
//! # Example
//!
//! ```
//! use noc_sim::prelude::*;
//!
//! let mut net = Network::new(NocConfig::paper_synthetic(16, 4))?;
//! net.inject_packet(NodeId(0), NodeId(15));
//! while net.stats().packets_ejected == 0 {
//!     net.step();
//! }
//! assert!(net.stats().avg_latency().unwrap() > 0.0);
//! # Ok::<(), noc_sim::config::InvalidConfigError>(())
//! ```

#![deny(missing_debug_implementations)]
#![warn(
    clippy::semicolon_if_nothing_returned,
    clippy::explicit_iter_loop,
    clippy::redundant_closure_for_method_calls,
    clippy::manual_let_else
)]

pub mod arbiter;
pub mod config;
pub mod explore;
pub mod flit;
pub mod invariants;
pub mod network;
mod nic;
mod router;
pub mod routing;
pub mod snapshot;
pub mod stats;
pub mod topology;
pub mod types;
mod unit;
pub mod view;

/// The observability layer the simulator emits into (re-exported so
/// downstream crates need no direct `noc-telemetry` dependency).
pub use noc_telemetry as telemetry;

pub use config::NocConfig;
pub use invariants::{InvariantKind, InvariantLevel, InvariantViolation};
pub use network::Network;
pub use routing::RoutingAlgorithm;
pub use snapshot::{NetworkSnapshot, PortState, SnapshotStateError};
pub use stats::NetStats;
pub use topology::Mesh2D;
pub use types::{Direction, NodeId};
pub use view::{GateAction, PortId, PortKey, PortKind, PortView, VcStatus};

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::config::NocConfig;
    pub use crate::flit::{Flit, FlitKind, PacketId};
    pub use crate::invariants::{InvariantKind, InvariantLevel, InvariantViolation};
    pub use crate::network::Network;
    pub use crate::routing::RoutingAlgorithm;
    pub use crate::stats::NetStats;
    pub use crate::topology::Mesh2D;
    pub use crate::types::{Direction, NodeId};
    pub use crate::view::{GateAction, PortId, PortKey, PortKind, PortView, VcStatus};
}
