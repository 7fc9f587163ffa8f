//! # noc-traffic — traffic generation for the NoC simulator
//!
//! Provides the workloads of the DATE 2013 reproduction:
//!
//! * [`source`] — the [`TrafficSource`] abstraction: a generator that emits
//!   [`PacketSpec`]s cycle by cycle, decoupled from the simulator so it can
//!   be tested, recorded and replayed in isolation,
//! * [`pattern`] — synthetic destination patterns (uniform random as in the
//!   paper's Section IV-B, plus the classic transpose / bit-complement /
//!   tornado / hotspot / neighbour family),
//! * [`injection`] — injection processes: Bernoulli (the paper's constant
//!   injection rates) and Markov-modulated on/off bursts,
//! * [`synthetic`] — per-node synthetic traffic combining a pattern with an
//!   injection process,
//! * [`app`] — benchmark-profile application traffic standing in for the
//!   paper's SPLASH2 and WCET benchmark mixes (see DESIGN.md §4).
//!
//! Recording and replaying traffic is `noc-workload`'s job: its `NBTITRC`
//! binary trace format is the one trace format.
//!
//! ```
//! use noc_traffic::prelude::*;
//! use noc_sim::prelude::*;
//!
//! let mesh = Mesh2D::square(4);
//! let mut src = SyntheticTraffic::uniform(mesh, 0.1, 5, 42);
//! let mut net = Network::new(NocConfig::paper_synthetic(16, 2))?;
//! for _ in 0..100 {
//!     inject_from(&mut src, &mut net);
//!     net.step();
//! }
//! assert!(net.stats().packets_injected > 0);
//! # Ok::<(), noc_sim::config::InvalidConfigError>(())
//! ```

#![deny(missing_debug_implementations)]
#![warn(
    clippy::semicolon_if_nothing_returned,
    clippy::explicit_iter_loop,
    clippy::redundant_closure_for_method_calls,
    clippy::manual_let_else
)]

pub mod app;
pub mod injection;
pub mod pattern;
pub mod source;
pub mod synthetic;

pub use app::{AppTraffic, BenchmarkMix, BenchmarkProfile, Locality};
pub use injection::{BernoulliInjection, InjectionProcess, MarkovOnOffInjection};
pub use pattern::DestinationPattern;
pub use source::{inject_from, PacketSpec, TrafficSource};
pub use synthetic::SyntheticTraffic;

/// Convenient glob import.
pub mod prelude {
    pub use crate::app::{AppTraffic, BenchmarkMix, BenchmarkProfile, Locality};
    pub use crate::injection::{BernoulliInjection, InjectionProcess, MarkovOnOffInjection};
    pub use crate::pattern::DestinationPattern;
    pub use crate::source::{inject_from, PacketSpec, TrafficSource};
    pub use crate::synthetic::SyntheticTraffic;
}
