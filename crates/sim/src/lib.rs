//! # hyperprov-sim
//!
//! Deterministic discrete-event simulation kernel used by the HyperProv
//! reproduction. It provides:
//!
//! * virtual time ([`SimTime`], [`SimDuration`]),
//! * a reproducible random stream ([`DetRng`]) with labelled forking,
//! * an actor-based event loop ([`Simulation`], [`Actor`], [`Context`]),
//! * a network model with latency/bandwidth/jitter, partitions and loss
//!   ([`Network`], [`LinkSpec`]),
//! * deterministic fault injection — actor crash/restart with an
//!   [`Actor::on_restart`] recovery hook, plus seed-reproducible schedules
//!   of crash/partition/loss windows that compose as their union
//!   ([`FaultPlan`]),
//! * per-actor serialising CPU resources with busy-interval accounting
//!   ([`CpuResource`]) — the basis for the energy model,
//! * metrics ([`Metrics`], [`Histogram`]),
//! * virtual-time span tracing with bounded memory ([`Tracer`],
//!   [`Span`], [`SPAN_CAPACITY`]),
//! * rolling-window SLO evaluation with burn-rate series and breach
//!   windows ([`SloMonitor`], [`SloSpec`]),
//! * Chrome-trace/Perfetto export of span records
//!   ([`chrome_trace_json`]), and
//! * host-side profiling of the event loop itself ([`SimProfiler`],
//!   [`HotCounters`], [`peak_rss_bytes`]).
//!
//! The paper's testbed — four machines and a switch — maps to one actor per
//! process (peer, orderer, off-chain store, client) with CPU speeds and
//! link parameters taken from device profiles. Every one of them is
//! `hyperprov-fabric`'s `Node` hosting a sans-IO machine; the outbox of
//! CPU jobs and the admission queues live in that host, not here.
//!
//! # Examples
//!
//! ```
//! use hyperprov_sim::{Actor, Context, Event, SimDuration, Simulation};
//!
//! struct Counter(u32);
//! impl Actor<()> for Counter {
//!     fn on_event(&mut self, ctx: &mut Context<'_, ()>, _event: Event<()>) {
//!         self.0 += 1;
//!         if self.0 < 10 {
//!             ctx.set_timer(SimDuration::from_millis(1), 0);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(0);
//! let c = sim.add_actor(Box::new(Counter(0)));
//! sim.start_timer(c, SimDuration::ZERO, 0);
//! sim.run();
//! assert_eq!(sim.now().as_nanos(), 9_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod engine;
mod equeue;
mod fault;
pub mod fxhash;
mod histogram;
pub mod json;
mod metrics;
mod net;
mod perfetto;
mod profile;
mod rng;
mod slo;
mod time;
mod trace;

pub use cpu::CpuResource;
pub use engine::{Actor, ActorId, Carries, Context, Event, Simulation, TimerId};
pub use fault::FaultPlan;
pub use histogram::Histogram;
pub use metrics::{GaugeId, HistogramId, Metrics};
pub use net::{Delivery, LinkSpec, Network};
pub use perfetto::chrome_trace_json;
pub use profile::{peak_rss_bytes, HotCounters, SimProfiler};
pub use rng::DetRng;
pub use slo::{SloBreach, SloMonitor, SloObjective, SloSpec, SloVerdict, MAX_BURN};
pub use time::{SimDuration, SimTime};
pub use trace::{fnv1a, Span, SpanId, TraceEvent, Tracer, EVENT_CAPACITY, SPAN_CAPACITY};
