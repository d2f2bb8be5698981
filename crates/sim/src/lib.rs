//! Discrete-event simulation kernel for the SHRIMP UDMA reproduction.
//!
//! This crate provides the substrate every other crate in the workspace is
//! built on:
//!
//! - [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! - [`BufPool`] / [`Payload`] — recyclable packet buffers for the
//!   allocation-free data plane,
//! - [`Clock`] — a monotonically advancing per-node clock,
//! - [`parallel`] — conservative parallel-execution primitives (epoch
//!   barrier, sharded exchange, commit horizon),
//! - [`SplitMix64`] — a tiny, dependency-free deterministic RNG,
//! - [`Counter`] / [`counters!`] / [`Histogram`] — measurement primitives
//!   embedded in the components that count,
//! - [`MetricSet`] / [`Gauge`] — the metrics plane, the one registry
//!   every counter is harvested into: typed ids with deterministic sorted
//!   rendering and high-water gauges (see `DESIGN.md` §10),
//! - [`FlightRecorder`] / [`SpanRecord`] / [`XferId`] — the transfer-level
//!   flight recorder: typed five-stage spans with cross-node correlation
//!   IDs and a deterministic merge for the parallel engine; the only
//!   event recorder (machine and kernel facts are [`MetricSet`] counters),
//! - [`CostModel`] — every timing constant used by the simulated machine,
//!   documented with its calibration source (see `DESIGN.md` §4).
//!
//! # Example
//!
//! ```
//! use shrimp_sim::{Clock, SimDuration, SimTime, TimeFrontier, XferId};
//!
//! let mut clock = Clock::new();
//! clock.advance(SimDuration::from_us(10.0));
//! // Two shards publish lower bounds on their next events; the earlier
//! // one is the horizon up to which either may commit.
//! let frontier = TimeFrontier::new(2);
//! frontier.publish(0, Some(clock.now()));
//! frontier.publish(1, Some(SimTime::from_nanos(25_000)));
//! assert_eq!(frontier.horizon(), Some(SimTime::from_nanos(10_000)));
//! // Equal-time events commit in transfer-ID order: source, then sequence.
//! assert!(XferId::new(0, 7).raw() < XferId::new(1, 0).raw());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buf;
mod clock;
mod cost;
pub mod metrics;
pub mod parallel;
mod rng;
mod span;
mod stats;
mod time;

pub use buf::{BufPool, Payload};
pub use clock::Clock;
pub use cost::CostModel;
pub use metrics::{CounterId, Gauge, GaugeId, HistId, MetricId, MetricSet};
pub use parallel::{ExchangeGrid, SpinBarrier, TimeFrontier};
pub use rng::SplitMix64;
pub use span::{FlightRecorder, SpanRecord, Stage, XferId, XferMeta, STAGE_COUNT};
pub use stats::{Counter, Histogram};
pub use time::{SimDuration, SimTime};
