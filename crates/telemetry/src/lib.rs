//! # cebinae-telemetry
//!
//! Deterministic observability for the reproduction: a [`Registry`] of
//! named counters, gauges, and histograms keyed by `(scope, name)`, a
//! virtual-time [`span`] stack for profiling event-loop phases, and an
//! NDJSON exporter whose output is *byte-identical across thread counts*.
//!
//! Determinism contract:
//!
//! * one `Registry` per simulation — never shared across trials, so
//!   parallel trial pools cannot interleave writes;
//! * samples are emitted only on **virtual-time boundaries** (the engine's
//!   `Sample` events plus the final end-of-run sample), never on wall
//!   clocks;
//! * every export walks `BTreeMap`s, so scopes and metric names serialize
//!   in a fixed order;
//! * span durations are *simulated* nanoseconds, not wall time.
//!
//! There is no process-wide switch: a simulation configured without
//! telemetry owns no `Registry`, so a disabled run costs one `Option`
//! check per event and on/off runs in one process cannot affect each
//! other.

pub mod histogram;
pub mod registry;
pub mod span;

pub use histogram::Histogram;
pub use registry::{Registry, Scope};
pub use span::{SpanStack, SpanStats};
