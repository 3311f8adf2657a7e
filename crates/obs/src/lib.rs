//! # abs-obs — cycle-resolved tracing
//!
//! The observability layer of the workspace: a trace recorder that the
//! simulators (`abs-core`, `abs-net`, `abs-load`) write through a
//! [`TraceSink`], plus exporters that turn a recording — and the worker
//! timings of an `abs-exec` run report — into a Chrome trace-event JSON
//! file (openable in Perfetto or `chrome://tracing`) or an in-terminal
//! ASCII heatmap.
//!
//! ## Design rules
//!
//! - **Zero-cost when disabled.** Instrumented simulators take a
//!   [`TraceSink`] as a generic parameter; the un-traced entry points pass
//!   [`Noop`], a zero-sized sink whose `enabled()` is `false`, so every
//!   instrumentation site monomorphizes away. Bit-identity of traced vs.
//!   un-traced results is asserted by tests in the root package.
//! - **Two clock domains, one file.** Simulator lanes tick in simulated
//!   cycles and are byte-deterministic for a fixed seed at any `--jobs`
//!   count; `abs-exec` worker lanes tick in wall-clock microseconds and
//!   live under the reserved [`chrome::WALL_PID`] so they can be filtered
//!   out for byte comparison (the trace-file analogue of the manifest's
//!   timing-fields rule).
//! - **No new dependencies.** The exporter reuses `abs_exec::json` as its
//!   value model; everything else is `std`.
//!
//! ## Quick look
//!
//! ```
//! use abs_obs::chrome::ChromeTrace;
//! use abs_obs::trace::{Ring, TraceSink};
//!
//! let mut ring = Ring::default();
//! ring.span_begin(0, 0, "barrier", &[]);
//! ring.span_end(0, 41, "barrier", &[]);
//!
//! let mut trace = ChromeTrace::new();
//! trace.add_unit(1, "episode 0", ring.into_events());
//! let doc = trace.to_value();
//! abs_obs::chrome::validate(&doc).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii;
pub mod chrome;
pub mod trace;

pub use ascii::timeline;
pub use chrome::{exec_report_lanes, sim_lane_events, validate, ChromeTrace, WALL_PID};
pub use trace::{lane, Event, Name, Noop, Phase, Ring, TraceSink, DEFAULT_RING_CAPACITY};
