//! # gridvm-hostload
//!
//! Host-load traces: generation, playback and analysis.
//!
//! Figure 1 of the paper drives its microbenchmark with *host load
//! trace playback* [Dinda & O'Hallaron, LCR 2000] of traces collected
//! on the Pittsburgh Supercomputing Center's Alpha cluster, at three
//! intensities: **none**, **light** and **heavy**. Those trace files
//! are not available, so this crate generates synthetic traces with
//! the statistical properties the host-load literature reports for
//! them — strong short-range autocorrelation (AR-like behaviour),
//! heavy-tailed burst durations, and long-range dependence (Hurst
//! parameter well above 0.5). A simulated host plays a trace back
//! directly: `gridvm-host`'s background load reads
//! [`LoadTrace::load_at`](trace::LoadTrace::load_at), the number of
//! runnable background processes at an instant, wrapping at the end.
//!
//! * [`trace`] — the [`LoadTrace`](trace::LoadTrace) sample container
//!   and its playback.
//! * [`generator`] — AR(1)-plus-Pareto-burst synthesis and the paper's
//!   three [`LoadLevel`](generator::LoadLevel) presets.
//! * [`analysis`] — autocorrelation and R/S Hurst estimation used by
//!   tests to verify the generator produces realistic load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod generator;
pub mod trace;

pub use generator::{LoadLevel, TraceGenerator};
pub use trace::LoadTrace;
