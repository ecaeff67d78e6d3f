//! The repository benchmark: four workloads over the DeepServe simulator
//! and its HTTP gateway, end-to-end metrics with tracing off, and a traced
//! run that times every layer from outside. See `README.md` beside this
//! package for the workloads, the metrics and the trace format.

#![forbid(unsafe_code)]

pub mod bench;
pub mod clock;
pub mod layers;
pub mod output;
pub mod sim;
pub mod spec;
pub mod stats;
pub mod trace;
