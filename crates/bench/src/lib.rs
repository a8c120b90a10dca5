//! Experiment harness of the LiFTinG reproduction.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! experiment function here and a thin binary under `src/bin/` that prints the
//! same rows/series the paper reports (see `EXPERIMENTS.md` at the repository
//! root for the measured results). The functions are also reused by the
//! Criterion benches in `benches/`.
//!
//! Scale: every experiment accepts a [`Scale`]; `Scale::Paper` uses the
//! paper's population sizes and durations, `Scale::Quick` shrinks them so the
//! whole suite runs in seconds (used by `run_all_experiments --quick`, CI and
//! the Criterion experiment bench).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod listing;
pub mod output;

pub use experiments::Scale;

/// Parses the experiment scale from the process arguments (`--quick` selects
/// the reduced scale).
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Paper
    }
}
