//! Peer-sampling services for the LiFTinG reproduction.
//!
//! The paper's system model (Section 2) assumes that "nodes can pick uniformly
//! at random a set of nodes in the system", achieved with full membership or a
//! random peer-sampling protocol. This crate provides:
//!
//! * a [`Directory`] of the nodes currently in the system (supporting joins
//!   and the expulsions decided by the reputation managers),
//! * uniform partner selection over that directory (what honest nodes do),
//! * the **biased** selection policies used by freeriders in Section 4.1(iii):
//!   colluders that favour each other with probability `pm`, and the
//!   round-robin colluder selection that the entropy check of Section 6.3.2 is
//!   designed to defeat, and
//! * deterministic **churn schedules** ([`ChurnSchedule`]): per-node
//!   session/offline cycling plus catastrophic-failure and flash-crowd waves,
//!   expanded into per-node plans by [`ChurnPlan`], and
//! * trace-driven **workload models** ([`WorkloadModel`]): diurnal
//!   audience cycles, correlated regional-failure waves and zap-style channel
//!   switching, expanded into pre-drawn [`WorkloadPlan`]s the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod directory;
pub mod selector;
pub mod workload;

pub use churn::{ChurnPlan, ChurnSchedule, ChurnWave};
pub use directory::Directory;
pub use selector::{PartnerSelector, SelectionPolicy};
pub use workload::{
    DiurnalCycle, RegionalFailureWaves, WorkloadAction, WorkloadEvent, WorkloadModel, WorkloadPlan,
    ZapSwitching,
};

pub use lifting_sim::NodeId;
