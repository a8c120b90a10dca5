//! System runner: wires the gossip protocol, the LiFTinG verification layer,
//! the reputation managers and the simulated network into runnable scenarios.
//!
//! Each node is a layered protocol stack ([`layers::NodeStack`]): a gossip
//! plane, a verification plane and a reputation plane connected by typed
//! upcalls/downcalls (see [`layers`] and `ARCHITECTURE.md`), with
//! misbehaviour plugged in through the [`layers::Adversary`] trait. The
//! [`SystemWorld`] owns the stacks and the event-loop glue the sans-IO
//! protocol crates deliberately avoid: it moves messages through
//! [`lifting_net::Network`], schedules verifier timers, routes blames to
//! reputation managers, applies per-period compensation and expulsion
//! decisions, triggers a-posteriori audits, and collects the metrics every
//! experiment of the paper needs (score distributions, detection /
//! false-positive rates, stream health and traffic overhead).
//!
//! Entry points:
//!
//! * [`ScenarioConfig`] describes an experiment (population, freeriders,
//!   collusion, adversary, stream rate, network conditions, LiFTinG
//!   parameters); the [`ScenarioRegistry`] maps experiment names
//!   (`"fig01/no-freeriders"`, …) to ready-made configurations.
//! * [`run_scenario`] runs it to completion and returns a [`RunOutcome`].
//! * [`run_scenario_with_snapshots`] additionally records score snapshots at
//!   chosen instants (Figure 14 reads scores at 25, 30 and 35 seconds).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod components;
pub(crate) mod hot;
pub mod layers;
pub mod message;
pub mod metrics;
pub mod observe;
pub mod registry;
pub mod runner;
pub mod scenario;
pub mod world;

pub use components::{component_summary, exporter_components, OutcomeExporter};
pub use layers::{Adversary, AuditRpcStats, FeedbackAction, NodeStack};
pub use message::{Event, Message};
pub use metrics::{
    ChurnStats, LayerTraffic, NodeOutcome, RecoveryReport, RunOutcome, ScoreSnapshot, StackLayer,
    StreamOutcome, WaveKind, WaveRecovery,
};
pub use registry::{
    fig14_scenario_name, scenario_family, table03_scenario_name, table05_scenario_name, Scale,
    ScenarioRegistry, FIG14_PDCCS, TABLE03_PDCCS, TABLE05_PDCCS, TABLE05_STREAM_KBPS,
};
pub use runner::{
    build_engine, run_jobs_parallel, run_scenario, run_scenario_with_snapshots,
    run_scenarios_parallel, run_scenarios_parallel_with_snapshots,
};
pub use scenario::{
    AdversaryScenario, AuditRetryPolicy, CapabilityModel, ChurnSchedule, ChurnWave,
    CollusionScenario, DiurnalCycle, FaultSchedule, FaultWave, FreeriderScenario,
    OnlineRecalibration, RegionalFailureWaves, ScenarioConfig, StreamAudience, StreamSpec,
    WorkloadModel, ZapSwitching,
};
pub use world::SystemWorld;
