//! The workload scenarios do what their models promise: diurnal and
//! regional-failure plans actually take nodes offline and bring them back;
//! the zap plan actually resubscribes viewers between channels.

use lifting_runtime::{build_engine, run_scenario, Scale, ScenarioRegistry};
use lifting_sim::SimTime;

#[test]
fn diurnal_workload_cycles_nodes_offline_and_back() {
    let config = ScenarioRegistry::builtin().build("workload/diurnal", Scale::Quick, 11);
    assert!(
        config.churn.is_none(),
        "workload plans replace churn schedules"
    );
    let outcome = run_scenario(config);
    assert!(
        outcome.churn.departures > 0,
        "diurnal troughs must take nodes offline (got {} departures)",
        outcome.churn.departures
    );
    assert!(
        outcome.churn.rejoins > 0,
        "diurnal peaks must bring nodes back (got {} rejoins)",
        outcome.churn.rejoins
    );
    assert!(!outcome.emitted_chunks.is_empty());
}

#[test]
fn regional_failure_workload_knocks_regions_offline() {
    let config = ScenarioRegistry::builtin().build("workload/regional-failure", Scale::Quick, 11);
    let outcome = run_scenario(config);
    assert!(
        outcome.churn.departures > 0,
        "outage waves must take whole regions down"
    );
    assert!(
        outcome.churn.rejoins > 0,
        "regions must come back after the outage"
    );
}

#[test]
fn zap_workload_switches_viewers_between_channels() {
    let config = ScenarioRegistry::builtin().build("workload/zap", Scale::Quick, 11);
    assert_eq!(config.streams.len() + 1, 3, "zap runs three channels");
    let duration = config.duration;
    let mut engine = build_engine(config);
    engine.run_until(SimTime::ZERO + duration);
    assert!(
        engine.world().workload_switches() > 0,
        "zappers must actually change channels"
    );
}
