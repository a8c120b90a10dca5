//! Integration coverage for the component registry plane.
//!
//! Two concerns live here:
//!
//! 1. **Error paths** — every mis-declared component in a scenario's
//!    `components:` section must come back as a structured
//!    [`ComponentError`] naming the offending key, never a panic. The
//!    registry is the first thing a scenario author touches, so the error
//!    text is part of the interface.
//! 2. **Workload scenarios do what their generators promise** — diurnal and
//!    regional-failure plans actually take nodes offline and bring them
//!    back; the zap plan actually resubscribes viewers between channels.

use lifting_runtime::{
    build_engine, resolve_components, run_scenario, workload_components, ComponentSpec, Scale,
    ScenarioRegistry,
};
use lifting_sim::{
    Component, ComponentError, ComponentRegistry, ParamKind, ParamMap, ParamSpec, ParamValue,
    ParamsSchema, SeedSplitter, SimTime,
};

// ---------------------------------------------------------------------------
// 1. Error paths: structured Err, never panic, offending key in the message.
// ---------------------------------------------------------------------------

fn quick_config(seed: u64) -> lifting_runtime::ScenarioConfig {
    ScenarioRegistry::builtin().build("smoke/small", Scale::Quick, seed)
}

#[test]
fn unknown_component_name_is_a_structured_error_naming_the_kind() {
    let mut config = quick_config(1);
    config.components.workload = Some(ComponentSpec::new("tidal"));
    let err = resolve_components(&mut config).expect_err("unknown name must not resolve");
    match &err {
        ComponentError::UnknownComponent { kind, name, known } => {
            assert_eq!(kind, "workload");
            assert_eq!(name, "tidal");
            assert!(
                known.iter().any(|n| n == "diurnal"),
                "known list: {known:?}"
            );
        }
        other => panic!("expected UnknownComponent, got {other:?}"),
    }
    let text = err.to_string();
    assert!(
        text.contains("tidal"),
        "error must name the component: {text}"
    );
    assert!(
        text.contains("diurnal"),
        "error must list known names: {text}"
    );
}

#[test]
fn unknown_names_error_on_every_axis() {
    type Setter = fn(&mut lifting_runtime::ScenarioConfig);
    let axes: [(&str, Setter); 5] = [
        ("transport", |c| {
            c.components.transport = Some(ComponentSpec::new("carrier-pigeon"))
        }),
        ("loss", |c| {
            c.components.loss = Some(ComponentSpec::new("total"))
        }),
        ("capability", |c| {
            c.components.capability = Some(ComponentSpec::new("quantum"))
        }),
        ("adversary", |c| {
            c.components.adversary = Some(ComponentSpec::new("mastermind"))
        }),
        ("exporter", |c| {
            c.components.exporter = Some(ComponentSpec::new("carrier"))
        }),
    ];
    for (axis, set) in axes {
        let mut config = quick_config(1);
        set(&mut config);
        let Err(err) = resolve_components(&mut config) else {
            panic!("axis {axis}: unknown name must not resolve");
        };
        assert!(
            matches!(err, ComponentError::UnknownComponent { .. }),
            "axis {axis}: expected UnknownComponent, got {err:?}"
        );
    }
}

#[test]
fn ill_typed_param_is_rejected_with_the_offending_key() {
    let mut config = quick_config(1);
    config.components.workload =
        Some(ComponentSpec::new("diurnal").with("participation", ParamValue::Text("high".into())));
    let err = resolve_components(&mut config).expect_err("text for a float must not validate");
    match &err {
        ComponentError::BadParamType {
            component,
            key,
            expected,
            got,
        } => {
            assert_eq!(component, "diurnal");
            assert_eq!(key, "participation");
            assert_eq!(*expected, "float");
            assert_eq!(*got, "text");
        }
        other => panic!("expected BadParamType, got {other:?}"),
    }
    assert!(err.to_string().contains("participation"));
}

#[test]
fn out_of_range_param_is_rejected_with_the_offending_key() {
    let mut config = quick_config(1);
    config.components.workload =
        Some(ComponentSpec::new("diurnal").with("participation", ParamValue::Float(1.5)));
    let err = resolve_components(&mut config).expect_err("participation > 1 must not validate");
    match &err {
        ComponentError::InvalidParam { component, key, .. } => {
            assert_eq!(component, "diurnal");
            assert_eq!(key, "participation");
        }
        other => panic!("expected InvalidParam, got {other:?}"),
    }
}

#[test]
fn undeclared_param_key_is_rejected() {
    let mut config = quick_config(1);
    config.components.workload =
        Some(ComponentSpec::new("zap").with("zapers", ParamValue::Float(0.5)));
    let err = resolve_components(&mut config).expect_err("misspelled key must not validate");
    match &err {
        ComponentError::UnknownParam { component, key, .. } => {
            assert_eq!(component, "zap");
            assert_eq!(key, "zapers");
        }
        other => panic!("expected UnknownParam, got {other:?}"),
    }
}

struct NeedsSeed;
impl Component<u64> for NeedsSeed {
    fn name(&self) -> &'static str {
        "needs-seed"
    }
    fn params_schema(&self) -> ParamsSchema {
        ParamsSchema::of(vec![ParamSpec::required(
            "seed_offset",
            ParamKind::Int,
            "mandatory offset",
        )])
    }
    fn build(&self, params: &ParamMap, seeds: &mut SeedSplitter) -> Result<u64, ComponentError> {
        let offset = match params.get("seed_offset") {
            Some(ParamValue::Int(x)) => *x as u64,
            _ => unreachable!("schema validation supplies the key"),
        };
        Ok(seeds.seed(offset))
    }
}

#[test]
fn missing_required_param_is_rejected_before_build_runs() {
    let mut registry: ComponentRegistry<u64> = ComponentRegistry::new("test");
    registry.register(Box::new(NeedsSeed)).unwrap();
    let mut seeds = SeedSplitter::new(42);
    let err = registry
        .build("needs-seed", &ParamMap::new(), &mut seeds)
        .expect_err("missing required param must not build");
    match &err {
        ComponentError::MissingParam { component, key } => {
            assert_eq!(component, "needs-seed");
            assert_eq!(key, "seed_offset");
        }
        other => panic!("expected MissingParam, got {other:?}"),
    }
    assert!(err.to_string().contains("seed_offset"));
}

#[test]
fn duplicate_registration_is_rejected() {
    let mut registry: ComponentRegistry<u64> = ComponentRegistry::new("test");
    registry.register(Box::new(NeedsSeed)).unwrap();
    let err = registry
        .register(Box::new(NeedsSeed))
        .expect_err("second registration of the same name must fail");
    match &err {
        ComponentError::DuplicateComponent { kind, name } => {
            assert_eq!(kind, "test");
            assert_eq!(name, "needs-seed");
        }
        other => panic!("expected DuplicateComponent, got {other:?}"),
    }
    assert_eq!(registry.len(), 1, "the duplicate must not be registered");
}

#[test]
fn every_registered_workload_component_builds_with_default_params() {
    let registry = workload_components();
    for name in registry.names() {
        let mut seeds = SeedSplitter::new(7);
        let generator = registry
            .build(name, &ParamMap::new(), &mut seeds)
            .unwrap_or_else(|e| panic!("{name} must build with defaults: {e}"));
        assert_eq!(generator.name(), name);
    }
}

// ---------------------------------------------------------------------------
// 2. The workload scenarios drive real membership / subscription dynamics.
// ---------------------------------------------------------------------------

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
