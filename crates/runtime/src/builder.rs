//! Builds a [`SystemWorld`] from a [`ScenarioConfig`]: wires the node
//! stacks, the adversaries, the network, the manager assignment and the
//! audit plane.
//!
//! The construction order (and in particular the order of RNG derivations)
//! is part of the determinism contract: existing scenarios must produce
//! bit-identical [`crate::RunOutcome`]s across refactors.

use std::sync::Arc;

use lifting_analysis::entropy::calibrate_gamma;
use lifting_analysis::ProtocolParams;
use lifting_core::Auditor;
use lifting_gossip::StreamSource;
use lifting_membership::{ChurnPlan, Directory, WorkloadAction, WorkloadPlan};
use lifting_net::provider::{capability_components, CapabilityClassAssigner};
use lifting_net::{FaultPlan, Network, NodeCapability};
use lifting_reputation::ManagerAssignment;
use lifting_sim::{
    derive_rng, NodeId, ParamMap, ParamValue, SeedSplitter, SimDuration, SimTime, StreamId,
};

use crate::components::{resolve_components, workload_components};
use crate::layers::{
    AdaptiveColluder, Adversary, AuditCoordinator, BlameSpammer, Colluder, Freerider,
    GradientFreerider, Honest, NodeStack, OnOffFreerider, SelectiveFreerider, Whitewasher,
};
use crate::message::{Event, CHURN_EPOCH_ANY};
use crate::scenario::{AdversaryScenario, ScenarioConfig};
use crate::world::{ChurnRuntime, SystemWorld};

/// Deterministic RNG stream indices of the churn engine. The plan stream is
/// consumed independently by [`build_world`] and [`initial_events`] (both
/// expand the same schedule to the identical plan); the schedule stream
/// drives the first-departure draws; the world stream feeds the live
/// session/offline draws as the run progresses.
const CHURN_PLAN_STREAM: u64 = 5;
const CHURN_SCHEDULE_STREAM: u64 = 6;
const CHURN_WORLD_STREAM: u64 = 7;
/// Fresh RNG stream for draws that only exist in multi-channel runs (the
/// audit plane's stream picks). Single-stream scenarios never read it, so
/// they consume exactly the streams they always did — the bit-compat
/// contract of the multistream refactor.
const MULTISTREAM_STREAM: u64 = 8;
/// Fresh RNG stream for the fault plan's membership draws. Consumed only
/// when the scenario schedules fault waves, so fault-free runs keep their
/// exact historical stream consumption.
const FAULT_PLAN_STREAM: u64 = 9;
/// Fresh RNG stream for the workload plan's draws. Like the churn plan
/// stream it is expanded independently by [`build_world`] and
/// [`initial_events`] (both see the identical plan), and it is only consumed
/// when the scenario declares a `workload` component — every pre-workload
/// scenario keeps its exact historical stream consumption.
const WORKLOAD_PLAN_STREAM: u64 = 10;

/// Expands the scenario's declared workload component into its pre-drawn
/// event plan (`None` when no workload component is declared). The expansion
/// is a pure function of `(seed, component spec, nodes, streams, duration)`,
/// so every call site sees the identical plan.
pub(crate) fn workload_plan(config: &ScenarioConfig) -> Option<WorkloadPlan> {
    let spec = config.components.workload.as_ref()?;
    let generator = workload_components()
        .build(
            &spec.name,
            &spec.params,
            &mut SeedSplitter::new(config.seed),
        )
        .unwrap_or_else(|e| panic!("workload component failed to resolve: {e}"));
    Some(generator.expand(
        config.nodes,
        config.stream_count(),
        config.duration,
        &mut derive_rng(config.seed, WORKLOAD_PLAN_STREAM),
    ))
}

/// The capability-class provider the builder assigns node attachments with:
/// the declared `capability` component, or the legacy poor-fraction fields
/// expressed as the equivalent registered component. Both paths consume the
/// capability RNG stream identically, so pre-registry scenarios stay
/// bit-identical.
fn capability_assigner(config: &ScenarioConfig) -> Box<dyn CapabilityClassAssigner> {
    let registry = capability_components();
    let mut seeds = SeedSplitter::new(config.seed);
    match &config.components.capability {
        Some(spec) => registry
            .build(&spec.name, &spec.params, &mut seeds)
            .unwrap_or_else(|e| panic!("capability component failed to resolve: {e}")),
        None => {
            let params = ParamMap::new()
                .with("fraction", ParamValue::Float(config.poor_node_fraction))
                .with(
                    "poor_upload_bps",
                    ParamValue::Int(config.poor_upload_bps as i64),
                )
                .with("poor_extra_loss", ParamValue::Float(config.poor_extra_loss));
            registry
                .build("poor-fraction", &params, &mut seeds)
                .expect("legacy capability fields are valid poor-fraction params")
        }
    }
}

/// Expands the scenario's fault schedule into its pre-drawn per-wave
/// membership (`None` when no faults are configured).
pub(crate) fn fault_plan(config: &ScenarioConfig) -> Option<FaultPlan> {
    config
        .faults
        .as_ref()
        .filter(|schedule| !schedule.waves.is_empty())
        .map(|schedule| {
            FaultPlan::generate(
                schedule,
                config.nodes,
                &mut derive_rng(config.seed, FAULT_PLAN_STREAM),
            )
        })
}

/// The multistream draw stream (consumed only when `stream_count > 1`).
pub(crate) fn multistream_rng(seed: u64) -> rand::rngs::SmallRng {
    derive_rng(seed, MULTISTREAM_STREAM)
}

/// Expands the scenario's churn schedule into its per-node plan, identically
/// wherever it is called from (the draw order is fixed by the plan stream).
pub(crate) fn churn_plan(config: &ScenarioConfig) -> Option<ChurnPlan> {
    config.churn.as_ref().map(|schedule| {
        ChurnPlan::generate(
            schedule,
            config.nodes,
            &mut derive_rng(config.seed, CHURN_PLAN_STREAM),
        )
    })
}

/// The adversary node `index` plays under `config`.
///
/// Node 0 (the source) and the honest population play [`Honest`]; the
/// freerider suffix plays whatever [`AdversaryScenario`] selects, defaulting
/// to the paper's independent-freerider / colluder wiring.
pub fn adversary_for(
    config: &ScenarioConfig,
    index: usize,
    coalition: &Arc<Vec<NodeId>>,
) -> Box<dyn Adversary> {
    if !config.is_freerider(index) {
        return Box::new(Honest);
    }
    let degree = config.freeriders.expect("freeriders configured").degree;
    match config.adversary {
        AdversaryScenario::Baseline => {
            if config.collusion.is_active() {
                Box::new(Colluder {
                    degree,
                    coalition: coalition.clone(),
                    partner_bias: config.collusion.partner_bias,
                    cover_up: config.collusion.cover_up,
                    man_in_the_middle: config.collusion.man_in_the_middle,
                })
            } else {
                Box::new(Freerider { degree })
            }
        }
        AdversaryScenario::OnOff {
            on_periods,
            off_periods,
        } => Box::new(OnOffFreerider {
            degree,
            on_periods,
            off_periods,
        }),
        AdversaryScenario::BlameSpam {
            blames_per_period,
            blame_value,
        } => Box::new(BlameSpammer {
            blames_per_period,
            blame_value,
        }),
        AdversaryScenario::SelectiveFreerider { silent_mask } => {
            Box::new(SelectiveFreerider { silent_mask })
        }
        AdversaryScenario::GradientFreerider { margin, step } => {
            Box::new(GradientFreerider::new(degree, margin, step))
        }
        AdversaryScenario::Whitewasher { margin, offline } => {
            Box::new(Whitewasher::new(degree, margin, offline))
        }
        AdversaryScenario::AdaptiveColluders {
            partner_bias,
            cooldown_periods,
        } => Box::new(AdaptiveColluder::new(
            degree,
            coalition.clone(),
            partner_bias,
            cooldown_periods,
        )),
    }
}

/// Builds the system described by `config`.
pub fn build_world(mut config: ScenarioConfig) -> SystemWorld {
    // Resolve the declarative component axes first: the transport, loss and
    // adversary components write back into their legacy fields, so the rest
    // of the construction (and `validate`) sees one source of truth.
    resolve_components(&mut config)
        .unwrap_or_else(|e| panic!("scenario component resolution failed: {e}"));
    let config = config;
    config.validate();
    let n = config.nodes;
    let seed = config.seed;

    // Membership: one directory for every channel. Single-stream scenarios
    // build the exact same subscription-less directory they always did;
    // multi-channel ones add per-stream subscription sets cut to each
    // stream's audience (the source always subscribes everywhere).
    let streams = config.stream_count();
    let mut directory = Directory::with_streams(n, streams);
    if streams > 1 {
        for stream in config.stream_ids() {
            let audience = config.stream_spec(stream).audience;
            for i in 1..n {
                if !audience.includes(i, n) {
                    directory.unsubscribe(NodeId::new(i as u32), stream);
                }
            }
        }
    }
    let mut network = Network::new(n, config.network.clone(), derive_rng(seed, 1));

    // Node capabilities: assigned per node by the scenario's capability-class
    // provider (the legacy poor-fraction loop is the default provider, draw
    // for draw).
    let assigner = capability_assigner(&config);
    let default_capability = match config.default_upload_bps {
        Some(bps) => NodeCapability::broadband(bps),
        None => NodeCapability::unconstrained(),
    };
    let mut cap_rng = derive_rng(seed, 2);
    for i in 0..n {
        let cap = assigner.assign(i, config.is_freerider(i), default_capability, &mut cap_rng);
        network.set_capability(NodeId::new(i as u32), cap);
    }

    // Coalition: every freerider belongs to it when collusion is active.
    let coalition: Arc<Vec<NodeId>> = Arc::new(
        (0..n)
            .filter(|i| config.is_freerider(*i))
            .map(|i| NodeId::new(i as u32))
            .collect(),
    );

    let stacks: Vec<NodeStack> = (0..n)
        .map(|i| {
            NodeStack::with_streams(
                NodeId::new(i as u32),
                config.gossip,
                config.lifting,
                config.lifting_enabled,
                adversary_for(&config, i, &coalition),
                derive_rng(seed, 1000 + i as u64),
                streams,
            )
        })
        .collect();

    let assignment = ManagerAssignment::new(n, config.lifting.managers, seed);
    let mut stacks = stacks;
    // Register every scored node (the source is never scored or expelled).
    for i in 1..n {
        let id = NodeId::new(i as u32);
        for m in assignment.managers_of(id) {
            stacks[m.index()].reputation.register(id);
        }
    }

    // Per-period compensation of wrongful blames (Equation 5, adapted to
    // each stream's loss rate, fanout, request size and pdcc). One value per
    // stream: a node's credit is the sum over the channels it subscribes to,
    // matching the blame exposure the channels create. Stream 0's value is
    // computed with the exact expression single-stream builds always used.
    let pr = config.network.loss.reception_probability();
    let compensation_per_stream: Vec<f64> = config
        .stream_ids()
        .map(|stream| {
            let spec = config.stream_spec(stream);
            let chunks_per_period = spec.rate_bps as f64 / (spec.chunk_size as f64 * 8.0)
                * config.gossip.gossip_period.as_secs_f64();
            let requested = (chunks_per_period / config.gossip.fanout as f64)
                .ceil()
                .max(1.0) as usize;
            let params = ProtocolParams::new(config.gossip.fanout, requested, pr);
            if config.lifting.compensate_wrongful_blames {
                params.expected_blame_direct_verification()
                    + config.lifting.pdcc * params.expected_blame_cross_checking()
            } else {
                0.0
            }
        })
        .collect();

    // Entropy threshold calibrated for this deployment's history size and
    // population (the paper's 8.95 corresponds to 600 entries / 10,000
    // nodes; smaller systems need a lower threshold).
    // The safety margin is generous (0.6 bits): honest histories in small
    // systems collide a lot, and a wrongful expulsion is far more costly
    // than a missed audit (freeriders are still caught by their much lower
    // entropy and by the score-based detection).
    let entries = config.lifting.history_periods * config.gossip.fanout;
    let gamma = calibrate_gamma(entries, n.max(2), 60, 0.6, seed ^ 0x5eed)
        .min(config.lifting.gamma)
        .max(0.1);
    let audits = AuditCoordinator::new(Auditor::with_threshold(
        config.lifting,
        config.gossip.fanout,
        gamma,
    ))
    .with_retry(config.audit_retry);

    let sources: Vec<StreamSource> = config
        .stream_ids()
        .map(|stream| {
            let spec = config.stream_spec(stream);
            StreamSource::new(stream, spec.rate_bps, spec.chunk_size)
                .starting_at(SimTime::ZERO + spec.start_offset)
        })
        .collect();

    // Membership dynamics: flash-crowd members are held offline from the
    // start (the directory is the single source of truth for activity, and
    // the network drops traffic of cut-off nodes); the per-node plan and the
    // live RNG stream move into the world, which executes the schedule.
    let mut initial_sessions = 0u64;
    let churn = churn_plan(&config).map(|plan| {
        for i in 1..n {
            if plan.starts_offline[i] {
                let node = NodeId::new(i as u32);
                directory.deactivate(node);
                network.set_cut_off(node, true);
            }
        }
        // Every non-source node that starts online opens a session; rejoins
        // add to the count as the run progresses.
        initial_sessions = directory.active_count() as u64 - 1;
        ChurnRuntime {
            churners: plan.churners,
            rng: derive_rng(seed, CHURN_WORLD_STREAM),
        }
    });

    // Workload plan: zap-style plans assign each viewer an initial home
    // channel — prune the other subscriptions so the directory starts where
    // the plan says (the events themselves are scheduled by
    // `initial_events`, which expands the identical plan).
    if let Some(plan) = workload_plan(&config) {
        if streams > 1 {
            for i in 1..n {
                if let Some(home) = plan.initial_stream[i] {
                    let node = NodeId::new(i as u32);
                    for stream in config.stream_ids() {
                        if stream != home {
                            directory.unsubscribe(node, stream);
                        }
                    }
                }
            }
        }
        // Workload-driven membership counts sessions like churn does: every
        // node online at the start opens one.
        if config.churn.is_none() {
            initial_sessions = directory.active_count() as u64 - 1;
        }
    }

    let hot = crate::hot::HotNodeState::from_stacks(&stacks);
    SystemWorld {
        directory,
        network,
        stacks,
        assignment,
        audits,
        sources,
        emitted: vec![Vec::new(); streams],
        compensation_per_stream,
        blame_counts: vec![0; n * streams],
        blame_values: vec![0.0; n * streams],
        expulsion_voters: vec![Vec::new(); n],
        expelled: vec![false; n],
        hot,
        churn,
        churn_departures: 0,
        churn_rejoins: 0,
        churn_sessions: initial_sessions,
        workload_switches: 0,
        audits_aborted_by_departure: 0,
        coalition,
        rng: derive_rng(seed, 3),
        mstream_rng: multistream_rng(seed),
        scratch_downcalls: Vec::new(),
        scratch_nodes: Vec::new(),
        scratch_votes: Vec::new(),
        fault_plan: fault_plan(&config),
        partition_holds: vec![0; n],
        periods_elapsed: 0,
        eta_live: config.lifting.eta,
        eta_smoothed: config.lifting.eta,
        recovery: config
            .resilience_active()
            .then(crate::metrics::RecoveryReport::default),
        config,
    }
}

/// The initial events of a run under `config`: the first source emission,
/// staggered gossip ticks, staggered audit ticks (when enabled), the first
/// period end and — when the scenario churns — the membership transitions of
/// the schedule (first departures, flash-crowd joins, the catastrophe wave).
pub fn initial_events(config: &ScenarioConfig) -> Vec<(SimTime, Event)> {
    // The primary stream's first emission is scheduled exactly where the
    // single-stream runtime always put it; extra channels follow at their
    // start offsets.
    let mut events = vec![(
        SimTime::ZERO,
        Event::SourceEmit {
            stream: StreamId::PRIMARY,
        },
    )];
    for stream in config.stream_ids().skip(1) {
        let spec = config.stream_spec(stream);
        events.push((
            SimTime::ZERO + spec.start_offset,
            Event::SourceEmit { stream },
        ));
    }
    let period = config.gossip.gossip_period;
    let n = config.nodes;
    for i in 0..n {
        // Stagger gossip phases uniformly over one period, as real
        // deployments do implicitly (nodes start at different times).
        let offset = SimDuration::from_micros(period.as_micros() * i as u64 / n as u64);
        events.push((
            SimTime::ZERO + offset,
            Event::GossipTick {
                node: NodeId::new(i as u32),
                epoch: 0,
            },
        ));
        if config.audits_enabled && i != 0 {
            let audit_offset =
                SimDuration::from_micros(config.audit_interval.as_micros() * i as u64 / n as u64);
            events.push((
                SimTime::ZERO + config.audit_interval + audit_offset,
                Event::AuditTick {
                    auditor: NodeId::new(i as u32),
                    epoch: 0,
                },
            ));
        }
    }
    events.push((SimTime::ZERO + period, Event::PeriodEnd));
    if let (Some(schedule), Some(plan)) = (&config.churn, churn_plan(config)) {
        let mut schedule_rng = derive_rng(config.seed, CHURN_SCHEDULE_STREAM);
        for i in 1..n {
            let node = NodeId::new(i as u32);
            if plan.starts_offline[i] {
                // Flash-crowd member: held offline by the builder, joins at
                // the wave instant (its steady churn, if any, starts there).
                let wave = schedule.flash_crowd.expect("plan implies a wave");
                events.push((
                    SimTime::ZERO + wave.at,
                    Event::Churn {
                        node,
                        up: true,
                        epoch: CHURN_EPOCH_ANY,
                    },
                ));
            } else if plan.churners[i] {
                let at = schedule.warmup + schedule.session_length(&mut schedule_rng);
                events.push((
                    SimTime::ZERO + at,
                    Event::Churn {
                        node,
                        up: false,
                        epoch: 0,
                    },
                ));
            }
            if plan.catastrophe_members[i] {
                let wave = schedule.catastrophe.expect("plan implies a wave");
                events.push((
                    SimTime::ZERO + wave.at,
                    Event::Churn {
                        node,
                        up: false,
                        epoch: CHURN_EPOCH_ANY,
                    },
                ));
            }
        }
    }
    // Workload plan: pre-drawn membership and channel-switch transitions.
    // Departures/rejoins ride the churn event path with the epoch wildcard
    // (the plan pre-draws every rejoin, so the world schedules no follow-ups);
    // switches ride their own barrier event.
    if let Some(plan) = workload_plan(config) {
        for event in &plan.events {
            let at = SimTime::ZERO + event.at;
            match event.action {
                WorkloadAction::Depart => events.push((
                    at,
                    Event::Churn {
                        node: event.node,
                        up: false,
                        epoch: CHURN_EPOCH_ANY,
                    },
                )),
                WorkloadAction::Rejoin => events.push((
                    at,
                    Event::Churn {
                        node: event.node,
                        up: true,
                        epoch: CHURN_EPOCH_ANY,
                    },
                )),
                WorkloadAction::Switch { from, to } => events.push((
                    at,
                    Event::Resubscribe {
                        node: event.node,
                        from,
                        to,
                    },
                )),
            }
        }
    }
    // Fault waves: each wave contributes its onset and its heal transition
    // (membership is pre-drawn by the plan, so both runs of a
    // parallel/sequential pair see the identical outage).
    if let Some(schedule) = &config.faults {
        for (i, wave) in schedule.waves.iter().enumerate() {
            events.push((
                SimTime::ZERO + wave.at,
                Event::Fault {
                    wave: i as u32,
                    begin: true,
                },
            ));
            events.push((
                SimTime::ZERO + wave.heals_at(),
                Event::Fault {
                    wave: i as u32,
                    begin: false,
                },
            ));
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{CollusionScenario, FreeriderScenario};
    use lifting_gossip::FreeriderConfig;

    #[test]
    fn baseline_wiring_matches_the_paper_adversaries() {
        let mut config = ScenarioConfig::small_test(10, 1).with_planetlab_freeriders(0.3);
        let coalition = Arc::new(vec![NodeId::new(7), NodeId::new(8), NodeId::new(9)]);
        assert_eq!(adversary_for(&config, 0, &coalition).name(), "honest");
        assert_eq!(adversary_for(&config, 7, &coalition).name(), "freerider");
        config.collusion = CollusionScenario {
            partner_bias: 0.3,
            cover_up: true,
            man_in_the_middle: false,
        };
        assert_eq!(adversary_for(&config, 7, &coalition).name(), "colluder");
        assert_eq!(adversary_for(&config, 1, &coalition).name(), "honest");
    }

    #[test]
    fn non_baseline_adversaries_replace_the_freerider_population() {
        let mut config = ScenarioConfig::small_test(10, 1);
        config.freeriders = Some(FreeriderScenario {
            count: 2,
            degree: FreeriderConfig::uniform(0.2),
        });
        config.adversary = AdversaryScenario::OnOff {
            on_periods: 2,
            off_periods: 2,
        };
        let coalition = Arc::new(Vec::new());
        assert_eq!(
            adversary_for(&config, 9, &coalition).name(),
            "on-off-freerider"
        );
        config.adversary = AdversaryScenario::BlameSpam {
            blames_per_period: 1,
            blame_value: 1.0,
        };
        assert_eq!(
            adversary_for(&config, 9, &coalition).name(),
            "blame-spammer"
        );
        assert_eq!(adversary_for(&config, 0, &coalition).name(), "honest");
    }

    #[test]
    fn initial_events_stagger_ticks_and_schedule_audits() {
        let mut config = ScenarioConfig::small_test(5, 3);
        config.audits_enabled = true;
        let events = initial_events(&config);
        let gossip_ticks = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::GossipTick { .. }))
            .count();
        let audit_ticks = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::AuditTick { .. }))
            .count();
        assert_eq!(gossip_ticks, 5);
        assert_eq!(audit_ticks, 4, "the source never audits");
        assert!(matches!(events[0], (t, Event::SourceEmit { .. }) if t == SimTime::ZERO));
    }
}
