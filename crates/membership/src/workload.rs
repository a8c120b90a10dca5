//! Trace-driven workload generators: deterministic audience dynamics beyond
//! plain churn.
//!
//! [`crate::ChurnSchedule`] models memoryless session/offline cycling; real
//! live-streaming audiences have *structure*: viewers follow daily rhythms,
//! whole regions fail together (a power cut, an ISP outage), and multi-channel
//! audiences zap between streams. A [`WorkloadModel`] expands such a
//! shape into a [`WorkloadPlan`] — a pre-drawn, time-sorted list of membership
//! transitions and channel switches — from a dedicated seeded RNG stream,
//! exactly like [`crate::ChurnPlan`] pre-draws its membership decisions, so
//! workload scenarios stay bit-for-bit deterministic and
//! parallel == sequential like every other scenario.
//!
//! Three models ship with the reproduction:
//!
//! * [`DiurnalCycle`] — each participating viewer goes offline for a window
//!   of every cycle, at a per-node phase (the "evening audience" shape).
//! * [`RegionalFailureWaves`] — the population is split into contiguous
//!   regions; each wave takes one whole region down for an outage and brings
//!   it back (correlated failures, not independent ones).
//! * [`ZapSwitching`] — every viewer watches exactly one channel; a fraction
//!   of them zap to another channel after exponentially distributed dwell
//!   times (the multi-channel audience of the multistream planes).

use lifting_sim::{NodeId, SimDuration, StreamId};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

/// One pre-drawn workload transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadAction {
    /// The node goes offline (maps to a churn departure).
    Depart,
    /// The node comes back online (maps to a churn rejoin).
    Rejoin,
    /// The node stops watching `from` and tunes into `to`.
    Switch {
        /// The channel the node leaves.
        from: StreamId,
        /// The channel the node joins.
        to: StreamId,
    },
}

/// One timed entry of a [`WorkloadPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadEvent {
    /// When the transition fires, relative to the start of the run.
    pub at: SimDuration,
    /// The node transitioning.
    pub node: NodeId,
    /// What happens.
    pub action: WorkloadAction,
}

/// The fully expanded, time-sorted trace of a workload generator.
///
/// Like [`crate::ChurnPlan`], the plan is drawn in one fixed order from a
/// seeded RNG so that two independent expansions (the runtime's world builder
/// and its initial-event scheduler) agree bit-for-bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadPlan {
    /// All transitions, sorted by `(at, node)`.
    pub events: Vec<WorkloadEvent>,
    /// Per node: the single channel the node initially watches, when the
    /// generator assigns one (zap-style workloads); `None` leaves the node's
    /// audience-derived subscriptions untouched. Empty when no generator
    /// assigns channels at all.
    pub initial_stream: Vec<Option<StreamId>>,
}

impl WorkloadPlan {
    /// Number of channel switches in the plan.
    pub fn switch_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.action, WorkloadAction::Switch { .. }))
            .count()
    }

    /// Number of departures in the plan.
    pub fn departure_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.action == WorkloadAction::Depart)
            .count()
    }

    /// Sorts the events into the canonical `(at, node)` order. Generators
    /// emit per-node runs; the stable sort makes the merged trace
    /// independent of emission order for distinct keys and deterministic for
    /// equal ones.
    fn canonicalize(&mut self) {
        self.events
            .sort_by_key(|e| (e.at.as_micros(), e.node.index()));
    }
}

/// A deterministic audience-dynamics model: which shape of membership and
/// channel dynamics a scenario replays.
///
/// `expand` draws from its RNG in one fixed order (iterate nodes ascending,
/// draw per-node decisions unconditionally where feasible — the same
/// discipline [`crate::ChurnPlan::generate`] follows) so the plan is a pure
/// function of the seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkloadModel {
    /// Diurnal audience cycles.
    Diurnal(DiurnalCycle),
    /// Correlated regional-failure waves.
    RegionalFailure(RegionalFailureWaves),
    /// Zap-style channel switching (needs at least two streams).
    Zap(ZapSwitching),
}

impl WorkloadModel {
    /// The model's short name: `diurnal`, `regional-failure` or `zap`.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadModel::Diurnal(_) => "diurnal",
            WorkloadModel::RegionalFailure(_) => "regional-failure",
            WorkloadModel::Zap(_) => "zap",
        }
    }

    /// Expands the workload over `nodes` identifiers and `streams` channels
    /// for a run of `duration`. Node 0 — the broadcast source — is never
    /// selected for anything.
    pub fn expand(
        &self,
        nodes: usize,
        streams: usize,
        duration: SimDuration,
        rng: &mut dyn RngCore,
    ) -> WorkloadPlan {
        match self {
            WorkloadModel::Diurnal(m) => m.expand(nodes, duration, rng),
            WorkloadModel::RegionalFailure(m) => m.expand(nodes, duration, rng),
            WorkloadModel::Zap(m) => m.expand(nodes, streams, duration, rng),
        }
    }

    /// Validates the model's parameters for a run over `streams` channels —
    /// the one place their ranges are declared.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if a fraction is outside `[0, 1]`, a
    /// duration or count that must be positive is zero, or a zap workload
    /// has fewer than two streams to switch between.
    pub fn validate(&self, streams: usize) {
        let fraction = |name: &str, x: f64| {
            assert!(
                (0.0..=1.0).contains(&x),
                "workload {name} = {x} not in [0,1]"
            );
        };
        match self {
            WorkloadModel::Diurnal(m) => {
                fraction("participation", m.participation);
                fraction("offline_fraction", m.offline_fraction);
                assert!(!m.cycle.is_zero(), "workload cycle must be positive");
            }
            WorkloadModel::RegionalFailure(m) => {
                assert!(m.regions >= 1, "workload regions must be at least 1");
                assert!(m.waves >= 1, "workload waves must be at least 1");
                assert!(!m.outage.is_zero(), "workload outage must be positive");
            }
            WorkloadModel::Zap(m) => {
                fraction("zappers", m.zappers);
                assert!(
                    !m.mean_dwell.is_zero(),
                    "workload mean_dwell must be positive"
                );
                assert!(
                    streams >= 2,
                    "a zap workload needs at least two streams to switch between"
                );
            }
        }
    }
}

/// Exponentially distributed duration with the given mean, floored at 10 ms
/// (the same draw the churn schedule uses for session lengths).
fn exponential(mean: SimDuration, rng: &mut dyn RngCore) -> SimDuration {
    let u: f64 = rng.gen_range(0.0..1.0);
    let secs = -mean.as_secs_f64() * (1.0 - u).ln();
    SimDuration::from_secs_f64(secs.max(0.010))
}

/// Diurnal audience cycles: each participating viewer goes offline for an
/// `offline_fraction` window of every `cycle`, at a per-node phase, after a
/// warmup. Models the daily rhythm of a live audience compressed to
/// simulation scale.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalCycle {
    /// Fraction of the non-source population that follows the cycle.
    pub participation: f64,
    /// Length of one full cycle.
    pub cycle: SimDuration,
    /// Fraction of each cycle the viewer spends offline.
    pub offline_fraction: f64,
    /// No departure before this instant.
    pub warmup: SimDuration,
}

impl DiurnalCycle {
    /// Expands the cycle over `nodes` identifiers for a run of `duration`.
    pub fn expand(
        &self,
        nodes: usize,
        duration: SimDuration,
        rng: &mut dyn RngCore,
    ) -> WorkloadPlan {
        let mut plan = WorkloadPlan::default();
        let cycle = self.cycle.as_secs_f64();
        let offline = self.offline_fraction * cycle;
        for i in 1..nodes {
            // Both draws happen unconditionally so the plan stream stays
            // stable regardless of who participates.
            let participates = self.participation > 0.0 && rng.gen_bool(self.participation);
            let phase: f64 = rng.gen_range(0.0..1.0);
            if !participates || offline <= 0.0 {
                continue;
            }
            let node = NodeId::new(i as u32);
            let mut start = self.warmup.as_secs_f64() + phase * cycle;
            while start < duration.as_secs_f64() {
                plan.events.push(WorkloadEvent {
                    at: SimDuration::from_secs_f64(start),
                    node,
                    action: WorkloadAction::Depart,
                });
                plan.events.push(WorkloadEvent {
                    at: SimDuration::from_secs_f64(start + offline),
                    node,
                    action: WorkloadAction::Rejoin,
                });
                start += cycle;
            }
        }
        plan.canonicalize();
        plan
    }
}

/// Correlated regional failures: the non-source population is split into
/// `regions` contiguous identifier blocks; each wave picks one region and an
/// onset, takes every member down together, and brings the whole region back
/// after `outage`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegionalFailureWaves {
    /// Number of contiguous regions the population is split into (≥ 1).
    pub regions: usize,
    /// Number of failure waves over the run.
    pub waves: usize,
    /// How long a failed region stays down.
    pub outage: SimDuration,
    /// No wave begins before this instant.
    pub warmup: SimDuration,
}

impl RegionalFailureWaves {
    /// The region node `index` (≥ 1) belongs to.
    pub fn region_of(&self, index: usize, nodes: usize) -> usize {
        let population = nodes.saturating_sub(1).max(1);
        ((index - 1) * self.regions / population).min(self.regions - 1)
    }

    /// Expands the waves over `nodes` identifiers for a run of `duration`.
    pub fn expand(
        &self,
        nodes: usize,
        duration: SimDuration,
        rng: &mut dyn RngCore,
    ) -> WorkloadPlan {
        let mut plan = WorkloadPlan::default();
        let warmup = self.warmup.as_secs_f64();
        let span = (duration.as_secs_f64() - warmup - self.outage.as_secs_f64()).max(0.0);
        for _ in 0..self.waves {
            // Fixed draw order per wave: onset fraction, then region.
            let frac: f64 = rng.gen_range(0.0..1.0);
            let region = rng.gen_range(0..self.regions);
            let at = SimDuration::from_secs_f64(warmup + frac * span);
            let back = at + self.outage;
            for i in 1..nodes {
                if self.region_of(i, nodes) != region {
                    continue;
                }
                let node = NodeId::new(i as u32);
                plan.events.push(WorkloadEvent {
                    at,
                    node,
                    action: WorkloadAction::Depart,
                });
                plan.events.push(WorkloadEvent {
                    at: back,
                    node,
                    action: WorkloadAction::Rejoin,
                });
            }
        }
        plan.canonicalize();
        plan
    }
}

/// Zap-style channel switching over the multistream planes: every viewer
/// initially watches exactly one channel (uniformly drawn); a `zappers`
/// fraction of them switch to a different channel after exponentially
/// distributed dwell times.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZapSwitching {
    /// Fraction of the non-source population that zaps.
    pub zappers: f64,
    /// Mean dwell time on a channel before a zapper switches.
    pub mean_dwell: SimDuration,
    /// No switch before this instant.
    pub warmup: SimDuration,
}

impl ZapSwitching {
    /// Expands the zapping walk over `nodes` identifiers and `streams`
    /// channels for a run of `duration`. Fewer than two streams leave nothing
    /// to zap between and yield an empty plan.
    pub fn expand(
        &self,
        nodes: usize,
        streams: usize,
        duration: SimDuration,
        rng: &mut dyn RngCore,
    ) -> WorkloadPlan {
        let mut plan = WorkloadPlan {
            events: Vec::new(),
            initial_stream: vec![None; nodes],
        };
        if streams < 2 {
            return plan; // nothing to zap between
        }
        for i in 1..nodes {
            // Fixed draw order per node: zapper flag, initial channel, then
            // the zapper's dwell/target walk.
            let zaps = self.zappers > 0.0 && rng.gen_bool(self.zappers);
            let mut current = StreamId::new(rng.gen_range(0..streams as u16));
            plan.initial_stream[i] = Some(current);
            if !zaps {
                continue;
            }
            let node = NodeId::new(i as u32);
            let mut t = self.warmup;
            loop {
                t += exponential(self.mean_dwell, rng);
                if t.as_micros() >= duration.as_micros() {
                    break;
                }
                let pick = rng.gen_range(0..streams as u16 - 1);
                let to = StreamId::new(if pick >= current.0 { pick + 1 } else { pick });
                plan.events.push(WorkloadEvent {
                    at: t,
                    node,
                    action: WorkloadAction::Switch { from: current, to },
                });
                current = to;
            }
        }
        plan.canonicalize();
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::derive_rng;

    const DURATION: SimDuration = SimDuration::from_secs(30);

    #[test]
    fn diurnal_plan_is_deterministic_and_spares_the_source() {
        let gen = DiurnalCycle {
            participation: 0.4,
            cycle: SimDuration::from_secs(10),
            offline_fraction: 0.25,
            warmup: SimDuration::from_secs(2),
        };
        let a = gen.expand(100, DURATION, &mut derive_rng(5, 10));
        let b = gen.expand(100, DURATION, &mut derive_rng(5, 10));
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        assert!(a.events.iter().all(|e| e.node != NodeId::new(0)));
        // Each participant alternates Depart/Rejoin, so the counts pair up.
        assert_eq!(a.departure_count() * 2, a.events.len());
    }

    #[test]
    fn diurnal_events_are_time_sorted() {
        let gen = DiurnalCycle {
            participation: 0.6,
            cycle: SimDuration::from_secs(8),
            offline_fraction: 0.3,
            warmup: SimDuration::ZERO,
        };
        let plan = gen.expand(60, DURATION, &mut derive_rng(1, 10));
        for pair in plan.events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    #[test]
    fn regional_waves_take_whole_regions_down_together() {
        let gen = RegionalFailureWaves {
            regions: 4,
            waves: 2,
            outage: SimDuration::from_secs(4),
            warmup: SimDuration::from_secs(3),
        };
        let plan = gen.expand(81, DURATION, &mut derive_rng(7, 10));
        assert_eq!(plan, gen.expand(81, DURATION, &mut derive_rng(7, 10)));
        // Two waves over 20 members per region: 40 departures, 40 rejoins.
        assert_eq!(plan.departure_count(), 40);
        assert_eq!(plan.events.len(), 80);
        // All departures of one wave share the same instant (correlated, not
        // independent), and every region index is valid.
        let mut depart_instants: Vec<u64> = plan
            .events
            .iter()
            .filter(|e| e.action == WorkloadAction::Depart)
            .map(|e| e.at.as_micros())
            .collect();
        depart_instants.sort_unstable();
        depart_instants.dedup();
        assert!(depart_instants.len() <= 2, "one onset per wave");
        for i in 1..81 {
            assert!(gen.region_of(i, 81) < 4);
        }
    }

    #[test]
    fn zap_assigns_everyone_a_channel_and_switches_zappers() {
        let gen = ZapSwitching {
            zappers: 0.5,
            mean_dwell: SimDuration::from_secs(4),
            warmup: SimDuration::from_secs(1),
        };
        let plan = gen.expand(80, 3, DURATION, &mut derive_rng(3, 10));
        assert_eq!(plan, gen.expand(80, 3, DURATION, &mut derive_rng(3, 10)));
        assert!(plan.initial_stream[0].is_none(), "the source watches all");
        for i in 1..80 {
            let watched = plan.initial_stream[i].expect("every viewer watches one channel");
            assert!(watched.index() < 3);
        }
        assert!(plan.switch_count() > 0);
        // A switch never targets the channel the node is already on, and
        // always names a valid channel.
        for e in &plan.events {
            if let WorkloadAction::Switch { from, to } = e.action {
                assert_ne!(from, to);
                assert!(to.index() < 3);
                assert!(e.at >= SimDuration::from_secs(1));
            }
        }
    }

    #[test]
    fn zap_on_a_single_stream_is_empty() {
        let gen = ZapSwitching {
            zappers: 1.0,
            mean_dwell: SimDuration::from_secs(1),
            warmup: SimDuration::ZERO,
        };
        let plan = gen.expand(40, 1, DURATION, &mut derive_rng(2, 10));
        assert!(plan.events.is_empty());
        assert!(plan.initial_stream.iter().all(|s| s.is_none()));
    }
}
