//! Experiment scenarios.

use lifting_core::LiftingConfig;
use lifting_gossip::{FreeriderConfig, GossipConfig};
use lifting_net::NetworkConfig;
use lifting_sim::{SimDuration, StreamId};
use serde::{Deserialize, Serialize};

pub use lifting_membership::{
    ChurnSchedule, ChurnWave, DiurnalCycle, RegionalFailureWaves, WorkloadModel, ZapSwitching,
};
pub use lifting_net::{CapabilityModel, FaultSchedule, FaultWave};

/// Bounded retry for the audit RPCs (history polls and witness
/// cross-checks) — the resilience hardening of the a-posteriori plane.
///
/// `None` in [`ScenarioConfig::audit_retry`] keeps the paper's behaviour:
/// audits assume the auditor can always reach its target and witnesses.
/// With a policy set, every audit RPC first checks reachability (departed,
/// expelled or *partitioned* peers cannot answer), re-issues the request up
/// to `attempts` times with a deterministic `backoff` between tries, and —
/// when the retries exhaust — degrades the audit to
/// [`crate::layers::AuditOutcome::Aborted`] instead of manufacturing a
/// verdict from missing evidence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuditRetryPolicy {
    /// Maximum number of re-sends per unanswered RPC (≥ 1).
    pub attempts: u32,
    /// Deterministic delay between consecutive attempts.
    pub backoff: SimDuration,
}

impl AuditRetryPolicy {
    /// A conservative default: two retries, half a second apart.
    pub fn default_policy() -> Self {
        AuditRetryPolicy {
            attempts: 2,
            backoff: SimDuration::from_millis(500),
        }
    }

    /// Validates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero or the backoff is zero.
    pub fn validate(&self) {
        assert!(self.attempts >= 1, "audit retry needs at least one attempt");
        assert!(
            !self.backoff.is_zero(),
            "audit retry backoff must be positive"
        );
    }
}

/// Online recalibration of the detection threshold `η` — the closed-loop
/// *defence* of the resilience plane.
///
/// The paper calibrates `η = −9.75` offline, for a false-positive budget
/// `β < 1 %`, against a known honest score distribution. A closed-loop
/// adversary (e.g. [`AdversaryScenario::GradientFreerider`]) exploits
/// exactly that: it parks its score just above the static threshold. With
/// recalibration enabled the managers re-derive the threshold each period
/// from the *live* score stream — no ground truth splits honest from
/// freerider scores, so the rule must be robust to contamination: drop the
/// worst `trim` fraction (where adversaries congregate), estimate the
/// honest bulk's location and spread by the median and MAD of the
/// remainder, and place the threshold `nmads` (normal-consistent) MADs
/// below that median. An exponential moving average smooths
/// period-to-period jitter, and the effective threshold is
/// `max(η_static, η_online)` — the defence only ever *tightens* the static
/// calibration.
///
/// An outlier rule, not a quantile: a quantile of the kept sample sits at
/// the trim boundary by construction and expels a fixed fraction of the
/// population every period regardless of how the scores actually cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineRecalibration {
    /// Fraction of the worst scores discarded before estimating the bulk.
    pub trim: f64,
    /// How many (normal-consistent) MADs below the bulk median the
    /// recalibrated threshold sits. Smaller is more aggressive.
    pub nmads: f64,
    /// EMA smoothing factor in `(0, 1]` (1 = no smoothing).
    pub smoothing: f64,
}

impl OnlineRecalibration {
    /// Defaults matched to the PlanetLab deployment: 30 % trim (covers the
    /// paper's ≤ 25 % adversary fractions), a 4-MAD outlier cut
    /// (conservative enough that an honest score needs a large excursion
    /// below the bulk to be flagged), moderate smoothing.
    pub fn planetlab() -> Self {
        OnlineRecalibration {
            trim: 0.3,
            nmads: 4.0,
            smoothing: 0.3,
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if a fraction is out of range or `nmads` is not positive.
    pub fn validate(&self) {
        assert!((0.0..=0.5).contains(&self.trim), "trim out of range");
        assert!(self.nmads > 0.0, "nmads must be positive");
        assert!(
            self.smoothing > 0.0 && self.smoothing <= 1.0,
            "smoothing must be in (0, 1]"
        );
    }
}

/// Which nodes subscribe to a stream.
///
/// Audiences are expressed as population fractions so one scenario definition
/// scales from quick to paper populations. The broadcast source (node 0)
/// always subscribes to every stream — it feeds them all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StreamAudience {
    /// Every node subscribes.
    All,
    /// Nodes whose index falls in `[floor(from·n), floor(to·n))` subscribe
    /// (plus the source).
    Slice {
        /// Lower population fraction (inclusive).
        from: f64,
        /// Upper population fraction (exclusive).
        to: f64,
    },
}

impl StreamAudience {
    /// True if node `node_index` of an `nodes`-node population subscribes.
    pub fn includes(&self, node_index: usize, nodes: usize) -> bool {
        if node_index == 0 {
            return true; // the source feeds every stream
        }
        match self {
            StreamAudience::All => true,
            StreamAudience::Slice { from, to } => {
                let lo = (from * nodes as f64).floor() as usize;
                let hi = (to * nodes as f64).floor() as usize;
                (lo..hi).contains(&node_index)
            }
        }
    }

    /// Number of subscribers (excluding the always-subscribed source).
    pub fn size(&self, nodes: usize) -> usize {
        (1..nodes).filter(|i| self.includes(*i, nodes)).count()
    }
}

/// One broadcast channel: its rate, chunking, start offset and audience.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamSpec {
    /// Stream rate in bits per second.
    pub rate_bps: u64,
    /// Chunk payload size in bytes.
    pub chunk_size: u32,
    /// Delay before the source starts emitting this stream (channels need
    /// not come on air together).
    pub start_offset: SimDuration,
    /// Which nodes subscribe.
    pub audience: StreamAudience,
}

impl StreamSpec {
    /// A full-audience stream starting at time zero.
    pub fn new(rate_bps: u64, chunk_size: u32) -> Self {
        StreamSpec {
            rate_bps,
            chunk_size,
            start_offset: SimDuration::ZERO,
            audience: StreamAudience::All,
        }
    }

    /// Restricts the audience (builder style).
    pub fn with_audience(mut self, audience: StreamAudience) -> Self {
        self.audience = audience;
        self
    }

    /// Delays the stream's start (builder style).
    pub fn starting_after(mut self, offset: SimDuration) -> Self {
        self.start_offset = offset;
        self
    }
}

/// Freerider population and behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FreeriderScenario {
    /// Number of freeriders (the last `count` node identifiers, never the
    /// source).
    pub count: usize,
    /// Dissemination-level degree of freeriding.
    pub degree: FreeriderConfig,
}

/// Collusion behaviour of the freeriders.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CollusionScenario {
    /// Probability with which a colluding freerider picks a coalition member
    /// as gossip partner (`pm` in Section 6.3.2); 0 disables biased selection.
    pub partner_bias: f64,
    /// Colluders vouch for each other during confirmations and never blame
    /// each other.
    pub cover_up: bool,
    /// Colluders mount the man-in-the-middle attack of Figure 8b.
    pub man_in_the_middle: bool,
}

impl CollusionScenario {
    /// No collusion at all: freeriders act independently.
    pub fn none() -> Self {
        CollusionScenario {
            partner_bias: 0.0,
            cover_up: false,
            man_in_the_middle: false,
        }
    }

    /// True if any collusion mechanism is enabled.
    pub fn is_active(&self) -> bool {
        self.partner_bias > 0.0 || self.cover_up || self.man_in_the_middle
    }
}

/// Which [`crate::layers::Adversary`] the misbehaving population plays.
///
/// `Baseline` reproduces the paper's wiring (freeriders of the configured
/// degree, colluding per [`CollusionScenario`]); the other variants plug in
/// adversaries the original `Behavior`/`CollusionConfig` combination could
/// not express.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdversaryScenario {
    /// The paper's adversary: every node of the freerider population
    /// freerides with the configured degree; collusion per the scenario.
    Baseline,
    /// On-off freeriders: the population freerides for `on_periods` gossip
    /// periods, then behaves honestly for `off_periods`, diluting the blame
    /// it accumulates (exploits the `1/r` normalization of Equation 6).
    OnOff {
        /// Length of each freeriding window, in gossip periods (≥ 1).
        on_periods: u64,
        /// Length of each honest window, in gossip periods (≥ 1).
        off_periods: u64,
    },
    /// Blame spammers: the population disseminates honestly but floods the
    /// reputation plane with fabricated blames against random peers.
    BlameSpam {
        /// Fabricated blames emitted per gossip tick by each spammer.
        blames_per_period: u32,
        /// Value of each fabricated blame.
        blame_value: f64,
    },
    /// Selective freeriders for multi-channel runs: the population behaves
    /// honestly on some channels and goes **fully silent** (proposes to
    /// nobody, serves nothing) on the channels named in `silent_mask`. The
    /// attack probes whether reputation is per-channel: with cross-stream
    /// blame aggregation the silence on one channel costs the node its access
    /// to *all* of them.
    SelectiveFreerider {
        /// Bitmask of silenced streams (bit `s` = stream `s`).
        silent_mask: u64,
    },
    /// Gradient freeriders — **closed loop**: each period the population
    /// reads its own manager scores and throttles its freeriding intensity
    /// to ride just above the public threshold `η` (back off by `step` when
    /// `score < η + margin`, creep back up otherwise). Evades any static
    /// threshold; countered by [`OnlineRecalibration`].
    GradientFreerider {
        /// Safety margin above `η` the adversary tries to keep.
        margin: f64,
        /// Intensity decrement applied when the score nears `η`.
        step: f64,
    },
    /// Whitewashers — **closed loop**: the population freerides greedily,
    /// watches its own score trajectory, and departs once blame has dragged
    /// the score `margin` below its observed peak (a drawdown the node
    /// measures locally, without knowing the managers' threshold), rejoining
    /// after `offline` in the hope of a laundered reputation. Countered by
    /// the frozen-score carryover across sessions.
    Whitewasher {
        /// Departure trigger: leave once the score sits `margin` below its
        /// observed peak.
        margin: f64,
        /// Offline time before each rejoin.
        offline: SimDuration,
    },
    /// Adaptive colluders — **closed loop**: a cover-up coalition that
    /// watches which accomplices get audited and re-aims its biased partner
    /// selection away from them for `cooldown_periods`, dodging the entropy
    /// check's paper trail. Carries its own bias parameter so it does not
    /// overload [`CollusionScenario`] (which configures only the baseline).
    AdaptiveColluders {
        /// Probability of picking an (unscrutinized) coalition member as
        /// gossip partner.
        partner_bias: f64,
        /// Periods an audited accomplice stays off the bias list.
        cooldown_periods: u64,
    },
}

impl AdversaryScenario {
    /// Validates the adversary parameters.
    ///
    /// # Panics
    ///
    /// Panics if a window length is zero or a blame value is negative.
    pub fn validate(&self) {
        match self {
            AdversaryScenario::Baseline => {}
            AdversaryScenario::OnOff {
                on_periods,
                off_periods,
            } => {
                assert!(
                    *on_periods >= 1 && *off_periods >= 1,
                    "on-off windows must be at least one period"
                );
            }
            AdversaryScenario::BlameSpam { blame_value, .. } => {
                assert!(*blame_value >= 0.0, "blame value must be non-negative");
            }
            AdversaryScenario::SelectiveFreerider { silent_mask } => {
                assert!(
                    *silent_mask != 0,
                    "a selective freerider's silent_mask must silence at least one stream"
                );
            }
            AdversaryScenario::GradientFreerider { margin, step } => {
                assert!(*margin >= 0.0, "gradient margin must be non-negative");
                assert!(
                    *step > 0.0 && *step <= 1.0,
                    "gradient step must be in (0, 1]"
                );
            }
            AdversaryScenario::Whitewasher { margin, offline } => {
                assert!(*margin >= 0.0, "whitewash margin must be non-negative");
                assert!(
                    !offline.is_zero(),
                    "whitewash offline time must be positive"
                );
            }
            AdversaryScenario::AdaptiveColluders {
                partner_bias,
                cooldown_periods,
            } => {
                assert!(
                    (0.0..=1.0).contains(partner_bias),
                    "adaptive partner bias out of range"
                );
                assert!(
                    *cooldown_periods >= 1,
                    "adaptive cooldown must cover at least one period"
                );
            }
        }
    }

    /// True if this adversary reacts to runtime feedback (scores, audit
    /// observations) — i.e. the runtime must run the closed-loop upcalls.
    pub fn closed_loop(&self) -> bool {
        matches!(
            self,
            AdversaryScenario::GradientFreerider { .. }
                | AdversaryScenario::Whitewasher { .. }
                | AdversaryScenario::AdaptiveColluders { .. }
        )
    }
}

/// Complete description of one experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Number of nodes (node 0 is the broadcast source and is always honest).
    pub nodes: usize,
    /// Gossip protocol parameters.
    pub gossip: GossipConfig,
    /// LiFTinG parameters.
    pub lifting: LiftingConfig,
    /// Whether the LiFTinG verification layer runs at all (Figure 1 compares
    /// the system with and without it).
    pub lifting_enabled: bool,
    /// Whether a-posteriori audits run periodically.
    pub audits_enabled: bool,
    /// Interval between audits initiated by each node (when enabled).
    pub audit_interval: SimDuration,
    /// Network conditions.
    pub network: NetworkConfig,
    /// Rate of the primary stream in bits per second (674 kbps in the
    /// headline experiment).
    pub stream_rate_bps: u64,
    /// Chunk payload size of the primary stream in bytes.
    pub chunk_size: u32,
    /// Audience of the primary stream (`All` in every single-channel
    /// scenario).
    pub primary_audience: StreamAudience,
    /// Additional broadcast channels beyond the primary stream. Empty for
    /// the paper's single-channel experiments: stream 0 is always defined by
    /// `stream_rate_bps`/`chunk_size`/`primary_audience`, and entry `i` here
    /// is stream `i + 1`. All channels share the membership, verification
    /// parameters and reputation plane; each gets its own source, chunk
    /// stores, playout buffers and verification history.
    pub streams: Vec<StreamSpec>,
    /// Freerider population, if any.
    pub freeriders: Option<FreeriderScenario>,
    /// Collusion behaviour of the freeriders.
    pub collusion: CollusionScenario,
    /// The adversary the misbehaving population plays (see
    /// [`AdversaryScenario`]); `Baseline` reproduces the paper's wiring.
    pub adversary: AdversaryScenario,
    /// Membership dynamics: steady session/offline churn plus optional
    /// catastrophic-failure and flash-crowd waves. `None` keeps the
    /// population static (the paper's controlled experiments).
    pub churn: Option<ChurnSchedule>,
    /// Scheduled network-fault waves: each wave partitions a random fraction
    /// of the population (both transports cut) for its outage duration.
    /// `None` keeps the network fault-free beyond its loss model.
    pub faults: Option<FaultSchedule>,
    /// Bounded retry + timeout policy for audit RPCs; `None` keeps the
    /// paper's partition-oblivious audits.
    pub audit_retry: Option<AuditRetryPolicy>,
    /// Online recalibration of the detection threshold from the live score
    /// stream; `None` keeps the static `η` of [`LiftingConfig::eta`].
    pub online_recalibration: Option<OnlineRecalibration>,
    /// Uplink of a well-provisioned node, bits per second (`None` =
    /// unconstrained).
    pub default_upload_bps: Option<u64>,
    /// How access-link quality is spread over the population: a fraction of
    /// poorly connected honest nodes (the paper attributes most false
    /// positives to them) or access-technology tiers.
    pub capability: CapabilityModel,
    /// Trace-driven membership and channel dynamics; `None` keeps the
    /// population static. Mutually exclusive with [`ScenarioConfig::churn`]
    /// — both drive membership transitions.
    pub workload: Option<WorkloadModel>,
    /// Total simulated duration.
    pub duration: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl ScenarioConfig {
    /// The paper's PlanetLab deployment (Section 7.1): 300 nodes, 674 kbps,
    /// `f = 7`, `Tg = 500 ms`, `M = 25`, 4 % loss, 10 % freeriders with
    /// `Δ = (1/7, 0.1, 0.1)`.
    pub fn planetlab_baseline(seed: u64) -> Self {
        ScenarioConfig {
            nodes: 300,
            gossip: GossipConfig::planetlab(),
            lifting: LiftingConfig::planetlab(),
            lifting_enabled: true,
            audits_enabled: false,
            audit_interval: SimDuration::from_secs(10),
            network: NetworkConfig::planetlab(0.04),
            stream_rate_bps: 674_000,
            chunk_size: 4_096,
            primary_audience: StreamAudience::All,
            streams: Vec::new(),
            freeriders: None,
            collusion: CollusionScenario::none(),
            adversary: AdversaryScenario::Baseline,
            churn: None,
            faults: None,
            audit_retry: None,
            online_recalibration: None,
            default_upload_bps: Some(5_000_000),
            capability: CapabilityModel::PoorFraction {
                fraction: 0.1,
                poor_upload_bps: 800_000,
                poor_extra_loss: 0.03,
            },
            workload: None,
            duration: SimDuration::from_secs(40),
            seed,
        }
    }

    /// Adds the paper's freerider population: 10 % of the nodes freeriding
    /// with `Δ = (1/7, 0.1, 0.1)`.
    pub fn with_planetlab_freeriders(mut self, fraction: f64) -> Self {
        let count = ((self.nodes as f64) * fraction).round() as usize;
        self.freeriders = Some(FreeriderScenario {
            count,
            degree: FreeriderConfig::planetlab(),
        });
        self
    }

    /// A small configuration for fast tests: `n` nodes, ideal network,
    /// unconstrained uplinks, few managers, short duration.
    pub fn small_test(n: usize, seed: u64) -> Self {
        let mut lifting = LiftingConfig::planetlab();
        lifting.managers = 5.min(n.saturating_sub(1)).max(1);
        ScenarioConfig {
            nodes: n,
            gossip: GossipConfig {
                fanout: 5,
                gossip_period: SimDuration::from_millis(500),
                clear_stream_threshold: 0.9,
            },
            lifting,
            lifting_enabled: true,
            audits_enabled: false,
            audit_interval: SimDuration::from_secs(5),
            network: NetworkConfig::ideal(),
            stream_rate_bps: 200_000,
            chunk_size: 2_500,
            primary_audience: StreamAudience::All,
            streams: Vec::new(),
            freeriders: None,
            collusion: CollusionScenario::none(),
            adversary: AdversaryScenario::Baseline,
            churn: None,
            faults: None,
            audit_retry: None,
            online_recalibration: None,
            default_upload_bps: None,
            capability: CapabilityModel::PoorFraction {
                fraction: 0.0,
                poor_upload_bps: 500_000,
                poor_extra_loss: 0.0,
            },
            workload: None,
            duration: SimDuration::from_secs(15),
            seed,
        }
    }

    /// Number of broadcast channels (1 plus the extra `streams`).
    pub fn stream_count(&self) -> usize {
        1 + self.streams.len()
    }

    /// The specification of stream `s` (stream 0 is assembled from the
    /// legacy single-channel fields, so pre-multistream scenarios are
    /// untouched).
    pub fn stream_spec(&self, s: StreamId) -> StreamSpec {
        if s == StreamId::PRIMARY {
            StreamSpec {
                rate_bps: self.stream_rate_bps,
                chunk_size: self.chunk_size,
                start_offset: SimDuration::ZERO,
                audience: self.primary_audience,
            }
        } else {
            self.streams[s.index() - 1]
        }
    }

    /// Iterates over every stream id of the scenario.
    pub fn stream_ids(&self) -> impl Iterator<Item = StreamId> {
        (0..self.stream_count()).map(|s| StreamId::new(s as u16))
    }

    /// Adds an extra broadcast channel (builder style).
    pub fn with_stream(mut self, spec: StreamSpec) -> Self {
        self.streams.push(spec);
        self
    }

    /// Number of freeriders in the scenario.
    pub fn freerider_count(&self) -> usize {
        self.freeriders.map(|f| f.count).unwrap_or(0)
    }

    /// True if the node with this identifier is a freerider (the last
    /// `count` identifiers, never node 0).
    pub fn is_freerider(&self, node_index: usize) -> bool {
        let count = self.freerider_count();
        count > 0 && node_index != 0 && node_index >= self.nodes.saturating_sub(count)
    }

    /// Validates the scenario.
    ///
    /// # Panics
    ///
    /// Panics if the population is too small, the freerider count exceeds the
    /// population, or a parameter is out of range. This is the one place the
    /// scenario's ranges are checked: each typed model (loss, capability,
    /// workload, adversary, churn, faults, …) contributes its own `validate`.
    pub fn validate(&self) {
        assert!(self.nodes >= 3, "at least three nodes are required");
        self.gossip.validate();
        self.lifting.validate();
        assert!(
            self.lifting.managers < self.nodes,
            "cannot assign {} managers among {} nodes",
            self.lifting.managers,
            self.nodes
        );
        assert!(
            self.freerider_count() < self.nodes,
            "freeriders must be a strict subset of the population"
        );
        self.network.loss.validate();
        self.capability.validate();
        assert!(
            (0.0..=1.0).contains(&self.collusion.partner_bias),
            "partner bias out of range"
        );
        assert!(
            self.stream_rate_bps > 0 && self.chunk_size > 0,
            "empty stream"
        );
        assert!(
            self.stream_count() <= 64,
            "at most 64 concurrent streams (the selective-freerider mask is a u64)"
        );
        for stream in self.stream_ids() {
            let spec = self.stream_spec(stream);
            assert!(
                spec.rate_bps > 0 && spec.chunk_size > 0,
                "stream {stream} is empty"
            );
            assert!(
                spec.audience.size(self.nodes) >= 2,
                "stream {stream}'s audience has fewer than two subscribers; \
                 gossip needs someone to talk to"
            );
        }
        assert!(!self.duration.is_zero(), "duration must be positive");
        if let Some(workload) = &self.workload {
            workload.validate(self.stream_count());
            assert!(
                self.churn.is_none(),
                "a workload model and a churn schedule cannot drive membership simultaneously"
            );
        }
        self.adversary.validate();
        if let Some(churn) = &self.churn {
            churn.validate();
            // Waves must leave enough of the population standing for gossip
            // to mean anything (and for the validate() invariants above).
            let wave_max = [churn.catastrophe, churn.flash_crowd]
                .into_iter()
                .flatten()
                .map(|w| w.fraction)
                .fold(0.0f64, f64::max);
            assert!(
                wave_max <= 0.9,
                "a churn wave may cover at most 90% of the population"
            );
        }
        if !matches!(self.adversary, AdversaryScenario::Baseline) {
            assert!(
                self.freerider_count() > 0,
                "a non-baseline adversary needs a misbehaving population (set `freeriders`)"
            );
            assert!(
                !self.collusion.is_active(),
                "collusion only composes with the baseline adversary; \
                 the on-off / blame-spam adversaries would silently ignore it"
            );
        }
        if let AdversaryScenario::SelectiveFreerider { silent_mask } = self.adversary {
            assert!(
                self.stream_count() > 1,
                "a selective freerider needs at least two streams to select between"
            );
            // With exactly 64 streams every bit of the mask is a valid
            // stream; the shift below would overflow, so skip it.
            assert!(
                self.stream_count() >= 64 || silent_mask >> self.stream_count() == 0,
                "the silent mask names streams the scenario does not run"
            );
        }
        if let AdversaryScenario::AdaptiveColluders { .. } = self.adversary {
            assert!(
                self.freerider_count() >= 2,
                "adaptive colluders need a coalition of at least two"
            );
        }
        if let Some(faults) = &self.faults {
            faults.validate();
            let wave_max = faults
                .waves
                .iter()
                .map(|w| w.fraction)
                .fold(0.0f64, f64::max);
            assert!(
                wave_max <= 0.9,
                "a fault wave may partition at most 90% of the population"
            );
        }
        if let Some(retry) = &self.audit_retry {
            retry.validate();
        }
        if let Some(online) = &self.online_recalibration {
            online.validate();
        }
        if let Some(f) = &self.freeriders {
            f.degree.validate();
        }
    }

    /// True if the scenario exercises the resilience plane (fault waves, a
    /// closed-loop adversary, or the online-recalibration defence) — the
    /// runtime then tracks per-period recovery metrics.
    pub fn resilience_active(&self) -> bool {
        self.faults.is_some() || self.online_recalibration.is_some() || self.adversary.closed_loop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planetlab_baseline_matches_the_paper() {
        let s = ScenarioConfig::planetlab_baseline(1);
        s.validate();
        assert_eq!(s.nodes, 300);
        assert_eq!(s.gossip.fanout, 7);
        assert_eq!(s.lifting.managers, 25);
        assert_eq!(s.stream_rate_bps, 674_000);
        assert_eq!(s.freerider_count(), 0);
        let with = s.with_planetlab_freeriders(0.1);
        with.validate();
        assert_eq!(with.freerider_count(), 30);
    }

    #[test]
    fn freerider_assignment_is_a_suffix_excluding_the_source() {
        let s = ScenarioConfig::small_test(10, 0).with_planetlab_freeriders(0.3);
        assert_eq!(s.freerider_count(), 3);
        let flags: Vec<bool> = (0..10).map(|i| s.is_freerider(i)).collect();
        assert_eq!(
            flags,
            vec![false, false, false, false, false, false, false, true, true, true]
        );
    }

    #[test]
    fn source_is_never_a_freerider() {
        let mut s = ScenarioConfig::small_test(4, 0);
        s.freeriders = Some(FreeriderScenario {
            count: 3,
            degree: FreeriderConfig::uniform(0.5),
        });
        s.validate();
        assert!(!s.is_freerider(0));
        assert!(s.is_freerider(1));
    }

    #[test]
    #[should_panic]
    fn too_many_freeriders_is_rejected() {
        let mut s = ScenarioConfig::small_test(4, 0);
        s.freeriders = Some(FreeriderScenario {
            count: 4,
            degree: FreeriderConfig::uniform(0.1),
        });
        s.validate();
    }

    #[test]
    #[should_panic(expected = "collusion only composes with the baseline adversary")]
    fn collusion_with_non_baseline_adversary_is_rejected() {
        let mut s = ScenarioConfig::small_test(10, 0).with_planetlab_freeriders(0.3);
        s.adversary = AdversaryScenario::OnOff {
            on_periods: 1,
            off_periods: 1,
        };
        s.collusion = CollusionScenario {
            partner_bias: 0.0,
            cover_up: true,
            man_in_the_middle: false,
        };
        s.validate();
    }

    /// Every typed range is checked by `validate`, and the panic names the
    /// offending field.
    #[test]
    fn validate_rejects_every_out_of_range_field_by_name() {
        let diurnal = DiurnalCycle {
            participation: 0.5,
            cycle: SimDuration::from_secs(4),
            offline_fraction: 0.25,
            warmup: SimDuration::ZERO,
        };
        let zap = ZapSwitching {
            zappers: 0.5,
            mean_dwell: SimDuration::from_secs(2),
            warmup: SimDuration::ZERO,
        };
        let two_streams = |c: &mut ScenarioConfig| {
            c.streams
                .push(StreamSpec::new(c.stream_rate_bps, c.chunk_size))
        };
        type Case = (&'static str, Box<dyn Fn(&mut ScenarioConfig)>);
        let cases: Vec<Case> = vec![
            (
                "poor_upload_bps",
                Box::new(|c| {
                    c.capability = CapabilityModel::PoorFraction {
                        fraction: 0.1,
                        poor_upload_bps: 0,
                        poor_extra_loss: 0.0,
                    }
                }),
            ),
            (
                "fiber",
                Box::new(|c| {
                    c.capability = CapabilityModel::Tiered {
                        fiber: 0.5,
                        cable: 0.4,
                        dsl: 0.3,
                    }
                }),
            ),
            (
                "regions",
                Box::new(|c| {
                    c.workload = Some(WorkloadModel::RegionalFailure(RegionalFailureWaves {
                        regions: 0,
                        waves: 1,
                        outage: SimDuration::from_secs(1),
                        warmup: SimDuration::ZERO,
                    }))
                }),
            ),
            (
                "participation",
                Box::new(move |c| {
                    c.workload = Some(WorkloadModel::Diurnal(DiurnalCycle {
                        participation: 1.5,
                        ..diurnal
                    }))
                }),
            ),
            (
                "cycle",
                Box::new(move |c| {
                    c.workload = Some(WorkloadModel::Diurnal(DiurnalCycle {
                        cycle: SimDuration::ZERO,
                        ..diurnal
                    }))
                }),
            ),
            (
                "zappers",
                Box::new(move |c| {
                    two_streams(c);
                    c.workload = Some(WorkloadModel::Zap(ZapSwitching {
                        zappers: 1.5,
                        ..zap
                    }));
                }),
            ),
            (
                // On one stream a zap plan is empty: the workload would do nothing.
                "streams",
                Box::new(move |c| c.workload = Some(WorkloadModel::Zap(zap))),
            ),
            (
                "step",
                Box::new(|c| {
                    c.adversary = AdversaryScenario::GradientFreerider {
                        margin: 1.0,
                        step: 0.0,
                    }
                }),
            ),
            (
                "silent_mask",
                Box::new(move |c| {
                    two_streams(c);
                    c.adversary = AdversaryScenario::SelectiveFreerider { silent_mask: 0 };
                }),
            ),
            (
                "pl",
                Box::new(|c| c.network.loss = lifting_net::LossModel::bernoulli(1.5)),
            ),
        ];
        let base = || ScenarioConfig::small_test(10, 1).with_planetlab_freeriders(0.3);
        base().validate();
        // The in-range neighbours of the cases above pass.
        let mut valid = base();
        two_streams(&mut valid);
        valid.capability = CapabilityModel::tiered();
        valid.workload = Some(WorkloadModel::Zap(zap));
        valid.validate();

        for (field, mutate) in &cases {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut config = base();
                mutate(&mut config);
                config.validate();
            }));
            let payload = result.expect_err(&format!("an invalid `{field}` must not validate"));
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains(field),
                "the panic for `{field}` must name it, got {message:?}"
            );
        }
    }

    #[test]
    fn collusion_scenario_activity_flag() {
        assert!(!CollusionScenario::none().is_active());
        assert!(CollusionScenario {
            partner_bias: 0.2,
            cover_up: false,
            man_in_the_middle: false
        }
        .is_active());
    }
}
