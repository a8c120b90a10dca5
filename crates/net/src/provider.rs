//! Per-node capability models: how a scenario spreads access-link quality
//! (uplink rate, access loss, latency class) over its population.
//!
//! A [`CapabilityModel`] maps every node to a [`NodeCapability`] from one
//! shared RNG stream. The `PoorFraction` model replicates, draw for draw,
//! the historical builder loop — the bit-compatibility anchor for every
//! scenario that predates the tiered model.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bandwidth::NodeCapability;

/// Assigns every node its [`NodeCapability`] — the per-node heterogeneity of
/// a scenario.
///
/// The builder walks nodes in ascending order and calls
/// [`CapabilityModel::assign`] once per node with the *same* RNG; every
/// model keeps its draw order a pure function of `(index, is_freerider)` so
/// the assignment is deterministic and insertion-order independent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CapabilityModel {
    /// The historical heterogeneity model: a `fraction` of the *honest*
    /// population is poorly connected (the paper's main false-positive
    /// source). The source never draws, freeriders never draw (the
    /// short-circuit is part of the RNG contract), and a zero fraction
    /// consumes nothing — so `fraction = 0` is the uniform model.
    PoorFraction {
        /// Fraction of honest nodes with a poor attachment, in `[0, 1]`.
        fraction: f64,
        /// Uplink of a poor node, bits per second (≥ 1).
        poor_upload_bps: u64,
        /// Extra access-link loss of a poor node, in `[0, 1]`.
        poor_extra_loss: f64,
    },
    /// Heterogeneous access-technology tiers: every non-source node draws one
    /// of four classes — fiber, cable, DSL and mobile (the remainder) — with
    /// per-class uplink rate, access loss and latency scale. The per-node
    /// draw happens unconditionally (freeriders included) so the class
    /// stream is a pure function of the node order.
    Tiered {
        /// Fraction of fiber nodes (50 Mbps up, 0.8x latency).
        fiber: f64,
        /// Fraction of cable nodes (10 Mbps up).
        cable: f64,
        /// Fraction of DSL nodes (2 Mbps up, 1 % access loss, 1.3x latency).
        dsl: f64,
    },
}

impl CapabilityModel {
    const FIBER: NodeCapability = NodeCapability {
        upload_bps: Some(50_000_000),
        extra_loss: 0.0,
        latency_scale: 0.8,
    };
    const CABLE: NodeCapability = NodeCapability {
        upload_bps: Some(10_000_000),
        extra_loss: 0.0,
        latency_scale: 1.0,
    };
    const DSL: NodeCapability = NodeCapability {
        upload_bps: Some(2_000_000),
        extra_loss: 0.01,
        latency_scale: 1.3,
    };
    const MOBILE: NodeCapability = NodeCapability {
        upload_bps: Some(1_000_000),
        extra_loss: 0.03,
        latency_scale: 2.0,
    };

    /// The default tier mix: 15 % fiber, 45 % cable, 30 % DSL, 10 % mobile.
    pub fn tiered() -> Self {
        CapabilityModel::Tiered {
            fiber: 0.15,
            cable: 0.45,
            dsl: 0.3,
        }
    }

    /// A short name for listings: `uniform`, `poor-fraction` or `tiered`.
    pub fn name(&self) -> &'static str {
        match self {
            CapabilityModel::PoorFraction { fraction, .. } if *fraction <= 0.0 => "uniform",
            CapabilityModel::PoorFraction { .. } => "poor-fraction",
            CapabilityModel::Tiered { .. } => "tiered",
        }
    }

    /// The capability of node `index`. `default` is the scenario's baseline
    /// attachment; node 0 — the broadcast source — always gets `default`.
    pub fn assign(
        &self,
        index: usize,
        is_freerider: bool,
        default: NodeCapability,
        rng: &mut SmallRng,
    ) -> NodeCapability {
        if index == 0 {
            return default; // the source is always well provisioned
        }
        match *self {
            CapabilityModel::PoorFraction {
                fraction,
                poor_upload_bps,
                poor_extra_loss,
            } => {
                if !is_freerider && fraction > 0.0 && rng.gen_bool(fraction) {
                    NodeCapability::poor(poor_upload_bps, poor_extra_loss)
                } else {
                    default
                }
            }
            CapabilityModel::Tiered { fiber, cable, dsl } => {
                let draw: f64 = rng.gen_range(0.0..1.0);
                if draw < fiber {
                    CapabilityModel::FIBER
                } else if draw < fiber + cable {
                    CapabilityModel::CABLE
                } else if draw < fiber + cable + dsl {
                    CapabilityModel::DSL
                } else {
                    CapabilityModel::MOBILE
                }
            }
        }
    }

    /// Validates the model's parameters.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, if a fraction is outside `[0, 1]`, the poor
    /// uplink is zero, or the tier fractions sum to more than 1.
    pub fn validate(&self) {
        let fraction = |name: &str, x: f64| {
            assert!(
                (0.0..=1.0).contains(&x),
                "capability {name} = {x} not in [0,1]"
            );
        };
        match *self {
            CapabilityModel::PoorFraction {
                fraction: f,
                poor_upload_bps,
                poor_extra_loss,
            } => {
                fraction("fraction", f);
                assert!(
                    poor_upload_bps >= 1,
                    "capability poor_upload_bps must be positive"
                );
                fraction("poor_extra_loss", poor_extra_loss);
            }
            CapabilityModel::Tiered { fiber, cable, dsl } => {
                fraction("fiber", fiber);
                fraction("cable", cable);
                fraction("dsl", dsl);
                assert!(
                    fiber + cable + dsl <= 1.0,
                    "capability fiber + cable + dsl = {} > 1 (the remainder is the mobile class)",
                    fiber + cable + dsl
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lifting_sim::derive_rng;

    #[test]
    fn poor_fraction_replays_the_legacy_draw_order() {
        // The model must consume the RNG exactly like the historical builder
        // loop: one draw per honest non-source node when the fraction is
        // positive, none otherwise.
        let model = CapabilityModel::PoorFraction {
            fraction: 0.5,
            poor_upload_bps: 700_000,
            poor_extra_loss: 0.02,
        };
        let default = NodeCapability::broadband(5_000_000);

        let mut expected_rng = derive_rng(42, 2);
        let mut actual_rng = derive_rng(42, 2);
        for i in 0..50 {
            let is_freerider = i >= 40;
            let expected = if i == 0 {
                default
            } else if !is_freerider && expected_rng.gen_bool(0.5) {
                NodeCapability::poor(700_000, 0.02)
            } else {
                default
            };
            let actual = model.assign(i, is_freerider, default, &mut actual_rng);
            assert_eq!(actual, expected, "node {i}");
        }
        // Both streams must be at the same position afterwards.
        assert_eq!(expected_rng.gen::<u64>(), actual_rng.gen::<u64>());
    }

    #[test]
    fn zero_poor_fraction_is_uniform_and_draws_nothing() {
        let model = CapabilityModel::PoorFraction {
            fraction: 0.0,
            poor_upload_bps: 500_000,
            poor_extra_loss: 0.0,
        };
        assert_eq!(model.name(), "uniform");
        let default = NodeCapability::unconstrained();
        let mut rng = derive_rng(3, 2);
        for i in 0..20 {
            assert_eq!(model.assign(i, false, default, &mut rng), default);
        }
        assert_eq!(rng.gen::<u64>(), derive_rng(3, 2).gen::<u64>());
    }

    #[test]
    fn tiered_is_deterministic_and_covers_all_classes() {
        let model = CapabilityModel::tiered();
        let default = NodeCapability::unconstrained();
        let assign_all = || {
            let mut rng = derive_rng(7, 2);
            (0..200)
                .map(|i| model.assign(i, false, default, &mut rng))
                .collect::<Vec<_>>()
        };
        let a = assign_all();
        assert_eq!(a, assign_all());
        assert_eq!(a[0], default, "the source keeps the default");
        for class in [
            CapabilityModel::FIBER,
            CapabilityModel::CABLE,
            CapabilityModel::DSL,
            CapabilityModel::MOBILE,
        ] {
            assert!(a.contains(&class), "missing {class:?}");
        }
    }

    #[test]
    #[should_panic(expected = "fiber + cable + dsl")]
    fn tiered_fractions_over_one_are_rejected() {
        CapabilityModel::Tiered {
            fiber: 0.6,
            cable: 0.6,
            dsl: 0.0,
        }
        .validate();
    }
}
