//! Outcome exporters — the one runtime-level component registry — and the
//! `--list` rendering of a scenario's typed configuration.
//!
//! Scenario configuration itself is typed: [`ScenarioConfig`] carries the
//! network, capability, workload, adversary, churn and fault models as plain
//! enums and structs, validated in one place by [`ScenarioConfig::validate`].
//! The exporter is not a property of the scenario — the binaries pick one per
//! run (`run_scenario --exporter NAME`) — so it stays a named component of a
//! [`lifting_sim::ComponentRegistry`].

use std::sync::OnceLock;

use lifting_membership::WorkloadModel;
use lifting_net::{CapabilityModel, LossModel, TransportPolicy};
use lifting_sim::{Component, ComponentError, ComponentRegistry, ParamMap, SeedSplitter};

use crate::metrics::RunOutcome;
use crate::scenario::{AdversaryScenario, ScenarioConfig};

/// Renders a finished run's [`RunOutcome`] for a consumer: full JSON, a
/// one-line summary, or a content digest.
pub trait OutcomeExporter: Send + Sync {
    /// The registered name.
    fn name(&self) -> &'static str;
    /// Renders the outcome of `scenario` as a string (the binaries decide
    /// where it goes: stdout, a file, a report).
    fn export(&self, scenario: &str, eta: f64, outcome: &RunOutcome) -> String;
}

struct JsonExporter;

impl OutcomeExporter for JsonExporter {
    fn name(&self) -> &'static str {
        "json"
    }
    fn export(&self, _scenario: &str, _eta: f64, outcome: &RunOutcome) -> String {
        serde_json::to_string_pretty(outcome).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

struct SummaryLineExporter;

impl OutcomeExporter for SummaryLineExporter {
    fn name(&self) -> &'static str {
        "summary-line"
    }
    fn export(&self, scenario: &str, eta: f64, outcome: &RunOutcome) -> String {
        format!(
            "{scenario}: detection {:.1}% fp {:.2}% expelled {} health {:.3} chunks {} msgs {}",
            outcome.detection_rate(eta) * 100.0,
            outcome.false_positive_rate(eta) * 100.0,
            outcome.expelled_count,
            outcome
                .stream_health
                .fraction_clear
                .iter()
                .copied()
                .sum::<f64>()
                / outcome.stream_health.fraction_clear.len().max(1) as f64,
            outcome.emitted_chunks.len(),
            outcome.traffic.total_messages_sent,
        )
    }
}

struct DigestExporter;

impl OutcomeExporter for DigestExporter {
    fn name(&self) -> &'static str {
        "digest"
    }
    fn export(&self, scenario: &str, _eta: f64, outcome: &RunOutcome) -> String {
        // FNV-1a over the canonical JSON rendering: a stable content hash
        // (the golden-digest tests pin the same idea over the raw fields).
        let rendered = serde_json::to_string(outcome).unwrap_or_default();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in rendered.as_bytes() {
            hash ^= *byte as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        format!("{scenario}: 0x{hash:016x}")
    }
}

/// The registry of outcome exporters: `json`, `summary-line`, `digest`.
pub fn exporter_components() -> &'static ComponentRegistry<Box<dyn OutcomeExporter>> {
    static REGISTRY: OnceLock<ComponentRegistry<Box<dyn OutcomeExporter>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut registry = ComponentRegistry::new("exporter");
        for entry in [
            ("json", "Full RunOutcome as pretty-printed JSON"),
            (
                "summary-line",
                "One line: detection, false positives, expulsions, stream health",
            ),
            (
                "digest",
                "FNV-1a content hash of the outcome (regression pinning)",
            ),
        ] {
            let component: Box<dyn Component<Box<dyn OutcomeExporter>>> = match entry.0 {
                "json" => Box::new(ExporterComponent {
                    name: entry.0,
                    description: entry.1,
                    make: || Box::new(JsonExporter),
                }),
                "summary-line" => Box::new(ExporterComponent {
                    name: entry.0,
                    description: entry.1,
                    make: || Box::new(SummaryLineExporter),
                }),
                _ => Box::new(ExporterComponent {
                    name: entry.0,
                    description: entry.1,
                    make: || Box::new(DigestExporter),
                }),
            };
            registry.register(component).expect("unique exporter");
        }
        registry
    })
}

struct ExporterComponent {
    name: &'static str,
    description: &'static str,
    make: fn() -> Box<dyn OutcomeExporter>,
}

impl Component<Box<dyn OutcomeExporter>> for ExporterComponent {
    fn name(&self) -> &'static str {
        self.name
    }
    fn description(&self) -> &'static str {
        self.description
    }
    fn build(
        &self,
        _: &ParamMap,
        _: &mut SeedSplitter,
    ) -> Result<Box<dyn OutcomeExporter>, ComponentError> {
        Ok((self.make)())
    }
}

/// The scenario's composition, rendered from its typed fields as
/// `(axis, value)` pairs over the transport, loss, capability, workload and
/// adversary axes. This is what `run_scenario --list` prints next to each
/// scenario.
pub fn component_summary(config: &ScenarioConfig) -> Vec<(&'static str, String)> {
    let transport = if config.network.transports == TransportPolicy::paper() {
        "paper"
    } else if config.network.transports == TransportPolicy::all_udp() {
        "all-udp"
    } else if config.network.transports == TransportPolicy::all_tcp() {
        "all-tcp"
    } else {
        "custom"
    };
    let loss = match config.network.loss {
        LossModel::None => "none".to_string(),
        LossModel::Bernoulli { pl } => format!("bernoulli{{pl={pl}}}"),
        LossModel::GilbertElliott { p_gb, p_bg, .. } => {
            format!("gilbert-elliott{{p_gb={p_gb},p_bg={p_bg}}}")
        }
    };
    let name = config.capability.name();
    let capability = match config.capability {
        CapabilityModel::PoorFraction { fraction, .. } if fraction > 0.0 => {
            format!("{name}{{fraction={fraction}}}")
        }
        CapabilityModel::PoorFraction { .. } => name.to_string(),
        CapabilityModel::Tiered { fiber, cable, dsl } => {
            format!("{name}{{fiber={fiber},cable={cable},dsl={dsl}}}")
        }
    };
    let workload = match config.workload {
        Some(model) => {
            let name = model.name();
            match model {
                WorkloadModel::Diurnal(m) => format!(
                    "{name}{{participation={},cycle={}s}}",
                    m.participation,
                    m.cycle.as_secs_f64()
                ),
                WorkloadModel::RegionalFailure(m) => {
                    format!("{name}{{regions={},waves={}}}", m.regions, m.waves)
                }
                WorkloadModel::Zap(m) => format!("{name}{{zappers={}}}", m.zappers),
            }
        }
        None if config.churn.is_some() => "churn-schedule".to_string(),
        None => "static".to_string(),
    };
    let adversary = match config.adversary {
        AdversaryScenario::Baseline if config.freerider_count() == 0 => "none",
        AdversaryScenario::Baseline if config.collusion.is_active() => "colluders",
        AdversaryScenario::Baseline => "baseline",
        AdversaryScenario::OnOff { .. } => "on-off",
        AdversaryScenario::BlameSpam { .. } => "blame-spam",
        AdversaryScenario::SelectiveFreerider { .. } => "selective-freerider",
        AdversaryScenario::GradientFreerider { .. } => "gradient-freerider",
        AdversaryScenario::Whitewasher { .. } => "whitewasher",
        AdversaryScenario::AdaptiveColluders { .. } => "adaptive-colluders",
    };
    vec![
        ("transport", transport.to_string()),
        ("loss", loss),
        ("capability", capability),
        ("workload", workload),
        ("adversary", adversary.to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_exporter_builds_and_renders() {
        let registry = exporter_components();
        assert_eq!(
            registry.names().collect::<Vec<_>>(),
            vec!["json", "summary-line", "digest"]
        );
        let outcome = crate::run_scenario(ScenarioConfig::small_test(10, 1));
        for name in registry.names() {
            let exporter = registry
                .build(name, &ParamMap::new(), &mut SeedSplitter::new(0))
                .unwrap_or_else(|e| panic!("exporter {name} failed to build: {e}"));
            assert_eq!(exporter.name(), name);
            assert!(!exporter.export("smoke", -9.75, &outcome).is_empty());
        }
    }

    #[test]
    fn summary_renders_the_typed_fields() {
        let config = ScenarioConfig::planetlab_baseline(1);
        assert_eq!(
            component_summary(&config),
            vec![
                ("transport", "paper".to_string()),
                ("loss", "bernoulli{pl=0.04}".to_string()),
                ("capability", "poor-fraction{fraction=0.1}".to_string()),
                ("workload", "static".to_string()),
                ("adversary", "none".to_string()),
            ]
        );
    }
}
