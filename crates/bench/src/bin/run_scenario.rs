//! Runs one registered scenario by name and prints a compact JSON readout —
//! the CLI face of the scenario registry, used by the CI fault-injection
//! and scale smoke gates and handy for ad-hoc inspection:
//!
//! ```text
//! run_scenario resilience/partition-waves --quick [--seed N]
//! ```
//!
//! `--exporter <name>` renders the outcome through a registered outcome
//! exporter (`json`, `summary-line`, `digest`) instead of the default
//! readout.
//!
//! Registry introspection:
//! * `--list` prints every scenario grouped by family, with its description
//!   and composition (transport, loss, capability, workload, adversary);
//! * `--list-names` prints the bare names (the CI manifest gate diffs this
//!   against `tests/scenario_manifest.txt`).

use lifting_bench::cli::Spec;
use lifting_bench::experiments::{Scale, PAPER_ETA};
use lifting_bench::listing;
use lifting_runtime::{exporter_components, run_scenario, ScenarioRegistry};
use lifting_sim::{ParamMap, SeedSplitter};
use serde_json::{json, to_value};

const SPEC: Spec = Spec {
    usage: "usage: run_scenario <scenario-name> [--quick] [--seed N] [--exporter NAME]\n       \
            run_scenario --list | --list-names",
    switches: &["--quick", "--list", "--list-names"],
    options: &["--seed", "--exporter"],
    max_positionals: 1,
};

fn main() {
    let args = SPEC.parse_env_or_exit();
    let registry = ScenarioRegistry::builtin();
    if args.has("--list") {
        listing::print_registry_listing();
        return;
    }
    if args.has("--list-names") {
        listing::print_registry_names();
        return;
    }
    let Some(name) = args.positionals().first() else {
        SPEC.exit_invalid("missing scenario name");
    };
    if !registry.contains(name) {
        SPEC.exit_invalid(&format!("unknown scenario {name:?}; see --list"));
    }
    let scale = if args.has("--quick") {
        Scale::Quick
    } else {
        Scale::Paper
    };
    let seed: u64 = SPEC.value_or_exit(&args, "--seed").unwrap_or(55);
    // Resolve the exporter before the run so a bad name fails fast.
    let exporter = args.value("--exporter").map(|exporter_name| {
        exporter_components()
            .build(
                exporter_name,
                &ParamMap::new(),
                &mut SeedSplitter::new(seed),
            )
            .unwrap_or_else(|e| SPEC.exit_invalid(&format!("--exporter: {e}")))
    });

    let outcome = run_scenario(registry.build(name, scale, seed));
    if let Some(exporter) = exporter {
        println!("{}", exporter.export(name, PAPER_ETA, &outcome));
        return;
    }
    let readout = json!({
        "scenario": name,
        "scale": format!("{scale:?}"),
        "seed": seed,
        "expelled_count": outcome.expelled_count,
        "churn": to_value(&outcome.churn),
        "confirm_retry": to_value(&outcome.confirm_retry),
        "audit_rpc": to_value(&outcome.audit_rpc),
        "recovery": to_value(&outcome.recovery),
        "stream_health": to_value(&outcome.stream_health),
        "traffic_total_bytes_sent": outcome.traffic.total_bytes_sent,
        "memory_per_node_bytes": outcome.memory_per_node_bytes,
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&readout).expect("serialize readout")
    );
}
