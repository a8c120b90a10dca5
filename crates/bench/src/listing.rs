//! The `--list` face of the scenario registry (shared by `run_scenario` and
//! `run_all_experiments`): scenarios grouped by family with each one's
//! composition, plus the bare-name manifest the CI gate diffs.

use lifting_runtime::{component_summary, Scale, ScenarioRegistry};

/// Prints every registered scenario grouped by family, each with its
/// description and its composition rendered from the typed configuration
/// (`transport=paper loss=bernoulli{pl=0.04} ...`).
pub fn print_registry_listing() {
    let registry = ScenarioRegistry::builtin();
    for (family, members) in registry.families() {
        println!("{family}/");
        for name in members {
            let config = registry.build(name, Scale::Quick, 0);
            let composition: Vec<String> = component_summary(&config)
                .into_iter()
                .map(|(axis, value)| format!("{axis}={value}"))
                .collect();
            println!("  {name}");
            if let Some(description) = registry.description(name) {
                println!("      {description}");
            }
            println!("      [{}]", composition.join(" "));
        }
    }
}

/// Prints the bare scenario names, one per line — the machine-readable
/// format the CI manifest gate diffs against `tests/scenario_manifest.txt`.
pub fn print_registry_names() {
    for name in ScenarioRegistry::builtin().names() {
        println!("{name}");
    }
}
