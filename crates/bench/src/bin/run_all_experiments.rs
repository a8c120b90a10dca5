//! Runs every experiment of the paper as a parallel job queue and writes a
//! JSON summary (with per-experiment wall-clock timings) to
//! `experiments_summary.json`, plus a timing snapshot to
//! `BENCH_experiments.json` for the performance trajectory.
//!
//! Flags:
//! * `--quick` shrinks every experiment for a smoke run (the tier tracked by
//!   the CI bench-smoke step and the speedup-vs-seed section);
//! * `--paper` runs the paper's own operating point (300 PlanetLab nodes,
//!   full Monte-Carlo populations) — the default;
//! * `--both` sweeps Quick then Paper and emits per-scale timings;
//! * `--sequential` forces a single worker (`LIFTING_WORKERS=1`), which
//!   produces **identical** figure/table numbers — only the wall-clock
//!   changes;
//! * `--filter <substring>` runs only the jobs whose name contains the
//!   substring (e.g. `--filter multistream`) and writes a partial summary
//!   marked `"filtered": true` — a development loop need not pay for the
//!   full suite;
//! * `--tier scale-heavy` opts into the heavy tail of the scale sweep
//!   (`scale/100k`); the default tier stops at `scale/10k` so the `--paper`
//!   suite stays around a minute. Both tiers' per-population timings are
//!   recorded under `scale_tiers` in `BENCH_experiments.json`;
//! * `--list` prints the scenario registry grouped by family, with each
//!   scenario's resolved component composition, and exits.

use std::time::Instant;

use lifting_bench::cli::Spec;
use lifting_bench::experiments::*;
use lifting_runtime::{run_jobs_parallel, ScenarioRegistry};
use serde_json::{json, to_value, Value};

/// `total_wall_secs` of the seed revision's committed Quick-scale baseline
/// (PR 1, single worker). The speedup-vs-seed section tracks how far the
/// per-run hot path has moved since; the CI bench-smoke step separately
/// guards against regressions relative to the *currently committed* snapshot.
const SEED_QUICK_TOTAL_WALL_SECS: f64 = 2.3349774930000002;

/// The jobs that existed in the seed revision's Quick baseline. The suite
/// has since grown (layer_traffic, adversaries, churn, multistream,
/// resilience, scale), so comparing the seed total against today's *full*
/// total would report a phantom slowdown that actually measures new
/// coverage. The speedup section therefore compares over this intersection
/// and reports the grown suite's total separately.
const SEED_QUICK_JOBS: [&str; 9] = [
    "fig01",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14_pdcc_1",
    "fig14_pdcc_05",
    "table3",
    "table5",
];

/// Paper-scale wall-clock of the heaviest jobs as committed by an earlier
/// single-worker snapshot — the baseline `heavy_job_speedup` in the bench
/// snapshot is measured against.
const PRIOR_PAPER_HEAVY_SECS: [(&str, f64); 3] = [
    ("churn", 6.629641466),
    ("multistream", 4.380693119),
    ("resilience", 9.311701082999999),
];

type Job = (&'static str, Box<dyn Fn() -> Value + Send + Sync>);

fn build_jobs(scale: Scale, heavy_scale_tier: bool) -> Vec<Job> {
    // Every experiment is a job; independent scenarios *inside* an experiment
    // fan out further through the same pool (fig01's three cases, fig12's
    // delta sweep, the table grids), and fig14's two pdcc runs are jobs of
    // their own.
    vec![
        (
            "fig01",
            Box::new(move || to_value(&fig01_stream_health(scale, 1))),
        ),
        (
            "fig10",
            Box::new(move || to_value(&fig10_wrongful_blames(scale, 10))),
        ),
        (
            "fig11",
            Box::new(move || to_value(&fig11_score_distributions(scale, 11))),
        ),
        (
            "fig12",
            Box::new(move || {
                let (eta, points) = fig12_detection_vs_delta(scale, 12);
                json!({ "eta": eta, "points": points })
            }),
        ),
        (
            "fig13",
            Box::new(move || to_value(&fig13_history_entropy(scale, 13))),
        ),
        (
            "fig14_pdcc_1",
            Box::new(move || to_value(&fig14_planetlab_scores(scale, 1.0, 14))),
        ),
        (
            "fig14_pdcc_05",
            Box::new(move || to_value(&fig14_planetlab_scores(scale, 0.5, 14))),
        ),
        (
            "table3",
            Box::new(move || to_value(&table03_verification_overhead(scale, 3))),
        ),
        (
            "table5",
            Box::new(move || to_value(&table05_practical_overhead(scale, 5))),
        ),
        (
            "layer_traffic",
            Box::new(move || to_value(&layer_traffic_breakdown(scale, 30))),
        ),
        (
            "adversaries",
            Box::new(move || to_value(&adversary_showcase(scale, 21))),
        ),
        ("churn", Box::new(move || to_value(&churn_sweep(scale, 33)))),
        (
            "multistream",
            Box::new(move || to_value(&multistream_sweep(scale, 44))),
        ),
        (
            "resilience",
            Box::new(move || to_value(&resilience_sweep(scale, 55))),
        ),
        (
            "workload",
            Box::new(move || to_value(&workload_sweep(scale, 77))),
        ),
        (
            "scale",
            Box::new(move || to_value(&scale_sweep_tier(scale, 66, heavy_scale_tier))),
        ),
    ]
}

/// Recursively removes `key` from every object of a value tree — used to
/// keep the nondeterministic per-population `wall_secs` timings out of
/// `experiments_summary.json` (which CI diffs bit-for-bit across worker
/// counts) while `BENCH_experiments.json` keeps them.
fn strip_key(value: &Value, key: &str) -> Value {
    match value {
        Value::Object(entries) => Value::Object(
            entries
                .iter()
                .filter(|(k, _)| k != key)
                .map(|(k, v)| (k.clone(), strip_key(v, key)))
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(|v| strip_key(v, key)).collect()),
        other => other.clone(),
    }
}

/// Results of one full sweep at one scale.
struct SuiteRun {
    scale: Scale,
    /// `(name, figure/table value, seconds)` per experiment, in job order.
    results: Vec<(&'static str, Value, f64)>,
    total_secs: f64,
}

impl SuiteRun {
    fn by_name(&self, name: &str) -> &Value {
        &self
            .results
            .iter()
            .find(|(n, _, _)| *n == name)
            .expect("known experiment name")
            .1
    }

    fn timings(&self) -> Value {
        Value::Object(
            self.results
                .iter()
                .map(|(name, _, secs)| (name.to_string(), Value::Float(*secs)))
                .collect(),
        )
    }
}

fn run_suite(scale: Scale, filter: Option<&str>, heavy_scale_tier: bool) -> SuiteRun {
    let mut jobs = build_jobs(scale, heavy_scale_tier);
    if let Some(needle) = filter {
        jobs.retain(|(name, _)| name.contains(needle));
        assert!(
            !jobs.is_empty(),
            "--filter {needle:?} matches no experiment; known jobs: {:?}",
            build_jobs(scale, heavy_scale_tier)
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
        );
    }
    eprintln!("running all experiments at {scale:?} scale ...");
    let wall_start = Instant::now();
    let results: Vec<(Value, f64)> = run_jobs_parallel(jobs.len(), |i| {
        let (name, run) = &jobs[i];
        eprintln!("[{}/{}] {scale:?}/{name} ...", i + 1, jobs.len());
        let start = Instant::now();
        let value = run();
        let secs = start.elapsed().as_secs_f64();
        eprintln!(
            "[{}/{}] {scale:?}/{name} done in {secs:.2}s",
            i + 1,
            jobs.len()
        );
        (value, secs)
    });
    let total_secs = wall_start.elapsed().as_secs_f64();
    SuiteRun {
        scale,
        results: jobs
            .iter()
            .zip(results)
            .map(|((name, _), (value, secs))| (*name, value, secs))
            .collect(),
        total_secs,
    }
}

const SPEC: Spec = Spec {
    usage: "usage: run_all_experiments [--quick | --paper | --both] [--sequential] \
            [--filter SUBSTRING] [--tier scale-heavy] [--list]",
    switches: &["--quick", "--paper", "--both", "--sequential", "--list"],
    options: &["--filter", "--tier"],
    max_positionals: 0,
};

fn main() {
    let args = SPEC.parse_env_or_exit();
    if args.has("--list") {
        lifting_bench::listing::print_registry_listing();
        return;
    }
    if args.has("--sequential") {
        std::env::set_var(lifting_sim::pool::WORKERS_ENV, "1");
    }
    let both = args.has("--both");
    let quick_only = args.has("--quick") && !both;
    let filter: Option<String> = args.value("--filter").map(str::to_string);
    let heavy_scale_tier = match args.value("--tier") {
        None => false,
        Some("scale-heavy") => true,
        Some(tier) => SPEC.exit_invalid(&format!(
            "unknown tier {tier:?}; the only opt-in tier is scale-heavy"
        )),
    };
    let workers = lifting_sim::worker_count(usize::MAX);
    eprintln!("experiment suite on {workers} worker(s)");

    // Sweep the requested scales; the *primary* run (Quick for smoke runs,
    // Paper otherwise) provides the figure/table values of the summary.
    let mut runs: Vec<SuiteRun> = Vec::new();
    if quick_only || both {
        runs.push(run_suite(Scale::Quick, filter.as_deref(), heavy_scale_tier));
    }
    if !quick_only {
        runs.push(run_suite(Scale::Paper, filter.as_deref(), heavy_scale_tier));
    }
    let primary = runs.last().expect("at least one scale runs");

    let scenario_names: Vec<String> = ScenarioRegistry::builtin()
        .names()
        .iter()
        .map(|n| n.to_string())
        .collect();
    // One per-scale timing record, shared verbatim by the summary's
    // `per_scale_timings` and the bench snapshot's `scales` sections.
    let per_scale_timings = Value::Object(
        runs.iter()
            .map(|run| {
                (
                    format!("{:?}", run.scale),
                    json!({
                        "experiments_secs": run.timings(),
                        "total_wall_secs": run.total_secs,
                    }),
                )
            })
            .collect(),
    );
    // The speedup-vs-seed section tracks the Quick tier (the one the seed
    // baseline recorded); it is present whenever that tier ran. The ratio is
    // computed over the seed-era job intersection so it keeps measuring the
    // hot path; the full (grown) suite's total rides along for context.
    let quick_run = runs.iter().find(|r| r.scale == Scale::Quick);
    let speedup_vs_seed = quick_run.map(|run| {
        let seed_jobs_secs: f64 = run
            .results
            .iter()
            .filter(|(name, _, _)| SEED_QUICK_JOBS.contains(name))
            .map(|(_, _, secs)| *secs)
            .sum();
        json!({
            "seed_quick_total_wall_secs": SEED_QUICK_TOTAL_WALL_SECS,
            "seed_jobs": SEED_QUICK_JOBS,
            "seed_jobs_quick_secs": seed_jobs_secs,
            "speedup": SEED_QUICK_TOTAL_WALL_SECS / seed_jobs_secs.max(1e-9),
            "full_suite_jobs": run.results.len(),
            "quick_total_wall_secs": run.total_secs,
        })
    });
    // Paper-scale wall-clock of the heavy jobs against the earlier committed
    // single-worker snapshot.
    let paper_run = runs.iter().find(|r| r.scale == Scale::Paper);
    let heavy_job_speedup = paper_run.map(|run| {
        Value::Object(
            PRIOR_PAPER_HEAVY_SECS
                .iter()
                .filter_map(|(name, prior)| {
                    let (_, _, secs) = run.results.iter().find(|(n, _, _)| n == name)?;
                    Some((
                        name.to_string(),
                        json!({
                            "prior_committed_secs": prior,
                            "measured_secs": secs,
                            "speedup": prior / secs.max(1e-9),
                        }),
                    ))
                })
                .collect(),
        )
    });

    let summary = if filter.is_some() {
        // Partial development summary: just the filtered jobs, flagged so it
        // is never mistaken for (or committed as) the full suite's output.
        let mut sections: Vec<(String, Value)> = vec![
            ("filtered".to_string(), Value::Bool(true)),
            (
                "scale".to_string(),
                Value::String(format!("{:?}", primary.scale)),
            ),
            ("workers".to_string(), to_value(&workers)),
        ];
        for (name, value, _) in &primary.results {
            sections.push((name.to_string(), strip_key(value, "wall_secs")));
        }
        sections.push(("timings_secs".to_string(), primary.timings()));
        Value::Object(sections)
    } else {
        json!({
            "scale": format!("{:?}", primary.scale),
            "workers": workers,
            "scenarios": scenario_names,
            "fig01": primary.by_name("fig01"),
            "fig10": primary.by_name("fig10"),
            "fig11": primary.by_name("fig11"),
            "fig12": primary.by_name("fig12"),
            "fig13": primary.by_name("fig13"),
            "fig14": json!({
                "pdcc_1": primary.by_name("fig14_pdcc_1"),
                "pdcc_05": primary.by_name("fig14_pdcc_05"),
            }),
            "table3": primary.by_name("table3"),
            "table5": primary.by_name("table5"),
            "layer_traffic": primary.by_name("layer_traffic"),
            "adversaries": primary.by_name("adversaries"),
            "churn": primary.by_name("churn"),
            "multistream": primary.by_name("multistream"),
            "resilience": primary.by_name("resilience"),
            "workload": primary.by_name("workload"),
            "scale_sweep": strip_key(primary.by_name("scale"), "wall_secs"),
            "scale_tier": if heavy_scale_tier { "scale-heavy" } else { "standard" },
            // Times a sweep's η calibration fell back to the paper's −9.75
            // because its honest sample was empty; anything non-zero means a
            // reported detection rate ran against an uncalibrated threshold.
            "eta_fallbacks": paper_eta_fallback_count(),
            "timings_secs": primary.timings(),
            "total_wall_secs": primary.total_secs,
            "per_scale_timings": per_scale_timings.clone(),
            "speedup_vs_seed": speedup_vs_seed.clone().unwrap_or(Value::Null),
        })
    };
    let path = "experiments_summary.json";
    std::fs::write(path, serde_json::to_string_pretty(&summary).unwrap()).expect("write summary");
    println!("wrote {path}");

    // Per-tier scale-sweep timings: the standard tier (always run) and the
    // opt-in scale-heavy tail, each with per-population seconds pulled from
    // the sweep's own `wall_secs` records. Keeping both in the snapshot lets
    // the perf trajectory track the 100k run even though the default
    // `--paper` suite no longer pays for it.
    let scale_tiers = primary
        .results
        .iter()
        .find(|(n, _, _)| *n == "scale")
        .map(|(_, v, _)| {
            let mut standard: Vec<(String, Value)> = Vec::new();
            let mut heavy: Vec<(String, Value)> = Vec::new();
            if let Value::Array(rows) = v {
                for row in rows {
                    let (Some(Value::String(name)), Some(secs)) =
                        (row.get("scenario"), row.get("wall_secs"))
                    else {
                        continue;
                    };
                    if SCALE_HEAVY_SCENARIOS.contains(&name.as_str()) {
                        heavy.push((name.clone(), secs.clone()));
                    } else {
                        standard.push((name.clone(), secs.clone()));
                    }
                }
            }
            let total = |entries: &[(String, Value)]| -> f64 {
                entries.iter().filter_map(|(_, v)| v.as_f64()).sum()
            };
            json!({
                "standard": json!({
                    "scenario_secs": Value::Object(standard.clone()),
                    "total_secs": total(&standard),
                }),
                "scale-heavy": json!({
                    "ran": heavy_scale_tier,
                    "scenario_secs": Value::Object(heavy.clone()),
                    "total_secs": if heavy_scale_tier { Value::Float(total(&heavy)) } else { Value::Null },
                }),
            })
        })
        .unwrap_or(Value::Null);

    // Timing snapshot: the perf trajectory across PRs. With workers > 1 the
    // per-experiment spans overlap and include descheduled time (their sum
    // exceeds the wall clock); `contended` flags that, and the per-scale
    // `total_wall_secs` are the numbers to track across runs. Use
    // `--sequential` when per-experiment spans themselves must be comparable.
    let bench = json!({
        "suite": "run_all_experiments",
        "scale": format!("{:?}", primary.scale),
        "workers": workers,
        "contended": workers > 1,
        "experiments_secs": primary.timings(),
        "total_wall_secs": primary.total_secs,
        "scales": per_scale_timings,
        "scale_tier": if heavy_scale_tier { "scale-heavy" } else { "standard" },
        "scale_tiers": scale_tiers,
        "speedup_vs_seed": speedup_vs_seed.unwrap_or(Value::Null),
        "heavy_job_speedup": heavy_job_speedup.unwrap_or(Value::Null),
        "memory_per_node_bytes": primary
            .results
            .iter()
            .find(|(n, _, _)| *n == "scale")
            .map(|(_, v, _)| match v {
                Value::Array(rows) => Value::Object(
                    rows.iter()
                        .filter_map(|row| {
                            let Value::String(name) = row.get("scenario")? else {
                                return None;
                            };
                            Some((
                                name.clone(),
                                row.get("memory_per_node_bytes")?.clone(),
                            ))
                        })
                        .collect(),
                ),
                _ => Value::Null,
            })
            .unwrap_or(Value::Null),
    });
    let bench_path = "BENCH_experiments.json";
    std::fs::write(bench_path, serde_json::to_string_pretty(&bench).unwrap())
        .expect("write bench snapshot");
    println!("wrote {bench_path}");

    let pick = |v: &Value, keys: &[&str]| -> f64 {
        let mut cur = v.clone();
        for k in keys {
            cur = match k.parse::<usize>() {
                Ok(i) => cur.get_index(i).cloned().unwrap_or(Value::Null),
                Err(_) => cur.get(k).cloned().unwrap_or(Value::Null),
            };
        }
        cur.as_f64().unwrap_or(0.0)
    };
    if filter.is_none() {
        println!(
            "headlines: fig10 σ = {:.1} (paper 25.6); fig11 detection = {:.2}; \
             fig13 p*m = {:.2} (paper 0.21); fig14 detection@30s = {:.2} (paper 0.86)",
            pick(primary.by_name("fig10"), &["std_dev"]),
            pick(primary.by_name("fig11"), &["detection"]),
            pick(primary.by_name("fig13"), &["max_bias_25_colluders"]),
            pick(
                primary.by_name("fig14_pdcc_1"),
                &["snapshots", "1", "detection"]
            ),
        );
    }
    for run in &runs {
        println!(
            "{:?} scale wall-clock: {:.2}s on {workers} worker(s)",
            run.scale, run.total_secs
        );
    }
}
