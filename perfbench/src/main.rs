//! The repository benchmark: four registry scenarios at Paper scale, timed
//! end to end with tracing off, and a separate traced run that splits the
//! event loop across the stack's layers.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --record NAME COUNT
//! ```
//!
//! A measuring run prints a metric table and, as its last stdout line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Every scenario run is checked against the reference digest
//! recorded in `digests.tsv`; `--record` prints those lines for scenario
//! seeds `1..=COUNT`, after checking that the traced and untraced runs of
//! each seed agree. See `README.md` for the metric definitions.
//!
//! Only the sequential engine entry points are used: `build_engine`,
//! `Engine::run_until` and `SystemWorld::run_outcome`.

mod alloc;
mod netreplay;
mod trace;

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use lifting_runtime::{
    build_engine, exporter_components, runner::default_lag_grid, RunOutcome, Scale, ScenarioConfig,
    ScenarioRegistry,
};
use lifting_sim::{ParamMap, SeedSplitter, SimTime};

use trace::{traced_run, Layer, TracedRun};

#[global_allocator]
static GLOBAL: alloc::CountingAllocator = alloc::CountingAllocator;

/// One benchmark workload: a registry scenario at Paper scale, run over a
/// pool of scenario seeds drawn from the reference-digest table.
struct Workload {
    name: &'static str,
    scenario: &'static str,
    /// Distinct scenario seeds a measuring run covers; the clear-stream share
    /// is their mean.
    pool: usize,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "planetlab-300",
        scenario: "headline/planetlab",
        pool: 20,
    },
    Workload {
        name: "gossip-only",
        scenario: "fig01/freeriders-no-lifting",
        pool: 64,
    },
    Workload {
        name: "churn-audit",
        scenario: "churn/steady-fast",
        pool: 10,
    },
    Workload {
        name: "scale-10k",
        scenario: "scale/10k",
        pool: 2,
    },
];

/// Set-up samples a measuring run takes at least: when the repetitions fall
/// short, extra child processes only build the engine.
const MIN_SETUP_SAMPLES: usize = 9;

const MIB: f64 = 1024.0 * 1024.0;

/// Reference outcome digests: `workload<TAB>scenario seed<TAB>digest`.
const DIGESTS: &str = include_str!("../digests.tsv");

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The median of `values` (mean of the middle two for an even count).
fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// FNV-1a content digest of an outcome, as the registry's `digest` exporter
/// renders it.
fn digest(outcome: &RunOutcome) -> u64 {
    let exporter = exporter_components()
        .build("digest", &ParamMap::new(), &mut SeedSplitter::new(0))
        .expect("the digest exporter is registered");
    let rendered = exporter.export("", 0.0, outcome);
    let hex = rendered
        .rsplit("0x")
        .next()
        .expect("the digest exporter prints a hex hash");
    u64::from_str_radix(hex.trim(), 16).expect("the digest exporter prints a hex hash")
}

/// The recorded `(scenario seed, digest)` pairs of a workload.
fn reference_table(workload: &str) -> Vec<(u64, u64)> {
    DIGESTS
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|line| {
            let mut fields = line.split('\t');
            if fields.next()? != workload {
                return None;
            }
            let seed = fields.next()?.parse().ok()?;
            let hash = u64::from_str_radix(fields.next()?.trim_start_matches("0x"), 16).ok()?;
            Some((seed, hash))
        })
        .collect()
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The scenario seeds (with their reference digests) a run with benchmark
/// seed `seed` covers: `pool` consecutive table entries from a position
/// the seed picks.
fn pool_seeds(workload: &Workload, seed: u64) -> Vec<(u64, u64)> {
    let table = reference_table(workload.name);
    if table.is_empty() {
        return table;
    }
    let start = splitmix(seed) as usize % table.len();
    (0..workload.pool.min(table.len()))
        .map(|i| table[(start + i) % table.len()])
        .collect()
}

fn scenario(workload: &Workload, scenario_seed: u64) -> ScenarioConfig {
    ScenarioRegistry::builtin().build(workload.scenario, Scale::Paper, scenario_seed)
}

/// One untraced scenario run, timed in phases.
struct Rep {
    setup_s: f64,
    loop_s: f64,
    outcome_s: f64,
    wall_s: f64,
    events: u64,
    outcome: RunOutcome,
}

fn untraced_rep(config: ScenarioConfig) -> Rep {
    let end = SimTime::ZERO + config.duration;
    let start = Instant::now();
    let mut engine = build_engine(config);
    let setup_s = start.elapsed().as_secs_f64();
    engine.run_until(end);
    let looped = start.elapsed().as_secs_f64();
    let outcome = black_box(
        engine
            .world()
            .run_outcome(end, Vec::new(), &default_lag_grid()),
    );
    let wall_s = start.elapsed().as_secs_f64();
    Rep {
        setup_s,
        loop_s: looped - setup_s,
        outcome_s: wall_s - looped,
        wall_s,
        events: engine.events_processed(),
        outcome,
    }
}

/// Fraction of nodes receiving the primary stream clearly at the largest
/// playout lag of the grid.
fn clear_stream_share(outcome: &RunOutcome) -> f64 {
    outcome
        .stream_health
        .fraction_clear
        .last()
        .copied()
        .unwrap_or(0.0)
}

/// Runs `f`, turning a panic into `None` (the panic message goes to stderr).
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// Tally of scenario runs attempted and failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one run; it fails when it did not finish (`None`: a panic or a
    /// failed child process) or its digest is not the reference.
    fn check(&mut self, what: &str, seed: u64, got: Option<u64>, want: u64) {
        self.attempted += 1;
        match got {
            Some(d) if d == want => {}
            Some(d) => {
                self.failed += 1;
                eprintln!(
                    "perfbench: {what} seed {seed}: digest 0x{d:016x}, reference 0x{want:016x}"
                );
            }
            None => {
                self.failed += 1;
                eprintln!("perfbench: {what} seed {seed}: did not finish");
            }
        }
    }
}

/// What one untraced repetition in a child process reports.
struct ChildRep {
    setup_s: f64,
    loop_s: f64,
    outcome_s: f64,
    wall_s: f64,
    events: u64,
    digest: u64,
    clear_share: f64,
    peak_rss_mib: f64,
}

/// Runs one repetition of `seed` in a fresh child process, so that each
/// repetition's peak memory is its own and no allocator state carries over
/// from one to the next. With `setup_only` the child only builds the engine
/// and the other fields are zero. `None` when the child failed.
fn child_rep(workload: &Workload, seed: u64, setup_only: bool) -> Option<ChildRep> {
    let mode = if setup_only { "setup" } else { "full" };
    let out = Command::new(std::env::current_exe().ok()?)
        .args(["--rep", workload.name, &seed.to_string(), mode])
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let line = String::from_utf8(out.stdout).ok()?;
    let f: Vec<&str> = line.split_whitespace().collect();
    let [setup_s, loop_s, outcome_s, wall_s, events, digest, clear_share, peak_rss_mib] = f[..]
    else {
        return None;
    };
    Some(ChildRep {
        setup_s: setup_s.parse().ok()?,
        loop_s: loop_s.parse().ok()?,
        outcome_s: outcome_s.parse().ok()?,
        wall_s: wall_s.parse().ok()?,
        events: events.parse().ok()?,
        digest: u64::from_str_radix(digest, 16).ok()?,
        clear_share: clear_share.parse().ok()?,
        peak_rss_mib: peak_rss_mib.parse().ok()?,
    })
}

/// The child side of [`child_rep`]: prints `setup_s loop_s outcome_s wall_s
/// events digest clear_share peak_rss_mib` on one line.
fn run_child(workload: &Workload, seed: u64, setup_only: bool) {
    let config = scenario(workload, seed);
    if setup_only {
        let start = Instant::now();
        let engine = black_box(build_engine(config));
        println!("{} 0 0 0 0 0 0 0", start.elapsed().as_secs_f64());
        drop(engine);
        return;
    }
    let rep = untraced_rep(config);
    println!(
        "{} {} {} {} {} {:016x} {} {}",
        rep.setup_s,
        rep.loop_s,
        rep.outcome_s,
        rep.wall_s,
        rep.events,
        digest(&rep.outcome),
        clear_stream_share(&rep.outcome),
        peak_rss_mib()
    );
}

/// The untraced measuring run: repetitions, each in its own child process,
/// cycle through the seed pool until every seed ran once and `seconds` have
/// passed. Timings and memory are medians over all repetitions; the
/// clear-stream share is the mean over the pool.
fn measure_end_to_end(
    workload: &Workload,
    pool: &[(u64, u64)],
    seconds: f64,
) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let (mut setup, mut wall, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let mut clear_share = 0.0;
    let start = Instant::now();
    let mut i = 0;
    while i < pool.len() || start.elapsed().as_secs_f64() < seconds {
        let (seed, reference) = pool[i % pool.len()];
        let rep = child_rep(workload, seed, false);
        tally.check("untraced", seed, rep.as_ref().map(|r| r.digest), reference);
        if let Some(rep) = rep {
            eprintln!(
                "perfbench: rep {i} seed {seed}: wall {:.4}s setup {:.5}s rss {:.1}MiB",
                rep.wall_s, rep.setup_s, rep.peak_rss_mib
            );
            setup.push(rep.setup_s);
            wall.push(rep.wall_s);
            rss.push(rep.peak_rss_mib);
            if i < pool.len() {
                clear_share += rep.clear_share / pool.len() as f64;
            }
        }
        i += 1;
    }
    if wall.is_empty() {
        return (tally, Vec::new());
    }
    let mut k = 0;
    while setup.len() < MIN_SETUP_SAMPLES {
        let seed = pool[k % pool.len()].0;
        tally.attempted += 1;
        match child_rep(workload, seed, true) {
            Some(rep) => setup.push(rep.setup_s),
            None => {
                tally.failed += 1;
                eprintln!("perfbench: setup seed {seed}: failed");
                break;
            }
        }
        k += 1;
    }
    let metrics = vec![
        metric("setup_s", "s", median(&mut setup)),
        metric("wall_s", "s", median(&mut wall)),
        metric("peak_rss_mib", "MiB", median(&mut rss)),
        metric("clear_stream_share", "fraction", clear_share),
    ];
    (tally, metrics)
}

/// One (untraced, traced) pair of runs of the same seed.
struct LayerSample {
    untraced: ChildRep,
    traced: TracedRun,
}

/// The traced measuring run: pairs of an untraced run (in a child process,
/// as in the end-to-end run) and a traced run (in this process) of the
/// pool's first seed repeat until `seconds` have passed. Counts come from
/// the first pair and must repeat exactly in every later one; times are
/// medians.
fn measure_layers(workload: &Workload, pool: &[(u64, u64)], seconds: f64) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let (seed, reference) = pool[0];
    let mut samples: Vec<LayerSample> = Vec::new();
    let start = Instant::now();
    while samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let untraced = child_rep(workload, seed, false);
        tally.check(
            "untraced",
            seed,
            untraced.as_ref().map(|r| r.digest),
            reference,
        );
        let traced = guarded(|| traced_run(scenario(workload, seed)));
        tally.check(
            "traced",
            seed,
            traced.as_ref().map(|t| digest(&t.outcome)),
            reference,
        );
        let (Some(untraced), Some(traced)) = (untraced, traced) else {
            return (tally, Vec::new());
        };
        // The trace must account for every event the untraced loop handled,
        // and repeat the first pair's counts exactly.
        let consistent = traced.events() == untraced.events
            && traced.handler_s() <= traced.loop_s
            && samples.first().is_none_or(|first| {
                first.untraced.events == untraced.events
                    && first
                        .traced
                        .buckets
                        .iter()
                        .zip(&traced.buckets)
                        .all(|(a, b)| a.count == b.count)
            });
        if !consistent {
            tally.failed += 1;
            eprintln!(
                "perfbench: traced seed {seed}: {} traced events vs {} untraced",
                traced.events(),
                untraced.events
            );
        }
        samples.push(LayerSample { untraced, traced });
    }
    let config = scenario(workload, seed);
    for (bucket, (name, _)) in samples[0].traced.buckets.iter().zip(trace::KINDS) {
        if bucket.count > 0 {
            eprintln!(
                "perfbench: {name:<16} {:>9} events {:>9.4} s {:>7.0} ns/event {:>6.2} allocs/event",
                bucket.count,
                bucket.nanos as f64 * 1e-9,
                bucket.nanos as f64 / bucket.count as f64,
                bucket.allocs as f64 / bucket.count as f64
            );
        }
    }
    let send_ns = netreplay::send_ns(&config, &samples[0].traced.outcome.traffic);
    (tally, layer_metrics(&config, &samples, send_ns))
}

fn layer_metrics(config: &ScenarioConfig, samples: &[LayerSample], send_ns: f64) -> Vec<Metric> {
    let first = &samples[0].traced;
    let outcome = &first.outcome;
    // Median over the pairs of a per-pair figure.
    let med = |f: &dyn Fn(&LayerSample) -> f64| {
        let mut v: Vec<f64> = samples.iter().map(f).collect();
        median(&mut v)
    };
    let layer_s = |layer: Layer| med(&|s| s.traced.layer(layer).nanos as f64 * 1e-9);
    let per = |value: f64, count: u64| value / count.max(1) as f64;

    let events = first.events();
    let engine_self_s = med(&|s| s.traced.loop_s - s.traced.handler_s());
    let untraced_loop_s = med(&|s| s.untraced.loop_s);

    let gossip = first.layer(Layer::Gossip);
    let verification = first.layer(Layer::Verification);
    let blame = first.layer(Layer::Blame);
    let period_end = first.layer(Layer::PeriodEnd);
    let audit = first.layer(Layer::Audit);
    let membership = first.layer(Layer::Membership);

    let traffic = &outcome.traffic;
    let sent: u64 = traffic
        .per_category
        .iter()
        .map(|(_, c)| c.messages_sent)
        .sum();
    let delivered: u64 = traffic
        .per_category
        .iter()
        .map(|(_, c)| c.messages_delivered)
        .sum();
    let blame_msgs = traffic
        .per_category
        .iter()
        .filter(|(c, _)| *c == lifting_net::TrafficCategory::Blame)
        .map(|(_, c)| c.messages_sent)
        .sum::<u64>();
    let lifting_bytes: u64 = traffic
        .per_category
        .iter()
        .filter(|(c, _)| c.is_lifting_overhead())
        .map(|(_, c)| c.bytes_sent)
        .sum();
    let aborted = outcome.churn.audits_aborted_by_departure + outcome.audit_rpc.aborted_unreachable;
    let estimate_mib = outcome.memory_per_node_bytes * config.nodes as f64 / MIB;
    let eta = config.lifting.eta;
    let gossip_s = layer_s(Layer::Gossip);
    let verification_s = layer_s(Layer::Verification);
    let blame_s = layer_s(Layer::Blame);
    let audit_s = layer_s(Layer::Audit);

    vec![
        metric("engine.events", "count", events as f64),
        metric("engine.self_s", "s", engine_self_s),
        metric(
            "engine.ns_per_event",
            "ns",
            per(engine_self_s * 1e9, events),
        ),
        metric(
            "engine.events_per_s",
            "1/s",
            events as f64 / untraced_loop_s,
        ),
        metric(
            "engine.queue_peak",
            "count",
            med(&|s| s.traced.queue_peak as f64),
        ),
        metric("gossip.events", "count", gossip.count as f64),
        metric("gossip.self_s", "s", gossip_s),
        metric(
            "gossip.ns_per_event",
            "ns",
            per(gossip_s * 1e9, gossip.count),
        ),
        metric("gossip.p99_ns", "ns", gossip.quantile_ns(0.99)),
        metric(
            "gossip.allocs_per_event",
            "count",
            per(gossip.allocs as f64, gossip.count),
        ),
        metric("verification.events", "count", verification.count as f64),
        metric("verification.self_s", "s", verification_s),
        metric(
            "verification.ns_per_event",
            "ns",
            per(verification_s * 1e9, verification.count),
        ),
        metric("verification.p99_ns", "ns", verification.quantile_ns(0.99)),
        metric(
            "verification.allocs_per_event",
            "count",
            per(verification.allocs as f64, verification.count),
        ),
        metric(
            "verification.confirm_retries",
            "count",
            outcome.confirm_retry.resends as f64,
        ),
        metric("reputation.blames", "count", blame.count as f64),
        metric("reputation.blame_s", "s", blame_s),
        metric(
            "reputation.ns_per_blame",
            "ns",
            per(blame_s * 1e9, blame.count),
        ),
        metric("reputation.p99_ns", "ns", blame.quantile_ns(0.99)),
        metric("reputation.period_end_s", "s", layer_s(Layer::PeriodEnd)),
        metric(
            "reputation.allocs_per_event",
            "count",
            per(
                (blame.allocs + period_end.allocs) as f64,
                blame.count + period_end.count,
            ),
        ),
        metric("audit.ticks", "count", audit.count as f64),
        metric("audit.self_s", "s", audit_s),
        metric("audit.us_per_tick", "us", per(audit_s * 1e6, audit.count)),
        metric(
            "audit.aborted_share",
            "fraction",
            per(aborted as f64, audit.count),
        ),
        metric("membership.transitions", "count", membership.count as f64),
        metric("membership.self_s", "s", layer_s(Layer::Membership)),
        metric("net.msgs_sent", "count", sent as f64),
        metric(
            "net.delivered_share",
            "fraction",
            per(delivered as f64, sent),
        ),
        metric(
            "net.blame_msg_share",
            "fraction",
            per(blame_msgs as f64, sent),
        ),
        metric(
            "net.lifting_bytes_share",
            "fraction",
            per(lifting_bytes as f64, traffic.total_bytes_sent),
        ),
        metric("net.send_ns", "ns", send_ns),
        metric("runtime.outcome_s", "s", med(&|s| s.untraced.outcome_s)),
        metric("runtime.memory_estimate_mib", "MiB", estimate_mib),
        metric(
            "runtime.rss_per_estimate",
            "ratio",
            med(&|s| s.untraced.peak_rss_mib) / estimate_mib,
        ),
        metric(
            "trace.overhead_s",
            "s",
            med(&|s| s.traced.loop_s - s.untraced.loop_s),
        ),
        metric(
            "outcome.detection_rate",
            "fraction",
            outcome.detection_rate(eta),
        ),
        metric(
            "outcome.false_positive_rate",
            "fraction",
            outcome.false_positive_rate(eta),
        ),
        metric("outcome.lifting_overhead", "ratio", traffic.overhead_ratio),
    ]
}

/// The commit of the checkout when it is a git work tree, read from `.git`
/// without running git.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn emit(workload: &Workload, seed: u64, tally: &Tally, metrics: &[Metric]) {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload {} ({}) seed {seed} host_cores {cores} commit {}",
        workload.name,
        workload.scenario,
        commit()
    );
    for m in metrics {
        println!("{:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && !metrics.is_empty(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Prints reference-digest lines for scenario seeds `1..=count`, checking
/// that the traced and untraced runs of each seed agree.
fn record(workload: &Workload, count: u64) -> ExitCode {
    for seed in 1..=count {
        let untraced = untraced_rep(scenario(workload, seed));
        let traced = traced_run(scenario(workload, seed));
        let (d, t) = (digest(&untraced.outcome), digest(&traced.outcome));
        if d != t || traced.events() != untraced.events {
            eprintln!(
                "perfbench: {} seed {seed}: traced run diverged",
                workload.name
            );
            return ExitCode::FAILURE;
        }
        let eta = scenario(workload, seed).lifting.eta;
        let o = &untraced.outcome;
        eprintln!(
            "{} seed {seed}: setup {:.4}s loop {:.3}s outcome {:.4}s detection {:.4} fp {:.4} \
             overhead {:.5} clear {:.4} events {}",
            workload.name,
            untraced.setup_s,
            untraced.loop_s,
            untraced.outcome_s,
            o.detection_rate(eta),
            o.false_positive_rate(eta),
            o.traffic.overhead_ratio,
            clear_stream_share(o),
            untraced.events,
        );
        println!("{}\t{seed}\t0x{d:016x}", workload.name);
    }
    ExitCode::SUCCESS
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n       \
                     perfbench --record NAME COUNT";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    let i = args.iter().position(|a| a == name)?;
    args.get(i + 1).map(String::as_str)
}

fn find_workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if let Some(name) = flag(&args, "--rep") {
        let mut rest = args.iter().skip_while(|a| *a != "--rep").skip(2);
        let (Some(workload), Some(Ok(seed)), Some(mode)) = (
            find_workload(name),
            rest.next().map(|s| s.parse()),
            rest.next(),
        ) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        run_child(workload, seed, mode == "setup");
        return ExitCode::SUCCESS;
    }
    if let Some(name) = flag(&args, "--record") {
        let (Some(workload), Some(Ok(count))) = (
            find_workload(name),
            args.iter()
                .skip_while(|a| *a != "--record")
                .nth(2)
                .map(|c| c.parse()),
        ) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return record(workload, count);
    }
    let parsed = (|| {
        let workload = find_workload(flag(&args, "--workload")?)?;
        let seed: u64 = flag(&args, "--seed")?.parse().ok()?;
        let seconds: u64 = flag(&args, "--seconds")?.parse().ok()?;
        let traced = match flag(&args, "--trace")? {
            "0" => false,
            "1" => true,
            _ => return None,
        };
        Some((workload, seed, seconds, traced))
    })();
    let Some((workload, seed, seconds, traced)) = parsed else {
        eprintln!(
            "{USAGE}\nworkloads: {}",
            WORKLOADS.map(|w| w.name).join(", ")
        );
        return ExitCode::from(2);
    };
    let pool = pool_seeds(workload, seed);
    if pool.is_empty() {
        eprintln!(
            "perfbench: no reference digests recorded for {}",
            workload.name
        );
        return ExitCode::FAILURE;
    }
    let seconds = seconds as f64;
    let (tally, metrics) = if traced {
        measure_layers(workload, &pool, seconds)
    } else {
        measure_end_to_end(workload, &pool, seconds)
    };
    emit(workload, seed, &tally, &metrics);
    ExitCode::SUCCESS
}
