//! Stream health with and without LiFTinG (the scenario of Figure 1).
//!
//! Three runs of the same system: no freeriders, 25 % freeriders without
//! LiFTinG, and 25 % freeriders with LiFTinG expelling them. The output is the
//! fraction of nodes viewing a clear stream as a function of the allowed
//! stream lag.
//!
//! Run with: `cargo run --release --example streaming_freeriders`

use lifting::prelude::*;

fn scenario(freerider_fraction: f64, lifting_enabled: bool, seed: u64) -> ScenarioConfig {
    // `LIFTING_EXAMPLE_QUICK=1` shrinks the three runs for smoke gates.
    let quick = std::env::var_os("LIFTING_EXAMPLE_QUICK").is_some();
    let mut config = ScenarioConfig::small_test(if quick { 40 } else { 120 }, seed);
    config.stream_rate_bps = 400_000;
    config.chunk_size = 4_096;
    config.duration = SimDuration::from_secs(if quick { 10 } else { 30 });
    config.network = NetworkConfig::planetlab(0.04);
    config.default_upload_bps = Some(2_000_000);
    config.capability = CapabilityModel::PoorFraction {
        fraction: 0.05,
        poor_upload_bps: 500_000,
        poor_extra_loss: 0.0,
    };
    config.lifting_enabled = lifting_enabled;
    if freerider_fraction > 0.0 {
        // Aggressive freeriders: they keep only ~45 % of their upload duty.
        config = config.with_planetlab_freeriders(freerider_fraction);
        if let Some(f) = &mut config.freeriders {
            f.degree = FreeriderConfig {
                delta1: 2.0 / 5.0,
                delta2: 0.2,
                delta3: 0.2,
                period_stretch: 1,
            };
        }
    }
    config
}

fn main() {
    let cases = [
        ("no freeriders", scenario(0.0, true, 1)),
        ("25% freeriders, no LiFTinG", scenario(0.25, false, 1)),
        ("25% freeriders, LiFTinG", scenario(0.25, true, 1)),
    ];

    let mut curves = Vec::new();
    for (label, config) in cases {
        println!("running: {label} ...");
        let outcome = run_scenario(config);
        println!(
            "  expelled {} nodes, overhead {:.2} %",
            outcome.expelled_count,
            100.0 * outcome.traffic.overhead_ratio
        );
        curves.push((label, outcome.stream_health));
    }

    println!();
    println!("fraction of nodes viewing a clear stream vs. stream lag (s)");
    print!("{:>8}", "lag");
    for (label, _) in &curves {
        print!("  {label:>28}");
    }
    println!();
    let lags = curves[0].1.lag_secs.clone();
    for (i, lag) in lags.iter().enumerate() {
        print!("{lag:>8.0}");
        for (_, health) in &curves {
            print!("  {:>28.3}", health.fraction_clear[i]);
        }
        println!();
    }
}
