//! `net.send_ns`: the cost of one `lifting_net::Network::send`, measured by
//! replaying a workload's message mix outside the event loop.
//!
//! Handler buckets include the sends their downcalls make but cannot
//! separate them; this replay sizes that share. The replay network has the
//! workload's population and `NetworkConfig` (default node capabilities),
//! and the messages follow the run's per-category counts and mean payloads.

use std::hint::black_box;
use std::time::Instant;

use lifting_net::{Network, TrafficCategory, TrafficReport, Transport};
use lifting_runtime::ScenarioConfig;
use lifting_sim::{derive_rng, NodeId, SimTime};
use rand::Rng;

/// Sends per replay.
const SENDS: usize = 1_000_000;

/// Replays timed; the median is reported.
const REPEATS: usize = 5;

struct Send {
    at: SimTime,
    from: NodeId,
    to: NodeId,
    payload: u64,
    category: TrafficCategory,
}

/// Replays `SENDS` messages drawn from `traffic`'s mix `REPEATS` times and
/// returns the median nanoseconds per send.
pub fn send_ns(config: &ScenarioConfig, traffic: &TrafficReport) -> f64 {
    let net = &config.network;
    let mix: Vec<(TrafficCategory, u64, u64)> = traffic
        .per_category
        .iter()
        .filter(|(_, c)| c.messages_sent > 0)
        .map(|(category, c)| {
            let header = match net.transports.transport_for(*category) {
                Transport::Udp => net.udp_header_bytes,
                Transport::Tcp => net.tcp_header_bytes,
            };
            let payload = (c.bytes_sent / c.messages_sent).saturating_sub(header);
            (*category, c.messages_sent, payload)
        })
        .collect();
    let total: u64 = mix.iter().map(|(_, n, _)| n).sum();
    assert!(total > 0, "the run sent no messages");

    let nodes = config.nodes as u32;
    let span = config.duration.as_micros().max(1);
    let mut rng = derive_rng(config.seed, 0xbe4c);
    let sends: Vec<Send> = (0..SENDS)
        .map(|i| {
            let mut pick = rng.gen_range(0..total);
            let &(category, _, payload) = mix
                .iter()
                .find(|(_, n, _)| {
                    let hit = pick < *n;
                    pick = pick.saturating_sub(*n);
                    hit
                })
                .expect("pick is below the total");
            let from = rng.gen_range(0..nodes);
            let to = (from + rng.gen_range(1..nodes)) % nodes;
            Send {
                at: SimTime::from_micros(span * i as u64 / SENDS as u64),
                from: NodeId::new(from),
                to: NodeId::new(to),
                payload,
                category,
            }
        })
        .collect();

    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|r| {
            let mut network = Network::new(
                config.nodes,
                net.clone(),
                derive_rng(config.seed, 0xbe4d + r as u64),
            );
            let start = Instant::now();
            for s in &sends {
                black_box(network.send(s.at, s.from, s.to, s.payload, s.category));
            }
            start.elapsed().as_secs_f64() * 1e9 / SENDS as f64
        })
        .collect();
    crate::median(&mut samples)
}
