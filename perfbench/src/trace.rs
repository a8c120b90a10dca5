//! The traced run: `SystemWorld` behind a timing wrapper.
//!
//! [`TimedWorld`] wraps the public `World::handle_event` of `SystemWorld` and
//! books each call's duration and allocation count under the event's kind.
//! Trace data stays bounded whatever the run length: per kind a count, a
//! nanosecond total, an allocation total and a log2 duration histogram —
//! never one span per event.

use std::time::Instant;

use lifting_core::VerificationMessage;
use lifting_gossip::GossipMessage;
use lifting_runtime::{
    runner::default_lag_grid, Event, Message, RunOutcome, ScenarioConfig, SystemWorld,
};
use lifting_sim::{Context, Engine, SimDuration, SimTime, World};

use crate::alloc;

/// The stack layer a handler belongs to, named after the crate or module
/// that does the work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `lifting_gossip`: emission, propose phase and the three-phase exchange.
    Gossip,
    /// `lifting_core` verification: timers, acks, confirms and responses.
    Verification,
    /// `lifting_reputation`: blame deliveries to managers.
    Blame,
    /// `lifting_reputation`: the global period end (compensation, expulsion).
    PeriodEnd,
    /// `runtime::layers::audit`: a-posteriori audits.
    Audit,
    /// `lifting_membership`: churn, faults and channel switches.
    Membership,
}

/// Event kinds timed separately, with the layer each one is charged to.
pub const KINDS: [(&str, Layer); 13] = [
    ("SourceEmit", Layer::Gossip),
    ("GossipTick", Layer::Gossip),
    ("Propose", Layer::Gossip),
    ("Request", Layer::Gossip),
    ("Serve", Layer::Gossip),
    ("Timer", Layer::Verification),
    ("Ack", Layer::Verification),
    ("Confirm", Layer::Verification),
    ("ConfirmResponse", Layer::Verification),
    ("Blame", Layer::Blame),
    ("PeriodEnd", Layer::PeriodEnd),
    ("AuditTick", Layer::Audit),
    ("Membership", Layer::Membership),
];

fn kind(event: &Event) -> usize {
    match event {
        Event::SourceEmit { .. } => 0,
        Event::GossipTick { .. } => 1,
        Event::Deliver { message, .. } => match message {
            Message::Gossip(GossipMessage::Propose(_)) => 2,
            Message::Gossip(GossipMessage::Request(_)) => 3,
            Message::Gossip(GossipMessage::Serve(_)) => 4,
            Message::Verification(VerificationMessage::Ack(_)) => 6,
            Message::Verification(VerificationMessage::Confirm(_)) => 7,
            Message::Verification(VerificationMessage::ConfirmResponse(_)) => 8,
            Message::Verification(VerificationMessage::Blame(_)) => 9,
            // Audits run their history transfers inside the tick; a delivered
            // transfer would still be audit work.
            Message::Verification(
                VerificationMessage::HistoryRequest | VerificationMessage::HistoryResponse(_),
            ) => 11,
        },
        Event::Timer { .. } => 5,
        Event::PeriodEnd => 10,
        Event::AuditTick { .. } => 11,
        Event::Churn { .. } | Event::Fault { .. } | Event::Resubscribe { .. } => 12,
    }
}

/// Log2 buckets of handler nanoseconds: bucket `b` holds durations in
/// `[2^b, 2^(b+1))`, bucket 0 also holds zero.
const HISTOGRAM_BUCKETS: usize = 40;

/// Bounded trace data of one event kind.
#[derive(Debug, Clone, Copy)]
pub struct Bucket {
    /// Events handled.
    pub count: u64,
    /// Nanoseconds spent in the handler.
    pub nanos: u64,
    /// Allocations made by the handler.
    pub allocs: u64,
    /// Handler durations, log2-bucketed.
    pub histogram: [u64; HISTOGRAM_BUCKETS],
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        count: 0,
        nanos: 0,
        allocs: 0,
        histogram: [0; HISTOGRAM_BUCKETS],
    };

    fn merge(&mut self, other: &Bucket) {
        self.count += other.count;
        self.nanos += other.nanos;
        self.allocs += other.allocs;
        for (a, b) in self.histogram.iter_mut().zip(&other.histogram) {
            *a += b;
        }
    }

    /// Upper edge, in nanoseconds, of the histogram bucket holding the
    /// `q`-quantile handler duration (0 when the bucket is empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let rank = (q * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (b, n) in self.histogram.iter().enumerate() {
            seen += n;
            if *n > 0 && seen >= rank.max(1) {
                return (1u64 << (b + 1)) as f64;
            }
        }
        0.0
    }
}

struct TimedWorld {
    inner: SystemWorld,
    buckets: [Bucket; KINDS.len()],
}

impl World for TimedWorld {
    type Event = Event;

    fn handle_event(&mut self, now: SimTime, event: Event, ctx: &mut Context<Event>) {
        let k = kind(&event);
        let allocs = alloc::allocations();
        let start = Instant::now();
        self.inner.handle_event(now, event, ctx);
        let nanos = start.elapsed().as_nanos() as u64;
        let bucket = &mut self.buckets[k];
        bucket.count += 1;
        bucket.nanos += nanos;
        bucket.allocs += alloc::allocations() - allocs;
        bucket.histogram
            [(63 - nanos.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)] += 1;
    }
}

/// What one traced run measured.
pub struct TracedRun {
    /// Per-kind trace data, indexed like [`KINDS`].
    pub buckets: [Bucket; KINDS.len()],
    /// Host seconds of the traced event loop (all `run_until` segments).
    pub loop_s: f64,
    /// Largest pending-event count seen at 1-second simulated boundaries.
    pub queue_peak: usize,
    /// The run's outcome (must match the untraced run's bit for bit).
    pub outcome: RunOutcome,
}

impl TracedRun {
    /// The merged trace data of every kind charged to `layer`.
    pub fn layer(&self, layer: Layer) -> Bucket {
        let mut total = Bucket::EMPTY;
        for (bucket, (_, owner)) in self.buckets.iter().zip(KINDS) {
            if owner == layer {
                total.merge(bucket);
            }
        }
        total
    }

    /// Events handled, over every kind.
    pub fn events(&self) -> u64 {
        self.buckets.iter().map(|b| b.count).sum()
    }

    /// Host seconds spent inside handlers, over every kind.
    pub fn handler_s(&self) -> f64 {
        self.buckets.iter().map(|b| b.nanos).sum::<u64>() as f64 * 1e-9
    }
}

/// Runs `config` with every handler call timed. Set-up mirrors
/// `runtime::build_engine` (world, initial events, engine), with the timing
/// wrapper between the engine and the world. The event loop runs in
/// 1-second simulated segments so the queue length can be sampled; segment
/// boundaries do not change the event order.
pub fn traced_run(config: ScenarioConfig) -> TracedRun {
    let end = SimTime::ZERO + config.duration;
    let world = SystemWorld::new(config);
    let initial = world.initial_events();
    let mut engine = Engine::new(TimedWorld {
        inner: world,
        buckets: [Bucket::EMPTY; KINDS.len()],
    });
    for (time, event) in initial {
        engine.schedule(time, event);
    }
    let mut queue_peak = engine.pending_events();
    alloc::set_counting(true);
    let start = Instant::now();
    let mut at = SimTime::ZERO;
    while at < end {
        at = (at + SimDuration::from_secs(1)).min(end);
        engine.run_until(at);
        queue_peak = queue_peak.max(engine.pending_events());
    }
    let loop_s = start.elapsed().as_secs_f64();
    alloc::set_counting(false);
    let outcome = engine
        .world()
        .inner
        .run_outcome(end, Vec::new(), &default_lag_grid());
    TracedRun {
        buckets: engine.world().buckets,
        loop_s,
        queue_peak,
        outcome,
    }
}
