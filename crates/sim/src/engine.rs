//! The simulation engine: a run loop over a [`World`] and an [`EventQueue`].

use crate::event::EventQueue;
use crate::time::{SimDuration, SimTime};

/// The state being simulated.
///
/// An implementation owns all the nodes, the network, and any collectors; the
/// engine repeatedly hands it the next event together with a [`Context`] used
/// to schedule follow-up events.
pub trait World {
    /// The event type circulating in the simulation.
    type Event;

    /// Handles one event occurring at `now`.
    fn handle_event(&mut self, now: SimTime, event: Self::Event, ctx: &mut Context<Self::Event>);
}

/// Scheduling facility handed to [`World::handle_event`].
///
/// The context borrows a scratch buffer owned by the [`Engine`], so handling
/// an event performs no allocation once the buffer has warmed up: follow-up
/// events are staged in the recycled buffer and drained into the queue in one
/// batch after the handler returns.
#[derive(Debug)]
pub struct Context<'a, E> {
    now: SimTime,
    scheduled: &'a mut Vec<(SimTime, E)>,
}

impl<'a, E> Context<'a, E> {
    fn new(now: SimTime, scheduled: &'a mut Vec<(SimTime, E)>) -> Self {
        debug_assert!(scheduled.is_empty(), "scratch buffer must start drained");
        Context { now, scheduled }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `time`.
    ///
    /// Events scheduled in the past are delivered "now" instead (never before
    /// the current instant), so simulated time is always monotone.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        let t = time.max(self.now);
        self.scheduled.push((t, event));
    }

    /// Schedules `event` after the relative delay `delay`.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.scheduled.push((self.now + delay, event));
    }

    /// Number of events scheduled through this context so far.
    pub fn scheduled_len(&self) -> usize {
        self.scheduled.len()
    }
}

/// Statistics about a completed run segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunReport {
    /// Number of events processed.
    pub events_processed: u64,
    /// Simulated time at which the run segment stopped.
    pub stopped_at: SimTime,
    /// True if the run stopped because the queue drained.
    pub drained: bool,
}

/// Discrete-event simulation engine.
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    clock: SimTime,
    events_processed: u64,
    /// Recycled staging buffer for events scheduled while handling an event.
    /// [`Context`] borrows it, so the steady-state run loop allocates nothing.
    scratch: Vec<(SimTime, W::Event)>,
}

impl<W: World> Engine<W> {
    /// Creates an engine around `world` with an empty event queue and the
    /// clock at [`SimTime::ZERO`].
    pub fn new(world: W) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            clock: SimTime::ZERO,
            events_processed: 0,
            scratch: Vec::new(),
        }
    }

    /// Schedules an initial event (or any event, between run segments).
    pub fn schedule(&mut self, time: SimTime, event: W::Event) {
        self.queue.push(time.max(self.clock), event);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Total number of events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (e.g. to inject faults between segments).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the engine and returns the world.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Runs until the queue drains or the next event would occur after
    /// `deadline`. The clock is advanced to `deadline` if the queue drains
    /// earlier events only.
    pub fn run_until(&mut self, deadline: SimTime) -> RunReport {
        let mut report = RunReport::default();
        loop {
            // Fast path: one queue probe decides both "is there an event" and
            // "is it due" (see `EventQueue::pop_due`); an undue event stays
            // queued without ever being materialized here.
            let Some((time, event)) = self.queue.pop_due(deadline) else {
                report.drained = self.queue.is_empty();
                break;
            };
            self.clock = time;
            let mut ctx = Context::new(time, &mut self.scratch);
            self.world.handle_event(time, event, &mut ctx);
            self.queue.push_batch(self.scratch.drain(..));
            self.events_processed += 1;
            report.events_processed += 1;
        }
        if self.clock < deadline {
            self.clock = deadline;
        }
        report.stopped_at = self.clock;
        report
    }

    /// Runs until the queue is completely drained or `max_events` events have
    /// been processed (a safety valve against livelock in tests).
    pub fn run_to_completion(&mut self, max_events: u64) -> RunReport {
        let mut report = RunReport::default();
        while report.events_processed < max_events {
            let Some((time, event)) = self.queue.pop() else {
                report.drained = true;
                break;
            };
            self.clock = time;
            let mut ctx = Context::new(time, &mut self.scratch);
            self.world.handle_event(time, event, &mut ctx);
            self.queue.push_batch(self.scratch.drain(..));
            self.events_processed += 1;
            report.events_processed += 1;
        }
        report.stopped_at = self.clock;
        report
    }
}

impl<W: World + std::fmt::Debug> std::fmt::Debug for Engine<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("clock", &self.clock)
            .field("pending", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct PingPong {
        bounces: u32,
        limit: u32,
    }

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping,
        Pong,
    }

    impl World for PingPong {
        type Event = Ev;
        fn handle_event(&mut self, _now: SimTime, ev: Ev, ctx: &mut Context<Ev>) {
            self.bounces += 1;
            if self.bounces >= self.limit {
                return;
            }
            match ev {
                Ev::Ping => ctx.schedule_after(SimDuration::from_millis(10), Ev::Pong),
                Ev::Pong => ctx.schedule_after(SimDuration::from_millis(10), Ev::Ping),
            }
        }
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng = Engine::new(PingPong {
            bounces: 0,
            limit: u32::MAX,
        });
        eng.schedule(SimTime::ZERO, Ev::Ping);
        let report = eng.run_until(SimTime::from_millis(95));
        // Events at 0, 10, ..., 90 → 10 events.
        assert_eq!(report.events_processed, 10);
        assert_eq!(eng.world().bounces, 10);
        assert!(!report.drained);
        assert_eq!(eng.now(), SimTime::from_millis(95));
    }

    #[test]
    fn run_to_completion_drains() {
        let mut eng = Engine::new(PingPong {
            bounces: 0,
            limit: 5,
        });
        eng.schedule(SimTime::ZERO, Ev::Ping);
        let report = eng.run_to_completion(1_000);
        assert!(report.drained);
        assert_eq!(eng.world().bounces, 5);
        assert_eq!(eng.now(), SimTime::from_millis(40));
    }

    #[test]
    fn events_in_the_past_are_clamped_to_now() {
        struct Clamp {
            saw: Vec<SimTime>,
        }
        impl World for Clamp {
            type Event = bool; // true = schedule one in the "past"
            fn handle_event(&mut self, now: SimTime, ev: bool, ctx: &mut Context<bool>) {
                self.saw.push(now);
                if ev {
                    ctx.schedule_at(SimTime::ZERO, false);
                }
            }
        }
        let mut eng = Engine::new(Clamp { saw: vec![] });
        eng.schedule(SimTime::from_millis(50), true);
        eng.run_to_completion(10);
        assert_eq!(
            eng.world().saw,
            vec![SimTime::from_millis(50), SimTime::from_millis(50)]
        );
    }

    #[test]
    fn run_until_advances_clock_when_drained() {
        let mut eng = Engine::new(PingPong {
            bounces: 0,
            limit: 1,
        });
        eng.schedule(SimTime::ZERO, Ev::Ping);
        let report = eng.run_until(SimTime::from_secs(10));
        assert!(report.drained);
        assert_eq!(eng.now(), SimTime::from_secs(10));
    }
}
