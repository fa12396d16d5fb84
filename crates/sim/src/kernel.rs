//! Discrete-event simulation kernel.
//!
//! A single-threaded scheduler with virtual time: events are `(time, seq)`
//! ordered, ties broken by insertion sequence for full determinism. Actors
//! receive typed events and schedule new ones through [`Ctx`]. A simulated
//! minute of cluster time costs only the event processing itself, which is
//! what makes regenerating every figure of the paper practical on a laptop.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Virtual time in nanoseconds since simulation start.
pub type Time = u64;

/// One microsecond in [`Time`] units.
pub const MICROS: Time = 1_000;
/// One millisecond in [`Time`] units.
pub const MILLIS: Time = 1_000_000;
/// One second in [`Time`] units.
pub const SECS: Time = 1_000_000_000;

/// Identifies an actor registered with the simulator.
pub type ProcId = u32;

/// A simulation participant.
pub trait Actor<M> {
    /// Handle an event delivered at virtual time `now`.
    fn on_event(&mut self, now: Time, ev: M, ctx: &mut Ctx<'_, M>);
}

/// A shared actor: the harness keeps a typed handle to the state the
/// simulator drives.
impl<M, A: Actor<M>> Actor<M> for Rc<RefCell<A>> {
    fn on_event(&mut self, now: Time, ev: M, ctx: &mut Ctx<'_, M>) {
        self.borrow_mut().on_event(now, ev, ctx);
    }
}

/// An actor that ignores every event: the placeholder of a two-phase
/// registration (reserve the proc id, then swap in the actor that knows
/// it).
pub struct Idle;

impl<M> Actor<M> for Idle {
    fn on_event(&mut self, _now: Time, _ev: M, _ctx: &mut Ctx<'_, M>) {}
}

/// Scheduling context handed to actors during event processing.
pub struct Ctx<'a, M> {
    now: Time,
    self_id: ProcId,
    rng: &'a mut SmallRng,
    out: &'a mut Vec<(Time, ProcId, M)>,
    halt: &'a mut bool,
}

impl<M> Ctx<'_, M> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The id of the actor being invoked.
    pub fn self_id(&self) -> ProcId {
        self.self_id
    }

    /// The simulation's deterministic random source.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Deliver `ev` to `target` at absolute time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: Time, target: ProcId, ev: M) {
        self.out.push((at.max(self.now), target, ev));
    }

    /// Deliver `ev` to `target` after `delay`.
    pub fn schedule(&mut self, delay: Time, target: ProcId, ev: M) {
        self.out.push((self.now + delay, target, ev));
    }

    /// Deliver `ev` to the current actor after `delay` (a timer).
    pub fn timer(&mut self, delay: Time, ev: M) {
        let id = self.self_id;
        self.schedule(delay, id, ev);
    }

    /// Stop the simulation after this event completes.
    pub fn halt(&mut self) {
        *self.halt = true;
    }
}

struct QueuedEvent<M> {
    time: Time,
    seq: u64,
    target: ProcId,
    ev: M,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for QueuedEvent<M> {}
impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The simulator: actors + event queue + virtual clock.
pub struct Sim<M> {
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    heap: BinaryHeap<Reverse<QueuedEvent<M>>>,
    time: Time,
    seq: u64,
    rng: SmallRng,
    halted: bool,
    processed: u64,
    /// What the event being processed schedules, before it is queued;
    /// emptied into the heap and reused by every step.
    scheduled: Vec<(Time, ProcId, M)>,
}

impl<M> Sim<M> {
    /// A simulator seeded for deterministic runs.
    pub fn new(seed: u64) -> Sim<M> {
        Sim {
            actors: Vec::new(),
            heap: BinaryHeap::new(),
            time: 0,
            seq: 0,
            rng: SmallRng::seed_from_u64(seed),
            halted: false,
            processed: 0,
            scheduled: Vec::new(),
        }
    }

    /// Register an actor; its [`ProcId`] is its registration order.
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ProcId {
        self.actors.push(Some(actor));
        (self.actors.len() - 1) as ProcId
    }

    /// Replace an actor (crash-restart modeling). The id keeps addressing
    /// the same process slot; pending events for it still arrive.
    pub fn replace_actor(&mut self, id: ProcId, actor: Box<dyn Actor<M>>) {
        self.actors[id as usize] = Some(actor);
    }

    /// Remove an actor entirely: events addressed to it are dropped on
    /// delivery (a crashed node that never comes back).
    pub fn remove_actor(&mut self, id: ProcId) -> Option<Box<dyn Actor<M>>> {
        self.actors[id as usize].take()
    }

    /// Inject an event from outside the simulation.
    pub fn schedule(&mut self, at: Time, target: ProcId, ev: M) {
        let time = at.max(self.time);
        self.heap.push(Reverse(QueuedEvent { time, seq: self.seq, target, ev }));
        self.seq += 1;
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.time
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Process a single event. Returns `false` when the queue is empty or
    /// the simulation was halted.
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some(Reverse(qe)) = self.heap.pop() else {
            return false;
        };
        debug_assert!(qe.time >= self.time, "time must be monotonic");
        self.time = qe.time;
        self.processed += 1;
        if qe.target as usize >= self.actors.len() {
            // Addressed to a process that was never registered (e.g. a
            // test injecting a fake client address): swallow silently,
            // like a datagram to a closed port.
            return true;
        }
        let mut halt = false;
        if let Some(actor) = self.actors[qe.target as usize].as_deref_mut() {
            let mut ctx = Ctx {
                now: self.time,
                self_id: qe.target,
                rng: &mut self.rng,
                out: &mut self.scheduled,
                halt: &mut halt,
            };
            actor.on_event(self.time, qe.ev, &mut ctx);
        }
        for (at, target, ev) in self.scheduled.drain(..) {
            self.heap.push(Reverse(QueuedEvent { time: at, seq: self.seq, target, ev }));
            self.seq += 1;
        }
        if halt {
            self.halted = true;
        }
        true
    }

    /// Run until the queue drains, `deadline` passes, or an actor halts.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let start = self.processed;
        while let Some(Reverse(head)) = self.heap.peek() {
            if head.time > deadline || self.halted {
                break;
            }
            self.step();
        }
        if self.time < deadline {
            self.time = deadline;
        }
        self.processed - start
    }

    /// Run until the event queue is completely empty (or halted).
    pub fn run_to_quiescence(&mut self) -> u64 {
        let start = self.processed;
        while self.step() {}
        self.processed - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Tick,
    }

    struct Echo {
        peer: ProcId,
        log: Vec<(Time, u32)>,
    }

    impl Actor<Ev> for Echo {
        fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            match ev {
                Ev::Ping(n) => {
                    self.log.push((now, n));
                    if n < 5 {
                        ctx.schedule(10 * MILLIS, self.peer, Ev::Ping(n + 1));
                    } else {
                        ctx.halt();
                    }
                }
                Ev::Tick => {}
            }
        }
    }

    #[test]
    fn ping_pong_advances_virtual_time() {
        let mut sim: Sim<Ev> = Sim::new(7);
        let a = sim.add_actor(Box::new(Echo { peer: 1, log: vec![] }));
        let b = sim.add_actor(Box::new(Echo { peer: 0, log: vec![] }));
        assert_eq!((a, b), (0, 1));
        sim.schedule(0, a, Ev::Ping(0));
        sim.run_to_quiescence();
        assert_eq!(sim.now(), 50 * MILLIS);
        assert_eq!(sim.events_processed(), 6);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        struct Recorder {
            seen: Vec<u32>,
        }
        impl Actor<Ev> for Recorder {
            fn on_event(&mut self, _now: Time, ev: Ev, _ctx: &mut Ctx<'_, Ev>) {
                if let Ev::Ping(n) = ev {
                    self.seen.push(n);
                }
            }
        }
        let mut sim: Sim<Ev> = Sim::new(1);
        let r = sim.add_actor(Box::new(Recorder { seen: vec![] }));
        for n in 0..10 {
            sim.schedule(100, r, Ev::Ping(n));
        }
        sim.run_to_quiescence();
        // Determinism is observable through two identical runs.
        let run = |seed| {
            let mut sim: Sim<Ev> = Sim::new(seed);
            let r = sim.add_actor(Box::new(Recorder { seen: vec![] }));
            for n in 0..10 {
                sim.schedule(100, r, Ev::Ping(n));
            }
            sim.run_to_quiescence();
            sim.events_processed()
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim: Sim<Ev> = Sim::new(2);
        let a = sim.add_actor(Box::new(Echo { peer: 0, log: vec![] }));
        sim.schedule(90 * MILLIS, a, Ev::Tick);
        let n = sim.run_until(50 * MILLIS);
        assert_eq!(n, 0, "event is beyond the deadline");
        assert_eq!(sim.now(), 50 * MILLIS);
        sim.run_until(200 * MILLIS);
        assert_eq!(sim.now(), 200 * MILLIS);
    }

    #[test]
    fn removed_actor_swallows_events() {
        let mut sim: Sim<Ev> = Sim::new(2);
        let a = sim.add_actor(Box::new(Echo { peer: 0, log: vec![] }));
        sim.schedule(10, a, Ev::Ping(0));
        sim.remove_actor(a);
        sim.run_to_quiescence();
        assert_eq!(sim.events_processed(), 1, "event consumed without effect");
    }
}
