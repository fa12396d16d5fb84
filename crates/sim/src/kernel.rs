//! Discrete-event simulation kernel.
//!
//! A single-threaded scheduler with virtual time: events are `(time, seq)`
//! ordered, ties broken by insertion sequence for full determinism. The
//! queue orders only those keys, each with the slot of a slab where its
//! event waits, so a sift moves 24 bytes however large the event type; a
//! delivered event's slot is reused by the next one queued. A key at or
//! past the last one queued in order goes on the back of a FIFO instead
//! of into the heap, and the next event is the earlier of the heap's top
//! and the FIFO's front: the same order as one heap of them all. A
//! fixed-delay timer, armed once per request, is such a key unless a
//! longer delay was armed after it, so a second's worth of pending
//! request timeouts waits in the FIFO and the heap sifts only the
//! short hops. Actors receive typed events and schedule new ones through
//! [`Ctx`]. A simulated minute of cluster time costs only the event
//! processing itself, which is what makes regenerating every figure of
//! the paper practical on a laptop.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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

/// A pending event's place in the queue: `(time, seq)` orders it (`seq`
/// is unique), and `slot` says where in [`Sim`]'s slab it waits.
type QueueKey = (Time, u64, usize);

/// The simulator: actors + event queue + virtual clock.
pub struct Sim<M> {
    actors: Vec<Option<Box<dyn Actor<M>>>>,
    /// Keys of pending events, earliest first. A sift moves only these;
    /// the events themselves stay in `slab`.
    heap: BinaryHeap<Reverse<QueueKey>>,
    /// The other pending keys, each at or past the one before it, so
    /// earliest first too.
    fifo: VecDeque<QueueKey>,
    /// Pending events as `(target, event)`, by slot; `None` where free.
    slab: Vec<Option<(ProcId, M)>>,
    /// Free slots of `slab`, reused before it grows.
    free: Vec<usize>,
    time: Time,
    seq: u64,
    rng: SmallRng,
    halted: bool,
    processed: u64,
    /// What the event being processed schedules, before it is queued;
    /// emptied into the queue and reused by every step.
    scheduled: Vec<(Time, ProcId, M)>,
}

impl<M> Sim<M> {
    /// A simulator seeded for deterministic runs.
    pub fn new(seed: u64) -> Sim<M> {
        Sim {
            actors: Vec::new(),
            heap: BinaryHeap::new(),
            fifo: VecDeque::new(),
            slab: Vec::new(),
            free: Vec::new(),
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
        self.enqueue(at.max(self.time), target, ev);
    }

    /// Queue `ev` for `target` at `time`, next in sequence.
    fn enqueue(&mut self, time: Time, target: ProcId, ev: M) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Some((target, ev));
                slot
            }
            None => {
                self.slab.push(Some((target, ev)));
                self.slab.len() - 1
            }
        };
        let key = (time, self.seq, slot);
        // `seq` grows, so a key at or past the back's time is after it.
        match self.fifo.back() {
            Some(&(back, _, _)) if time < back => self.heap.push(Reverse(key)),
            _ => self.fifo.push_back(key),
        }
        self.seq += 1;
    }

    /// The earliest pending key: the heap's top or the FIFO's front.
    fn peek(&self) -> Option<QueueKey> {
        match (self.heap.peek(), self.fifo.front()) {
            (Some(&Reverse(top)), Some(&front)) => Some(top.min(front)),
            (top, front) => top.map(|&Reverse(top)| top).or(front.copied()),
        }
    }

    /// Take the earliest pending key off its queue.
    fn pop(&mut self) -> Option<QueueKey> {
        let next = self.peek()?;
        if self.fifo.front() == Some(&next) {
            self.fifo.pop_front()
        } else {
            self.heap.pop().map(|Reverse(key)| key)
        }
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
        let Some((time, _, slot)) = self.pop() else {
            return false;
        };
        let (target, ev) = self.slab[slot].take().expect("a queued key's slot holds its event");
        self.free.push(slot);
        debug_assert!(time >= self.time, "time must be monotonic");
        self.time = time;
        self.processed += 1;
        if target as usize >= self.actors.len() {
            // Addressed to a process that was never registered (e.g. a
            // test injecting a fake client address): swallow silently,
            // like a datagram to a closed port.
            return true;
        }
        let mut halt = false;
        if let Some(actor) = self.actors[target as usize].as_deref_mut() {
            let mut ctx = Ctx {
                now: self.time,
                self_id: target,
                rng: &mut self.rng,
                out: &mut self.scheduled,
                halt: &mut halt,
            };
            actor.on_event(self.time, ev, &mut ctx);
        }
        let mut scheduled = std::mem::take(&mut self.scheduled);
        for (at, target, ev) in scheduled.drain(..) {
            self.enqueue(at, target, ev);
        }
        self.scheduled = scheduled;
        if halt {
            self.halted = true;
        }
        true
    }

    /// Run until the queue drains, `deadline` passes, or an actor halts.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let start = self.processed;
        while let Some((time, _, _)) = self.peek() {
            if time > deadline || self.halted {
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

    /// What a [`Fanout`] schedules on `tag` at `now`: `(at, tag)`, in
    /// order. Ties at the same instant, later times, and a time in the
    /// past (clamped to now).
    fn follow_ups(now: Time, tag: u32) -> Vec<(Time, u32)> {
        if tag >= 400 {
            return Vec::new();
        }
        let at = [now, now + 5, now.saturating_sub(3), now + Time::from(tag % 3) * 5];
        (0..tag % 4 + 1).map(|k| (at[k as usize], tag * 4 + k + 1)).collect()
    }

    struct Fanout {
        log: Rc<RefCell<Vec<(Time, u32)>>>,
    }

    impl Actor<Ev> for Fanout {
        fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            let Ev::Ping(tag) = ev else { return };
            self.log.borrow_mut().push((now, tag));
            for (at, next) in follow_ups(now, tag) {
                if at == now + 5 {
                    ctx.schedule(5, ctx.self_id(), Ev::Ping(next));
                } else {
                    ctx.schedule_at(at, ctx.self_id(), Ev::Ping(next));
                }
            }
        }
    }

    /// The reference queue for a [`Fanout`]: every pending tag keyed by
    /// `(time, seq)` in a sorted map, and what it delivered.
    #[derive(Default)]
    struct Model {
        pending: std::collections::BTreeMap<(Time, u64), u32>,
        seq: u64,
        now: Time,
        delivered: Vec<(Time, u32)>,
    }

    impl Model {
        fn schedule(&mut self, at: Time, tag: u32) {
            self.pending.insert((at.max(self.now), self.seq), tag);
            self.seq += 1;
        }

        fn run_until(&mut self, deadline: Time) {
            while let Some(next) = self.pending.first_entry().filter(|e| e.key().0 <= deadline) {
                let ((at, _), tag) = next.remove_entry();
                self.now = at;
                self.delivered.push((at, tag));
                for (at, next) in follow_ups(at, tag) {
                    self.schedule(at, next);
                }
            }
            self.now = self.now.max(deadline);
        }
    }

    /// Injected and actor-scheduled events, many of them tied, are
    /// delivered in exactly the `(time, seq)` order a sorted map of them
    /// gives — whatever slots the queue reuses on the way.
    #[test]
    fn interleaved_schedules_deliver_in_time_then_sequence_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim: Sim<Ev> = Sim::new(5);
        let a = sim.add_actor(Box::new(Fanout { log: log.clone() }));
        let mut model = Model::default();
        for round in 0..30u64 {
            for i in 0..5u32 {
                let at = round * 10 + Time::from(i % 3) * 4;
                let tag = u32::try_from(round).unwrap() * 5 + i;
                sim.schedule(at, a, Ev::Ping(tag));
                model.schedule(at, tag);
            }
            let deadline = round * 10 + 7;
            sim.run_until(deadline);
            model.run_until(deadline);
            assert_eq!(sim.now(), model.now);
        }
        sim.run_to_quiescence();
        model.run_until(Time::MAX);
        assert!(model.delivered.len() > 1_000, "{} events", model.delivered.len());
        assert_eq!(*log.borrow(), model.delivered);
        assert_eq!(sim.events_processed(), model.seq);
    }

    /// A "second" of the random schedules below: times are small
    /// integers, so ties and keys one tick apart are common.
    const TICKS: Time = 1_000;

    /// What a [`RandomFanout`] schedules on `tag` at `now` in schedule
    /// `seed`: up to three follow-ups, each drawn from a hash of the
    /// three — a tie with now, a short hop, the one-"second" timer every
    /// request arms, whole "seconds" ahead, or a time in the past.
    fn random_follow_ups(seed: u64, now: Time, tag: u32) -> Vec<(Time, u32)> {
        use rand::Rng;
        if tag >= 2_000 {
            return Vec::new();
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ now ^ u64::from(tag) << 40);
        (0..rng.gen_range(0..4u32))
            .map(|k| {
                let at = match rng.gen_range(0..5u32) {
                    0 => now,
                    1 => now + rng.gen_range(1..50u64),
                    2 => now + TICKS,
                    3 => now + rng.gen_range(0..3u64) * TICKS,
                    _ => now.saturating_sub(rng.gen_range(0..5u64)),
                };
                (at, tag * 4 + k + 1)
            })
            .collect()
    }

    struct RandomFanout {
        seed: u64,
        log: Rc<RefCell<Vec<(Time, u32)>>>,
    }

    impl Actor<Ev> for RandomFanout {
        fn on_event(&mut self, now: Time, ev: Ev, ctx: &mut Ctx<'_, Ev>) {
            let Ev::Ping(tag) = ev else { return };
            self.log.borrow_mut().push((now, tag));
            for (at, next) in random_follow_ups(self.seed, now, tag) {
                ctx.schedule_at(at, ctx.self_id(), Ev::Ping(next));
            }
        }
    }

    /// Random schedules — injected and actor-scheduled, timers among
    /// short hops, ties and times in the past — are delivered in exactly
    /// the order one plain heap of `(time, seq)` keys pops them, with the
    /// timer FIFO and the heap both in use on the way.
    #[test]
    fn random_schedules_pop_in_plain_heap_order() {
        use rand::Rng;
        let mut delivered = 0;
        for seed in 0..40u64 {
            let log = Rc::new(RefCell::new(Vec::new()));
            let mut sim: Sim<Ev> = Sim::new(seed);
            let a = sim.add_actor(Box::new(RandomFanout { seed, log: log.clone() }));
            let mut heap = BinaryHeap::new();
            let (mut seq, mut now) = (0u64, 0);
            let mut want = Vec::new();
            let mut rng = SmallRng::seed_from_u64(!seed);
            let (mut both, mut fifo_max) = (false, 0);
            for round in 0..20u64 {
                for _ in 0..rng.gen_range(1..20u32) {
                    let at = round * 100 + rng.gen_range(0..3 * TICKS);
                    let tag = rng.gen_range(0..500u32);
                    sim.schedule(at, a, Ev::Ping(tag));
                    heap.push(Reverse((at.max(now), seq, tag)));
                    seq += 1;
                }
                let deadline = round * 100 + rng.gen_range(0..200u64);
                while let Some(&Reverse((at, _, tag))) = heap.peek().filter(|k| k.0 .0 <= deadline)
                {
                    heap.pop();
                    now = at;
                    want.push((at, tag));
                    for (at, next) in random_follow_ups(seed, at, tag) {
                        heap.push(Reverse((at.max(now), seq, next)));
                        seq += 1;
                    }
                }
                now = now.max(deadline);
                while sim.peek().is_some_and(|(at, _, _)| at <= deadline) {
                    both |= !sim.heap.is_empty() && !sim.fifo.is_empty();
                    fifo_max = fifo_max.max(sim.fifo.len());
                    sim.step();
                }
                sim.run_until(deadline);
                assert_eq!(sim.now(), now, "seed {seed}");
            }
            sim.run_to_quiescence();
            while let Some(Reverse((now, _, tag))) = heap.pop() {
                want.push((now, tag));
                for (at, next) in random_follow_ups(seed, now, tag) {
                    heap.push(Reverse((at.max(now), seq, next)));
                    seq += 1;
                }
            }
            assert_eq!(*log.borrow(), want, "seed {seed}");
            assert!(both && fifo_max > 1, "seed {seed}: the FIFO held up to {fifo_max} keys");
            delivered += want.len();
        }
        assert!(delivered > 20_000, "{delivered} events");
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
