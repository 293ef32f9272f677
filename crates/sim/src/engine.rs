//! The discrete-event simulation engine.
//!
//! The engine is a single-threaded event loop over a priority queue ordered
//! by `(time, sequence-number)`. Determinism is absolute: the same actor
//! graph and seed produce the same dispatch sequence, which the kernel
//! fingerprints with a running FNV-1a hash (see [`Engine::fingerprint`]).
//!
//! # Schedulers
//!
//! Two interchangeable queue implementations back the kernel (selected via
//! [`Scheduler`], see [`Engine::new_with_scheduler`]):
//!
//! * [`Scheduler::TimingWheel`] (the default) — a hierarchical timing wheel
//!   (64 slots × 11 levels over the `u64` nanosecond clock) with per-level
//!   occupancy bitmaps and an event slab with freelist reuse. Insertion and
//!   pop are O(1) amortised; events at the same instant drain in FIFO
//!   (sequence-number) order because slot vectors append in scheduling
//!   order and cascades preserve it.
//! * [`Scheduler::LegacyHeap`] — the original `BinaryHeap` scheduler, kept
//!   as an executable reference. Both produce the identical dispatch order
//!   `(time, seq)` and therefore identical fingerprints; the equivalence is
//!   pinned by unit tests here and a proptest in `tests/`.
//!
//! # Fan-out
//!
//! [`Ctx::send_shared`] schedules one payload for several actors as a
//! single queue record. Dispatch walks the record's targets in order and
//! is, per target, exactly a plain dispatch — same incarnation check,
//! same count, same fingerprint — so the record is indistinguishable
//! from the back-to-back sends it stands for (see [`Actor::on_shared`]).
//!
//! # Actors and crashes
//!
//! Simulated components implement [`Actor`]. Every actor carries an
//! *incarnation* counter. Events are stamped with the target's incarnation
//! at scheduling time and silently dropped at dispatch if the target has
//! since crashed (stale timers, in-flight messages to a down node). This
//! implements the paper's §2.4 model: intra-process inter-component
//! messages are reliable *except in case of a crash*, and network messages
//! to a crashed process are lost.
//!
//! Crash and recovery are engine-level control events scheduled with
//! [`Engine::schedule_crash`] / [`Engine::schedule_recover`] (or from
//! within an actor via [`Ctx::crash_me`]). On crash the engine calls
//! [`Actor::on_crash`], where the actor must discard its volatile state
//! while retaining anything it models as stable storage. On recovery the
//! incarnation is bumped and [`Actor::on_recover`] runs the recovery
//! procedure.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Metrics;
use crate::obs::{Obs, ObsConfig, ObsEvent};
use crate::time::{SimDuration, SimTime};

/// Identifies an actor registered with the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl ActorId {
    /// The raw index of this actor.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dynamically-typed event payload exchanged between actors.
///
/// Each crate defines its own concrete event structs and downcasts on
/// receipt; see [`crate::downcast_payload`] for the ergonomic helper.
pub type Payload = Box<dyn Any>;

/// A simulated component driven by events.
///
/// The [`AsAny`] supertrait (blanket-implemented for every `'static` type)
/// lets drivers downcast registered actors back to their concrete type via
/// [`Engine::actor`] after a run.
pub trait Actor: AsAny {
    /// Handle an event addressed to this actor.
    fn on_event(&mut self, ctx: &mut Ctx<'_>, payload: Payload);

    /// Handle an event whose payload this actor shares with the other
    /// targets of a fan-out (see [`Ctx::send_shared`]). The default
    /// copies the payload and handles it as an owned event; an actor on a
    /// hot fan-out path overrides this to read the payload in place.
    fn on_shared(&mut self, ctx: &mut Ctx<'_>, payload: Shared<'_>) {
        self.on_event(ctx, payload.to_payload());
    }

    /// The actor has crashed: drop all volatile state. State the actor
    /// models as *stable storage* (write-ahead logs, group-communication
    /// message logs) must survive this call.
    fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {}

    /// The actor recovers with a fresh incarnation: run its recovery
    /// procedure (read stable storage, rejoin the group, ...).
    fn on_recover(&mut self, _ctx: &mut Ctx<'_>) {}

    /// Human-readable name for traces and error messages.
    fn name(&self) -> &str {
        "actor"
    }
}

/// What a fan-out record keeps of its payload: a view for receivers that
/// read it in place and an owned copy for those that do not. Implemented
/// for every `Any + Clone` type, which is where the clone is captured.
trait SharedBody {
    fn as_any(&self) -> &dyn Any;
    fn boxed_clone(&self) -> Payload;
}

impl<T: Any + Clone> SharedBody for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn boxed_clone(&self) -> Payload {
        Box::new(self.clone())
    }
}

/// The one payload of a fan-out (see [`Ctx::send_shared`]), borrowed by
/// each receiver in turn. It is immutable: every receiver of the fan-out
/// observes the same value.
#[derive(Clone, Copy)]
pub struct Shared<'a>(&'a dyn SharedBody);

impl<'a> Shared<'a> {
    /// The payload in place, if it is a `T`.
    pub fn downcast_ref<T: Any>(self) -> Option<&'a T> {
        self.0.as_any().downcast_ref()
    }

    /// A copy of the payload as an owned [`Payload`].
    pub fn to_payload(self) -> Payload {
        self.0.boxed_clone()
    }
}

/// Sentinel incarnation: deliver whenever the target is alive.
const ANY_INCARNATION: u32 = u32::MAX;

/// Body of an [`EventKind::FanOut`]: the targets in delivery order, each
/// with its incarnation at scheduling time, and the payload they share.
struct FanOut<P: ?Sized = dyn SharedBody> {
    targets: Vec<(ActorId, u32)>,
    payload: P,
}

enum EventKind {
    /// Deliver `payload` to `target` if its incarnation still matches
    /// (or matches any incarnation, for driver-injected events).
    Dispatch {
        target: ActorId,
        incarnation: u32,
        payload: Payload,
    },
    /// What one `Dispatch` per target, scheduled back to back for the
    /// same instant, would do — as a single queue record.
    FanOut(Box<FanOut>),
    /// Crash `target` (idempotent if already down).
    Crash(ActorId),
    /// Recover `target` (idempotent if already up).
    Recover(ActorId),
    /// Stop the run immediately.
    Halt,
}

/// Selects the event-queue implementation backing the kernel.
///
/// Both schedulers dispatch events in the identical `(time, seq)` order and
/// therefore produce bit-for-bit identical fingerprints and traces; the
/// legacy heap exists as an executable reference for equivalence tests and
/// as a fallback while the wheel bakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Hierarchical timing wheel + event slab (the default; O(1) amortised).
    #[default]
    TimingWheel,
    /// The original `BinaryHeap<Reverse<QueuedEvent>>` (O(log n) per op).
    LegacyHeap,
}

struct QueuedEvent {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

// Order by (time, seq): the heap is a max-heap so we wrap in `Reverse` at
// the call sites; equality/ordering here only consider the (time, seq) key.
impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for QueuedEvent {}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// Slab of pending event records with freelist reuse: the wheel's slot
/// vectors hold 12-byte `(time, index)` entries instead of full event
/// structs, and record storage is recycled across the run instead of
/// churning the allocator once per event.
#[derive(Default)]
struct EventSlab {
    slots: Vec<Option<EventKind>>,
    free: Vec<u32>,
}

impl EventSlab {
    fn insert(&mut self, kind: EventKind) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(kind);
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Some(kind));
            idx
        }
    }

    fn remove(&mut self, idx: u32) -> EventKind {
        let kind = self.slots[idx as usize].take().expect("slab slot");
        self.free.push(idx);
        kind
    }
}

const WHEEL_BITS: u32 = 6;
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS; // 64 slots per level
const WHEEL_LEVELS: usize = 11; // 11 × 6 = 66 bits ≥ the full u64 clock
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;

/// Hierarchical timing wheel over the `u64` nanosecond clock.
///
/// Level `k` partitions time by its `k`-th 6-bit digit; an event lands at
/// the level of the most-significant digit in which its time differs from
/// `horizon` (the wheel's internal clock, always ≤ every queued time).
/// Per-level `u64` occupancy bitmaps make "find earliest slot" a
/// `trailing_zeros`. Advancing the horizon re-distributes ("cascades") one
/// coarse slot into finer levels; each event cascades at most 10 times
/// total, so operations are O(1) amortised.
///
/// Two invariants carry determinism and the deadline contract:
///
/// * **FIFO within an instant.** A queued event's slot always equals its
///   correct slot relative to the *current* horizon (a cascade at level `k`
///   only happens when every finer level is empty, so no event is ever
///   stranded at a stale level). Same-instant events therefore share a slot
///   and append in scheduling (`seq`) order, which cascades preserve.
/// * **Bounded advance.** [`TimingWheel::pop_at_or_before`] never moves
///   `horizon` past `limit`: `run_until(deadline)` sets the kernel clock to
///   `deadline`, and later insertions at `time ≥ deadline` must still
///   satisfy `time ≥ horizon`.
struct TimingWheel {
    horizon: u64,
    occupancy: [u64; WHEEL_LEVELS],
    slots: Vec<Vec<(u64, u32)>>,
    /// FIFO of the instant currently being drained (swapped out of its
    /// slot so same-instant re-schedules refill the slot behind it).
    current: Vec<(u64, u32)>,
    cursor: usize,
}

impl TimingWheel {
    fn new() -> Self {
        TimingWheel {
            horizon: 0,
            occupancy: [0; WHEEL_LEVELS],
            slots: (0..WHEEL_LEVELS * WHEEL_SLOTS)
                .map(|_| Vec::new())
                .collect(),
            current: Vec::new(),
            cursor: 0,
        }
    }

    fn level_of(&self, time: u64) -> usize {
        let xor = time ^ self.horizon;
        if xor == 0 {
            0
        } else {
            (63 - xor.leading_zeros()) as usize / WHEEL_BITS as usize
        }
    }

    fn file(&mut self, time: u64, idx: u32) {
        let level = self.level_of(time);
        let slot = ((time >> (level as u32 * WHEEL_BITS)) & SLOT_MASK) as usize;
        self.slots[level * WHEEL_SLOTS + slot].push((time, idx));
        self.occupancy[level] |= 1 << slot;
    }

    fn push(&mut self, time: u64, idx: u32) {
        // Defensive clamp: the kernel never schedules below its clock (and
        // the clock never trails the horizon), but a past time here would
        // corrupt the slot invariants rather than merely fire late.
        self.file(time.max(self.horizon), idx);
    }

    /// Pop the earliest event with `time <= limit`, or `None` — without
    /// ever advancing the horizon past `limit`.
    fn pop_at_or_before(&mut self, limit: u64) -> Option<(u64, u32)> {
        loop {
            if self.cursor < self.current.len() {
                let (time, idx) = self.current[self.cursor];
                if time > limit {
                    // Only reachable if a halt abandoned a partial drain.
                    return None;
                }
                self.cursor += 1;
                return Some((time, idx));
            }
            self.current.clear();
            self.cursor = 0;
            if self.occupancy[0] != 0 {
                let slot = self.occupancy[0].trailing_zeros() as u64;
                let time = (self.horizon & !SLOT_MASK) | slot;
                if time > limit {
                    return None;
                }
                self.horizon = time;
                self.occupancy[0] &= !(1 << slot);
                std::mem::swap(&mut self.current, &mut self.slots[slot as usize]);
                continue;
            }
            let level = (1..WHEEL_LEVELS).find(|&k| self.occupancy[k] != 0)?;
            let slot = self.occupancy[level].trailing_zeros() as u64;
            let shift = level as u32 * WHEEL_BITS;
            let high_mask = match shift + WHEEL_BITS {
                64.. => 0,
                above => u64::MAX << above,
            };
            let base = (self.horizon & high_mask) | (slot << shift);
            if base > limit {
                return None;
            }
            self.horizon = base;
            self.occupancy[level] &= !(1 << slot);
            // Every entry re-files strictly below `level`, never back into
            // this slot, which keeps its buffer for its next turn.
            let index = level * WHEEL_SLOTS + slot as usize;
            let mut cascaded = std::mem::take(&mut self.slots[index]);
            for &(time, idx) in &cascaded {
                self.file(time, idx);
            }
            cascaded.clear();
            self.slots[index] = cascaded;
        }
    }
}

/// The kernel's event queue: one of the two [`Scheduler`] implementations.
enum EventQueue {
    Wheel { wheel: TimingWheel, slab: EventSlab },
    Heap(BinaryHeap<Reverse<QueuedEvent>>),
}

impl EventQueue {
    fn new(scheduler: Scheduler) -> Self {
        match scheduler {
            Scheduler::TimingWheel => EventQueue::Wheel {
                wheel: TimingWheel::new(),
                slab: EventSlab::default(),
            },
            Scheduler::LegacyHeap => EventQueue::Heap(BinaryHeap::new()),
        }
    }

    fn push(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        match self {
            EventQueue::Wheel { wheel, slab } => {
                let idx = slab.insert(kind);
                wheel.push(time.as_nanos(), idx);
            }
            EventQueue::Heap(heap) => heap.push(Reverse(QueuedEvent { time, seq, kind })),
        }
    }

    /// Pop the earliest event with `time <= limit` in `(time, seq)` order.
    fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, EventKind)> {
        match self {
            EventQueue::Wheel { wheel, slab } => {
                let (time, idx) = wheel.pop_at_or_before(limit.as_nanos())?;
                Some((SimTime::from_nanos(time), slab.remove(idx)))
            }
            EventQueue::Heap(heap) => {
                if heap.peek().is_none_or(|Reverse(ev)| ev.time > limit) {
                    return None;
                }
                let Reverse(ev) = heap.pop().expect("peeked");
                Some((ev.time, ev.kind))
            }
        }
    }
}

/// Mutable kernel state shared with actors during dispatch via [`Ctx`].
pub struct Kernel {
    now: SimTime,
    seq: u64,
    queue: EventQueue,
    incarnations: Vec<u32>,
    alive: Vec<bool>,
    /// Target vectors of dispatched fan-outs, kept for the next ones.
    spare_targets: Vec<Vec<(ActorId, u32)>>,
    rng: StdRng,
    /// Metrics registry shared by the whole simulation.
    pub metrics: Metrics,
    /// Typed observability sink (disabled by default). Recording never
    /// touches the fingerprint, the RNG or the queue: enabling it leaves
    /// the simulation's behaviour bit-for-bit identical.
    pub obs: Obs,
    fingerprint: u64,
    dispatched: u64,
    halted: bool,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

impl Kernel {
    fn new(seed: u64, scheduler: Scheduler) -> Self {
        Kernel {
            now: SimTime::ZERO,
            seq: 0,
            queue: EventQueue::new(scheduler),
            incarnations: Vec::new(),
            alive: Vec::new(),
            spare_targets: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::new(),
            obs: Obs::default(),
            fingerprint: FNV_OFFSET,
            dispatched: 0,
            halted: false,
        }
    }

    fn mix(&mut self, v: u64) {
        self.fingerprint ^= v;
        self.fingerprint = self.fingerprint.wrapping_mul(FNV_PRIME);
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(time, seq, kind);
    }

    fn schedule_dispatch(&mut self, at: SimTime, target: ActorId, payload: Payload) {
        let incarnation = self.incarnations[target.index()];
        self.push(
            at,
            EventKind::Dispatch {
                target,
                incarnation,
                payload,
            },
        );
    }
}

/// The context handed to actors while they handle an event.
pub struct Ctx<'a> {
    kernel: &'a mut Kernel,
    me: ActorId,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// The id of the actor currently executing.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Schedule `payload` for `target` after `delay`. The event is dropped
    /// if `target` crashes (or crashes and recovers) before it fires.
    pub fn send(&mut self, target: ActorId, delay: SimDuration, payload: impl Any) {
        let at = self.kernel.now + delay;
        self.kernel.schedule_dispatch(at, target, Box::new(payload));
    }

    /// Schedule one `payload` for every actor in `targets`, in that order,
    /// after `delay`: the same deliveries, drops and dispatch order as one
    /// [`Ctx::send`] per target issued back to back, held as one queue
    /// record. Each target receives it through [`Actor::on_shared`]; a
    /// single target owns the payload and receives it as a plain send.
    pub fn send_shared<T: Any + Clone>(
        &mut self,
        targets: &[ActorId],
        delay: SimDuration,
        payload: T,
    ) {
        match *targets {
            [] => {}
            [target] => self.send(target, delay, payload),
            _ => {
                let kernel = &mut *self.kernel;
                let mut stamped = kernel.spare_targets.pop().unwrap_or_default();
                stamped.extend(targets.iter().map(|&t| (t, kernel.incarnations[t.index()])));
                let body = Box::new(FanOut {
                    targets: stamped,
                    payload,
                });
                kernel.push(kernel.now + delay, EventKind::FanOut(body));
            }
        }
    }

    /// Schedule an event to the executing actor itself (a timer).
    pub fn timer(&mut self, delay: SimDuration, payload: impl Any) {
        self.send(self.me, delay, payload);
    }

    /// True if `target` is currently up.
    pub fn is_alive(&self, target: ActorId) -> bool {
        self.kernel.alive[target.index()]
    }

    /// Crash the executing actor immediately (its `on_crash` runs when the
    /// control event is processed, at the current instant).
    pub fn crash_me(&mut self) {
        let me = self.me;
        self.kernel.push(self.kernel.now, EventKind::Crash(me));
    }

    /// Schedule a crash of `target` after `delay`.
    pub fn schedule_crash(&mut self, target: ActorId, delay: SimDuration) {
        let at = self.kernel.now + delay;
        self.kernel.push(at, EventKind::Crash(target));
    }

    /// Schedule a recovery of `target` after `delay`.
    pub fn schedule_recover(&mut self, target: ActorId, delay: SimDuration) {
        let at = self.kernel.now + delay;
        self.kernel.push(at, EventKind::Recover(target));
    }

    /// Stop the whole simulation at the current instant.
    pub fn halt(&mut self) {
        self.kernel.push(self.kernel.now, EventKind::Halt);
    }

    /// The simulation-wide deterministic random number generator.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.kernel.rng
    }

    /// Derive an independent deterministic RNG stream (for components that
    /// must not perturb the global stream).
    pub fn fork_rng(&mut self) -> StdRng {
        StdRng::seed_from_u64(self.kernel.rng.random())
    }

    /// The shared metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.kernel.metrics
    }

    /// Emit a typed observability event, stamped with the current sim
    /// time and the executing actor. `event` is only evaluated when
    /// recording is active (single-branch cost otherwise).
    #[inline]
    pub fn emit(&mut self, event: impl FnOnce() -> ObsEvent) {
        let now = self.kernel.now;
        let me = self.me;
        self.kernel.obs.emit_with(now, me, event);
    }
}

/// The simulation engine: actor registry plus kernel.
pub struct Engine {
    actors: Vec<Option<Box<dyn Actor>>>,
    kernel: Kernel,
}

impl Engine {
    /// Create an engine whose RNG streams derive from `seed`, scheduled by
    /// the default timing wheel.
    pub fn new(seed: u64) -> Self {
        Engine::new_with_scheduler(seed, Scheduler::TimingWheel)
    }

    /// Create an engine with an explicit [`Scheduler`] (equivalence tests
    /// and benchmarks; production callers use [`Engine::new`]).
    pub fn new_with_scheduler(seed: u64, scheduler: Scheduler) -> Self {
        Engine {
            actors: Vec::new(),
            kernel: Kernel::new(seed, scheduler),
        }
    }

    /// Configure the observability layer (mode + flight-recorder size).
    /// Replaces any previously recorded events.
    pub fn set_obs(&mut self, cfg: ObsConfig) {
        self.kernel.obs = Obs::new(cfg);
    }

    /// The observability sink (events, flight-recorder tail, exporters).
    pub fn obs(&self) -> &Obs {
        &self.kernel.obs
    }

    /// Register an actor; returns its id. All actors start alive with
    /// incarnation 0.
    pub fn add_actor(&mut self, actor: Box<dyn Actor>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(Some(actor));
        self.kernel.incarnations.push(0);
        self.kernel.alive.push(true);
        id
    }

    /// Number of registered actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// Schedule `payload` for `target` at absolute time `at` (driver-side
    /// injection, e.g. workload arrivals or scripted scenarios). The event
    /// is dropped if `target` crashes before it fires.
    pub fn schedule(&mut self, at: SimTime, target: ActorId, payload: impl Any) {
        assert!(at >= self.kernel.now, "cannot schedule into the past");
        self.kernel.schedule_dispatch(at, target, Box::new(payload));
    }

    /// Like [`Engine::schedule`], but the event is delivered as long as
    /// `target` is *alive at delivery time*, regardless of intervening
    /// crash/recovery cycles. Use for scripted scenarios that inject work
    /// after a planned recovery.
    pub fn schedule_resilient(&mut self, at: SimTime, target: ActorId, payload: impl Any) {
        assert!(at >= self.kernel.now, "cannot schedule into the past");
        self.kernel.push(
            at,
            EventKind::Dispatch {
                target,
                incarnation: ANY_INCARNATION,
                payload: Box::new(payload),
            },
        );
    }

    /// Schedule a crash of `target` at absolute time `at`.
    pub fn schedule_crash(&mut self, at: SimTime, target: ActorId) {
        self.kernel.push(at, EventKind::Crash(target));
    }

    /// Schedule a recovery of `target` at absolute time `at`.
    pub fn schedule_recover(&mut self, at: SimTime, target: ActorId) {
        self.kernel.push(at, EventKind::Recover(target));
    }

    /// True if `target` is currently up.
    pub fn is_alive(&self, target: ActorId) -> bool {
        self.kernel.alive[target.index()]
    }

    /// Run until the queue drains or `deadline` passes, whichever is first.
    /// Returns the time of the last processed event.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while !self.kernel.halted {
            let Some((time, kind)) = self.kernel.queue.pop_at_or_before(deadline) else {
                break;
            };
            self.process(time, kind);
        }
        // Advance the clock to the deadline even if the queue drained early,
        // so repeated run_until calls observe monotone time.
        if !self.kernel.halted && deadline > self.kernel.now && deadline != SimTime::MAX {
            self.kernel.now = deadline;
        }
        self.kernel.now
    }

    /// Run until the event queue is empty (or a halt is requested).
    pub fn run_to_completion(&mut self) -> SimTime {
        while !self.kernel.halted {
            let Some((time, kind)) = self.kernel.queue.pop_at_or_before(SimTime::MAX) else {
                break;
            };
            self.process(time, kind);
        }
        self.kernel.now
    }

    /// Hand one event to `target` at the current instant — unless it is
    /// down, or crashed since the event was stamped with `incarnation`.
    fn dispatch(
        &mut self,
        target: ActorId,
        incarnation: u32,
        deliver: impl FnOnce(&mut dyn Actor, &mut Ctx<'_>),
    ) {
        let idx = target.index();
        if !self.kernel.alive[idx]
            || (incarnation != ANY_INCARNATION && self.kernel.incarnations[idx] != incarnation)
        {
            return; // stale event: target crashed since scheduling
        }
        self.kernel.dispatched += 1;
        self.kernel.mix(self.kernel.now.as_nanos());
        self.kernel.mix(target.0 as u64);
        let mut actor = self.actors[idx].take().expect("actor reentrancy");
        let mut ctx = Ctx {
            kernel: &mut self.kernel,
            me: target,
        };
        deliver(&mut *actor, &mut ctx);
        self.actors[idx] = Some(actor);
    }

    fn process(&mut self, time: SimTime, kind: EventKind) {
        debug_assert!(time >= self.kernel.now, "time went backwards");
        self.kernel.now = time;
        match kind {
            EventKind::Dispatch {
                target,
                incarnation,
                payload,
            } => self.dispatch(target, incarnation, |actor, ctx| {
                actor.on_event(ctx, payload)
            }),
            EventKind::FanOut(mut body) => {
                for &(target, incarnation) in &body.targets {
                    self.dispatch(target, incarnation, |actor, ctx| {
                        actor.on_shared(ctx, Shared(&body.payload))
                    });
                }
                let mut targets = std::mem::take(&mut body.targets);
                targets.clear();
                self.kernel.spare_targets.push(targets);
            }
            EventKind::Crash(target) => {
                let idx = target.index();
                if !self.kernel.alive[idx] {
                    return;
                }
                self.kernel.alive[idx] = false;
                self.kernel.mix(0xDEAD);
                self.kernel.mix(target.0 as u64);
                let mut actor = self.actors[idx].take().expect("actor reentrancy");
                let mut ctx = Ctx {
                    kernel: &mut self.kernel,
                    me: target,
                };
                actor.on_crash(&mut ctx);
                self.actors[idx] = Some(actor);
            }
            EventKind::Recover(target) => {
                let idx = target.index();
                if self.kernel.alive[idx] {
                    return;
                }
                self.kernel.alive[idx] = true;
                self.kernel.incarnations[idx] += 1;
                self.kernel.mix(0x11FE);
                self.kernel.mix(target.0 as u64);
                let mut actor = self.actors[idx].take().expect("actor reentrancy");
                let mut ctx = Ctx {
                    kernel: &mut self.kernel,
                    me: target,
                };
                actor.on_recover(&mut ctx);
                self.actors[idx] = Some(actor);
            }
            EventKind::Halt => {
                self.kernel.halted = true;
            }
        }
    }

    /// FNV-1a fingerprint of the dispatch sequence so far. Two runs with the
    /// same seed and inputs must report the same fingerprint (determinism).
    pub fn fingerprint(&self) -> u64 {
        self.kernel.fingerprint
    }

    /// Number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.kernel.dispatched
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.kernel.metrics
    }

    /// Mutable access to the shared metrics registry.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.kernel.metrics
    }

    /// Borrow a registered actor (e.g. to read results after a run).
    ///
    /// # Panics
    /// Panics if the actor is not of type `T`.
    pub fn actor<T: Actor + 'static>(&self, id: ActorId) -> &T {
        let actor: &dyn Actor = &**self.actors[id.index()].as_ref().expect("actor reentrancy");
        actor
            .as_any()
            .downcast_ref::<T>()
            .expect("actor type mismatch")
    }

    /// Mutably borrow a registered actor.
    ///
    /// # Panics
    /// Panics if the actor is not of type `T`.
    pub fn actor_mut<T: Actor + 'static>(&mut self, id: ActorId) -> &mut T {
        let actor: &mut dyn Actor =
            &mut **self.actors[id.index()].as_mut().expect("actor reentrancy");
        actor
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("actor type mismatch")
    }
}

/// Object-safe downcast support for [`Actor`] trait objects.
///
/// Blanket-implemented for all sized actors; used by [`Engine::actor`].
pub trait AsAny {
    /// Upcast to `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// Upcast to `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BOTH: [Scheduler; 2] = [Scheduler::TimingWheel, Scheduler::LegacyHeap];

    struct Counter {
        ticks: u32,
        volatile: u32,
        stable: u32,
        recoveries: u32,
    }

    struct Tick;

    impl Actor for Counter {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            if payload.downcast::<Tick>().is_ok() {
                self.ticks += 1;
                self.volatile += 1;
                self.stable += 1;
                if self.ticks < 5 {
                    ctx.timer(SimDuration::from_millis(10), Tick);
                }
            }
        }
        fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {
            self.volatile = 0;
        }
        fn on_recover(&mut self, ctx: &mut Ctx<'_>) {
            self.recoveries += 1;
            ctx.timer(SimDuration::from_millis(1), Tick);
        }
        fn name(&self) -> &str {
            "counter"
        }
    }

    fn counter() -> Box<Counter> {
        Box::new(Counter {
            ticks: 0,
            volatile: 0,
            stable: 0,
            recoveries: 0,
        })
    }

    #[test]
    fn timers_fire_in_order() {
        for scheduler in BOTH {
            let mut eng = Engine::new_with_scheduler(1, scheduler);
            let id = eng.add_actor(counter());
            eng.schedule(SimTime::from_millis(1), id, Tick);
            eng.run_to_completion();
            let c: &Counter = eng.actor(id);
            assert_eq!(c.ticks, 5);
            assert_eq!(eng.now(), SimTime::from_millis(41));
        }
    }

    #[test]
    fn crash_drops_stale_timers_and_recover_bumps_incarnation() {
        for scheduler in BOTH {
            let mut eng = Engine::new_with_scheduler(1, scheduler);
            let id = eng.add_actor(counter());
            eng.schedule(SimTime::from_millis(1), id, Tick);
            // Crash at 15ms: ticks at 1ms and 11ms fire; the timer set for
            // 21ms must be dropped. Recover at 50ms restarts ticking.
            eng.schedule_crash(SimTime::from_millis(15), id);
            eng.schedule_recover(SimTime::from_millis(50), id);
            eng.run_to_completion();
            let c: &Counter = eng.actor(id);
            assert_eq!(c.recoveries, 1);
            // 2 ticks before crash + 3 more after recovery (ticks counts to 5).
            assert_eq!(c.ticks, 5);
            // Volatile state was wiped at crash; stable survived.
            assert_eq!(c.volatile, 3);
            assert_eq!(c.stable, 5);
        }
    }

    #[test]
    fn events_to_dead_actor_are_lost() {
        for scheduler in BOTH {
            let mut eng = Engine::new_with_scheduler(1, scheduler);
            let id = eng.add_actor(counter());
            eng.schedule_crash(SimTime::from_millis(1), id);
            // Scheduled while alive, arrives while dead: lost.
            eng.schedule(SimTime::from_millis(5), id, Tick);
            eng.run_to_completion();
            let c: &Counter = eng.actor(id);
            assert_eq!(c.ticks, 0);
        }
    }

    #[test]
    fn same_seed_same_fingerprint() {
        let run = |seed, scheduler| {
            let mut eng = Engine::new_with_scheduler(seed, scheduler);
            let id = eng.add_actor(counter());
            eng.schedule(SimTime::from_millis(1), id, Tick);
            eng.schedule_crash(SimTime::from_millis(15), id);
            eng.schedule_recover(SimTime::from_millis(50), id);
            eng.run_to_completion();
            (eng.fingerprint(), eng.dispatched())
        };
        for scheduler in BOTH {
            assert_eq!(run(7, scheduler), run(7, scheduler));
            assert_eq!(run(7, scheduler).1, run(9, scheduler).1);
        }
        // Crash/recover mixing included: both schedulers agree exactly.
        assert_eq!(
            run(7, Scheduler::TimingWheel),
            run(7, Scheduler::LegacyHeap)
        );
    }

    #[test]
    fn run_until_stops_at_deadline() {
        for scheduler in BOTH {
            let mut eng = Engine::new_with_scheduler(1, scheduler);
            let id = eng.add_actor(counter());
            eng.schedule(SimTime::from_millis(1), id, Tick);
            eng.run_until(SimTime::from_millis(12));
            let c: &Counter = eng.actor(id);
            assert_eq!(c.ticks, 2);
            assert_eq!(eng.now(), SimTime::from_millis(12));
            eng.run_to_completion();
            let c: &Counter = eng.actor(id);
            assert_eq!(c.ticks, 5);
        }
    }

    #[test]
    fn run_until_then_schedule_at_deadline() {
        // Regression for the wheel's bounded-advance invariant: run_until
        // moves the kernel clock to the deadline while a far-future event is
        // still queued; scheduling at exactly the deadline afterwards must
        // still dispatch (time ≥ horizon) and in time order.
        for scheduler in BOTH {
            let mut eng = Engine::new_with_scheduler(1, scheduler);
            let id = eng.add_actor(counter());
            // Far-future tick parks an event at a coarse wheel level.
            eng.schedule(SimTime::from_secs(40), id, Tick);
            eng.run_until(SimTime::from_millis(7));
            assert_eq!(eng.now(), SimTime::from_millis(7));
            eng.schedule(SimTime::from_millis(7), id, Tick);
            eng.run_to_completion();
            let c: &Counter = eng.actor(id);
            // Tick at 7ms starts a 5-tick chain; the 40s tick adds one more
            // 5-tick chain (ticks only re-arm while below 5).
            assert_eq!(c.ticks, 6);
        }
    }

    #[test]
    fn same_instant_fifo_across_mixed_horizons() {
        // Events for one instant scheduled from very different distances
        // (coarse wheel levels vs. direct level-0 inserts) must still
        // dispatch in scheduling order.
        struct Recorder {
            got: Vec<u32>,
        }
        struct Tag(u32);
        impl Actor for Recorder {
            fn on_event(&mut self, _ctx: &mut Ctx<'_>, payload: Payload) {
                let tag = payload.downcast::<Tag>().expect("tag");
                self.got.push(tag.0);
            }
        }
        let run = |scheduler| {
            let mut eng = Engine::new_with_scheduler(1, scheduler);
            let id = eng.add_actor(Box::new(Recorder { got: Vec::new() }));
            let instant = SimTime::from_secs(3);
            // Scheduled far out (coarse level), then nearer inserts for the
            // same instant, interleaved with an earlier warm-up event that
            // forces horizon advances between the inserts.
            eng.schedule(instant, id, Tag(0));
            eng.schedule(instant, id, Tag(1));
            eng.schedule(SimTime::from_millis(2), id, Tag(99));
            eng.run_until(SimTime::from_millis(10));
            eng.schedule(instant, id, Tag(2));
            eng.run_until(SimTime::from_secs(1));
            eng.schedule(instant, id, Tag(3));
            eng.run_to_completion();
            let r: &Recorder = eng.actor(id);
            (r.got.clone(), eng.fingerprint())
        };
        let (wheel_order, wheel_fp) = run(Scheduler::TimingWheel);
        let (heap_order, heap_fp) = run(Scheduler::LegacyHeap);
        assert_eq!(wheel_order, vec![99, 0, 1, 2, 3]);
        assert_eq!(wheel_order, heap_order);
        assert_eq!(wheel_fp, heap_fp);
    }

    #[test]
    fn wide_timer_spread_crosses_wheel_levels() {
        // Delays from nanoseconds to tens of simulated minutes exercise
        // insertion at many wheel levels and the cascade path; both
        // schedulers must agree on the full dispatch fingerprint.
        struct Spreader {
            fired: u32,
        }
        struct Fire;
        impl Actor for Spreader {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, _payload: Payload) {
                self.fired += 1;
                let step = match self.fired % 5 {
                    0 => SimDuration::from_nanos(1),
                    1 => SimDuration::from_micros(63),
                    2 => SimDuration::from_millis(17),
                    3 => SimDuration::from_secs(2),
                    _ => SimDuration::from_secs(601),
                };
                if self.fired < 64 {
                    ctx.timer(step, Fire);
                }
            }
        }
        let run = |scheduler| {
            let mut eng = Engine::new_with_scheduler(1, scheduler);
            let id = eng.add_actor(Box::new(Spreader { fired: 0 }));
            eng.schedule(SimTime::ZERO, id, Fire);
            eng.run_to_completion();
            (eng.fingerprint(), eng.dispatched(), eng.now())
        };
        let wheel = run(Scheduler::TimingWheel);
        let heap = run(Scheduler::LegacyHeap);
        assert_eq!(wheel.1, 64);
        assert_eq!(wheel, heap);
    }

    /// Tagged payload for the fan-out tests; `Clone` so it can be shared.
    #[derive(Clone)]
    struct Note(u32);

    /// Records `(now, tag, in place?)` per delivery; a delivery from the
    /// caster (tag < 100) arms a zero-delay self-timer (tag + 100).
    struct Listener {
        in_place: bool,
        got: Vec<(SimTime, u32, bool)>,
    }

    impl Listener {
        fn note(&mut self, ctx: &mut Ctx<'_>, tag: u32, shared: bool) {
            self.got.push((ctx.now(), tag, shared));
            if tag < 100 {
                ctx.timer(SimDuration::ZERO, Note(tag + 100));
            }
        }
    }

    impl Actor for Listener {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            let note = payload.downcast::<Note>().expect("note");
            self.note(ctx, note.0, false);
        }
        fn on_shared(&mut self, ctx: &mut Ctx<'_>, payload: Shared<'_>) {
            match payload.downcast_ref::<Note>() {
                Some(note) if self.in_place => self.note(ctx, note.0, true),
                _ => self.on_event(ctx, payload.to_payload()),
            }
        }
    }

    /// On its one event, sends `Note(tag)` to `targets` after 1 ms —
    /// as one fan-out, or as one send per target.
    struct Caster {
        targets: Vec<ActorId>,
        fan_out: bool,
    }

    impl Actor for Caster {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, payload: Payload) {
            let note = payload.downcast::<Note>().expect("note");
            let delay = SimDuration::from_millis(1);
            if self.fan_out {
                ctx.send_shared(&self.targets, delay, *note);
            } else {
                for &t in &self.targets {
                    ctx.send(t, delay, Note(note.0));
                }
            }
        }
    }

    type Heard = Vec<Vec<(SimTime, u32, bool)>>;

    /// Four listeners (the odd ones read in place) and a caster that
    /// sends to `targets` at 1 ms and again at 3 ms; `faults` may crash
    /// and recover listeners in between.
    fn cast(
        scheduler: Scheduler,
        fan_out: bool,
        targets: &[u32],
        faults: impl Fn(&mut Engine, &[ActorId]),
    ) -> (u64, u64, Heard) {
        let mut eng = Engine::new_with_scheduler(1, scheduler);
        let ids: Vec<ActorId> = (0..4)
            .map(|i| {
                eng.add_actor(Box::new(Listener {
                    in_place: i % 2 == 1,
                    got: Vec::new(),
                }))
            })
            .collect();
        let caster = eng.add_actor(Box::new(Caster {
            targets: targets.iter().map(|&t| ids[t as usize]).collect(),
            fan_out,
        }));
        eng.schedule(SimTime::from_millis(1), caster, Note(1));
        eng.schedule(SimTime::from_millis(3), caster, Note(2));
        faults(&mut eng, &ids);
        eng.run_to_completion();
        let heard = ids
            .iter()
            .map(|&id| eng.actor::<Listener>(id).got.clone())
            .collect();
        (eng.fingerprint(), eng.dispatched(), heard)
    }

    /// `heard` with the in-place flag dropped: what the per-target
    /// reference (always owned) must agree on.
    fn owned(heard: &Heard) -> Vec<Vec<(SimTime, u32)>> {
        heard
            .iter()
            .map(|got| got.iter().map(|&(at, tag, _)| (at, tag)).collect())
            .collect()
    }

    #[test]
    fn fan_out_equals_one_send_per_target() {
        for scheduler in BOTH {
            let (fp, n, heard) = cast(scheduler, true, &[2, 0, 1, 3, 1], |_, _| {});
            let (ref_fp, ref_n, ref_heard) = cast(scheduler, false, &[2, 0, 1, 3, 1], |_, _| {});
            assert_eq!((fp, n), (ref_fp, ref_n));
            assert_eq!(owned(&heard), owned(&ref_heard));
            // 2 casts + 2 × 5 deliveries + 2 × 5 echoes.
            assert_eq!(n, 22);
            // Listener 1 is listed twice and reads in place; its echoes
            // (tag + 100) run behind the whole run, not between targets.
            let at = SimTime::from_millis(2);
            assert_eq!(
                heard[1][..4],
                [
                    (at, 1, true),
                    (at, 1, true),
                    (at, 101, false),
                    (at, 101, false)
                ]
            );
            // Listener 0 took the default entry point: an owned copy.
            assert_eq!(heard[0][0], (at, 1, false));
        }
    }

    #[test]
    fn fan_out_checks_each_target_at_delivery() {
        // Listener 0 is down at the first delivery; listener 1 crashed
        // and recovered since the stamp (a new incarnation); listener 2
        // does so under the second fan-out, recovering at the very
        // instant of its delivery. Each is skipped alone, as its own
        // send would be.
        let faults = |eng: &mut Engine, ids: &[ActorId]| {
            eng.schedule_crash(SimTime::from_micros(1_500), ids[0]);
            eng.schedule_recover(SimTime::from_micros(2_500), ids[0]);
            eng.schedule_crash(SimTime::from_micros(1_200), ids[1]);
            eng.schedule_recover(SimTime::from_micros(1_700), ids[1]);
            eng.schedule_crash(SimTime::from_micros(3_500), ids[2]);
            eng.schedule_recover(SimTime::from_millis(4), ids[2]);
        };
        for scheduler in BOTH {
            let (fp, n, heard) = cast(scheduler, true, &[0, 1, 2, 3], faults);
            let (ref_fp, ref_n, ref_heard) = cast(scheduler, false, &[0, 1, 2, 3], faults);
            assert_eq!((fp, n), (ref_fp, ref_n));
            assert_eq!(owned(&heard), owned(&ref_heard));
            let tags = |i: usize| heard[i].iter().map(|g| g.1).collect::<Vec<_>>();
            assert_eq!(tags(0), [2, 102]);
            assert_eq!(tags(1), [2, 102]);
            assert_eq!(tags(2), [1, 101]);
            assert_eq!(tags(3), [1, 101, 2, 102]);
        }
    }

    #[test]
    fn fan_out_of_one_is_a_plain_send_and_of_none_is_nothing() {
        for scheduler in BOTH {
            let (fp, n, heard) = cast(scheduler, true, &[1], |_, _| {});
            assert_eq!((fp, n), {
                let (fp, n, _) = cast(scheduler, false, &[1], |_, _| {});
                (fp, n)
            });
            // The lone target owns the payload, in-place reader or not.
            assert_eq!(heard[1][0], (SimTime::from_millis(2), 1, false));
            let (_, n, _) = cast(scheduler, true, &[], |_, _| {});
            assert_eq!(n, 2, "only the two casts themselves");
        }
    }

    #[test]
    fn the_fan_out_record_does_not_grow_the_slab_slot() {
        // A slab slot (`Option<EventKind>`) was 32 bytes before the
        // fan-out record — ids, a boxed payload and the tag — and the
        // record, one fat pointer, must fit inside that.
        assert!(std::mem::size_of::<Option<EventKind>>() <= 32);
    }

    #[test]
    fn halt_stops_processing() {
        struct Halter;
        struct Go;
        impl Actor for Halter {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, _p: Payload) {
                ctx.halt();
                ctx.timer(SimDuration::from_millis(1), Go);
            }
        }
        for scheduler in BOTH {
            let mut eng = Engine::new_with_scheduler(1, scheduler);
            let id = eng.add_actor(Box::new(Halter));
            eng.schedule(SimTime::from_millis(1), id, Go);
            eng.run_to_completion();
            assert_eq!(eng.now(), SimTime::from_millis(1));
        }
    }

    #[test]
    fn double_crash_and_double_recover_are_idempotent() {
        for scheduler in BOTH {
            let mut eng = Engine::new_with_scheduler(1, scheduler);
            let id = eng.add_actor(counter());
            eng.schedule_crash(SimTime::from_millis(1), id);
            eng.schedule_crash(SimTime::from_millis(2), id);
            eng.schedule_recover(SimTime::from_millis(3), id);
            eng.schedule_recover(SimTime::from_millis(4), id);
            eng.run_to_completion();
            let c: &Counter = eng.actor(id);
            assert_eq!(c.recoveries, 1);
        }
    }
}
