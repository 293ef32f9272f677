//! The discrete-event simulation engine.
//!
//! The engine is a single-threaded event loop over a queue ordered by
//! `(time, scheduling order)`. Determinism is absolute: the same actor
//! graph and seed produce the same dispatch sequence, which the kernel
//! fingerprints with a running FNV-1a hash (see [`Engine::fingerprint`]).
//!
//! # Messages
//!
//! An [`Engine<M>`] carries one message type `M`, and every event an actor
//! receives — a timer, a driver command, a network delivery — is an `M`
//! handed to [`Actor::on_event`], the one entry point. A system names its
//! own enum, marks it [`Message`] and gives it a `From` impl per value it
//! carries; the kernel then stores a plain send or timer inline in its
//! event slot, and the actor dispatches with an exhaustive `match`.
//! Senders pass the carried value itself: [`Wrap`] turns it into an `M`.
//!
//! `M` defaults to [`Payload`], a `Box<dyn Any>` that actors downcast: the
//! adapter for small test actors and benchmark drivers, where a boxed
//! event per send costs nothing that matters.
//!
//! # Event queue
//!
//! The kernel's queue is a hierarchical timing wheel (64 slots × 11
//! levels over the `u64` nanosecond clock) with per-level occupancy
//! bitmaps and an event slab with freelist reuse. Insertion and pop are
//! O(1) amortised; events at the same instant drain in FIFO (scheduling)
//! order because slot vectors append in scheduling order and cascades
//! preserve it. This module's tests hold the wheel to a binary-heap model
//! of that order, pop for pop.
//!
//! # Fan-out
//!
//! [`Ctx::send_shared`] schedules one message for several actors as a
//! single queue record. Dispatch walks the record's targets in order and
//! is, per target, exactly a plain dispatch — same incarnation check,
//! same count, same fingerprint — so the record is indistinguishable
//! from the back-to-back sends it stands for. Each target receives an
//! owned `M`: the last one the record's own, the others a copy made by
//! [`Wrap::share`] (a reference-count bump for a typed message).
//!
//! # Beacons
//!
//! A periodic timer whose every firing is, for a stretch of the run,
//! known in advance to change nothing but what it sends — a failure
//! detector's heartbeat tick while nothing fails — need not be handled
//! at all. An actor *parks* it with [`Ctx::park`] instead of arming it:
//! the timer then fires *virtually* at every instant of its grid, `now +
//! k × period`, as a shadow entry of the queue that is popped in the
//! very place the timer would have been and re-queued one period on,
//! but neither dispatched, counted nor fingerprinted. What keeps time by
//! those firings outside the kernel — the network's beacons, heartbeats
//! that are accounted but not sent — reads the last one off the shared
//! [`Watch`], and raises its alarm there to name the actors whose firings
//! stop being idle (a crash, a partition, a receiver that opts out).
//! Before its next event the kernel marks each named actor's parked
//! timer woken, and its next shadow is dispatched as the timer itself:
//! at its instant and in its order, as if it had never parked. A crash
//! drops the actor's parked timer with its shadow.
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
//! within an actor via [`Ctx::schedule_crash`]). On crash the engine calls
//! [`Actor::on_crash`], where the actor must discard its volatile state
//! while retaining anything it models as stable storage. On recovery the
//! incarnation is bumped and [`Actor::on_recover`] runs the recovery
//! procedure.

#![expect(
    clippy::indexing_slicing,
    reason = "actors/alive/incarnations are indexed by ActorId::index(), and ActorIds are only ever issued by this kernel at spawn time with index < len (allocation invariant)"
)]

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fnv::Fnv64;
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

/// The default message type: any value, boxed, which the receiving actor
/// downcasts. Each send allocates; systems on a hot path use a typed
/// [`Message`] enum instead.
pub type Payload = Box<dyn Any>;

/// How a value of type `T` becomes a message of type `Self`: every send,
/// timer and driver injection goes through it, so callers pass the value
/// they mean and the engine stores the message.
pub trait Wrap<T>: Sized {
    /// `value` as a message.
    fn wrap(value: T) -> Self;

    /// A copy of `msg` — wrapped from a `T` — for another target of the
    /// same fan-out.
    fn share(msg: &Self) -> Self
    where
        T: Clone;
}

/// The [`Payload`] adapter: any value is boxed as it is, and a fan-out
/// copy boxes a clone of it.
impl<T: Any> Wrap<T> for Payload {
    fn wrap(value: T) -> Payload {
        Box::new(value)
    }

    fn share(msg: &Payload) -> Payload
    where
        T: Clone,
    {
        #[expect(
            clippy::expect_used,
            reason = "the Payload adapter's fan-out copy downcasts to the type the same send_shared call wrapped the record's message from; a mismatch is a kernel bug, and typed message enums never take this path"
        )]
        let value: &T = msg.downcast_ref().expect("fan-out payload type");
        Box::new(value.clone())
    }
}

/// A system's typed message: an enum with one `From` impl per value it
/// carries, which is all [`Wrap`] needs. A fan-out clones it once per
/// extra target, so a variant that travels by multicast holds an `Rc`
/// and clones by bumping a count.
pub trait Message: Clone + 'static {
    /// What kind of event this is, for [`Engine::census`]: a short static
    /// name such as `"gcs.wire.ack"`. Every value is one kind unless the
    /// system names its variants.
    fn kind(&self) -> &'static str {
        "event"
    }
}

/// What the kernel reads off any message it dispatches: its kind, for
/// [`Engine::census`]. A typed [`Message`] names its own; a boxed
/// [`Payload`] is one kind.
pub trait Kind {
    /// The kind [`Engine::census`] counts this message under.
    fn kind_of(&self) -> &'static str;
}

impl Kind for Payload {
    fn kind_of(&self) -> &'static str {
        "payload"
    }
}

impl<M: Message> Kind for M {
    fn kind_of(&self) -> &'static str {
        self.kind()
    }
}

impl<T, M: Message + From<T>> Wrap<T> for M {
    fn wrap(value: T) -> M {
        value.into()
    }

    fn share(msg: &M) -> M
    where
        T: Clone,
    {
        msg.clone()
    }
}

/// A simulated component driven by events of type `M`.
///
/// The [`AsAny`] supertrait (blanket-implemented for every `'static` type)
/// lets drivers downcast registered actors back to their concrete type via
/// [`Engine::actor`] after a run.
pub trait Actor<M = Payload>: AsAny {
    /// Handle an event addressed to this actor: a timer, a driver
    /// command or a network delivery, plain or from a fan-out.
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, msg: M);

    /// The actor has crashed: drop all volatile state. State the actor
    /// models as *stable storage* (write-ahead logs, group-communication
    /// message logs) must survive this call.
    fn on_crash(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// The actor recovers with a fresh incarnation: run its recovery
    /// procedure (read stable storage, rejoin the group, ...).
    fn on_recover(&mut self, _ctx: &mut Ctx<'_, M>) {}

    /// Human-readable name for traces and error messages.
    fn name(&self) -> &str {
        "actor"
    }
}

/// Sentinel incarnation: deliver whenever the target is alive.
const ANY_INCARNATION: u32 = u32::MAX;

/// Sentinel incarnation of a fan-out: the delivery's `to` names an entry
/// of the kernel's fan-out table, not an actor.
const FAN_OUT: u32 = u32::MAX - 1;

/// The targets of one pending fan-out in delivery order, each with its
/// incarnation at scheduling time, and how every target but the last gets
/// its copy of the message ([`Wrap::share`] for the type it was sent as).
struct Fan<M> {
    targets: Vec<(ActorId, u32)>,
    share: fn(&M) -> M,
}

/// A parked periodic timer (see [`Ctx::park`]): `msg`, due every
/// `period`; once `woken`, its next shadow is dispatched as `msg`.
struct Parked<M> {
    period: SimDuration,
    msg: M,
    woken: bool,
}

/// What the kernel shares with the objects outside it that keep time by
/// its parked timers (see the [module docs](self)): when each actor's
/// parked timer last fired, and an alarm naming the actors whose parked
/// timers it must wake before its next event.
#[derive(Debug, Default)]
pub struct Watch {
    fired: RefCell<Vec<SimTime>>,
    alarm: Cell<bool>,
    wake: RefCell<Vec<ActorId>>,
}

impl Watch {
    /// The instant `actor`'s parked timer last fired, virtually — the
    /// instant it was parked if it has not fired since.
    pub fn fired(&self, actor: ActorId) -> SimTime {
        let fired = self.fired.borrow();
        fired.get(actor.index()).copied().unwrap_or(SimTime::ZERO)
    }

    /// Ask the kernel to wake `actor`'s parked timer, if it has one,
    /// before its next event.
    pub fn wake(&self, actor: ActorId) {
        self.wake.borrow_mut().push(actor);
        self.alarm.set(true);
    }

    fn set_fired(&self, actor: ActorId, at: SimTime) {
        let mut fired = self.fired.borrow_mut();
        if fired.len() <= actor.index() {
            fired.resize(actor.index() + 1, SimTime::ZERO);
        }
        fired[actor.index()] = at;
    }
}

enum EventKind<M> {
    /// Deliver `msg` to actor `to` if its incarnation still matches
    /// `stamp` (any incarnation, for [`ANY_INCARNATION`]) — or, with
    /// `stamp` = [`FAN_OUT`], to every target of fan-out entry `to`, which
    /// does what one delivery per target, scheduled back to back for the
    /// same instant, would do. Both shapes share one variant so that a
    /// slot is one `M` and two words wide.
    Deliver { to: u32, stamp: u32, msg: M },
    /// Fire the parked timer of actor `to` virtually, if its incarnation
    /// still matches `stamp` — or dispatch it, once woken.
    Shadow { to: u32, stamp: u32 },
    /// Crash `target` (idempotent if already down).
    Crash(ActorId),
    /// Recover `target` (idempotent if already up).
    Recover(ActorId),
    /// Stop the run immediately.
    Halt,
}

/// Slab of pending event records with freelist reuse: the wheel's slot
/// vectors hold 12-byte `(time, index)` entries instead of full event
/// structs, and record storage is recycled across the run instead of
/// churning the allocator once per event.
struct EventSlab<M> {
    slots: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
}

impl<M> EventSlab<M> {
    fn insert(&mut self, kind: EventKind<M>) -> u32 {
        if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(kind);
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Some(kind));
            idx
        }
    }

    fn remove(&mut self, idx: u32) -> EventKind<M> {
        #[expect(
            clippy::expect_used,
            reason = "slab slots are vacated exactly once, by the pop that owns the (slot, key) pair just removed from the wheel; a vacant slot here means the wheel and slab disagree, a kernel bug to fail loudly on"
        )]
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
/// total, so operations are O(1) amortised. A coarse slot that holds a
/// single instant — a lone event, most often — needs no cascade: it
/// drains as the current instant directly.
///
/// Two invariants carry determinism and the deadline contract:
///
/// * **FIFO within an instant.** A queued event's slot always equals its
///   correct slot relative to the *current* horizon (a cascade at level `k`
///   only happens when every finer level is empty, so no event is ever
///   stranded at a stale level). Same-instant events therefore share a slot
///   and append in scheduling order, which cascades preserve.
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
            self.occupancy[level] &= !(1 << slot);
            let index = level * WHEEL_SLOTS + slot as usize;
            // Every finer level is empty and every other slot is later, so
            // when this slot holds one instant only — a lone event, most
            // often — that instant is the earliest queued: drain the slot
            // as it, in its FIFO order, instead of re-filing it level by
            // level. Moving the horizon to that time keeps every other
            // entry's slot, since it shares the horizon's digits above
            // `level`.
            let first = self.slots[index].first().map_or(u64::MAX, |e| e.0);
            if first <= limit && self.slots[index].iter().all(|e| e.0 == first) {
                self.horizon = first;
                std::mem::swap(&mut self.current, &mut self.slots[index]);
                continue;
            }
            self.horizon = base;
            // Every entry re-files strictly below `level`, never back into
            // this slot, which keeps its buffer for its next turn.
            let mut cascaded = std::mem::take(&mut self.slots[index]);
            for &(time, idx) in &cascaded {
                self.file(time, idx);
            }
            cascaded.clear();
            self.slots[index] = cascaded;
        }
    }
}

/// Mutable kernel state shared with actors during dispatch via [`Ctx`].
pub struct Kernel<M> {
    now: SimTime,
    wheel: TimingWheel,
    slab: EventSlab<M>,
    incarnations: Vec<u32>,
    alive: Vec<bool>,
    /// Fan-out table: an entry per pending fan-out, recycled through
    /// `free_fans` (its target vector keeps its capacity).
    fans: Vec<Fan<M>>,
    free_fans: Vec<u32>,
    /// Per actor: its parked timer, if any (see [`Ctx::park`]).
    parked: Vec<Option<Parked<M>>>,
    watch: Rc<Watch>,
    rng: StdRng,
    /// Metrics registry shared by the whole simulation.
    pub metrics: Metrics,
    /// Typed observability sink (disabled by default). Recording never
    /// touches the fingerprint, the RNG or the queue: enabling it leaves
    /// the simulation's behaviour bit-for-bit identical.
    pub obs: Obs,
    fingerprint: Fnv64,
    dispatched: u64,
    /// Dispatches by message kind, most frequent first (nearly); a kind
    /// is found by the address of its name.
    census: Vec<(&'static str, u64)>,
    halted: bool,
}

impl<M> Kernel<M> {
    fn new(seed: u64) -> Self {
        Kernel {
            now: SimTime::ZERO,
            wheel: TimingWheel::new(),
            slab: EventSlab {
                slots: Vec::new(),
                free: Vec::new(),
            },
            incarnations: Vec::new(),
            alive: Vec::new(),
            fans: Vec::new(),
            free_fans: Vec::new(),
            parked: Vec::new(),
            watch: Rc::default(),
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::new(),
            obs: Obs::default(),
            fingerprint: Fnv64::new(),
            dispatched: 0,
            census: Vec::new(),
            halted: false,
        }
    }

    fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let idx = self.slab.insert(kind);
        self.wheel.push(time.as_nanos(), idx);
    }

    /// Pop the earliest event with `time <= limit`, in scheduling order
    /// within an instant.
    fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, EventKind<M>)> {
        let (time, idx) = self.wheel.pop_at_or_before(limit.as_nanos())?;
        Some((SimTime::from_nanos(time), self.slab.remove(idx)))
    }

    /// Schedule `msg` for `target` at `at`, stamped with `stamp`.
    fn deliver(&mut self, at: SimTime, target: ActorId, stamp: u32, msg: M) {
        self.push(
            at,
            EventKind::Deliver {
                to: target.0,
                stamp,
                msg,
            },
        );
    }

    /// Schedule `msg` for `target` at `at`, stamped with its current
    /// incarnation.
    fn send(&mut self, at: SimTime, target: ActorId, msg: M) {
        let stamp = self.incarnations[target.index()];
        self.deliver(at, target, stamp, msg);
    }

    /// Schedule one fan-out record of `msg` for `targets` at `at`: a
    /// fan-out table entry, each target stamped with its current
    /// incarnation, and one queue record pointing at it.
    fn fan_out(&mut self, at: SimTime, targets: &[ActorId], share: fn(&M) -> M, msg: M) {
        let idx = match self.free_fans.pop() {
            Some(idx) => {
                self.fans[idx as usize].share = share;
                idx
            }
            None => {
                self.fans.push(Fan {
                    targets: Vec::with_capacity(targets.len()),
                    share,
                });
                self.fans.len() as u32 - 1
            }
        };
        let incarnations = &self.incarnations;
        self.fans[idx as usize]
            .targets
            .extend(targets.iter().map(|&t| (t, incarnations[t.index()])));
        self.push(
            at,
            EventKind::Deliver {
                to: idx,
                stamp: FAN_OUT,
                msg,
            },
        );
    }

    /// Count one dispatch of kind `kind`. A kind that overtakes the one
    /// before it swaps places with it, so the most frequent kinds are
    /// found first.
    fn count(&mut self, kind: &'static str) {
        let census = &mut self.census;
        match census.iter().position(|(k, _)| std::ptr::eq(*k, kind)) {
            Some(i) => {
                census[i].1 += 1;
                if i > 0 && census[i].1 > census[i - 1].1 {
                    census.swap(i, i - 1);
                }
            }
            None => census.push((kind, 1)),
        }
    }

    /// Mark the parked timer of every actor the watch names woken.
    fn wake(&mut self) {
        self.watch.alarm.set(false);
        let woken = std::mem::take(&mut *self.watch.wake.borrow_mut());
        for actor in woken {
            if let Some(p) = &mut self.parked[actor.index()] {
                p.woken = true;
            }
        }
    }
}

/// The context handed to actors while they handle an event.
pub struct Ctx<'a, M = Payload> {
    kernel: &'a mut Kernel<M>,
    me: ActorId,
}

impl<M> Ctx<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.kernel.now
    }

    /// The id of the actor currently executing.
    pub fn me(&self) -> ActorId {
        self.me
    }

    /// Schedule `msg` for `target` after `delay`. The event is dropped if
    /// `target` crashes (or crashes and recovers) before it fires.
    pub fn send<T>(&mut self, target: ActorId, delay: SimDuration, msg: T)
    where
        M: Wrap<T>,
    {
        let at = self.kernel.now + delay;
        self.kernel.send(at, target, M::wrap(msg));
    }

    /// Schedule one `msg` for every actor in `targets`, in that order,
    /// after `delay`: the same deliveries, drops and dispatch order as one
    /// [`Ctx::send`] per target issued back to back, held as one queue
    /// record. A single target receives it as a plain send.
    pub fn send_shared<T: Clone>(&mut self, targets: &[ActorId], delay: SimDuration, msg: T)
    where
        M: Wrap<T>,
    {
        match *targets {
            [] => {}
            [target] => self.send(target, delay, msg),
            _ => {
                let at = self.kernel.now + delay;
                let share = <M as Wrap<T>>::share;
                self.kernel.fan_out(at, targets, share, M::wrap(msg));
            }
        }
    }

    /// Park the executing actor's periodic timer `msg` of period `period`
    /// instead of arming it: it would fire after `period` and every
    /// `period` after that. A parked timer is never handed to the actor;
    /// it fires virtually on its grid, where [`Watch::fired`] reads it,
    /// until the [`Watch`] names the actor — then its next firing is
    /// dispatched as `msg` (see the [module docs](self)). An actor has at
    /// most one parked timer.
    pub fn park<T>(&mut self, period: SimDuration, msg: T)
    where
        M: Wrap<T>,
    {
        let (me, now) = (self.me, self.kernel.now);
        debug_assert!(self.kernel.parked[me.index()].is_none(), "parked twice");
        self.kernel.parked[me.index()] = Some(Parked {
            period,
            msg: M::wrap(msg),
            woken: false,
        });
        self.kernel.watch.set_fired(me, now);
        let stamp = self.kernel.incarnations[me.index()];
        self.kernel
            .push(now + period, EventKind::Shadow { to: me.0, stamp });
    }

    /// Schedule an event to the executing actor itself (a timer).
    pub fn timer<T>(&mut self, delay: SimDuration, msg: T)
    where
        M: Wrap<T>,
    {
        self.send(self.me, delay, msg);
    }

    /// True if `target` is currently up.
    pub fn is_alive(&self, target: ActorId) -> bool {
        self.kernel.alive[target.index()]
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

/// The simulation engine: actor registry plus kernel, over one message
/// type `M` (see the [module docs](self)).
pub struct Engine<M = Payload> {
    actors: Vec<Box<dyn Actor<M>>>,
    kernel: Kernel<M>,
}

impl<M: 'static> Engine<M> {
    /// Bytes one pending event occupies in the kernel's slab: a message
    /// plus two words, so a variant of `M` larger than its slot share is
    /// boxed by the system that defines it.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Option<EventKind<M>>>();
}

impl<M: Kind + 'static> Engine<M> {
    /// Create an engine for messages of type `M`, its RNG streams derived
    /// from `seed`, scheduled by the timing wheel.
    pub fn new(seed: u64) -> Self {
        Engine {
            actors: Vec::new(),
            kernel: Kernel::new(seed),
        }
    }

    /// The kernel's [`Watch`], for objects that keep time by its parked
    /// timers.
    pub fn watch(&self) -> Rc<Watch> {
        Rc::clone(&self.kernel.watch)
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
    pub fn add_actor(&mut self, actor: Box<dyn Actor<M>>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(actor);
        self.kernel.incarnations.push(0);
        self.kernel.alive.push(true);
        self.kernel.parked.push(None);
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

    /// Schedule `msg` for `target` at absolute time `at` (driver-side
    /// injection, e.g. workload arrivals or scripted scenarios). The event
    /// is dropped if `target` crashes before it fires.
    pub fn schedule<T>(&mut self, at: SimTime, target: ActorId, msg: T)
    where
        M: Wrap<T>,
    {
        assert!(at >= self.kernel.now, "cannot schedule into the past");
        self.kernel.send(at, target, M::wrap(msg));
    }

    /// Like [`Engine::schedule`], but the event is delivered as long as
    /// `target` is *alive at delivery time*, regardless of intervening
    /// crash/recovery cycles. Use for scripted scenarios that inject work
    /// after a planned recovery.
    pub fn schedule_resilient<T>(&mut self, at: SimTime, target: ActorId, msg: T)
    where
        M: Wrap<T>,
    {
        assert!(at >= self.kernel.now, "cannot schedule into the past");
        self.kernel
            .deliver(at, target, ANY_INCARNATION, M::wrap(msg));
    }

    /// Schedule a crash of `target` at absolute time `at`.
    pub fn schedule_crash(&mut self, at: SimTime, target: ActorId) {
        assert!(at >= self.kernel.now, "cannot schedule into the past");
        self.kernel.push(at, EventKind::Crash(target));
    }

    /// Schedule a recovery of `target` at absolute time `at`.
    pub fn schedule_recover(&mut self, at: SimTime, target: ActorId) {
        assert!(at >= self.kernel.now, "cannot schedule into the past");
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
            if self.kernel.watch.alarm.get() {
                self.kernel.wake();
            }
            let Some((time, kind)) = self.kernel.pop_at_or_before(deadline) else {
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
            if self.kernel.watch.alarm.get() {
                self.kernel.wake();
            }
            let Some((time, kind)) = self.kernel.pop_at_or_before(SimTime::MAX) else {
                break;
            };
            self.process(time, kind);
        }
        self.kernel.now
    }

    /// Run `f` on actor `target` with a context for the current instant.
    /// The context borrows the kernel alone, never the actor registry,
    /// so a callback cannot reach another actor.
    fn call(&mut self, target: ActorId, f: impl FnOnce(&mut dyn Actor<M>, &mut Ctx<'_, M>)) {
        let mut ctx = Ctx {
            kernel: &mut self.kernel,
            me: target,
        };
        f(&mut *self.actors[target.index()], &mut ctx);
    }

    /// Hand `target` the message `msg` makes — unless it is down, or
    /// crashed since the event was stamped with `incarnation`, in which
    /// case no message is made.
    #[deny(clippy::float_arithmetic)]
    fn dispatch(&mut self, target: ActorId, incarnation: u32, msg: impl FnOnce() -> M) {
        let idx = target.index();
        if !self.kernel.alive[idx]
            || (incarnation != ANY_INCARNATION && self.kernel.incarnations[idx] != incarnation)
        {
            return; // stale event: target crashed since scheduling
        }
        self.kernel.dispatched += 1;
        self.kernel.fingerprint.mix(self.kernel.now.as_nanos());
        self.kernel.fingerprint.mix(target.0 as u64);
        let msg = msg();
        self.kernel.count(msg.kind_of());
        self.call(target, |actor, ctx| actor.on_event(ctx, msg));
    }

    /// The shadow of `target`'s parked timer is due: dispatch the timer
    /// if it was woken, else let it fire virtually and queue the next
    /// shadow. A shadow stamped for an incarnation since crashed is
    /// dropped with the timer it stood for.
    fn shadow(&mut self, target: ActorId, stamp: u32) {
        let idx = target.index();
        if !self.kernel.alive[idx] || self.kernel.incarnations[idx] != stamp {
            return;
        }
        match self.kernel.parked[idx].take() {
            Some(p) if p.woken => self.dispatch(target, stamp, || p.msg),
            Some(p) => {
                let now = self.kernel.now;
                self.kernel.watch.set_fired(target, now);
                let next = now + p.period;
                self.kernel.parked[idx] = Some(p);
                let to = target.0;
                self.kernel.push(next, EventKind::Shadow { to, stamp });
            }
            None => {}
        }
    }

    /// Deliver fan-out entry `fan`: a copy of `msg` to each target in
    /// turn, `msg` itself to the last, then recycle the entry.
    fn deliver_fan(&mut self, fan: u32, msg: M) {
        let entry = &mut self.kernel.fans[fan as usize];
        let share = entry.share;
        let mut targets = std::mem::take(&mut entry.targets);
        if let Some((&(last, stamp), rest)) = targets.split_last() {
            for &(target, stamp) in rest {
                self.dispatch(target, stamp, || share(&msg));
            }
            self.dispatch(last, stamp, || msg);
        }
        targets.clear();
        self.kernel.fans[fan as usize].targets = targets;
        self.kernel.free_fans.push(fan);
    }

    #[deny(clippy::float_arithmetic)]
    fn process(&mut self, time: SimTime, kind: EventKind<M>) {
        debug_assert!(time >= self.kernel.now, "time went backwards");
        self.kernel.now = time;
        match kind {
            EventKind::Deliver {
                to,
                stamp: FAN_OUT,
                msg,
            } => self.deliver_fan(to, msg),
            EventKind::Deliver { to, stamp, msg } => self.dispatch(ActorId(to), stamp, || msg),
            EventKind::Shadow { to, stamp } => self.shadow(ActorId(to), stamp),
            EventKind::Crash(target) => {
                let idx = target.index();
                if !self.kernel.alive[idx] {
                    return;
                }
                self.kernel.alive[idx] = false;
                self.kernel.fingerprint.mix(0xDEAD);
                self.kernel.fingerprint.mix(target.0 as u64);
                self.kernel.parked[idx] = None;
                self.call(target, |actor, ctx| actor.on_crash(ctx));
            }
            EventKind::Recover(target) => {
                let idx = target.index();
                if self.kernel.alive[idx] {
                    return;
                }
                self.kernel.alive[idx] = true;
                self.kernel.incarnations[idx] += 1;
                self.kernel.fingerprint.mix(0x11FE);
                self.kernel.fingerprint.mix(target.0 as u64);
                self.call(target, |actor, ctx| actor.on_recover(ctx));
            }
            EventKind::Halt => {
                self.kernel.halted = true;
            }
        }
    }

    /// FNV-1a fingerprint of the dispatch sequence so far. Two runs with the
    /// same seed and inputs must report the same fingerprint (determinism).
    pub fn fingerprint(&self) -> u64 {
        self.kernel.fingerprint.finish()
    }

    /// Number of events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.kernel.dispatched
    }

    /// The events dispatched so far by [`Message::kind`], in name order;
    /// the counts add up to [`Engine::dispatched`].
    pub fn census(&self) -> std::collections::BTreeMap<&'static str, u64> {
        let mut census = std::collections::BTreeMap::new();
        for &(kind, n) in &self.kernel.census {
            *census.entry(kind).or_insert(0) += n;
        }
        census
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
    #[expect(
        clippy::expect_used,
        reason = "the ActorId was issued by this kernel for a value of the requested concrete type; a mismatch is a caller wiring bug, not a runtime state"
    )]
    pub fn actor<T: Actor<M> + 'static>(&self, id: ActorId) -> &T {
        // Through the trait object: the box itself is an `Any` too.
        let actor: &dyn Actor<M> = &*self.actors[id.index()];
        actor
            .as_any()
            .downcast_ref::<T>()
            .expect("actor type mismatch")
    }

    /// Mutably borrow a registered actor.
    ///
    /// # Panics
    /// Panics if the actor is not of type `T`.
    #[expect(
        clippy::expect_used,
        reason = "the ActorId was issued by this kernel for a value of the requested concrete type; a mismatch is a caller wiring bug, not a runtime state"
    )]
    pub fn actor_mut<T: Actor<M> + 'static>(&mut self, id: ActorId) -> &mut T {
        let actor: &mut dyn Actor<M> = &mut *self.actors[id.index()];
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
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::*;

    /// Delays in nanoseconds: the same instant, inside the first wheel
    /// level, across its boundaries, and out at the seconds and hours
    /// levels.
    const SPANS: [u64; 10] = [
        0,
        1,
        63,
        64,
        4_095,
        4_096,
        1_000_000,
        16_000_000,
        1_000_000_000,
        1 << 42,
    ];

    proptest! {
        /// The wheel and its slab pop what the binary heap they replaced
        /// pops, `(time, scheduling order)` for `(time, scheduling order)`,
        /// under any mix of pushes at or after the clock and bounded pops
        /// — a pop that finds nothing due moves the clock to its limit, as
        /// `run_until` does.
        #[test]
        fn the_wheel_pops_what_a_binary_heap_pops(
            ops in proptest::collection::vec((any::<bool>(), 0usize..SPANS.len(), 0u64..3), 1..200),
        ) {
            let mut wheel = TimingWheel::new();
            let mut slab: EventSlab<u64> = EventSlab { slots: Vec::new(), free: Vec::new() };
            let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for (push, span, jitter) in ops {
                let at = now + SPANS[span] + jitter;
                if push {
                    let idx = slab.insert(EventKind::Deliver { to: 0, stamp: 0, msg: seq });
                    wheel.push(at, idx);
                    heap.push(Reverse((at, seq)));
                    seq += 1;
                    continue;
                }
                let model = match heap.peek() {
                    Some(&Reverse((time, _))) if time <= at => heap.pop().map(|Reverse(e)| e),
                    _ => None,
                };
                let got = wheel.pop_at_or_before(at).map(|(time, idx)| match slab.remove(idx) {
                    EventKind::Deliver { msg, .. } => (time, msg),
                    EventKind::Shadow { .. }
                    | EventKind::Crash(_)
                    | EventKind::Recover(_)
                    | EventKind::Halt => (time, u64::MAX),
                });
                prop_assert_eq!(got, model);
                now = got.map_or(at, |(time, _)| time);
            }
        }
    }

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

    fn engine() -> Engine {
        Engine::new(1)
    }

    #[test]
    fn timers_fire_in_order() {
        let mut eng = engine();
        let id = eng.add_actor(counter());
        eng.schedule(SimTime::from_millis(1), id, Tick);
        eng.run_to_completion();
        let c: &Counter = eng.actor(id);
        assert_eq!(c.ticks, 5);
        assert_eq!(eng.now(), SimTime::from_millis(41));
    }

    #[test]
    fn crash_drops_stale_timers_and_recover_bumps_incarnation() {
        let mut eng = engine();
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

    #[test]
    fn events_to_dead_actor_are_lost() {
        let mut eng = engine();
        let id = eng.add_actor(counter());
        eng.schedule_crash(SimTime::from_millis(1), id);
        // Scheduled while alive, arrives while dead: lost.
        eng.schedule(SimTime::from_millis(5), id, Tick);
        eng.run_to_completion();
        let c: &Counter = eng.actor(id);
        assert_eq!(c.ticks, 0);
    }

    /// A control event may not land behind the clock any more than a
    /// message may: the clock would run backwards into it.
    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn crash_into_the_past_is_rejected() {
        let mut eng = engine();
        let id = eng.add_actor(counter());
        eng.run_until(SimTime::from_millis(10));
        eng.schedule_crash(SimTime::from_millis(5), id);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn recovery_into_the_past_is_rejected() {
        let mut eng = engine();
        let id = eng.add_actor(counter());
        eng.run_until(SimTime::from_millis(10));
        eng.schedule_recover(SimTime::from_millis(5), id);
    }

    #[test]
    fn same_seed_same_fingerprint() {
        let run = |seed| {
            let mut eng: Engine = Engine::new(seed);
            let id = eng.add_actor(counter());
            eng.schedule(SimTime::from_millis(1), id, Tick);
            eng.schedule_crash(SimTime::from_millis(15), id);
            eng.schedule_recover(SimTime::from_millis(50), id);
            eng.run_to_completion();
            (eng.fingerprint(), eng.dispatched())
        };
        assert_eq!(run(7), run(7));
        assert_eq!(run(7).1, run(9).1);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut eng = engine();
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

    #[test]
    fn run_until_then_schedule_at_deadline() {
        // Regression for the wheel's bounded-advance invariant: run_until
        // moves the kernel clock to the deadline while a far-future event is
        // still queued; scheduling at exactly the deadline afterwards must
        // still dispatch (time ≥ horizon) and in time order.
        let mut eng = engine();
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
        let mut eng = engine();
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
        assert_eq!(r.got, vec![99, 0, 1, 2, 3]);
    }

    #[test]
    fn wide_timer_spread_crosses_wheel_levels() {
        // Delays from nanoseconds to tens of simulated minutes exercise
        // insertion at many wheel levels and the cascade path; every
        // timer fires, at the instant it was set for.
        struct Spreader {
            fired: u32,
            due: SimTime,
        }
        struct Fire;
        impl Actor for Spreader {
            fn on_event(&mut self, ctx: &mut Ctx<'_>, _payload: Payload) {
                assert_eq!(ctx.now(), self.due);
                self.fired += 1;
                let step = match self.fired % 5 {
                    0 => SimDuration::from_nanos(1),
                    1 => SimDuration::from_micros(63),
                    2 => SimDuration::from_millis(17),
                    3 => SimDuration::from_secs(2),
                    _ => SimDuration::from_secs(601),
                };
                if self.fired < 64 {
                    self.due = ctx.now() + step;
                    ctx.timer(step, Fire);
                }
            }
        }
        let mut eng = engine();
        let id = eng.add_actor(Box::new(Spreader {
            fired: 0,
            due: SimTime::ZERO,
        }));
        eng.schedule(SimTime::ZERO, id, Fire);
        eng.run_to_completion();
        assert_eq!(eng.dispatched(), 64);
        assert_eq!(eng.now(), eng.actor::<Spreader>(id).due);
    }

    /// The fan-out tests' typed message: a tag, shared by reference count
    /// the way a system's multicast variant is.
    #[derive(Clone)]
    struct Note(std::rc::Rc<u32>);

    impl Message for Note {}

    impl From<u32> for Note {
        fn from(tag: u32) -> Note {
            Note(std::rc::Rc::new(tag))
        }
    }

    /// Records `(now, tag)` per delivery; a delivery from the caster
    /// (tag < 100) arms a zero-delay self-timer (tag + 100).
    struct Listener {
        got: Vec<(SimTime, u32)>,
    }

    impl Actor<Note> for Listener {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Note>, note: Note) {
            let tag = *note.0;
            self.got.push((ctx.now(), tag));
            if tag < 100 {
                ctx.timer(SimDuration::ZERO, tag + 100);
            }
        }
    }

    /// On its one event, sends its note to `targets` after 1 ms — as one
    /// fan-out, or as one send per target.
    struct Caster {
        targets: Vec<ActorId>,
        fan_out: bool,
    }

    impl Actor<Note> for Caster {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Note>, note: Note) {
            let delay = SimDuration::from_millis(1);
            if self.fan_out {
                ctx.send_shared(&self.targets, delay, note);
            } else {
                for &t in &self.targets {
                    ctx.send(t, delay, *note.0);
                }
            }
        }
    }

    type Heard = Vec<Vec<(SimTime, u32)>>;

    /// Four listeners and a caster that sends to `targets` at 1 ms and
    /// again at 3 ms; `faults` may crash and recover listeners in between.
    fn cast(
        fan_out: bool,
        targets: &[u32],
        faults: impl Fn(&mut Engine<Note>, &[ActorId]),
    ) -> (u64, u64, Heard) {
        let mut eng = Engine::new(1);
        let ids: Vec<ActorId> = (0..4)
            .map(|_| eng.add_actor(Box::new(Listener { got: Vec::new() })))
            .collect();
        let caster = eng.add_actor(Box::new(Caster {
            targets: targets.iter().map(|&t| ids[t as usize]).collect(),
            fan_out,
        }));
        eng.schedule(SimTime::from_millis(1), caster, 1);
        eng.schedule(SimTime::from_millis(3), caster, 2);
        faults(&mut eng, &ids);
        eng.run_to_completion();
        let heard = ids
            .iter()
            .map(|&id| eng.actor::<Listener>(id).got.clone())
            .collect();
        (eng.fingerprint(), eng.dispatched(), heard)
    }

    #[test]
    fn fan_out_equals_one_send_per_target() {
        let shared = cast(true, &[2, 0, 1, 3, 1], |_, _| {});
        let reference = cast(false, &[2, 0, 1, 3, 1], |_, _| {});
        assert_eq!(shared, reference);
        // 2 casts + 2 × 5 deliveries + 2 × 5 echoes.
        assert_eq!(shared.1, 22);
        // Listener 1 is listed twice; its echoes (tag + 100) run
        // behind the whole run, not between targets.
        let at = SimTime::from_millis(2);
        assert_eq!(shared.2[1][..4], [(at, 1), (at, 1), (at, 101), (at, 101)]);
    }

    #[test]
    fn fan_out_checks_each_target_at_delivery() {
        // Listener 0 is down at the first delivery; listener 1 crashed
        // and recovered since the stamp (a new incarnation); listener 2
        // does so under the second fan-out, recovering at the very
        // instant of its delivery. Each is skipped alone, as its own
        // send would be.
        let faults = |eng: &mut Engine<Note>, ids: &[ActorId]| {
            eng.schedule_crash(SimTime::from_micros(1_500), ids[0]);
            eng.schedule_recover(SimTime::from_micros(2_500), ids[0]);
            eng.schedule_crash(SimTime::from_micros(1_200), ids[1]);
            eng.schedule_recover(SimTime::from_micros(1_700), ids[1]);
            eng.schedule_crash(SimTime::from_micros(3_500), ids[2]);
            eng.schedule_recover(SimTime::from_millis(4), ids[2]);
        };
        let shared = cast(true, &[0, 1, 2, 3], faults);
        assert_eq!(shared, cast(false, &[0, 1, 2, 3], faults));
        let tags = |i: usize| shared.2[i].iter().map(|g| g.1).collect::<Vec<_>>();
        assert_eq!(tags(0), [2, 102]);
        assert_eq!(tags(1), [2, 102]);
        assert_eq!(tags(2), [1, 101]);
        assert_eq!(tags(3), [1, 101, 2, 102]);
    }

    #[test]
    fn fan_out_of_one_is_a_plain_send_and_of_none_is_nothing() {
        assert_eq!(cast(true, &[1], |_, _| {}), cast(false, &[1], |_, _| {}));
        let (_, n, _) = cast(true, &[], |_, _| {});
        assert_eq!(n, 2, "only the two casts themselves");
    }

    #[test]
    fn a_fan_out_shares_one_message_and_recycles_its_entry() {
        // Three targets hold the same `Rc`: the copies are count bumps of
        // the one message the record carries, not new values.
        struct Keeper(Vec<Note>);
        impl Actor<Note> for Keeper {
            fn on_event(&mut self, _ctx: &mut Ctx<'_, Note>, note: Note) {
                self.0.push(note);
            }
        }
        let mut eng: Engine<Note> = Engine::new(1);
        let ids: Vec<ActorId> = (0..3)
            .map(|_| eng.add_actor(Box::new(Keeper(Vec::new()))))
            .collect();
        let caster = eng.add_actor(Box::new(Caster {
            targets: ids.clone(),
            fan_out: true,
        }));
        eng.schedule(SimTime::ZERO, caster, 7);
        eng.schedule(SimTime::from_millis(5), caster, 8);
        eng.run_to_completion();
        let first = &eng.actor::<Keeper>(ids[0]).0;
        for &id in &ids {
            let kept = &eng.actor::<Keeper>(id).0;
            assert!(std::rc::Rc::ptr_eq(&kept[0].0, &first[0].0));
            assert!(std::rc::Rc::ptr_eq(&kept[1].0, &first[1].0));
        }
        // The second cast reused the first one's table entry.
        assert_eq!(eng.kernel.fans.len(), 1);
    }

    /// Ticks every 10 ms from its first event, parking the timer instead
    /// of arming it at the `park_at`-th tick; records each tick.
    struct Ticker {
        park_at: u32,
        ticks: Vec<SimTime>,
    }

    impl Actor<Note> for Ticker {
        fn on_event(&mut self, ctx: &mut Ctx<'_, Note>, _note: Note) {
            self.ticks.push(ctx.now());
            let period = SimDuration::from_millis(10);
            if self.ticks.len() as u32 == self.park_at {
                ctx.park(period, 0);
            } else {
                ctx.timer(period, 0);
            }
        }
    }

    fn ticker(park_at: u32) -> (Engine<Note>, ActorId) {
        let mut eng: Engine<Note> = Engine::new(1);
        let id = eng.add_actor(Box::new(Ticker {
            park_at,
            ticks: Vec::new(),
        }));
        eng.schedule(SimTime::from_millis(10), id, 0);
        (eng, id)
    }

    #[test]
    fn a_woken_timer_fires_on_its_grid_as_if_it_never_parked() {
        let ms = SimTime::from_millis;
        let (mut parked, id) = ticker(2);
        parked.run_until(ms(35));
        assert_eq!(parked.actor::<Ticker>(id).ticks, [ms(10), ms(20)]);
        // Woken between runs at 35 ms: armed at 40, then ticks as a
        // plain timer would; woken at a grid instant, armed one later.
        parked.watch().wake(id);
        parked.run_until(ms(60));
        let (mut plain, id2) = ticker(0);
        plain.run_until(ms(60));
        let never = &plain.actor::<Ticker>(id2).ticks;
        let woken = &parked.actor::<Ticker>(id).ticks;
        assert_eq!(woken[2..], never[3..]);
        let (mut at_grid, id3) = ticker(1);
        at_grid.run_until(ms(30));
        at_grid.watch().wake(id3);
        at_grid.run_until(ms(40));
        assert_eq!(at_grid.actor::<Ticker>(id3).ticks, [ms(10), ms(40)]);
        // A wake names an actor with no parked timer: nothing happens.
        at_grid.watch().wake(id3);
        at_grid.run_until(ms(50));
        assert_eq!(at_grid.actor::<Ticker>(id3).ticks.len(), 3);
    }

    #[test]
    fn a_parked_timer_fires_virtually_in_queue_order_until_a_crash() {
        let ms = SimTime::from_millis;
        let fired = |crash_at: u64, scheduled_at: u64| {
            let (mut eng, id) = ticker(1);
            eng.run_until(ms(scheduled_at));
            eng.schedule_crash(ms(crash_at), id);
            eng.run_until(ms(crash_at + 1));
            (eng.watch().fired(id), eng.dispatched())
        };
        // Parked at its 10 ms tick, dispatched once; then fired at 20,
        // 30, ... without a dispatch.
        assert_eq!(fired(35, 0), (ms(30), 1));
        // A crash at a firing instant scheduled before that firing's
        // shadow was queued comes first; one scheduled after, after.
        assert_eq!(fired(30, 0), (ms(20), 1));
        assert_eq!(fired(30, 20), (ms(30), 1));
        // Before the first firing: the instant it parked.
        assert_eq!(fired(15, 0), (ms(10), 1));
    }

    #[test]
    fn slab_slots_are_a_message_and_two_words() {
        // A delivery and a fan-out share one variant, so the boxed-`Any`
        // adapter keeps the 32 bytes its slot had before messages were
        // typed, and a one-pointer message needs a tag word beside it. A
        // 24-byte message fits in 32 only if its own tag leaves room for
        // the control events' (a system enum's does); a plain 24-byte
        // value does not.
        assert_eq!(Engine::<Payload>::SLOT_BYTES, 32);
        assert_eq!(Engine::<Note>::SLOT_BYTES, 24);
        assert_eq!(Engine::<[u64; 3]>::SLOT_BYTES, 40);
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
        let mut eng = engine();
        let id = eng.add_actor(Box::new(Halter));
        eng.schedule(SimTime::from_millis(1), id, Go);
        eng.run_to_completion();
        assert_eq!(eng.now(), SimTime::from_millis(1));
    }

    #[test]
    fn double_crash_and_double_recover_are_idempotent() {
        let mut eng = engine();
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
