//! Kernel-equivalence property tests.
//!
//! The kernel holds a multicast as one fan-out record: a run that sends a
//! hop to several peers as one `Ctx::send_shared` must be
//! indistinguishable from the run that sends it as one `Ctx::send` per
//! target. These tests drive both with random message storms (delays
//! spanning every wheel level, including same-instant sends) and random
//! crash / recover plans landing on the same tick boundaries as
//! deliveries, then compare fingerprint, dispatch count, and the workers'
//! shared event log entry-by-entry. The workers speak a typed message, as
//! the systems do, so the storms drive the kernel's production path
//! rather than its boxed-`Any` adapter.
//!
//! In both modes, each hop carries the order it was scheduled in, and the
//! dispatches must arrive in ascending `(time, scheduling order)` — the
//! order the binary heap the timing wheel replaced dispatched in (the
//! engine's unit tests hold the wheel to that heap, pop for pop).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use groupsafe_sim::{Actor, ActorId, Ctx, Engine, Message, SimDuration, SimTime};
use proptest::prelude::*;
use rand::Rng;

/// A hop-counted message bounced between workers, stamped with the
/// order it was scheduled in.
#[derive(Clone)]
struct Hop {
    hops: u8,
    order: u64,
}

impl Message for Hop {}

/// How a worker sends a hop that goes to several peers at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Multi {
    /// One `Ctx::send` per target: the reference.
    PerTarget,
    /// One `Ctx::send_shared`: a copy per target but the last.
    FanOut,
}

/// The ordered `(now, label)` log every worker of a run appends to.
type Log = Rc<RefCell<Vec<(SimTime, String)>>>;

/// A run's scheduling counter and the `(time, scheduling order)` of
/// every hop dispatched, in dispatch order.
#[derive(Default)]
struct Order {
    next: Cell<u64>,
    dispatched: RefCell<Vec<(SimTime, u64)>>,
}

impl Order {
    /// A hop of `hops`, stamped with the next scheduling order.
    fn hop(&self, hops: u8) -> Hop {
        let order = self.next.get();
        self.next.set(order + 1);
        Hop { hops, order }
    }
}

/// A worker that relays hop-counted messages to pseudo-random peers with
/// pseudo-random delays. All randomness comes from the engine RNG, so the
/// behavior is a pure function of the dispatch order — exactly the thing
/// the two schedulers must agree on.
struct Worker {
    id: u32,
    peers: u32,
    multi: Multi,
    log: Log,
    order: Rc<Order>,
}

/// Delay palette in nanoseconds: same-instant, within the first wheel
/// level (64 ns), across levels 1-5, and out at the seconds level — so a
/// single run exercises level filing, cascades, and same-tick FIFO.
const DELAYS: [u64; 8] = [0, 1, 63, 900, 64_000, 1_000_000, 16_000_000, 1_000_000_000];

impl Worker {
    fn record(&self, ctx: &Ctx<'_, Hop>, what: std::fmt::Arguments<'_>) {
        let entry = (ctx.now(), format!("w{}:{what}", self.id));
        self.log.borrow_mut().push(entry);
    }

    fn on_hop(&mut self, ctx: &mut Ctx<'_, Hop>, hops: u8) {
        self.record(ctx, format_args!("hop{hops}"));
        if hops == 0 {
            return;
        }
        let d = SimDuration::from_nanos(DELAYS[ctx.rng().random_range(0..DELAYS.len())]);
        let first = ctx.rng().random_range(0..self.peers);
        if hops.is_multiple_of(2) {
            // A multi-target hop: 0 to 3 consecutive peers (wrapping, so
            // a small group sees the same peer twice in one fan-out).
            let width = ctx.rng().random_range(0..=3);
            let targets: Vec<ActorId> = (0..width)
                .map(|i| ActorId((first + i) % self.peers))
                .collect();
            match self.multi {
                Multi::PerTarget => {
                    for &t in &targets {
                        ctx.send(t, d, self.order.hop(hops - 1));
                    }
                }
                Multi::FanOut => ctx.send_shared(&targets, d, self.order.hop(hops - 1)),
            }
        } else {
            ctx.send(ActorId(first), d, self.order.hop(hops - 1));
        }
        if hops.is_multiple_of(3) {
            // A self-timer at the same instant as the relay
            // exercises same-tick FIFO between two pushes.
            ctx.timer(d, self.order.hop(hops / 3));
        }
    }
}

impl Actor<Hop> for Worker {
    fn on_event(&mut self, ctx: &mut Ctx<'_, Hop>, hop: Hop) {
        self.order
            .dispatched
            .borrow_mut()
            .push((ctx.now(), hop.order));
        self.on_hop(ctx, hop.hops);
    }

    fn on_crash(&mut self, ctx: &mut Ctx<'_, Hop>) {
        self.record(ctx, format_args!("crash"));
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, Hop>) {
        self.record(ctx, format_args!("recover"));
        // The fresh incarnation kicks off new work of its own.
        ctx.timer(SimDuration::from_millis(1), self.order.hop(2));
    }

    fn name(&self) -> &str {
        "worker"
    }
}

/// One worker's injected workload and fault plan, all at millisecond tick
/// boundaries so crashes/recoveries land at the very instants messages are
/// being delivered (the incarnation-filtering edge the old kernel handled
/// implicitly through heap ordering).
#[derive(Debug, Clone)]
struct Plan {
    start_ms: u64,
    hops: u8,
    crash_ms: Option<(u64, u64)>,
}

/// Run `plans` with hops sent as `multi`: the fingerprint, the dispatch
/// count and the log. Panics unless every hop was dispatched in
/// ascending `(time, scheduling order)`.
fn run_plan(
    multi: Multi,
    seed: u64,
    n_workers: u32,
    plans: &[Plan],
) -> (u64, u64, Vec<(SimTime, String)>) {
    let mut eng = Engine::new(seed);
    let log = Log::default();
    let order = Rc::new(Order::default());
    for id in 0..n_workers {
        eng.add_actor(Box::new(Worker {
            id,
            peers: n_workers,
            multi,
            log: log.clone(),
            order: order.clone(),
        }));
    }
    for (i, p) in plans.iter().enumerate() {
        let target = ActorId(i as u32 % n_workers);
        eng.schedule(SimTime::from_millis(p.start_ms), target, order.hop(p.hops));
        if let Some((crash_ms, down_ms)) = p.crash_ms {
            eng.schedule_crash(SimTime::from_millis(crash_ms), target);
            eng.schedule_recover(SimTime::from_millis(crash_ms + down_ms.max(1)), target);
        }
    }
    eng.run_to_completion();
    let dispatched = order.dispatched.take();
    // A fan-out's targets share one scheduling order.
    assert!(
        dispatched.is_sorted(),
        "{multi:?}: a hop arrived out of (time, scheduling order)"
    );
    let log = log.take();
    (eng.fingerprint(), eng.dispatched(), log)
}

proptest! {
    /// Random storms + fault plans: a fan-out run agrees with the
    /// per-target run on the fingerprint, the dispatch count, and every
    /// single log entry.
    #[test]
    fn fan_out_and_per_target_traces_are_identical(
        seed in 0u64..1_000_000,
        n_workers in 1u32..6,
        plans in proptest::collection::vec(
            (0u64..50, 0u8..12, proptest::option::of((1u64..50, 1u64..30))),
            1..8,
        )
    ) {
        let plans: Vec<Plan> = plans
            .into_iter()
            .map(|(start_ms, hops, crash_ms)| Plan { start_ms, hops, crash_ms })
            .collect();
        let reference = run_plan(Multi::PerTarget, seed, n_workers, &plans);
        let run = run_plan(Multi::FanOut, seed, n_workers, &plans);
        prop_assert_eq!(reference.0, run.0, "fingerprint diverged");
        prop_assert_eq!(reference.1, run.1, "dispatch count diverged");
        prop_assert_eq!(reference.2.len(), run.2.len(), "log length diverged");
        for (i, (r, f)) in reference.2.iter().zip(run.2.iter()).enumerate() {
            prop_assert_eq!(r, f, "log entry {} diverged", i);
        }
    }

    /// Crash/recover exactly at a delivery tick: events stamped with the
    /// old incarnation are filtered identically by both sends, and the
    /// recovered incarnation's own work interleaves identically.
    #[test]
    fn crash_at_tick_boundary_filters_identically(
        seed in 0u64..1_000_000,
        crash_ms in 1u64..20,
        down_ms in 1u64..10,
    ) {
        let plans = vec![
            Plan { start_ms: 0, hops: 10, crash_ms: Some((crash_ms, down_ms)) },
            // A second worker keeps sending into the crash window so some
            // deliveries land on a down / re-incarnated target.
            Plan { start_ms: 0, hops: 11, crash_ms: None },
        ];
        let reference = run_plan(Multi::PerTarget, seed, 2, &plans);
        prop_assert_eq!(&reference, &run_plan(Multi::FanOut, seed, 2, &plans));
    }
}
