//! The deterministic fault-scenario engine: one declarative timeline for
//! every fault a run can suffer, a per-safety-level oracle that audits
//! the outcome against the paper's Tables 2–3, and a seeded fuzzer that
//! generates random scenarios and runs the oracle over them.
//!
//! # The plan
//!
//! A [`ScenarioPlan`] is a timeline of typed [`ScenarioEvent`]s — crash
//! (with optional scripted recovery), partition/heal, targeted sequencer
//! kill, loss/duplication/reorder bursts, slow-disk windows, runtime
//! safety switches and operator-style group restarts. It is the only
//! fault schedule a [`SystemBuilder`](crate::SystemBuilder) takes; the
//! workload crate's `CrashScenario` compiles to one.
//!
//! Plans execute through the [`Run`] lifecycle: every step becomes a
//! sim-time hook that fires exactly at its instant — also under the
//! stepwise API ([`Run::run_until`]), so any bench, test or example can
//! replay any fault interleaving from a seed.
//!
//! # The oracle
//!
//! [`audit_scenario`] checks, after the run, what the claimed
//! [`SafetyLevel`] promises under the faults the plan injected:
//!
//! * **no lost transactions** for levels whose crash tolerance covers
//!   the plan (group-safe under a partial failure, 2-safe/very-safe
//!   always),
//! * **loss accounting**: when a level *may* lose (1-safe, group-1-safe
//!   after a group failure), every lost transaction must be attributable
//!   to a delegate-crash window,
//! * **convergence and total-order digests** across survivors once the
//!   plan quiesces.
//!
//! # The fuzzer
//!
//! [`fuzz::run_fuzz_case`] derives a random plan from a seed
//! ([`fuzz::generate_plan`]), runs it on a small system and audits it.
//! Same seed, same plan, same fingerprint — a failing seed is a complete
//! reproduction recipe (see `ScenarioPlan::render`). Sharded envelopes
//! ([`fuzz::sharded`]) draw group-targeted faults — including
//! whole-group failures with operator restarts — and additionally audit
//! the cross-group atomicity digest.
//!
//! # Example
//!
//! ```
//! use groupsafe_core::{ScenarioPlan, SafetyLevel};
//! use groupsafe_sim::{SimDuration, SimTime};
//!
//! let plan = ScenarioPlan::new()
//!     // crash server 2 at t = 2 s, recover it 600 ms later
//!     .crash_for(SimTime::from_secs(2), 2, SimDuration::from_millis(600))
//!     // isolate servers {0, 1} (and their clients) for 1.5 s
//!     .partition(SimTime::from_secs(3), vec![vec![0, 1]])
//!     .heal(SimTime::from_millis(4_500))
//!     // kill whichever server is the sequencer at that moment
//!     .kill_sequencer(SimTime::from_secs(5), Some(SimDuration::from_millis(700)));
//! assert_eq!(plan.len(), 4);
//! assert!(plan.any_crash());
//! assert!(plan.fully_healed());
//! assert!(plan.validate(5).is_ok(), "all targets exist on 5 servers");
//! assert!(plan.validate(2).is_err(), "server 2 does not exist on 2");
//! ```

#![expect(
    clippy::indexing_slicing,
    reason = "busy_until is a fixed [SimTime; 4] with literal indices 0..=3; down_budget/ranges are sized to n_groups and indexed by g < n_groups; w[0]/w[1] come from windows(2)"
)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use groupsafe_net::{NetConfig, NodeId};
use groupsafe_sim::{SimDuration, SimTime};

use crate::builder::{BuildError, Run};
use crate::msg::ServerEvent;
use crate::safety::SafetyLevel;
use crate::server::{ReplicaServer, RestartServerCmd};
use crate::system::System;

// ---------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------

/// One typed fault event on the scenario timeline.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// Crash a server. The step fires at its instant and *then* strikes
    /// after `after` (zero for an immediate crash; non-zero models a
    /// pre-announced delayed strike, e.g. "the delegate outlives the
    /// group"). With `recover_after`, recovery is scripted at
    /// `at + after + recover_after` when the step fires — matching how
    /// an operator schedules downtime ahead of time.
    Crash {
        /// Target server id.
        server: u32,
        /// Delay between the step firing and the crash striking.
        after: SimDuration,
        /// Downtime before the scripted recovery (None = stays down).
        recover_after: Option<SimDuration>,
    },
    /// Recover a (previously crashed) server at the step's instant.
    Recover {
        /// Target server id.
        server: u32,
    },
    /// Switch every server's safety level (group-safe ↔ group-1-safe,
    /// §5.2).
    SwitchSafety {
        /// The level to switch to.
        level: SafetyLevel,
    },
    /// Split the network into the given server groups (each group takes
    /// its home clients along; unlisted servers form an implicit final
    /// component).
    Partition {
        /// Server-id groups.
        groups: Vec<Vec<u32>>,
    },
    /// Heal all partitions.
    Heal,
    /// Crash whichever live server currently acts as the sequencer
    /// (resolved at fire time — after a previous kill this targets the
    /// *successor*). No-op if no live sequencer exists.
    KillSequencer {
        /// Downtime before the scripted recovery (None = stays down).
        recover_after: Option<SimDuration>,
    },
    /// Probabilistic message loss for a window.
    LossBurst {
        /// Per-delivery drop probability during the burst.
        probability: f64,
        /// Burst length.
        duration: SimDuration,
    },
    /// Probabilistic message duplication for a window.
    DuplicationBurst {
        /// Per-delivery duplication probability during the burst.
        probability: f64,
        /// Burst length.
        duration: SimDuration,
    },
    /// Probabilistic bounded reordering for a window.
    ReorderBurst {
        /// Per-delivery deferral probability during the burst.
        probability: f64,
        /// Upper bound of the deferral (and duplicate spread).
        window: SimDuration,
        /// Burst length.
        duration: SimDuration,
    },
    /// Scale the disk service times of the given servers for a window
    /// (a degraded device; affects WAL flushes and the GC stable log).
    SlowDisk {
        /// Target server ids.
        servers: Vec<u32>,
        /// Service-time multiplier (> 1 slows the device down).
        factor: f64,
        /// Window length.
        duration: SimDuration,
    },
    /// Operator-style restart after a *total* failure in the dynamic
    /// model: the listed (recovered) servers reconcile to the most
    /// advanced recovered state and rejoin as a fresh group.
    RestartGroup {
        /// The servers forming the fresh group.
        servers: Vec<u32>,
    },
    /// Whole-group failure in a sharded system: crash every server of
    /// one replica group at the same instant (the fault the group-safe
    /// loss rule is about, scoped to one shard).
    GroupCrash {
        /// The group to take down.
        group: u32,
        /// Downtime before every member's scripted recovery (None = the
        /// group stays down).
        recover_after: Option<SimDuration>,
    },
    /// Crash whichever live server currently acts as *group `group`'s*
    /// sequencer (resolved at fire time). No-op if the group has no live
    /// sequencer.
    KillGroupSequencer {
        /// The targeted group.
        group: u32,
        /// Downtime before the scripted recovery (None = stays down).
        recover_after: Option<SimDuration>,
    },
    /// Partition scoped to one group of a sharded system: isolate the
    /// given member *ranks* (0-based within the group) — and their home
    /// clients — from everyone else. Healed by [`ScenarioEvent::Heal`].
    GroupPartition {
        /// The targeted group.
        group: u32,
        /// Member ranks to isolate (0-based within the group).
        ranks: Vec<u32>,
    },
}

impl ScenarioEvent {
    /// Short static label for phase marks and progress dumps; a safety
    /// switch is labelled by its target level.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioEvent::Crash { .. } => "crash",
            ScenarioEvent::Recover { .. } => "recover",
            ScenarioEvent::SwitchSafety { level } => match level {
                SafetyLevel::ZeroSafe => "switch-safety:0-safe",
                SafetyLevel::OneSafe => "switch-safety:1-safe",
                SafetyLevel::GroupSafe => "switch-safety:group-safe",
                SafetyLevel::GroupOneSafe => "switch-safety:group-1-safe",
                SafetyLevel::TwoSafe => "switch-safety:2-safe",
                SafetyLevel::VerySafe => "switch-safety:very-safe",
            },
            ScenarioEvent::Partition { .. } => "partition",
            ScenarioEvent::Heal => "heal",
            ScenarioEvent::KillSequencer { .. } => "kill-sequencer",
            ScenarioEvent::LossBurst { .. } => "loss-burst",
            ScenarioEvent::DuplicationBurst { .. } => "dup-burst",
            ScenarioEvent::ReorderBurst { .. } => "reorder-burst",
            ScenarioEvent::SlowDisk { .. } => "slow-disk",
            ScenarioEvent::RestartGroup { .. } => "restart-group",
            ScenarioEvent::GroupCrash { .. } => "group-crash",
            ScenarioEvent::KillGroupSequencer { .. } => "kill-group-sequencer",
            ScenarioEvent::GroupPartition { .. } => "group-partition",
        }
    }
}

/// A [`ScenarioEvent`] at an instant of the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioStep {
    /// When the step fires.
    pub at: SimTime,
    /// What it does.
    pub event: ScenarioEvent,
}

/// A declarative timeline of fault events, executed by the [`Run`]
/// lifecycle as sim-time hooks. Steps sharing an instant fire in plan
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioPlan {
    /// The timeline (kept in insertion order; ties resolve by it).
    pub steps: Vec<ScenarioStep>,
}

impl ScenarioPlan {
    /// The empty plan.
    pub fn new() -> Self {
        ScenarioPlan::default()
    }

    /// Append an explicit step.
    pub fn then(mut self, step: ScenarioStep) -> Self {
        self.steps.push(step);
        self
    }

    /// Append every step of `other` after this plan's steps.
    pub fn merge(mut self, other: ScenarioPlan) -> Self {
        self.steps.extend(other.steps);
        self
    }

    /// Crash `server` at `at` (stays down).
    pub fn crash(self, at: SimTime, server: u32) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::Crash {
                server,
                after: SimDuration::ZERO,
                recover_after: None,
            },
        })
    }

    /// Crash `server` at `at` and recover it after `downtime`.
    pub fn crash_for(self, at: SimTime, server: u32, downtime: SimDuration) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::Crash {
                server,
                after: SimDuration::ZERO,
                recover_after: Some(downtime),
            },
        })
    }

    /// Recover `server` at `at`.
    pub fn recover(self, at: SimTime, server: u32) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::Recover { server },
        })
    }

    /// Switch every server's safety level at `at`.
    pub fn switch_safety(self, at: SimTime, level: SafetyLevel) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::SwitchSafety { level },
        })
    }

    /// Partition the network into the given server groups at `at`.
    pub fn partition(self, at: SimTime, groups: Vec<Vec<u32>>) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::Partition { groups },
        })
    }

    /// Heal all partitions at `at`.
    pub fn heal(self, at: SimTime) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::Heal,
        })
    }

    /// Crash the current sequencer at `at` (optionally recovering it).
    pub fn kill_sequencer(self, at: SimTime, recover_after: Option<SimDuration>) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::KillSequencer { recover_after },
        })
    }

    /// Drop deliveries with `probability` during `[at, at + duration)`.
    pub fn loss_burst(self, at: SimTime, probability: f64, duration: SimDuration) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::LossBurst {
                probability,
                duration,
            },
        })
    }

    /// Duplicate deliveries with `probability` during the window.
    pub fn duplication_burst(self, at: SimTime, probability: f64, duration: SimDuration) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::DuplicationBurst {
                probability,
                duration,
            },
        })
    }

    /// Defer deliveries with `probability` by up to `window` during the
    /// burst.
    pub fn reorder_burst(
        self,
        at: SimTime,
        probability: f64,
        window: SimDuration,
        duration: SimDuration,
    ) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::ReorderBurst {
                probability,
                window,
                duration,
            },
        })
    }

    /// Slow the disks of `servers` by `factor` during the window.
    pub fn slow_disk(
        self,
        at: SimTime,
        servers: Vec<u32>,
        factor: f64,
        duration: SimDuration,
    ) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::SlowDisk {
                servers,
                factor,
                duration,
            },
        })
    }

    /// Reconcile-and-restart the listed servers as a fresh group at `at`.
    pub fn restart_group(self, at: SimTime, servers: Vec<u32>) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::RestartGroup { servers },
        })
    }

    /// Crash every server of replica group `group` at `at` (a sharded
    /// whole-group failure), optionally recovering them all after
    /// `recover_after`.
    pub fn crash_whole_group(
        self,
        at: SimTime,
        group: u32,
        recover_after: Option<SimDuration>,
    ) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::GroupCrash {
                group,
                recover_after,
            },
        })
    }

    /// Crash group `group`'s current sequencer at `at` (optionally
    /// recovering it).
    pub fn kill_sequencer_in(
        self,
        at: SimTime,
        group: u32,
        recover_after: Option<SimDuration>,
    ) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::KillGroupSequencer {
                group,
                recover_after,
            },
        })
    }

    /// Isolate the given member ranks of group `group` (plus their home
    /// clients) at `at`; heal with [`ScenarioPlan::heal`].
    pub fn partition_group(self, at: SimTime, group: u32, ranks: Vec<u32>) -> Self {
        self.then(ScenarioStep {
            at,
            event: ScenarioEvent::GroupPartition { group, ranks },
        })
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Number of scheduled steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Validate against a system of `n_servers` replicas.
    pub fn validate(&self, n_servers: u32) -> Result<(), BuildError> {
        let check_server = |s: u32| {
            if s >= n_servers {
                Err(BuildError::FaultTargetOutOfRange {
                    server: s,
                    n_servers,
                })
            } else {
                Ok(())
            }
        };
        let check_p = |name: &'static str, p: f64| {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                Err(BuildError::BadProbability { name, value: p })
            } else {
                Ok(())
            }
        };
        for step in &self.steps {
            match &step.event {
                ScenarioEvent::Crash { server, .. } | ScenarioEvent::Recover { server } => {
                    check_server(*server)?
                }
                ScenarioEvent::Partition { groups } => {
                    for g in groups {
                        for &s in g {
                            check_server(s)?;
                        }
                    }
                }
                ScenarioEvent::LossBurst { probability, .. }
                | ScenarioEvent::DuplicationBurst { probability, .. } => {
                    check_p("burst probability", *probability)?
                }
                ScenarioEvent::ReorderBurst { probability, .. } => {
                    check_p("burst probability", *probability)?
                }
                ScenarioEvent::SlowDisk {
                    servers, factor, ..
                } => {
                    for &s in servers {
                        check_server(s)?;
                    }
                    if !factor.is_finite() || *factor <= 0.0 {
                        return Err(BuildError::BadScenario {
                            what: "slow-disk factor must be positive",
                            value: *factor,
                        });
                    }
                }
                ScenarioEvent::RestartGroup { servers } => {
                    for &s in servers {
                        check_server(s)?;
                    }
                }
                ScenarioEvent::SwitchSafety { .. }
                | ScenarioEvent::Heal
                | ScenarioEvent::KillSequencer { .. }
                // Group-scoped events are validated against the group
                // topology by `validate_groups`.
                | ScenarioEvent::GroupCrash { .. }
                | ScenarioEvent::KillGroupSequencer { .. }
                | ScenarioEvent::GroupPartition { .. } => {}
            }
        }
        Ok(())
    }

    /// Validate the group-scoped events against a topology of `n_groups`
    /// groups of `servers_per_group` members each.
    pub fn validate_groups(&self, n_groups: u32, servers_per_group: u32) -> Result<(), BuildError> {
        let check_group = |g: u32| {
            if g >= n_groups {
                Err(BuildError::GroupOutOfRange { group: g, n_groups })
            } else {
                Ok(())
            }
        };
        for step in &self.steps {
            match &step.event {
                ScenarioEvent::GroupCrash { group, .. }
                | ScenarioEvent::KillGroupSequencer { group, .. } => check_group(*group)?,
                ScenarioEvent::GroupPartition { group, ranks } => {
                    check_group(*group)?;
                    for &r in ranks {
                        if r >= servers_per_group {
                            return Err(BuildError::FaultTargetOutOfRange {
                                server: group * servers_per_group + r,
                                n_servers: n_groups * servers_per_group,
                            });
                        }
                    }
                }
                // Exhaustive on purpose: a new event variant must be
                // routed here explicitly, not silently skip validation.
                ScenarioEvent::Crash { .. }
                | ScenarioEvent::Recover { .. }
                | ScenarioEvent::SwitchSafety { .. }
                | ScenarioEvent::Partition { .. }
                | ScenarioEvent::Heal
                | ScenarioEvent::KillSequencer { .. }
                | ScenarioEvent::LossBurst { .. }
                | ScenarioEvent::DuplicationBurst { .. }
                | ScenarioEvent::ReorderBurst { .. }
                | ScenarioEvent::SlowDisk { .. }
                | ScenarioEvent::RestartGroup { .. } => {}
            }
        }
        Ok(())
    }

    /// Install the plan on a [`Run`]: one hook per step (bursts and
    /// slow-disk windows add a second hook restoring the baseline at the
    /// window's end). Bursts reset to the default network configuration,
    /// the one every system is wired with.
    pub(crate) fn install(self, run: &mut Run) {
        let baseline = NetConfig::default();
        for step in self.steps {
            let at = step.at;
            let label = step.event.label();
            match step.event {
                ScenarioEvent::Crash {
                    server,
                    after,
                    recover_after,
                } => {
                    run.hook_at(at, label, move |sys: &mut System| {
                        let actor = sys.servers[server as usize];
                        let strike = sys.engine.now().max(at) + after;
                        sys.engine.schedule_crash(strike, actor);
                        if let Some(downtime) = recover_after {
                            sys.engine.schedule_recover(strike + downtime, actor);
                        }
                    });
                }
                ScenarioEvent::Recover { server } => {
                    run.hook_at(at, label, move |sys: &mut System| {
                        let actor = sys.servers[server as usize];
                        let now = sys.engine.now().max(at);
                        sys.engine.schedule_recover(now, actor);
                    });
                }
                ScenarioEvent::SwitchSafety { level } => {
                    run.hook_at(at, label, move |sys: &mut System| {
                        let now = sys.engine.now().max(at);
                        for &s in &sys.servers.clone() {
                            sys.engine
                                .schedule_resilient(now, s, ServerEvent::SwitchSafety(level));
                        }
                    });
                }
                ScenarioEvent::Partition { groups } => {
                    run.hook_at(at, label, move |sys: &mut System| {
                        sys.apply_partition(&groups);
                    });
                }
                ScenarioEvent::Heal => {
                    run.hook_at(at, label, move |sys: &mut System| {
                        sys.net.heal();
                    });
                }
                ScenarioEvent::KillSequencer { recover_after } => {
                    run.hook_at(at, label, move |sys: &mut System| {
                        let Some(i) = sys.current_sequencer() else {
                            return;
                        };
                        let actor = sys.servers[i as usize];
                        let now = sys.engine.now().max(at);
                        sys.engine.schedule_crash(now, actor);
                        if let Some(downtime) = recover_after {
                            sys.engine.schedule_recover(now + downtime, actor);
                        }
                    });
                }
                ScenarioEvent::LossBurst {
                    probability,
                    duration,
                } => {
                    run.hook_at(at, label, move |sys: &mut System| {
                        sys.net.set_loss_probability(probability);
                    });
                    let base = baseline.loss_probability;
                    run.hook_at(at + duration, "loss-burst-end", move |sys: &mut System| {
                        sys.net.set_loss_probability(base);
                    });
                }
                ScenarioEvent::DuplicationBurst {
                    probability,
                    duration,
                } => {
                    run.hook_at(at, label, move |sys: &mut System| {
                        sys.net.set_duplicate_probability(probability);
                    });
                    let base = baseline.duplicate_probability;
                    run.hook_at(at + duration, "dup-burst-end", move |sys: &mut System| {
                        sys.net.set_duplicate_probability(base);
                    });
                }
                ScenarioEvent::ReorderBurst {
                    probability,
                    window,
                    duration,
                } => {
                    run.hook_at(at, label, move |sys: &mut System| {
                        sys.net.set_reorder(probability, window);
                    });
                    let (bp, bw) = (baseline.reorder_probability, baseline.reorder_window);
                    run.hook_at(
                        at + duration,
                        "reorder-burst-end",
                        move |sys: &mut System| {
                            sys.net.set_reorder(bp, bw);
                        },
                    );
                }
                ScenarioEvent::SlowDisk {
                    servers,
                    factor,
                    duration,
                } => {
                    let ends = servers.clone();
                    run.hook_at(at, label, move |sys: &mut System| {
                        for &i in &servers {
                            let id = sys.servers[i as usize];
                            sys.engine
                                .actor_mut::<ReplicaServer>(id)
                                .set_disk_slowdown(factor);
                        }
                    });
                    run.hook_at(at + duration, "slow-disk-end", move |sys: &mut System| {
                        for &i in &ends {
                            let id = sys.servers[i as usize];
                            sys.engine
                                .actor_mut::<ReplicaServer>(id)
                                .set_disk_slowdown(1.0);
                        }
                    });
                }
                ScenarioEvent::RestartGroup { servers } => {
                    run.hook_at(at, label, move |sys: &mut System| {
                        reconcile_restart(sys, &servers);
                    });
                }
                ScenarioEvent::GroupCrash {
                    group,
                    recover_after,
                } => {
                    run.hook_at(at, label, move |sys: &mut System| {
                        let strike = sys.engine.now().max(at);
                        for i in sys.group_server_indices(group) {
                            let actor = sys.servers[i as usize];
                            sys.engine.schedule_crash(strike, actor);
                            if let Some(downtime) = recover_after {
                                sys.engine.schedule_recover(strike + downtime, actor);
                            }
                        }
                    });
                }
                ScenarioEvent::KillGroupSequencer {
                    group,
                    recover_after,
                } => {
                    run.hook_at(at, label, move |sys: &mut System| {
                        let Some(i) = sys.current_sequencer_of(group) else {
                            return;
                        };
                        let actor = sys.servers[i as usize];
                        let now = sys.engine.now().max(at);
                        sys.engine.schedule_crash(now, actor);
                        if let Some(downtime) = recover_after {
                            sys.engine.schedule_recover(now + downtime, actor);
                        }
                    });
                }
                ScenarioEvent::GroupPartition { group, ranks } => {
                    run.hook_at(at, label, move |sys: &mut System| {
                        let spg = sys.servers_per_group;
                        let side: Vec<u32> = ranks.iter().map(|&r| group * spg + r).collect();
                        sys.apply_partition(&[side]);
                    });
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Introspection (what the oracle derives from the timeline)
    // -----------------------------------------------------------------

    /// Down-interval per fault: `(key, from, to)` with `to =
    /// SimTime::MAX` when the target never recovers. Explicit crashes
    /// (and [`ScenarioEvent::GroupCrash`] expansions over a group of
    /// `spg` members) carry their server id; sequencer kills — whose
    /// victim is resolved at runtime — get pseudo ids above the real
    /// range.
    fn down_intervals(&self, spg: u32, n_groups: u32) -> Vec<(u32, SimTime, SimTime)> {
        let total = spg * n_groups.max(1);
        let mut out = Vec::new();
        let mut pseudo = total;
        for step in &self.steps {
            match &step.event {
                ScenarioEvent::Crash {
                    server,
                    after,
                    recover_after,
                } => {
                    let from = step.at + *after;
                    let to = recover_after.map_or(SimTime::MAX, |d| from + d);
                    out.push((*server, from, to));
                }
                ScenarioEvent::GroupCrash {
                    group,
                    recover_after,
                } => {
                    let from = step.at;
                    let to = recover_after.map_or(SimTime::MAX, |d| from + d);
                    for member in group * spg..(group + 1) * spg {
                        out.push((member, from, to));
                    }
                }
                ScenarioEvent::KillSequencer { recover_after }
                | ScenarioEvent::KillGroupSequencer { recover_after, .. } => {
                    let from = step.at;
                    let to = recover_after.map_or(SimTime::MAX, |d| from + d);
                    out.push((pseudo, from, to));
                    pseudo += 1;
                }
                ScenarioEvent::Recover { server } => {
                    // Close the target's latest open interval.
                    if let Some(iv) = out
                        .iter_mut()
                        .rev()
                        .find(|(s, _, to)| s == server && *to > step.at)
                    {
                        iv.2 = step.at;
                    }
                }
                // Exhaustive on purpose: a new event variant that takes
                // servers down must extend the interval accounting.
                ScenarioEvent::SwitchSafety { .. }
                | ScenarioEvent::Partition { .. }
                | ScenarioEvent::Heal
                | ScenarioEvent::LossBurst { .. }
                | ScenarioEvent::DuplicationBurst { .. }
                | ScenarioEvent::ReorderBurst { .. }
                | ScenarioEvent::SlowDisk { .. }
                | ScenarioEvent::RestartGroup { .. }
                | ScenarioEvent::GroupPartition { .. } => {}
            }
        }
        out
    }

    /// True when the plan may take *all* of group `g`'s members (out of
    /// `n_groups` groups of `spg` servers) down at once. Sequencer kills
    /// targeting the group — or untargeted ones, whose victim could be
    /// anywhere — conservatively count as one member each.
    pub fn group_failure_of(&self, spg: u32, n_groups: u32, g: u32) -> bool {
        if spg == 0 {
            return false;
        }
        let members = g * spg..(g + 1) * spg;
        let intervals = self.down_intervals(spg, n_groups);
        let total = spg * n_groups.max(1);
        let relevant = |&(s, _, _): &(u32, SimTime, SimTime)| {
            members.contains(&s) || s >= total // pseudo: a sequencer kill
        };
        let mut worst = 0u32;
        for iv in intervals.iter().filter(|iv| relevant(iv)) {
            let from = iv.1;
            let mut down = std::collections::BTreeSet::new();
            let mut seq_kills = 0u32;
            for &(s, f, t) in intervals.iter().filter(|iv| relevant(iv)) {
                if f <= from && from < t {
                    if s >= total {
                        seq_kills += 1;
                    } else {
                        down.insert(s);
                    }
                }
            }
            let covered = (down.len() as u32 + seq_kills).min(spg);
            worst = worst.max(covered);
        }
        worst >= spg
    }

    /// True when some [`ScenarioEvent::RestartGroup`] step covers every
    /// member of group `g` (the operator repair the view-based levels
    /// need after that group's total failure).
    pub fn has_restart_of(&self, spg: u32, g: u32) -> bool {
        let members: Vec<u32> = (g * spg..(g + 1) * spg).collect();
        self.steps.iter().any(|s| match &s.event {
            ScenarioEvent::RestartGroup { servers } => members.iter().all(|m| servers.contains(m)),
            // Exhaustive on purpose: only an operator restart repairs a
            // total failure; new variants must opt in here explicitly.
            ScenarioEvent::Crash { .. }
            | ScenarioEvent::Recover { .. }
            | ScenarioEvent::SwitchSafety { .. }
            | ScenarioEvent::Partition { .. }
            | ScenarioEvent::Heal
            | ScenarioEvent::KillSequencer { .. }
            | ScenarioEvent::LossBurst { .. }
            | ScenarioEvent::DuplicationBurst { .. }
            | ScenarioEvent::ReorderBurst { .. }
            | ScenarioEvent::SlowDisk { .. }
            | ScenarioEvent::GroupCrash { .. }
            | ScenarioEvent::KillGroupSequencer { .. }
            | ScenarioEvent::GroupPartition { .. } => false,
        })
    }

    /// True when any server crashes at some point.
    pub fn any_crash(&self) -> bool {
        self.steps.iter().any(|s| {
            matches!(
                s.event,
                ScenarioEvent::Crash { .. }
                    | ScenarioEvent::KillSequencer { .. }
                    | ScenarioEvent::GroupCrash { .. }
                    | ScenarioEvent::KillGroupSequencer { .. }
            )
        })
    }

    /// True when the plan contains runtime-targeted sequencer kills
    /// (whose victim the plan cannot name statically).
    pub fn has_kill_sequencer(&self) -> bool {
        self.steps.iter().any(|s| {
            matches!(
                s.event,
                ScenarioEvent::KillSequencer { .. } | ScenarioEvent::KillGroupSequencer { .. }
            )
        })
    }

    /// The instants at which the plan's explicit crashes of `server`
    /// strike (kill-sequencer events are excluded — their target is
    /// resolved at runtime).
    pub fn crash_strikes(&self, server: u32) -> Vec<SimTime> {
        self.steps
            .iter()
            .filter_map(|step| match &step.event {
                ScenarioEvent::Crash {
                    server: s, after, ..
                } if *s == server => Some(step.at + *after),
                // Exhaustive on purpose: a new variant that crashes a
                // statically named server must be attributed here (the
                // 1-safe loss-window audit depends on it).
                ScenarioEvent::Crash { .. }
                | ScenarioEvent::Recover { .. }
                | ScenarioEvent::SwitchSafety { .. }
                | ScenarioEvent::Partition { .. }
                | ScenarioEvent::Heal
                | ScenarioEvent::KillSequencer { .. }
                | ScenarioEvent::LossBurst { .. }
                | ScenarioEvent::DuplicationBurst { .. }
                | ScenarioEvent::ReorderBurst { .. }
                | ScenarioEvent::SlowDisk { .. }
                | ScenarioEvent::RestartGroup { .. }
                | ScenarioEvent::GroupCrash { .. }
                | ScenarioEvent::KillGroupSequencer { .. }
                | ScenarioEvent::GroupPartition { .. } => None,
            })
            .collect()
    }

    /// True when the plan injects probabilistic message loss.
    pub fn uses_loss(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s.event, ScenarioEvent::LossBurst { .. }))
    }

    /// True when the plan can drop deliveries at all (crash, kill,
    /// partition or loss) — the faults a 0-safe run may lose under.
    pub fn any_delivery_fault(&self) -> bool {
        self.any_crash()
            || self.uses_loss()
            || self.steps.iter().any(|s| {
                matches!(
                    s.event,
                    ScenarioEvent::Partition { .. } | ScenarioEvent::GroupPartition { .. }
                )
            })
    }

    /// True when every partition is followed by a heal. Steps fire in
    /// `(timestamp, insertion)` order, so the comparison uses that key —
    /// a heal inserted earlier but firing later still heals.
    pub fn fully_healed(&self) -> bool {
        let mut last_partition: Option<(SimTime, usize)> = None;
        let mut last_heal: Option<(SimTime, usize)> = None;
        for (i, step) in self.steps.iter().enumerate() {
            match step.event {
                ScenarioEvent::Partition { .. } | ScenarioEvent::GroupPartition { .. } => {
                    last_partition = last_partition.max(Some((step.at, i)))
                }
                ScenarioEvent::Heal => last_heal = last_heal.max(Some((step.at, i))),
                // Exhaustive on purpose: a new variant that splits the
                // network must register as a partition here.
                ScenarioEvent::Crash { .. }
                | ScenarioEvent::Recover { .. }
                | ScenarioEvent::SwitchSafety { .. }
                | ScenarioEvent::KillSequencer { .. }
                | ScenarioEvent::LossBurst { .. }
                | ScenarioEvent::DuplicationBurst { .. }
                | ScenarioEvent::ReorderBurst { .. }
                | ScenarioEvent::SlowDisk { .. }
                | ScenarioEvent::RestartGroup { .. }
                | ScenarioEvent::GroupCrash { .. }
                | ScenarioEvent::KillGroupSequencer { .. } => {}
            }
        }
        match (last_partition, last_heal) {
            (None, _) => true,
            (Some(p), Some(h)) => h > p,
            (Some(_), None) => false,
        }
    }

    /// True when the plan contains an operator restart.
    pub fn has_restart(&self) -> bool {
        self.steps
            .iter()
            .any(|s| matches!(s.event, ScenarioEvent::RestartGroup { .. }))
    }

    /// The last instant at which the plan still disturbs the system
    /// (crash strikes, recoveries, heals, burst/window ends).
    pub fn last_disturbance(&self) -> SimTime {
        let mut last = SimTime::ZERO;
        for step in &self.steps {
            let end = match &step.event {
                ScenarioEvent::Crash {
                    after,
                    recover_after,
                    ..
                } => step.at + *after + recover_after.unwrap_or(SimDuration::ZERO),
                ScenarioEvent::KillSequencer { recover_after }
                | ScenarioEvent::KillGroupSequencer { recover_after, .. }
                | ScenarioEvent::GroupCrash { recover_after, .. } => {
                    step.at + recover_after.unwrap_or(SimDuration::ZERO)
                }
                ScenarioEvent::LossBurst { duration, .. }
                | ScenarioEvent::DuplicationBurst { duration, .. }
                | ScenarioEvent::ReorderBurst { duration, .. } => step.at + *duration,
                // A slow-disk window keeps disturbing the system after it
                // ends: accesses queued at `factor`× service time form a
                // backlog that drains at roughly `factor × duration` wall
                // time (plus slack for recovery catch-up writes competing
                // for the same spindles).
                ScenarioEvent::SlowDisk {
                    duration, factor, ..
                } => {
                    step.at
                        + *duration * (factor.ceil().max(1.0) as u64)
                        + SimDuration::from_secs(1)
                }
                // Exhaustive on purpose: a new variant with an
                // after-effect window must extend the disturbance
                // horizon, or the oracle audits a still-moving system.
                ScenarioEvent::Recover { .. }
                | ScenarioEvent::SwitchSafety { .. }
                | ScenarioEvent::Partition { .. }
                | ScenarioEvent::Heal
                | ScenarioEvent::RestartGroup { .. }
                | ScenarioEvent::GroupPartition { .. } => step.at,
            };
            last = last.max(end);
        }
        last
    }

    /// A human-readable dump of the timeline (the reproduction recipe a
    /// failing fuzz seed prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for step in &self.steps {
            out.push_str(&format!(
                "  t={:>10.3}ms  {:?}\n",
                step.at.as_millis_f64(),
                step.event
            ));
        }
        if out.is_empty() {
            out.push_str("  (empty plan)\n");
        }
        out
    }
}

/// Operator-driven restart after a total failure in the dynamic model:
/// the listed (recovered) servers rejoin a fresh group, all adopting the
/// most advanced recovered state (all states are durable prefixes of the
/// same delivery history, so the maximum is their union).
pub fn reconcile_restart(system: &mut System, servers: &[u32]) {
    let now = system.engine.now();
    let (best, seq_base) = {
        let mut best = 0u32;
        let mut best_v = 0;
        for &i in servers {
            let v = system.server(i).db().max_version();
            if v >= best_v {
                best_v = v;
                best = i;
            }
        }
        (best, best_v)
    };
    let ckpt = system.server(best).db().checkpoint();
    let members: Vec<NodeId> = servers.iter().map(|&i| NodeId(i)).collect();
    for &i in servers {
        let actor = system.servers[i as usize];
        if i != best {
            let install = ServerEvent::InstallCheckpoint(Box::new(ckpt.clone()));
            system.engine.schedule_resilient(now, actor, install);
        }
        let restart = ServerEvent::Restart(Box::new(RestartServerCmd {
            members: members.clone(),
            seq_base,
        }));
        system.engine.schedule_resilient(now, actor, restart);
    }
}

// ---------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------

use groupsafe_db::TxnId;

use crate::verify::{Oracle, SiOutcome};

/// One invariant the run violated.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleViolation {
    /// An acknowledged transaction is missing from every live replica in
    /// a situation the claimed safety level forbids.
    UnexpectedLoss {
        /// The claimed level.
        level: SafetyLevel,
        /// The lost transaction.
        txn: TxnId,
        /// Its delegate.
        delegate: NodeId,
        /// Why the level forbids this loss.
        reason: &'static str,
    },
    /// Live replicas disagree on committed state after quiescence.
    Divergence {
        /// The distinct state digests observed.
        digests: Vec<u64>,
    },
    /// Never-crashed replicas processed different delivery sequences.
    OrderDivergence {
        /// `(server, order digest)` per audited replica.
        digests: Vec<(u32, u64)>,
    },
    /// A cross-group transaction was acknowledged but one of its touched
    /// groups holds no commit for it, in a situation the claimed level's
    /// per-group loss rules do not excuse (the all-or-nothing digest of
    /// the sharded system).
    AtomicityViolation {
        /// The half-committed transaction.
        txn: TxnId,
        /// The touched group missing its slice.
        group: u32,
        /// Every group the transaction touched.
        groups: Vec<u32>,
    },
    /// The read path violated one of its per-level freshness invariants
    /// (see [`crate::reads::audit_reads`]).
    Read(crate::reads::ReadViolation),
    /// Never-crashed replicas of one group reached different
    /// certification verdicts for the same delivery sequence — the
    /// determinism the snapshot-isolation pipeline (and the classic one)
    /// rests on.
    CertificationDivergence {
        /// The diverging group.
        group: u32,
        /// `(server, certification digest)` per audited replica.
        digests: Vec<(u32, u64)>,
    },
    /// Two committed snapshot-isolation transactions both wrote `item`
    /// although the second's snapshot predates the first's commit —
    /// first-committer-wins certification must have aborted one of them.
    SiLostUpdate {
        /// The first committer.
        first: TxnId,
        /// The transaction that should have been aborted.
        second: TxnId,
        /// The contended item.
        item: groupsafe_db::ItemId,
    },
    /// A snapshot-isolation transaction observed a version above its
    /// snapshot, or one no committed transaction ever wrote.
    SiDirtyRead {
        /// The reading transaction.
        txn: TxnId,
        /// The item read.
        item: groupsafe_db::ItemId,
        /// The version observed.
        version: u64,
    },
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleViolation::UnexpectedLoss {
                level,
                txn,
                delegate,
                reason,
            } => write!(
                f,
                "{level}: acknowledged {txn:?} (delegate {delegate:?}) lost — {reason}"
            ),
            OracleViolation::Divergence { digests } => {
                write!(
                    f,
                    "live replicas diverged: {} distinct states",
                    digests.len()
                )
            }
            OracleViolation::OrderDivergence { digests } => {
                write!(f, "survivors disagree on delivery order: {digests:?}")
            }
            OracleViolation::AtomicityViolation { txn, group, groups } => {
                write!(
                    f,
                    "cross-group {txn:?} (touched {groups:?}) acknowledged but group {group} \
                     holds no commit for it"
                )
            }
            OracleViolation::Read(v) => write!(f, "read path: {v}"),
            OracleViolation::CertificationDivergence { group, digests } => {
                write!(
                    f,
                    "group {group}: survivors disagree on certification verdicts: {digests:?}"
                )
            }
            OracleViolation::SiLostUpdate {
                first,
                second,
                item,
            } => {
                write!(
                    f,
                    "snapshot isolation lost update: {second:?} committed a write of {item:?} \
                     although its snapshot predates {first:?}'s commit"
                )
            }
            OracleViolation::SiDirtyRead { txn, item, version } => {
                write!(
                    f,
                    "snapshot transaction {txn:?} read {item:?} at version {version}, which its \
                     snapshot cannot contain"
                )
            }
        }
    }
}

/// The oracle's verdict over one finished scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioAudit {
    /// The claimed safety level the invariants were checked against.
    pub level: SafetyLevel,
    /// Violations found (empty = the run honoured the level).
    pub violations: Vec<OracleViolation>,
    /// Acknowledged transactions missing from every live replica.
    pub lost: usize,
    /// Whether the plan crashed a whole replica group at once (any group
    /// of a sharded system).
    pub group_failed: bool,
    /// Whether the convergence/order checks applied everywhere (every
    /// group quiesced: partitions healed, no loss bursts, disturbances
    /// settled, total failures repaired).
    pub quiescent: bool,
    /// Acknowledged cross-group transactions audited for all-or-nothing
    /// (0 for unsharded runs).
    pub cross_group_audited: usize,
    /// Locally served reads audited against the read-freshness
    /// invariants (0 when the local read path was off).
    pub reads_audited: usize,
    /// Snapshot-isolation transactions audited against the SI anomaly
    /// invariants (0 when the mix contained none).
    pub si_audited: usize,
}

impl ScenarioAudit {
    /// True when no invariant was violated.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// How long after the plan's last disturbance the oracle requires before
/// it trusts convergence checks.
const SETTLE: SimDuration = SimDuration::from_secs(2);

/// Check the paper's per-level invariants over a finished run.
///
/// `level` is the *claimed* safety level — normally the one the system
/// ran at; passing a stronger claim than the system honours is how the
/// negative tests prove the oracle catches violations.
pub fn audit_scenario(plan: &ScenarioPlan, system: &System, level: SafetyLevel) -> ScenarioAudit {
    let spg = system.servers_per_group.max(1);
    let n_groups = system.n_groups.max(1);
    // Whole-group failure, per group: the loss rules apply group by group
    // (one group of every server when unsharded).
    let group_failed_of: Vec<bool> = (0..n_groups)
        .map(|g| plan.group_failure_of(spg, n_groups, g))
        .collect();
    let group_failed = group_failed_of.iter().any(|&b| b);
    let lost = system.lost_transactions();
    let mut violations = Vec::new();

    for lt in &lost {
        let Some(delegate) = system
            .oracle
            .borrow()
            .commits
            .get(lt.txn)
            .map(|c| c.delegate())
        else {
            continue; // no commit record: check_no_loss never reports these
        };
        // The groups whose durability the transaction depended on: every
        // touched group of a cross-group commit, else its delegate's.
        let owning: Vec<u32> = system
            .oracle
            .borrow()
            .xg
            .get(&lt.txn)
            .map(|r| r.groups.clone())
            .unwrap_or_else(|| vec![delegate.0 / spg]);
        let owners_failed = owning
            .iter()
            .all(|&g| group_failed_of.get(g as usize).copied().unwrap_or(false));
        let delegate_crashed = system.server(delegate.0).crash_count() > 0;
        let delegate_dead = !system.engine.is_alive(system.servers[delegate.index()]);
        let allowed = match level {
            // Table 3: 0-safe may lose under any delivery fault.
            SafetyLevel::ZeroSafe => plan.any_delivery_fault(),
            // 1-safe loses exactly in delegate-crash windows: the
            // transaction must have been acknowledged at or before some
            // crash of its delegate (the un-propagated window). A crash
            // that fully precedes the acknowledgement explains nothing.
            // Runtime-targeted sequencer kills cannot be attributed
            // statically, so their presence falls back to the coarse
            // delegate-crashed check.
            SafetyLevel::OneSafe => {
                delegate_crashed
                    && (plan.has_kill_sequencer() || {
                        let ack_at = system.oracle.borrow().acked.get(lt.txn).map(|a| a.at);
                        ack_at.is_some_and(|at| {
                            plan.crash_strikes(delegate.0)
                                .iter()
                                .any(|&strike| at <= strike)
                        })
                    })
            }
            // Group-safe loses only if the whole owning group failed
            // (every touched group, for a cross-group commit).
            SafetyLevel::GroupSafe => owners_failed,
            // Group-1-safe additionally requires the delegate's log to
            // never return.
            SafetyLevel::GroupOneSafe => owners_failed && delegate_dead,
            // 2-safe and very-safe never lose.
            SafetyLevel::TwoSafe | SafetyLevel::VerySafe => false,
        };
        if !allowed {
            let reason = match level {
                SafetyLevel::ZeroSafe => "the plan injected no delivery fault",
                SafetyLevel::OneSafe => "no delegate-crash window covers it",
                SafetyLevel::GroupSafe => "a majority of its group survived the whole run",
                SafetyLevel::GroupOneSafe => {
                    if owners_failed {
                        "the delegate's log returned"
                    } else {
                        "a majority of its group survived the whole run"
                    }
                }
                SafetyLevel::TwoSafe | SafetyLevel::VerySafe => "this level never loses",
            };
            violations.push(OracleViolation::UnexpectedLoss {
                level,
                txn: lt.txn,
                delegate,
                reason,
            });
        }
    }

    // The cross-group atomicity digest: every acknowledged cross-group
    // transaction must be committed in *each* of its touched groups —
    // all-or-nothing — unless that group's own loss rules (or the
    // coordinator group's death before the decision could spread) excuse
    // the missing slice.
    let mut cross_group_audited = 0usize;
    {
        let oracle = system.oracle.borrow();
        for (txn, xg) in &oracle.xg {
            if !oracle.is_acked(*txn) {
                continue;
            }
            cross_group_audited += 1;
            for &g in &xg.groups {
                let states = system.replica_states_of(g);
                let committed = states
                    .iter()
                    .any(|(db, live)| *live && db.is_committed(*txn));
                if committed {
                    continue;
                }
                let any_live = states.iter().any(|(_, live)| *live);
                let g_failed = group_failed_of.get(g as usize).copied().unwrap_or(false);
                let coord_failed = group_failed_of
                    .get(xg.coordinator_group as usize)
                    .copied()
                    .unwrap_or(false);
                let allowed = !any_live // group unavailable, not provably lost
                    || match level {
                        SafetyLevel::ZeroSafe => plan.any_delivery_fault(),
                        SafetyLevel::OneSafe => true, // lazy never runs the protocol
                        SafetyLevel::GroupSafe | SafetyLevel::GroupOneSafe => {
                            g_failed || coord_failed
                        }
                        SafetyLevel::TwoSafe | SafetyLevel::VerySafe => false,
                    };
                if !allowed {
                    violations.push(OracleViolation::AtomicityViolation {
                        txn: *txn,
                        group: g,
                        groups: xg.groups.clone(),
                    });
                }
            }
        }
    }

    // Convergence applies once the plan quiesced: partitions healed, no
    // loss bursts (a lost multicast can gap a live view member until the
    // next view change), disturbances settled, and — for the view-based
    // levels — no unrepaired total failure. The lazy baseline replicates
    // remote writes unlogged, so any crash voids its convergence claim.
    // In a sharded system each group is judged on its own: a repaired or
    // untouched group is audited even while another is still down.
    let view_based = matches!(
        level,
        SafetyLevel::ZeroSafe | SafetyLevel::GroupSafe | SafetyLevel::GroupOneSafe
    );
    let base_quiet = plan.fully_healed()
        && !plan.uses_loss()
        && system.engine.now() >= plan.last_disturbance() + SETTLE
        // The weak levels promise nothing under delivery faults
        // (Table 2: they tolerate zero crashes): a 0-safe minority view
        // legitimately diverges during a partition, and the lazy
        // baseline's fire-and-forget propagation has no retransmission,
        // so writes dropped by any fault stay missing.
        && (!matches!(level, SafetyLevel::ZeroSafe | SafetyLevel::OneSafe)
            || !plan.any_delivery_fault());

    let mut quiescent_groups = 0u32;
    for g in 0..n_groups {
        let g_failed = group_failed_of.get(g as usize).copied().unwrap_or(false);
        // Not `has_restart_of` for one group: the two part on a
        // `RestartGroup` that leaves a crashed member out, which is what
        // `CrashScenario`'s stay-down shapes produce, and the single-group
        // audit takes any operator restart for the repair.
        let repaired = if n_groups > 1 {
            plan.has_restart_of(spg, g)
        } else {
            plan.has_restart()
        };
        let group_quiet = base_quiet && (!g_failed || !view_based || repaired);
        if !group_quiet {
            continue;
        }
        quiescent_groups += 1;
        let digests = crate::verify::check_convergence(&system.replica_states_of(g));
        if digests.len() > 1 {
            violations.push(OracleViolation::Divergence { digests });
        }
        // Total order: replicas that never crashed and never installed a
        // peer checkpoint processed every delivery themselves — their
        // decision digests must agree (per group: different groups order
        // different histories by design).
        let members = system.group_server_indices(g);
        let mut order: Vec<(u32, u64)> = members
            .iter()
            .copied()
            .filter(|&i| {
                let s = system.server(i);
                s.crash_count() == 0 && s.transfer_count() == 0
            })
            .map(|i| (i, system.server(i).order_digest()))
            .collect();
        order.dedup_by_key(|(_, d)| *d);
        if order.len() > 1 {
            violations.push(OracleViolation::OrderDivergence { digests: order });
        }
        // Certification determinism: the same replicas must also agree
        // on every verdict (commit vs abort, classic and snapshot alike)
        // — the digest folds the verdict and the shipped snapshot per
        // delivery.
        let mut cert: Vec<(u32, u64)> = members
            .into_iter()
            .filter(|&i| {
                let s = system.server(i);
                s.crash_count() == 0 && s.transfer_count() == 0
            })
            .map(|i| (i, system.server(i).cert_digest()))
            .collect();
        cert.dedup_by_key(|(_, d)| *d);
        if cert.len() > 1 {
            violations.push(OracleViolation::CertificationDivergence {
                group: g,
                digests: cert,
            });
        }
    }
    let quiescent = quiescent_groups == n_groups;

    // The read-freshness audit: every locally served read must honour
    // its level's invariants (session floors and monotonicity, stable
    // reads at or below the watermark and never observing a value the
    // loss audit later declared lost — the whole-group-failure window
    // the level itself excuses excepted).
    let reads_audited = {
        let oracle = system.oracle.borrow();
        let read_violations = crate::reads::audit_reads(&oracle, &lost, &|g| {
            group_failed_of.get(g as usize).copied().unwrap_or(false)
        });
        violations.extend(read_violations.into_iter().map(OracleViolation::Read));
        oracle.reads.tally().served
    };

    // The SI anomaly audits over the delegates' certification records:
    // first-committer-wins (two committed snapshot transactions must not
    // both win an item across a stale-snapshot interval) and snapshot
    // containment (a snapshot read never observes a version above its
    // snapshot, nor one no committed transaction wrote). Delivery
    // sequence numbers anchor both checks, so they are skipped where the
    // numbering itself is suspect: groups that wholly failed (a restart
    // from a survivor's log can reuse a lost suffix's sequence numbers)
    // and the weak levels under delivery faults (0-safe minority views
    // deliver divergent sequences by design).
    let si_trustworthy = !matches!(level, SafetyLevel::ZeroSafe | SafetyLevel::OneSafe)
        || !plan.any_delivery_fault();
    let si_audited = {
        let oracle = system.oracle.borrow();
        let audited_here = |rec: &SiOutcome| {
            si_trustworthy
                && !group_failed_of
                    .get(rec.group as usize)
                    .copied()
                    .unwrap_or(false)
        };
        violations.extend(si_dirty_reads(&oracle, &audited_here));
        let mut audited = 0usize;
        type SiEntry = (u64, u64, TxnId);
        let mut by_item: std::collections::BTreeMap<(u32, groupsafe_db::ItemId), Vec<SiEntry>> =
            std::collections::BTreeMap::new();
        for rec in oracle.si_txns.iter() {
            if !audited_here(&rec) {
                continue;
            }
            audited += 1;
            if rec.committed {
                for item in rec.writes() {
                    by_item.entry((rec.group, item)).or_default().push((
                        rec.commit_seq,
                        rec.snapshot,
                        rec.txn,
                    ));
                }
            }
        }
        for ((_, item), entries) in &mut by_item {
            entries.sort_unstable();
            for i in 0..entries.len() {
                for j in i + 1..entries.len() {
                    let (first_commit, _, first) = entries[i];
                    let (_, second_snapshot, second) = entries[j];
                    if first != second && second_snapshot < first_commit {
                        violations.push(OracleViolation::SiLostUpdate {
                            first,
                            second,
                            item: *item,
                        });
                    }
                }
            }
        }
        audited
    };

    ScenarioAudit {
        level,
        violations,
        lost: lost.len(),
        group_failed,
        quiescent,
        cross_group_audited,
        reads_audited,
        si_audited,
    }
}

/// The snapshot-containment rule over the SI outcomes `audited` accepts,
/// in delivery order and readset order: a snapshot read never observes a
/// version above its snapshot, nor a version other than 0 (the initial
/// state) that no committed transaction wrote. Only the second half needs
/// the commit log, and only for the versions audited reads observed at
/// or below their snapshot, so those are collected and sorted, the ones
/// some commit wrote are struck out, and whatever is left is what no
/// commit wrote; with no such version, no commit is read.
fn si_dirty_reads(oracle: &Oracle, audited: &dyn Fn(&SiOutcome) -> bool) -> Vec<OracleViolation> {
    let contained = || {
        let audited = oracle.si_txns.iter().filter(|rec| audited(rec));
        audited.flat_map(|rec| {
            let snapshot = rec.snapshot;
            rec.readset().filter(move |&(_, v)| v != 0 && v <= snapshot)
        })
    };
    let mut unwritten = Vec::with_capacity(contained().count());
    unwritten.extend(contained());
    unwritten.sort_unstable();
    unwritten.dedup();
    if !unwritten.is_empty() {
        let mut written = vec![false; unwritten.len()];
        for rec in oracle.commits.values() {
            for w in rec.writes() {
                if let Ok(i) = unwritten.binary_search(&w) {
                    if let Some(hit) = written.get_mut(i) {
                        *hit = true;
                    }
                }
            }
        }
        let mut struck = written.into_iter();
        unwritten.retain(|_| !struck.next().unwrap_or(false));
    }
    let mut violations = Vec::new();
    for rec in oracle.si_txns.iter().filter(|rec| audited(rec)) {
        for (item, v) in rec.readset() {
            if v > rec.snapshot || (v != 0 && unwritten.binary_search(&(item, v)).is_ok()) {
                violations.push(OracleViolation::SiDirtyRead {
                    txn: rec.txn,
                    item,
                    version: v,
                });
            }
        }
    }
    violations
}

// ---------------------------------------------------------------------
// Fuzzer
// ---------------------------------------------------------------------

/// Seeded random-scenario fuzzing: generate a plan, run it, audit it.
pub mod fuzz {
    use super::*;
    use crate::builder::{Load, SystemBuilder};
    use crate::reads::ReadPath;

    /// Fault events a plan draws at most.
    const MAX_EVENTS: usize = 3;

    /// The CI smoke envelope: 5 servers × 2 clients at a moderate
    /// open-loop load, 6 s of measurement and 3 s of drain.
    pub fn smoke(level: SafetyLevel) -> SystemBuilder {
        System::builder()
            .servers(5)
            .clients_per_server(2)
            .safety(level)
            .load(Load::open_tps(25.0))
            .measure(SimDuration::from_secs(6))
            .drain(SimDuration::from_secs(3))
    }

    /// The sharded envelope: `groups` groups of 3 servers × 2 clients
    /// each, 10 % cross-group transactions, group-targeted faults
    /// (crash / partition / sequencer kill scoped to one group,
    /// occasional whole-group failure with an operator restart). The
    /// offered load matches the smoke envelope's ~5 tps per server —
    /// above it, the logging levels' per-entry disk costs put the retry
    /// churn of a fault window past the saturation knee, and the run
    /// never quiesces within the audit's drain budget.
    pub fn sharded(level: SafetyLevel, groups: u32) -> SystemBuilder {
        // The lazy baseline (1-safe) and very-safe cannot commit
        // across groups (the builder rejects the combination), so
        // their sharded envelopes run independent groups without
        // cross traffic.
        let cross_fraction = match level {
            SafetyLevel::OneSafe | SafetyLevel::VerySafe => 0.0,
            SafetyLevel::ZeroSafe
            | SafetyLevel::GroupSafe
            | SafetyLevel::GroupOneSafe
            | SafetyLevel::TwoSafe => 0.1,
        };
        System::builder()
            .servers(3)
            .clients_per_server(2)
            .safety(level)
            .shards(groups)
            .cross_shard_fraction(cross_fraction)
            .load(Load::open_tps(15.0 * groups as f64))
            .measure(SimDuration::from_secs(6))
            .drain(SimDuration::from_secs(3))
    }

    /// The paths beyond the classic pipeline an envelope exists to
    /// exercise: a fuzz row whose runs never took one of them did not
    /// test what it is for.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Paths {
        /// More than one replica group: whole-group failures.
        pub sharded: bool,
        /// Read-only transactions served by the local read path.
        pub local_reads: bool,
        /// Update transactions under snapshot isolation.
        pub snapshots: bool,
        /// Sequencer batching (`max_msgs > 1`): ordered frames of more
        /// than one entry.
        pub batched: bool,
    }

    /// The [`Paths`] `envelope` exercises.
    pub fn paths(envelope: &SystemBuilder) -> Paths {
        Paths {
            sharded: envelope.shard.groups > 1,
            local_reads: matches!(envelope.replica.reads, ReadPath::Local(_)),
            snapshots: envelope.workload.txn_fraction > 0.0,
            batched: envelope.replica.batch.max_msgs > 1,
        }
    }

    /// The outcome of one fuzz case.
    #[derive(Debug, Clone)]
    pub struct FuzzOutcome {
        /// The generating seed.
        pub seed: u64,
        /// The plan it produced.
        pub plan: ScenarioPlan,
        /// The oracle's verdict.
        pub audit: ScenarioAudit,
        /// Client-acknowledged commits over the whole run.
        pub commits: usize,
        /// Ordered frames of two or more entries the sequencers flushed
        /// (an unbatched run flushes frames of one only).
        pub batched_frames: u64,
        /// The engine's dispatch fingerprint (replay witness).
        pub fingerprint: u64,
        /// The flight recorder's tail at the end of the run: the last
        /// ring of structured pipeline events, rendered one per line
        /// (empty when observability was disabled). Recording never
        /// touches the fingerprint, so a repro replays identically with
        /// or without it.
        pub flight: String,
    }

    impl FuzzOutcome {
        /// True when the oracle found nothing.
        pub fn ok(&self) -> bool {
            self.audit.clean()
        }

        /// The loud failure report: seed, plan dump, violations, and the
        /// flight recorder's tail — the last structured pipeline events
        /// before the audit, so a violation dump carries the pipeline's
        /// final moments alongside the replay seed.
        pub fn describe(&self) -> String {
            let mut out = format!(
                "seed {} ({}, {} commits, lost {}, fingerprint {:#018x})\nplan:\n{}",
                self.seed,
                self.audit.level,
                self.commits,
                self.audit.lost,
                self.fingerprint,
                self.plan.render()
            );
            for v in &self.audit.violations {
                out.push_str(&format!("  VIOLATION: {v}\n"));
            }
            if !self.flight.is_empty() {
                out.push_str("flight recorder tail:\n");
                for line in self.flight.lines() {
                    out.push_str("  ");
                    out.push_str(line);
                    out.push('\n');
                }
            }
            out
        }
    }

    /// Derive a random scenario plan from `seed` for the system
    /// `envelope` configures: its level, servers per group, group count
    /// and measurement window shape the faults. Deterministic: same
    /// seed, same plan. Sharded envelopes (more than one group) draw
    /// from the group-targeted palette; the single-group path is
    /// unchanged, so historical seeds replay identically.
    pub fn generate_plan(seed: u64, envelope: &SystemBuilder) -> ScenarioPlan {
        if envelope.shard.groups > 1 {
            return generate_sharded_plan(seed, envelope);
        }
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = envelope.n_servers;
        let view_based = matches!(
            envelope.level(),
            SafetyLevel::ZeroSafe | SafetyLevel::GroupSafe | SafetyLevel::GroupOneSafe
        );
        // Faults land in [500 ms, measure/2 + 500 ms]; every event is
        // over at most ~1.5 s later, leaving the rest of the window plus
        // the drain to quiesce (the oracle's settle margin is 2 s).
        let window_start = 500u64;
        let window_end =
            (window_start + envelope.measure.as_nanos() / 2_000_000).max(window_start + 1);
        fn at_ms(rng: &mut StdRng, start: u64, end: u64) -> SimTime {
            SimTime::from_millis(rng.random_range(start..=end))
        }

        let n_events = rng.random_range(1..=MAX_EVENTS);
        // Loss-only plans: under message loss the no-loss invariant is
        // only airtight while nothing crashes (with no crash, every
        // delivered copy lives on a live replica), so a plan draws either
        // from the crash palette or the loss one.
        let loss_plan = rng.random_range(0..5) == 0;
        let mut plan = ScenarioPlan::new();
        // Cap concurrent crash victims: view-based groups must keep a
        // majority to stay live, static (crash-recovery) groups tolerate
        // everyone going down at once.
        let max_down = if view_based { (n - 1) / 2 } else { n };
        let mut down_budget = max_down;
        // Overlapping same-type bursts would truncate each other (the
        // first window's end hook restores the baseline while the second
        // still runs), so the executed faults would silently diverge
        // from the plan dump. Track a busy-until horizon per type and
        // skip draws that would overlap.
        let mut busy_until = [SimTime::ZERO; 4]; // loss, dup, reorder, slow-disk
        let claim = |slot: &mut SimTime, at: SimTime, d: SimDuration| -> bool {
            if at < *slot {
                return false;
            }
            *slot = at + d;
            true
        };

        for _ in 0..n_events {
            let at = at_ms(&mut rng, window_start, window_end);
            let kind = if loss_plan {
                rng.random_range(0..4)
            } else {
                4 + rng.random_range(0..5)
            };
            match kind {
                // ---- loss palette (crash-free) ----
                0 | 1 => {
                    let p = rng.random_range(0.01..0.08);
                    let d = SimDuration::from_millis(rng.random_range(300..1_200));
                    if claim(&mut busy_until[0], at, d) {
                        plan = plan.loss_burst(at, p, d);
                    }
                }
                2 => {
                    let p = rng.random_range(0.05..0.3);
                    let d = SimDuration::from_millis(rng.random_range(300..1_500));
                    if claim(&mut busy_until[1], at, d) {
                        plan = plan.duplication_burst(at, p, d);
                    }
                }
                3 => {
                    let hold = SimDuration::from_millis(rng.random_range(300..1_200));
                    let k = rng.random_range(1..=((n - 1) / 2).max(1));
                    let minority = sample_servers(&mut rng, n, k);
                    plan = plan.partition(at, vec![minority]).heal(at + hold);
                }
                // ---- crash palette ----
                4 => {
                    let k = rng.random_range(1..=down_budget.max(1)).min(down_budget);
                    if k == 0 {
                        continue;
                    }
                    down_budget -= k;
                    let downtime = SimDuration::from_millis(rng.random_range(300..=900));
                    for server in sample_servers(&mut rng, n, k) {
                        plan = plan.crash_for(at, server, downtime);
                    }
                }
                5 => {
                    if down_budget == 0 {
                        continue;
                    }
                    down_budget -= 1;
                    let downtime = SimDuration::from_millis(rng.random_range(300..=900));
                    plan = plan.kill_sequencer(at, Some(downtime));
                }
                6 => {
                    let hold = SimDuration::from_millis(rng.random_range(300..1_200));
                    let k = rng.random_range(1..=((n - 1) / 2).max(1));
                    let minority = sample_servers(&mut rng, n, k);
                    plan = plan.partition(at, vec![minority]).heal(at + hold);
                }
                7 => {
                    let p = rng.random_range(0.05..0.3);
                    let d = SimDuration::from_millis(rng.random_range(300..1_500));
                    if claim(&mut busy_until[1], at, d) {
                        plan = plan.duplication_burst(at, p, d);
                    }
                }
                _ => {
                    let p = rng.random_range(0.05..0.3);
                    let window = SimDuration::from_micros(rng.random_range(50..1_000));
                    let d = SimDuration::from_millis(rng.random_range(300..1_500));
                    if claim(&mut busy_until[2], at, d) {
                        plan = plan.reorder_burst(at, p, window, d);
                    }
                }
            }
            // An occasional slow-disk window rides along with anything.
            if rng.random_range(0..4) == 0 {
                let k = rng.random_range(1..=n.div_ceil(2));
                let servers = sample_servers(&mut rng, n, k);
                let factor = rng.random_range(2.0..5.0);
                let d = SimDuration::from_millis(rng.random_range(300..900));
                let slow_at = at_ms(&mut rng, window_start, window_end);
                if claim(&mut busy_until[3], slow_at, d) {
                    plan = plan.slow_disk(slow_at, servers, factor, d);
                }
            }
        }
        plan
    }

    /// The sharded generator: every fault is scoped to one group —
    /// member crashes bounded by the group's majority, group-targeted
    /// sequencer kills, intra-group minority partitions, loss/dup/reorder
    /// bursts, and (in one plan out of four) a *whole-group failure*
    /// followed by the operator restart the view-based levels require.
    fn generate_sharded_plan(seed: u64, envelope: &SystemBuilder) -> ScenarioPlan {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5A5A);
        let spg = envelope.n_servers;
        let n_groups = envelope.shard.groups;
        let view_based = matches!(
            envelope.level(),
            SafetyLevel::ZeroSafe | SafetyLevel::GroupSafe | SafetyLevel::GroupOneSafe
        );
        let window_start = 500u64;
        let window_end =
            (window_start + envelope.measure.as_nanos() / 2_000_000).max(window_start + 1);
        let at_ms =
            |rng: &mut StdRng| SimTime::from_millis(rng.random_range(window_start..=window_end));

        let mut plan = ScenarioPlan::new();
        // One plan in four stages a whole-group failure; the remaining
        // events draw from the partial-fault palette. In the dynamic
        // (view-based) model the operator must repair the dead group
        // (reconcile + fresh group); the static crash-recovery model
        // recovers by stable-log redelivery on its own.
        if rng.random_range(0..4) == 0 {
            let g = rng.random_range(0..n_groups);
            let at = SimTime::from_millis(rng.random_range(window_start..=window_start + 500));
            let downtime = SimDuration::from_millis(rng.random_range(400..=800));
            plan = plan.crash_whole_group(at, g, Some(downtime));
            if view_based {
                let members: Vec<u32> = (g * spg..(g + 1) * spg).collect();
                plan = plan.restart_group(at + downtime + SimDuration::from_millis(300), members);
            }
        }
        // Per-group budget of concurrent member crashes: view-based
        // groups must keep their majority to stay live.
        let mut down_budget: Vec<u32> = (0..n_groups)
            .map(|_| if view_based { (spg - 1) / 2 } else { spg })
            .collect();
        let n_events = rng.random_range(1..=MAX_EVENTS);
        let loss_plan = plan.is_empty() && rng.random_range(0..5) == 0;
        // Overlapping windows of the same type would corrupt each other
        // (a later `partition` recolours the whole network, implicitly
        // healing the earlier one; a burst's end hook restores the
        // baseline under a still-running second burst), so the executed
        // faults would silently diverge from the plan dump. One busy
        // horizon per type; draws that would overlap are skipped.
        let mut busy_until = [SimTime::ZERO; 4]; // loss, dup, reorder, partition
        let claim = |slot: &mut SimTime, at: SimTime, d: SimDuration| -> bool {
            if at < *slot {
                return false;
            }
            *slot = at + d;
            true
        };
        for _ in 0..n_events {
            let at = at_ms(&mut rng);
            let g = rng.random_range(0..n_groups);
            let kind = if loss_plan {
                rng.random_range(0..3)
            } else {
                3 + rng.random_range(0..4)
            };
            match kind {
                // ---- loss palette (crash-free) ----
                0 => {
                    let p = rng.random_range(0.01..0.08);
                    let d = SimDuration::from_millis(rng.random_range(300..1_200));
                    if claim(&mut busy_until[0], at, d) {
                        plan = plan.loss_burst(at, p, d);
                    }
                }
                1 => {
                    let p = rng.random_range(0.05..0.3);
                    let d = SimDuration::from_millis(rng.random_range(300..1_500));
                    if claim(&mut busy_until[1], at, d) {
                        plan = plan.duplication_burst(at, p, d);
                    }
                }
                2 => {
                    let p = rng.random_range(0.05..0.3);
                    let window = SimDuration::from_micros(rng.random_range(50..1_000));
                    let d = SimDuration::from_millis(rng.random_range(300..1_500));
                    if claim(&mut busy_until[2], at, d) {
                        plan = plan.reorder_burst(at, p, window, d);
                    }
                }
                // ---- group-targeted crash palette ----
                3 => {
                    let budget = down_budget[g as usize];
                    if budget == 0 {
                        continue;
                    }
                    let k = rng.random_range(1..=budget);
                    down_budget[g as usize] -= k;
                    let downtime = SimDuration::from_millis(rng.random_range(300..=900));
                    for rank in sample_servers(&mut rng, spg, k) {
                        plan = plan.crash_for(at, g * spg + rank, downtime);
                    }
                }
                4 => {
                    if down_budget[g as usize] == 0 {
                        continue;
                    }
                    down_budget[g as usize] -= 1;
                    let downtime = SimDuration::from_millis(rng.random_range(300..=900));
                    plan = plan.kill_sequencer_in(at, g, Some(downtime));
                }
                5 => {
                    let hold = SimDuration::from_millis(rng.random_range(300..1_200));
                    let k = rng.random_range(1..=((spg - 1) / 2).max(1));
                    let ranks = sample_servers(&mut rng, spg, k);
                    if claim(&mut busy_until[3], at, hold) {
                        plan = plan.partition_group(at, g, ranks).heal(at + hold);
                    }
                }
                _ => {
                    let p = rng.random_range(0.05..0.3);
                    let d = SimDuration::from_millis(rng.random_range(300..1_500));
                    if claim(&mut busy_until[1], at, d) {
                        plan = plan.duplication_burst(at, p, d);
                    }
                }
            }
        }
        plan
    }

    fn sample_servers(rng: &mut StdRng, n: u32, k: u32) -> Vec<u32> {
        let mut pool: Vec<u32> = (0..n).collect();
        let mut out = Vec::with_capacity(k as usize);
        for _ in 0..k.min(n) {
            let i = rng.random_range(0..pool.len());
            out.push(pool.swap_remove(i));
        }
        out
    }

    /// Generate, run and audit one fuzz case: `envelope` at seed
    /// `seed ^ 0x5EED_CAFE` under the plan [`generate_plan`] draws from
    /// `seed`.
    pub fn run_fuzz_case(seed: u64, envelope: SystemBuilder) -> FuzzOutcome {
        let plan = generate_plan(seed, &envelope);
        let (level, drain) = (envelope.level(), envelope.drain);
        #[expect(
            clippy::expect_used,
            reason = "fuzz harness: the plan generator draws parameters from ranges the builder accepts by construction, so a rejection is a generator bug or an envelope the caller got wrong (a fraction outside [0, 1], which the builder's `BadProbability` names; local reads at 1-safe, its `UnsupportedReads`); the fuzzer must fail loudly on both"
        )]
        let mut run = envelope
            .seed(seed ^ 0x5EED_CAFE)
            .scenario(plan.clone())
            .build()
            .expect("a fuzz envelope and its generated scenario denote a valid system");
        let end = run.measure_end();
        run.run_until(end);
        run.stop_clients_at(end);
        run.run_until(end + drain);
        // Convergence is an *eventually* property: a replica that spent a
        // fault window accumulating disk backlog (slow-disk, recovery
        // catch-up, a logging level's per-entry stable writes) may still
        // be draining it at the nominal end of the run. Extend the drain
        // in bounded steps while live replicas still disagree — the
        // oracle then audits a quiesced system, and a genuinely diverged
        // run stops making progress and fails all the same.
        let mut extra = end + drain;
        let cap = extra + SimDuration::from_secs(30);
        while (run.system().convergence().len() > 1
            || run.system().delivery_backlog() > 0
            || run.system().xg_unresolved() > 0)
            && extra < cap
        {
            extra += SimDuration::from_secs(1);
            run.run_until(extra);
        }
        let system = run.into_system();
        let audit = audit_scenario(&plan, &system, level);
        let commits = system.oracle.borrow().acked_count();
        let (_, batch_hist) = system.gcs_stats();
        let batched_frames = batch_hist
            .iter()
            .filter(|&&(size, _)| size >= 2)
            .map(|&(_, count)| count)
            .sum();
        let flight = system.engine.obs().render_tail();
        FuzzOutcome {
            seed,
            plan,
            audit,
            commits,
            batched_frames,
            fingerprint: system.engine.fingerprint(),
            flight,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use groupsafe_db::{ItemId, WriteOp};
    use groupsafe_net::NodeId;
    use proptest::prelude::*;

    use super::*;
    use crate::verify::SiRecord;

    /// The snapshot-containment rule before it collected what the
    /// audited reads observed: a set of every committed write, then each
    /// audited read looked up in it.
    fn dirty_reads_by_set_of_every_write(
        oracle: &Oracle,
        audited: &dyn Fn(&SiOutcome) -> bool,
    ) -> Vec<OracleViolation> {
        let mut committed_versions: BTreeSet<(ItemId, u64)> = BTreeSet::new();
        for rec in oracle.commits.values() {
            committed_versions.extend(rec.writes());
        }
        let mut violations = Vec::new();
        for rec in oracle.si_txns.iter() {
            if !audited(&rec) {
                continue;
            }
            for (item, v) in rec.readset() {
                if v > rec.snapshot || (v != 0 && !committed_versions.contains(&(item, v))) {
                    violations.push(OracleViolation::SiDirtyRead {
                        txn: rec.txn,
                        item,
                        version: v,
                    });
                }
            }
        }
        violations
    }

    proptest! {
        /// Collecting the audited reads' versions and striking out the
        /// written ones finds the violations the set of every write
        /// found, in the same order: over versions 0, versions above the
        /// snapshot, versions written by a whole commit or a later
        /// cross-group slice, versions nobody wrote, groups left out of
        /// the audit, and no commits or no SI outcomes at all.
        #[test]
        fn si_dirty_reads_match_the_set_of_every_write(
            commits in proptest::collection::vec(
                (proptest::collection::vec((0u32..6, 1u64..12), 0..4), any::<bool>()),
                0..20,
            ),
            outcomes in proptest::collection::vec(
                (0u32..3, 0u64..12, proptest::collection::vec((0u32..6, 0u64..14), 0..5)),
                0..20,
            ),
            failed in proptest::collection::vec(any::<bool>(), 3..4),
        ) {
            let mut o = Oracle::default();
            for (n, (writes, sliced)) in commits.into_iter().enumerate() {
                let txn = TxnId { client: 1, seq: n as u64 };
                let writes: Vec<WriteOp> = writes
                    .into_iter()
                    .map(|(item, version)| WriteOp { item: ItemId(item), value: 1, version })
                    .collect();
                let (first, second) = writes.split_at(writes.len() / 2);
                if sliced {
                    o.record_commit(txn, NodeId(0), &[], first);
                    o.record_commit_slice(txn, NodeId(3), second);
                } else {
                    o.record_commit(txn, NodeId(0), &[], &writes);
                }
            }
            for (n, (group, snapshot, readset)) in outcomes.into_iter().enumerate() {
                o.record_si(SiRecord {
                    txn: TxnId { client: 2, seq: n as u64 },
                    group,
                    snapshot,
                    readset: readset.into_iter().map(|(i, v)| (ItemId(i), v)).collect(),
                    writes: Vec::new(),
                    committed: n % 2 == 0,
                    commit_seq: 0,
                });
            }
            let audited = |rec: &SiOutcome| !failed.get(rec.group as usize).copied().unwrap_or(false);
            prop_assert_eq!(
                si_dirty_reads(&o, &audited),
                dirty_reads_by_set_of_every_write(&o, &audited)
            );
        }
    }
}
