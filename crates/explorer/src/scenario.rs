//! Scenario factories: the systems a fault plan perturbs, and the
//! oracles that judge each run.
//!
//! The catalog covers the workspace's three model layers with sixteen
//! scenarios in six families:
//!
//! * **heartbeat family** — the timed model: heartbeaters, plan-driven
//!   [`FaultChannel`]s, monitors, and (optionally) scripted crashes.
//!   Variants add a crash ([`ScenarioKind::HeartbeatCrash`]), a
//!   crash-recovery seam replayed through `Engine::checkpoint`/`restore`
//!   ([`ScenarioKind::HeartbeatRestart`], Lemma 2.1 as an executable
//!   test), an intermittently slow gray channel
//!   ([`ScenarioKind::HeartbeatGray`]), a symmetric two-way pair
//!   ([`ScenarioKind::HeartbeatBidi`]), a three-node relay line
//!   ([`ScenarioKind::Relay`]), and a partitioned four-node topology
//!   ([`ScenarioKind::Partition`]). Oracles: the `[d₁, d₂]` delivery
//!   envelope, per-edge FIFO order, per-pair failure-detector accuracy
//!   and completeness (hop-aware detection bounds), and Lemma 2.1
//!   replays of every component.
//! * **clockfleet family** — the clock model in isolation: `n` clock
//!   nodes with plan-scripted clocks driving periodic clock-time
//!   beepers. Oracles: `C_ε` on every recorded reading, per-node clock
//!   monotonicity and exact clock-time cadence, and Lemma 2.1 clock
//!   replays.
//! * **mutex family** — the paper's time-division mutual exclusion
//!   (Section 7's design techniques, `SlotUser` under `C(A, ε)`): slot
//!   users with `guard = ε` edges, transformed to clock time. Oracles:
//!   interval-based mutual exclusion, per-node liveness (every round
//!   entered), `C_ε`, and clock replays of each slot user.
//! * **register family** — the full `D_C` assembly of Section 6
//!   (Algorithm S through Simulation 1) in two- and three-node flavors.
//!   Oracles: linearizability (the same [`LinearizableRegister`] problem
//!   the conformance sweeps use), `C_ε`, liveness, and a workload
//!   replay.
//! * **counter** — the generalized-object extension: `AlgorithmSObj`
//!   over the [`Counter`] spec under a seeded object workload, judged by
//!   [`ObjectLinearizableOracle`].
//! * **sync family** — clock synchronization that *achieves* ε̂:
//!   drifting clock nodes running `psync-sync`'s probe/echo components
//!   over faultable `[d₁, d₂]` channels, certifying a measured bound
//!   each round. [`ScenarioKind::SyncRounds`] is the fault-resistant
//!   configuration (drops and duplicates in scope, crashed/gray peers
//!   aged out by grace). Oracles: the ε̂-parameterized `C_ε`
//!   ([`psync_sync::EpsHatOracle`] — certificate soundness against the
//!   recorded clock readings *and* achievement of the
//!   [`predicted_eps_hat`] bound), the
//!   constant-ε `C_ε` probe, and Lemma 2.1 clock replays of every sync
//!   component. The per-edge FIFO oracle is deliberately absent: a
//!   node legitimately hands several same-instant sends (probe bursts,
//!   held echoes) to independently delayed channels.
//!
//! Every factory is a pure function of `(config, plan, seed)` — the
//! entire contents of a replay artifact — which is what makes replays
//! bit-identical. Planted-bug canaries ([`CanaryKind`]) mutate one
//! factory knob each; the config carries the tag so artifacts of caught
//! canaries replay the mutant faithfully.

use core::cell::Cell;
use std::rc::Rc;

use psync_apps::heartbeat::{FdAction, FdOp, FdParams, Heartbeat, Heartbeater, Monitor};
use psync_apps::mutex::{MutexAction, MutexOp, SlotUser};
use psync_automata::toys::{BeepAction, ClockBeeper};
use psync_automata::{Action, ActionKind, Execution, TimedComponent, Verdict};
use psync_core::{app_trace, build_dc, ClockSim, NodeSpec};
use psync_executor::{ClockNode, DriftClock, Engine, OffsetClock, Run, StopReason};
use psync_net::{
    Envelope, FaultChannel, FaultStats, MaxDelay, MsgId, NodeId, Script, SysAction, Topology,
};
use psync_obs::{check_all_sharded, CEpsOracle, MetricsHub, MetricsSnapshot, OnlineJudge};
use psync_register::object::Counter;
use psync_register::{
    AlgorithmS, AlgorithmSObj, ClosedLoopWorkload, ObjAction, ObjWorkload, RegAction,
    RegisterParams, Value,
};
use psync_sync::{
    drift_rates, predicted_eps_hat, rho_max, EpsHatOracle, MeasuredEps, ProbeSync, RoundSync,
    SyncAction, SyncMsg, SyncOp, SyncParams,
};
use psync_time::{DelayBounds, Duration, Time};
use psync_verify::replay::{replay_clock, replay_timed};
use psync_verify::{
    check_fifo_per_edge, FnOracle, LinearizableRegister, ObjectLinearizableOracle, Oracle,
    ProblemOracle,
};

use crate::canary::CanaryKind;
use crate::faults::{
    scripted_clock_for, seq_of, BiasedScheduler, PlanChannelFault, PlanDelayPolicy,
};
use crate::json::Json;
use crate::plan::{at_ns, ns, FaultEntry, FaultEnvelope, FaultPlan};

/// Which system a case runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Timed-model failure detector over a faultable channel.
    Heartbeat,
    /// Heartbeat with a scripted crash of the monitored node.
    HeartbeatCrash,
    /// Heartbeat with a crash *and* a checkpoint/restore seam: the run is
    /// paused mid-flight, snapshotted, restored into a fresh engine, and
    /// driven to the horizon — the oracles must hold across the seam
    /// (Lemma 2.1 as a crash-recovery test).
    HeartbeatRestart,
    /// Heartbeat over a gray channel: periodically, sends are pinned to
    /// the worst admissible delay `d₂`.
    HeartbeatGray,
    /// Two nodes monitoring each other over two independent channels.
    HeartbeatBidi,
    /// Three-node line: heartbeats are forwarded by a deduplicating relay
    /// and monitored two hops downstream.
    Relay,
    /// Four nodes in two disjoint pairs; one pair's beater crashes.
    Partition,
    /// Clock-model beeper fleet with scripted clocks.
    ClockFleet,
    /// A larger, faster, more skewed beeper fleet.
    ClockFleetLarge,
    /// Time-division mutual exclusion (`SlotUser` under `C(A, ε)`).
    Mutex,
    /// Mutual exclusion with more nodes and tighter slots.
    MutexContended,
    /// Algorithm S in `D_C` (Section 6) under plan adversaries.
    Register,
    /// Algorithm S with three nodes.
    RegisterTriple,
    /// The generalized-object counter (`AlgorithmSObj<Counter>`).
    Counter,
    /// Probe/echo clock synchronization certifying the achieved ε̂
    /// ([`psync_sync::ProbeSync`] on drifting clocks).
    SyncProbe,
    /// Fault-resistant round-based sync ([`psync_sync::RoundSync`]):
    /// more nodes, drops and duplicates in scope, grace budgeted for
    /// the drop allowance.
    SyncRounds,
}

impl ScenarioKind {
    /// Stable keyword (artifact `scenario` field, CLI `--scenario`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::Heartbeat => "heartbeat",
            ScenarioKind::HeartbeatCrash => "heartbeat_crash",
            ScenarioKind::HeartbeatRestart => "heartbeat_restart",
            ScenarioKind::HeartbeatGray => "heartbeat_gray",
            ScenarioKind::HeartbeatBidi => "heartbeat_bidi",
            ScenarioKind::Relay => "relay",
            ScenarioKind::Partition => "partition",
            ScenarioKind::ClockFleet => "clockfleet",
            ScenarioKind::ClockFleetLarge => "clockfleet_large",
            ScenarioKind::Mutex => "mutex",
            ScenarioKind::MutexContended => "mutex_contended",
            ScenarioKind::Register => "register",
            ScenarioKind::RegisterTriple => "register_triple",
            ScenarioKind::Counter => "counter",
            ScenarioKind::SyncProbe => "sync_probe",
            ScenarioKind::SyncRounds => "sync_rounds",
        }
    }

    /// Parses a keyword.
    ///
    /// # Errors
    ///
    /// Unknown keyword.
    pub fn from_name(s: &str) -> Result<ScenarioKind, String> {
        ScenarioKind::all()
            .into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| format!("unknown scenario {s:?}"))
    }

    /// All scenario kinds, in catalog order.
    #[must_use]
    pub fn all() -> [ScenarioKind; 16] {
        [
            ScenarioKind::Heartbeat,
            ScenarioKind::HeartbeatCrash,
            ScenarioKind::HeartbeatRestart,
            ScenarioKind::HeartbeatGray,
            ScenarioKind::HeartbeatBidi,
            ScenarioKind::Relay,
            ScenarioKind::Partition,
            ScenarioKind::ClockFleet,
            ScenarioKind::ClockFleetLarge,
            ScenarioKind::Mutex,
            ScenarioKind::MutexContended,
            ScenarioKind::Register,
            ScenarioKind::RegisterTriple,
            ScenarioKind::Counter,
            ScenarioKind::SyncProbe,
            ScenarioKind::SyncRounds,
        ]
    }

    /// Does this kind belong to the heartbeat (timed-model) family?
    #[must_use]
    pub fn is_heartbeat(self) -> bool {
        matches!(
            self,
            ScenarioKind::Heartbeat
                | ScenarioKind::HeartbeatCrash
                | ScenarioKind::HeartbeatRestart
                | ScenarioKind::HeartbeatGray
                | ScenarioKind::HeartbeatBidi
                | ScenarioKind::Relay
                | ScenarioKind::Partition
        )
    }

    /// Does this kind belong to the clock-synchronization family?
    #[must_use]
    pub fn is_sync(self) -> bool {
        matches!(self, ScenarioKind::SyncProbe | ScenarioKind::SyncRounds)
    }
}

/// Everything needed to rebuild a scenario's engine: the config half of a
/// replay artifact (the other half is the plan and the seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioConfig {
    /// System family.
    pub kind: ScenarioKind,
    /// Node count.
    pub nodes: u32,
    /// Declared minimum delay `d₁`, nanoseconds.
    pub d1_ns: i64,
    /// Declared maximum delay `d₂`, nanoseconds.
    pub d2_ns: i64,
    /// Skew bound `ε`, nanoseconds.
    pub eps_ns: i64,
    /// Run horizon, nanoseconds.
    pub horizon_ns: i64,
    /// Heartbeat/beep period, or the mutex slot width, nanoseconds.
    pub period_ns: i64,
    /// Drop budget per edge (heartbeat family only).
    pub max_drops: u32,
    /// Closed-loop operations per node (register/counter), mutex rounds
    /// per node, or the per-peer probe burst (sync family).
    pub ops_per_node: u32,
    /// Base hardware drift rate in parts per million (sync family):
    /// node `i` drifts at `drift_rates(nodes, drift_ppm)[i]`. Zero for
    /// every other family.
    pub drift_ppm: i64,
    /// Scripted crash time (heartbeat family only), nanoseconds.
    pub crash_at_ns: Option<i64>,
    /// Checkpoint/restore seam time ([`ScenarioKind::HeartbeatRestart`]
    /// only), nanoseconds.
    pub restart_at_ns: Option<i64>,
    /// The planted-bug canary mutating this scenario, if any.
    pub canary: Option<CanaryKind>,
    /// The seeded bug: extra nanoseconds a boundary delay spike is allowed
    /// to overshoot `d₂` by. Zero = correct channel.
    pub bug_extra_ns: i64,
}

impl ScenarioConfig {
    /// The default heartbeat scenario.
    #[must_use]
    pub fn heartbeat_default() -> ScenarioConfig {
        ScenarioConfig {
            kind: ScenarioKind::Heartbeat,
            nodes: 2,
            d1_ns: 1_000_000,
            d2_ns: 4_000_000,
            eps_ns: 0,
            horizon_ns: 300_000_000,
            period_ns: 10_000_000,
            max_drops: 2,
            ops_per_node: 0,
            drift_ppm: 0,
            crash_at_ns: None,
            restart_at_ns: None,
            canary: None,
            bug_extra_ns: 0,
        }
    }

    /// The default clock-fleet scenario.
    #[must_use]
    pub fn clockfleet_default() -> ScenarioConfig {
        ScenarioConfig {
            kind: ScenarioKind::ClockFleet,
            nodes: 3,
            d1_ns: 0,
            d2_ns: 0,
            eps_ns: 2_000_000,
            horizon_ns: 250_000_000,
            period_ns: 9_000_000,
            max_drops: 0,
            ops_per_node: 0,
            drift_ppm: 0,
            crash_at_ns: None,
            restart_at_ns: None,
            canary: None,
            bug_extra_ns: 0,
        }
    }

    /// The default register scenario.
    #[must_use]
    pub fn register_default() -> ScenarioConfig {
        ScenarioConfig {
            kind: ScenarioKind::Register,
            nodes: 2,
            d1_ns: 1_000_000,
            d2_ns: 4_000_000,
            eps_ns: 1_000_000,
            // Liveness bound, and also the window fault plans are drawn
            // over: the closed loop drains in tens of milliseconds, so a
            // tight horizon keeps generated clock skews landing while
            // operations are still racing.
            horizon_ns: 400_000_000,
            period_ns: 0,
            max_drops: 0,
            ops_per_node: 3,
            drift_ppm: 0,
            crash_at_ns: None,
            restart_at_ns: None,
            canary: None,
            bug_extra_ns: 0,
        }
    }

    /// The default clock-synchronization scenario: three drifting nodes
    /// probing each other over faultable `[1, 3] ms` channels, a 20 ms
    /// round, and the same `ε = 2 ms` envelope the clockfleet assumes —
    /// which the certified ε̂ must then beat.
    #[must_use]
    pub fn sync_default() -> ScenarioConfig {
        ScenarioConfig {
            kind: ScenarioKind::SyncProbe,
            nodes: 3,
            d1_ns: 1_000_000,
            d2_ns: 3_000_000,
            eps_ns: 2_000_000,
            horizon_ns: 300_000_000,
            period_ns: 20_000_000,
            max_drops: 0,
            ops_per_node: 2,
            drift_ppm: 200,
            crash_at_ns: None,
            restart_at_ns: None,
            canary: None,
            bug_extra_ns: 0,
        }
    }

    /// The catalog default for any scenario kind.
    #[must_use]
    pub fn default_for(kind: ScenarioKind) -> ScenarioConfig {
        match kind {
            ScenarioKind::Heartbeat => ScenarioConfig::heartbeat_default(),
            ScenarioKind::HeartbeatCrash => ScenarioConfig {
                kind,
                crash_at_ns: Some(150_000_000),
                ..ScenarioConfig::heartbeat_default()
            },
            ScenarioKind::HeartbeatRestart => ScenarioConfig {
                kind,
                crash_at_ns: Some(150_000_000),
                restart_at_ns: Some(110_000_000),
                ..ScenarioConfig::heartbeat_default()
            },
            ScenarioKind::HeartbeatGray | ScenarioKind::HeartbeatBidi => ScenarioConfig {
                kind,
                ..ScenarioConfig::heartbeat_default()
            },
            ScenarioKind::Relay => ScenarioConfig {
                kind,
                nodes: 3,
                ..ScenarioConfig::heartbeat_default()
            },
            ScenarioKind::Partition => ScenarioConfig {
                kind,
                nodes: 4,
                crash_at_ns: Some(150_000_000),
                ..ScenarioConfig::heartbeat_default()
            },
            ScenarioKind::ClockFleet => ScenarioConfig::clockfleet_default(),
            ScenarioKind::ClockFleetLarge => ScenarioConfig {
                kind,
                nodes: 6,
                eps_ns: 3_000_000,
                horizon_ns: 200_000_000,
                period_ns: 7_000_000,
                ..ScenarioConfig::clockfleet_default()
            },
            ScenarioKind::Mutex => ScenarioConfig {
                kind,
                nodes: 3,
                d1_ns: 0,
                d2_ns: 0,
                eps_ns: 2_000_000,
                horizon_ns: 200_000_000,
                period_ns: 10_000_000,
                max_drops: 0,
                ops_per_node: 4,
                drift_ppm: 0,
                crash_at_ns: None,
                restart_at_ns: None,
                canary: None,
                bug_extra_ns: 0,
            },
            ScenarioKind::MutexContended => ScenarioConfig {
                kind,
                nodes: 4,
                horizon_ns: 160_000_000,
                period_ns: 8_000_000,
                ops_per_node: 3,
                ..ScenarioConfig::default_for(ScenarioKind::Mutex)
            },
            ScenarioKind::Register => ScenarioConfig::register_default(),
            ScenarioKind::RegisterTriple | ScenarioKind::Counter => ScenarioConfig {
                kind,
                nodes: 3,
                ops_per_node: 2,
                ..ScenarioConfig::register_default()
            },
            ScenarioKind::SyncProbe => ScenarioConfig::sync_default(),
            ScenarioKind::SyncRounds => ScenarioConfig {
                kind,
                nodes: 4,
                max_drops: 2,
                ..ScenarioConfig::sync_default()
            },
        }
    }

    /// The same scenario with the late-delivery bug planted: a delay
    /// spike requesting exactly `d₂` is let through at `d₂ + extra_ns`.
    #[must_use]
    pub fn with_bug(mut self, extra_ns: i64) -> ScenarioConfig {
        assert!(extra_ns > 0, "the bug must overshoot by at least one tick");
        self.bug_extra_ns = extra_ns;
        self
    }

    /// The admissibility envelope this scenario grants to fault plans.
    #[must_use]
    pub fn envelope(&self) -> FaultEnvelope {
        let (allow_clock, allow_drop, allow_dup, allow_spike, edges) = if self.kind.is_heartbeat() {
            (false, true, true, true, hb_shape(self.kind).edges)
        } else {
            match self.kind {
                ScenarioKind::ClockFleet
                | ScenarioKind::ClockFleetLarge
                | ScenarioKind::Mutex
                | ScenarioKind::MutexContended => (true, false, false, false, vec![]),
                ScenarioKind::SyncProbe | ScenarioKind::SyncRounds => {
                    // Sync nodes run *drifting* clocks, not plan-scripted
                    // ones, so clock faults are out of scope; the
                    // adversary owns the channels instead. Drops and
                    // duplicates are granted only to the fault-resistant
                    // rounds variant — the plain probe scenario's grace
                    // budget does not tolerate losses.
                    let mut edges = Vec::new();
                    for i in 0..self.nodes {
                        for j in 0..self.nodes {
                            if i != j {
                                edges.push((i, j));
                            }
                        }
                    }
                    let lossy = self.kind == ScenarioKind::SyncRounds;
                    (false, lossy, lossy, true, edges)
                }
                _ => {
                    // Clock channels (`build_dc`) expose a delay policy but
                    // not drops/duplicates; the paper's reliable-channel
                    // model stands, so only spikes and clock faults are in
                    // scope.
                    let mut edges = Vec::new();
                    for i in 0..self.nodes {
                        for j in 0..self.nodes {
                            if i != j {
                                edges.push((i, j));
                            }
                        }
                    }
                    (true, false, false, true, edges)
                }
            }
        };
        let max_seq = if self.kind.is_heartbeat() {
            (self.horizon_ns / self.period_ns.max(1)) as u32 + 1
        } else {
            match self.kind {
                ScenarioKind::Register | ScenarioKind::RegisterTriple | ScenarioKind::Counter => {
                    self.ops_per_node * 2 + 2
                }
                // Each node's shared id counter covers its probes *and*
                // echoes: per round, `burst` probes to each peer plus up
                // to as many echoes back.
                ScenarioKind::SyncProbe | ScenarioKind::SyncRounds => {
                    let rounds = (self.horizon_ns / self.period_ns.max(1)) as u32 + 1;
                    rounds * 2 * self.ops_per_node * (self.nodes - 1)
                }
                _ => 0,
            }
        };
        FaultEnvelope {
            nodes: self.nodes,
            eps_ns: self.eps_ns,
            d1_ns: self.d1_ns,
            d2_ns: self.d2_ns,
            horizon_ns: self.horizon_ns,
            edges,
            max_seq,
            max_drops: self.max_drops,
            allow_clock,
            allow_drop,
            allow_dup,
            allow_spike,
        }
    }

    /// The declared delay bounds `[d₁, d₂]`.
    #[must_use]
    pub fn bounds(&self) -> DelayBounds {
        DelayBounds::new(ns(self.d1_ns), ns(self.d2_ns)).expect("config bounds are ordered")
    }

    /// Monitor parameters budgeted for the plan envelope: the timeout
    /// tolerates `max_drops` consecutive losses plus full delay jitter,
    /// so any false suspicion is a real bug, not a mistuned test.
    #[must_use]
    pub fn fd_params(&self) -> FdParams {
        let period = ns(self.period_ns);
        let jitter = ns(self.d2_ns - self.d1_ns);
        let slack = Duration::from_millis(2);
        FdParams {
            period,
            timeout: period * (i64::from(self.max_drops) + 1) + jitter + slack,
        }
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::str(self.kind.name())),
            ("nodes", Json::num(self.nodes)),
            ("d1_ns", Json::num(self.d1_ns)),
            ("d2_ns", Json::num(self.d2_ns)),
            ("eps_ns", Json::num(self.eps_ns)),
            ("horizon_ns", Json::num(self.horizon_ns)),
            ("period_ns", Json::num(self.period_ns)),
            ("max_drops", Json::num(self.max_drops)),
            ("ops_per_node", Json::num(self.ops_per_node)),
            ("drift_ppm", Json::num(self.drift_ppm)),
            (
                "crash_at_ns",
                self.crash_at_ns.map_or(Json::Null, Json::num),
            ),
            (
                "restart_at_ns",
                self.restart_at_ns.map_or(Json::Null, Json::num),
            ),
            (
                "canary",
                self.canary.map_or(Json::Null, |c| Json::str(c.name())),
            ),
            ("bug_extra_ns", Json::num(self.bug_extra_ns)),
        ])
    }

    pub(crate) fn from_json(v: &Json) -> Result<ScenarioConfig, String> {
        let i64_field = |name: &str| -> Result<i64, String> {
            v.get(name)
                .and_then(Json::as_i64)
                .ok_or_else(|| format!("config missing {name}"))
        };
        let u32_field = |name: &str| -> Result<u32, String> {
            v.get(name)
                .and_then(Json::as_u32)
                .ok_or_else(|| format!("config missing {name}"))
        };
        // New fields are nullable *and* optional, so pre-catalog artifacts
        // (version 1, no restart/canary keys) stay replayable.
        let opt_i64 = |name: &str| -> Result<Option<i64>, String> {
            match v.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(t) => Ok(Some(t.as_i64().ok_or(format!("bad {name}"))?)),
            }
        };
        Ok(ScenarioConfig {
            kind: ScenarioKind::from_name(
                v.get("kind")
                    .and_then(Json::as_str)
                    .ok_or("config missing kind")?,
            )?,
            nodes: u32_field("nodes")?,
            d1_ns: i64_field("d1_ns")?,
            d2_ns: i64_field("d2_ns")?,
            eps_ns: i64_field("eps_ns")?,
            horizon_ns: i64_field("horizon_ns")?,
            period_ns: i64_field("period_ns")?,
            max_drops: u32_field("max_drops")?,
            ops_per_node: u32_field("ops_per_node")?,
            // Pre-sync artifacts carry no drift; missing means zero.
            drift_ppm: opt_i64("drift_ppm")?.unwrap_or(0),
            crash_at_ns: opt_i64("crash_at_ns")?,
            restart_at_ns: opt_i64("restart_at_ns")?,
            canary: match v.get("canary") {
                None | Some(Json::Null) => None,
                Some(t) => Some(CanaryKind::from_name(t.as_str().ok_or("bad canary")?)?),
            },
            bug_extra_ns: i64_field("bug_extra_ns")?,
        })
    }
}

/// The judged result of one case: what the oracles said, a fingerprint of
/// the recorded execution for replay-identity checks, and the metrics the
/// attached observers collected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaseOutcome {
    /// `(oracle name, violation)` pairs; empty = the run passed.
    pub violations: Vec<(String, String)>,
    /// Recorded event count.
    pub events: usize,
    /// Clock-script requests the C1–C4 guard clamped (attempted backward
    /// jumps / over-ε readings that were rejected at run time).
    pub rejected_clock_requests: u64,
    /// Order-sensitive hash of `(action, now, clock)` over all events.
    pub fingerprint: u64,
    /// Observer metrics of the run (deterministic: replaying the case
    /// reproduces this snapshot bit-for-bit, `==` included).
    pub metrics: MetricsSnapshot,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-sensitive fingerprint of a recorded execution.
#[must_use]
pub fn fingerprint<A: Action>(exec: &Execution<A>) -> u64 {
    let mut h = 0xC1A5_51C0_DE00_0001u64;
    for e in exec.events() {
        let line = format!("{:?}@{}@{:?}", e.action, e.now.as_nanos(), e.clock);
        for b in line.bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        h = splitmix64(h);
    }
    h
}

pub(crate) const CASE_MAX_EVENTS: usize = 250_000;

/// A judge's result: the oracle verdicts plus the deterministic judging
/// metrics (`monitor.checks`, `monitor.violations`) that
/// [`finish_case`] folds into the case's hub.
pub(crate) type JudgeVerdicts = (Vec<(String, String)>, MetricsSnapshot);

/// Judges a finished run against an oracle set on `shards` worker
/// threads. The shard count is threaded down from
/// [`CampaignConfig::monitor_shards`](crate::CampaignConfig) — there is
/// deliberately no process-global setter (a global breaks concurrent
/// library users; two campaigns in one process must be able to judge at
/// different widths). It is a pure performance knob: the sharded judge's
/// verdicts *and* metrics are bit-identical for every value (see
/// [`check_all_sharded`]), which is why it may live outside the
/// `(config, plan, seed)` triple without breaking replay identity. An
/// engine error short-circuits to a single `engine` violation with empty
/// metrics.
fn judge_sharded<A: Action + Send + Sync>(
    oracles: &[Box<dyn Oracle<A>>],
    run: &Result<Run<A>, String>,
    shards: usize,
) -> JudgeVerdicts {
    match run {
        Ok(run) => check_all_sharded(oracles, &run.execution, shards.max(1)),
        Err(e) => (
            vec![("engine".into(), e.clone())],
            MetricsSnapshot::default(),
        ),
    }
}

/// A typed runner's result: the raw engine run (or its error), the
/// oracles' `(name, violation)` verdicts, the number of clock-script
/// requests the C1–C4 guard clamped (always 0 for the timed-model
/// scenario), and the metrics collected by the attached observers.
#[derive(Debug)]
pub struct Judged<A: Action> {
    /// The engine run, or the engine error rendered as a string.
    pub run: Result<Run<A>, String>,
    /// `(oracle name, violation)` pairs; empty = the run passed.
    pub violations: Vec<(String, String)>,
    /// Clock-script requests the C1–C4 guard clamped.
    pub rejected_clock_requests: u64,
    /// Observer metrics of the run.
    pub metrics: MetricsSnapshot,
}

/// Folds one [`FaultChannel`]'s fault counters into a hub snapshot under
/// the `channel.*` names.
fn merge_fault_stats(hub: &MetricsHub, stats: &FaultStats) {
    hub.add("channel.sends", stats.sends());
    hub.add("channel.delivered", stats.delivered());
    hub.add("channel.dropped", stats.dropped());
    hub.add("channel.duplicated", stats.duplicated());
    hub.add("channel.spiked", stats.spiked());
}

/// A case's engine plus the observation handles the post-run accounting
/// needs — the common shape the plain runners and the checkpoint-resuming
/// shrink driver (`resume` module) share. The engine observers are
/// attached with checkpoint counters suppressed, so a checkpointed run's
/// metrics are bit-identical to a straight run's.
pub(crate) struct BuiltCase<A: Action> {
    pub(crate) engine: Engine<A>,
    pub(crate) hub: MetricsHub,
    /// The fault channels' counters (heartbeat family; one per edge, in
    /// topology-shape order).
    pub(crate) fault_stats: Vec<FaultStats>,
    /// Scripted-clock rejection handles, one per clock node.
    pub(crate) rejections: Vec<Rc<Cell<u64>>>,
}

/// Post-run accounting shared by every scenario kind: fold fault stats,
/// clamped-clock counts, and the judge's own metrics into the hub (in the
/// same order the original monolithic runners did) and snapshot.
pub(crate) fn finish_case<A: Action>(
    built: &BuiltCase<A>,
    judged: JudgeVerdicts,
    run: Result<Run<A>, String>,
) -> Judged<A> {
    let (violations, judge_metrics) = judged;
    for stats in &built.fault_stats {
        merge_fault_stats(&built.hub, stats);
    }
    let rejected: u64 = built.rejections.iter().map(|h| h.get()).sum();
    if !built.rejections.is_empty() {
        built.hub.add("clock.rejected_requests", rejected);
    }
    built.hub.absorb(&judge_metrics);
    Judged {
        run,
        violations,
        rejected_clock_requests: rejected,
        metrics: built.hub.snapshot(),
    }
}

/// Topology of one heartbeat-family scenario: which channels exist, who
/// beats toward whom, who monitors whom, whether node 1 relays, and who
/// a scripted crash hits.
pub(crate) struct HbShape {
    /// Faultable channels, as `(src, dst)` edges.
    pub(crate) edges: Vec<(u32, u32)>,
    /// Heartbeaters, as `(node, monitor)` pairs.
    pub(crate) beaters: Vec<(u32, u32)>,
    /// Monitors, as `(node, target)` pairs.
    pub(crate) monitors: Vec<(u32, u32)>,
    /// The deduplicating relay, as `(me, to)`.
    pub(crate) relay: Option<(u32, u32)>,
    /// Which node a scripted crash (if the config has one) hits.
    pub(crate) crash_node: u32,
}

pub(crate) fn hb_shape(kind: ScenarioKind) -> HbShape {
    match kind {
        ScenarioKind::Heartbeat
        | ScenarioKind::HeartbeatCrash
        | ScenarioKind::HeartbeatRestart
        | ScenarioKind::HeartbeatGray => HbShape {
            edges: vec![(0, 1)],
            beaters: vec![(0, 1)],
            monitors: vec![(1, 0)],
            relay: None,
            crash_node: 0,
        },
        ScenarioKind::HeartbeatBidi => HbShape {
            edges: vec![(0, 1), (1, 0)],
            beaters: vec![(0, 1), (1, 0)],
            monitors: vec![(1, 0), (0, 1)],
            relay: None,
            crash_node: 0,
        },
        ScenarioKind::Relay => HbShape {
            edges: vec![(0, 1), (1, 2)],
            beaters: vec![(0, 1)],
            monitors: vec![(2, 1)],
            relay: Some((1, 2)),
            crash_node: 0,
        },
        ScenarioKind::Partition => HbShape {
            edges: vec![(0, 1), (2, 3)],
            beaters: vec![(0, 1), (2, 3)],
            monitors: vec![(1, 0), (3, 2)],
            relay: None,
            crash_node: 2,
        },
        _ => unreachable!("hb_shape called on a non-heartbeat kind"),
    }
}

/// Monitor parameters actually deployed: the drop budget doubles behind
/// a relay (each hop may drop `max_drops`), and the
/// [`CanaryKind::FdTimeoutUnderbudget`] canary plants the classic bug of
/// budgeting for jitter but not for drops.
pub(crate) fn monitor_params(cfg: &ScenarioConfig, relayed: bool) -> FdParams {
    let period = ns(cfg.period_ns);
    let jitter = ns(cfg.d2_ns - cfg.d1_ns);
    let slack = Duration::from_millis(2);
    if cfg.canary == Some(CanaryKind::FdTimeoutUnderbudget) {
        return FdParams {
            period,
            timeout: period + jitter + slack,
        };
    }
    if relayed {
        FdParams {
            period,
            timeout: period * (2 * i64::from(cfg.max_drops) + 1) + jitter * 2 + slack,
        }
    } else {
        cfg.fd_params()
    }
}

/// The relay's scripted stall window (nanoseconds), used by the
/// [`CanaryKind::RelayLifoHeal`] canary: heartbeats arriving inside the
/// window are buffered until it closes, then flushed LIFO.
const RELAY_STALL_NS: (i64, i64) = (95_000_000, 130_000_000);

/// State of a [`HeartbeatRelay`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelayState {
    /// Sequence numbers ever received (the dedup filter).
    seen: Vec<u32>,
    /// Buffered sequence numbers with their earliest forward time.
    pending: Vec<(u32, Time)>,
}

/// A store-and-forward heartbeat relay: deduplicates incoming heartbeats
/// and forwards each exactly once (re-stamped with its own source id).
/// With a stall window configured, arrivals inside the window are held
/// until it closes and then flushed newest-first — the planted LIFO-heal
/// bug the per-edge FIFO oracle must catch.
#[derive(Debug, Clone)]
pub struct HeartbeatRelay {
    me: NodeId,
    to: NodeId,
    stall: Option<(Time, Time)>,
}

impl HeartbeatRelay {
    /// A healthy relay forwarding from `me` to `to`.
    #[must_use]
    pub fn new(me: NodeId, to: NodeId) -> Self {
        HeartbeatRelay {
            me,
            to,
            stall: None,
        }
    }

    /// Plants the LIFO-heal bug: arrivals in `[from, until)` are buffered
    /// until `until` and flushed newest-first.
    #[must_use]
    pub fn with_lifo_stall(mut self, from: Time, until: Time) -> Self {
        assert!(from < until, "stall window must be non-empty");
        self.stall = Some((from, until));
        self
    }

    fn env_for(&self, seq: u32) -> Envelope<Heartbeat> {
        Envelope {
            src: self.me,
            dst: self.to,
            id: MsgId::from_parts(self.me, seq),
            payload: Heartbeat { seq },
        }
    }

    /// The sequence number forwarded next: among ready entries, the
    /// oldest — or the newest when the stall bug is planted.
    fn choice(&self, s: &RelayState, now: Time) -> Option<u32> {
        let mut ready = s.pending.iter().filter(|(_, at)| *at <= now);
        if self.stall.is_some() {
            ready.next_back().map(|(seq, _)| *seq)
        } else {
            ready.next().map(|(seq, _)| *seq)
        }
    }
}

impl TimedComponent for HeartbeatRelay {
    type Action = FdAction;
    type State = RelayState;

    fn name(&self) -> String {
        format!("relay({}->{})", self.me, self.to)
    }

    fn initial(&self) -> RelayState {
        RelayState {
            seen: Vec::new(),
            pending: Vec::new(),
        }
    }

    fn classify(&self, a: &FdAction) -> Option<ActionKind> {
        match a {
            SysAction::Recv(env) if env.dst == self.me => Some(ActionKind::Input),
            SysAction::Send(env) if env.src == self.me => Some(ActionKind::Output),
            _ => None,
        }
    }

    fn action_names(&self) -> Option<Vec<&'static str>> {
        Some(vec!["RECVMSG", "SENDMSG"])
    }

    fn step(&self, s: &RelayState, a: &FdAction, now: Time) -> Option<RelayState> {
        match a {
            SysAction::Recv(env) if env.dst == self.me => {
                let seq = seq_of(env.id);
                let mut next = s.clone();
                if !next.seen.contains(&seq) {
                    next.seen.push(seq);
                    let ready = match self.stall {
                        Some((from, until)) if now >= from && now < until => until,
                        _ => now,
                    };
                    next.pending.push((seq, ready));
                }
                Some(next)
            }
            SysAction::Send(env) if env.src == self.me => {
                let seq = seq_of(env.id);
                if self.choice(s, now) != Some(seq) || *env != self.env_for(seq) {
                    return None;
                }
                let mut next = s.clone();
                next.pending.retain(|(q, _)| *q != seq);
                Some(next)
            }
            _ => None,
        }
    }

    fn enabled(&self, s: &RelayState, now: Time) -> Vec<FdAction> {
        match self.choice(s, now) {
            Some(seq) => vec![SysAction::Send(self.env_for(seq))],
            None => Vec::new(),
        }
    }

    fn deadline(&self, s: &RelayState, _now: Time) -> Option<Time> {
        s.pending.iter().map(|(_, at)| *at).min()
    }
}

/// The relay instance a config deploys (and its replay oracle rebuilds).
fn relay_component(cfg: &ScenarioConfig, me: u32, to: u32) -> HeartbeatRelay {
    let relay = HeartbeatRelay::new(NodeId(me as usize), NodeId(to as usize));
    if cfg.canary == Some(CanaryKind::RelayLifoHeal) {
        relay.with_lifo_stall(at_ns(RELAY_STALL_NS.0), at_ns(RELAY_STALL_NS.1))
    } else {
        relay
    }
}

/// Builds a heartbeat-family case's engine (without running it).
pub(crate) fn build_heartbeat(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
) -> BuiltCase<FdAction> {
    build_heartbeat_with(cfg, plan, seed, None, CASE_MAX_EVENTS)
}

/// [`build_heartbeat`], optionally attaching an [`OnlineJudge`]'s
/// observer so stream oracles see every event as it is recorded, with an
/// explicit event cap (campaign cases use `CASE_MAX_EVENTS`). The judge
/// observer is read-only like every other observer: attaching it never
/// changes the produced execution.
pub(crate) fn build_heartbeat_with(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    online: Option<&OnlineJudge<FdAction>>,
    max_events: usize,
) -> BuiltCase<FdAction> {
    let shape = hb_shape(cfg.kind);
    let declared = cfg.bounds();
    // The seeded bug widens the channel's *internal* bounds so the stretch
    // passes the channel's own assert; the oracles keep judging against
    // the declared envelope, which is exactly how they catch it.
    let actual = DelayBounds::new(declared.min(), declared.max() + ns(cfg.bug_extra_ns))
        .expect("widened bounds stay ordered");
    let period = ns(cfg.period_ns);
    let params = monitor_params(cfg, shape.relay.is_some());
    let hub = MetricsHub::new();

    let mut builder = Engine::builder();
    for &(src, dst) in &shape.beaters {
        builder = builder.timed(Heartbeater::new(
            NodeId(src as usize),
            NodeId(dst as usize),
            period,
        ));
    }
    if let Some((me, to)) = shape.relay {
        builder = builder.timed(relay_component(cfg, me, to));
    }
    let mut fault_stats = Vec::new();
    for &(src, dst) in &shape.edges {
        let mut fault = PlanChannelFault::new(plan, src, dst, seed, declared, ns(cfg.bug_extra_ns));
        if cfg.kind == ScenarioKind::HeartbeatGray {
            fault = fault.with_gray_windows(period * 4, period * 2);
        }
        if cfg.canary == Some(CanaryKind::DuplicateDelivery) {
            fault = fault.with_duplicate_all();
        }
        let channel = FaultChannel::<Heartbeat, FdOp>::new(
            NodeId(src as usize),
            NodeId(dst as usize),
            actual,
            MaxDelay,
            fault,
        );
        fault_stats.push(channel.stats());
        builder = builder.timed(channel);
    }
    for &(node, target) in &shape.monitors {
        builder = builder.timed(Monitor::new(
            NodeId(node as usize),
            NodeId(target as usize),
            params,
        ));
    }
    if let Some(crash) = cfg.crash_at_ns {
        builder = builder.timed(Script::<Heartbeat, FdOp>::new(
            [(
                at_ns(crash),
                FdOp::Crash {
                    node: NodeId(shape.crash_node as usize),
                },
            )],
            |_| false,
        ));
    }
    builder = builder
        .observer(hub.engine_observer().without_checkpoint_counters())
        .observer(hub.channel_delay_observer());
    if let Some(judge) = online {
        builder = builder.observer(judge.observer());
    }
    let engine = builder
        .scheduler(BiasedScheduler::new(plan, seed))
        .horizon(at_ns(cfg.horizon_ns))
        .max_events(max_events)
        .build();
    BuiltCase {
        engine,
        hub,
        fault_stats,
        rejections: Vec::new(),
    }
}

/// Judges a heartbeat run against the scenario's oracles.
pub(crate) fn judge_heartbeat(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    run: &Result<Run<FdAction>, String>,
    shards: usize,
) -> JudgeVerdicts {
    judge_sharded(&heartbeat_oracles(cfg, plan), run, shards)
}

/// Runs one heartbeat-family case: returns the raw engine run and the
/// oracle verdicts. Public (rather than folded into [`run_case`]) so
/// tests can compare whole [`Execution`]s across replays.
///
/// # Panics
///
/// Panics if the config is not a heartbeat-family config (the restart
/// variant has its own runner, [`run_heartbeat_restart`]).
pub fn run_heartbeat(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> Judged<FdAction> {
    run_heartbeat_with(cfg, plan, seed, 1)
}

pub(crate) fn run_heartbeat_with(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    shards: usize,
) -> Judged<FdAction> {
    assert!(cfg.kind.is_heartbeat() && cfg.kind != ScenarioKind::HeartbeatRestart);
    let mut built = build_heartbeat(cfg, plan, seed);
    let run = built.engine.run().map_err(|e| e.to_string());
    let violations = judge_heartbeat(cfg, plan, &run, shards);
    finish_case(&built, violations, run)
}

/// Runs one crash-recovery case: drives the engine to the restart seam,
/// snapshots it ([`Engine::checkpoint`]), restores the snapshot into a
/// freshly built engine, and drives that one to the horizon. By
/// Lemma 2.1 (pasting), the recorded execution — and therefore every
/// oracle verdict, the fingerprint, and the metrics — is bit-identical
/// to an uninterrupted run; this runner is the catalog's executable
/// witness of that, exercised under every fault plan a campaign throws
/// at it.
///
/// # Panics
///
/// Panics if the config is not a [`ScenarioKind::HeartbeatRestart`]
/// config.
pub fn run_heartbeat_restart(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
) -> Judged<FdAction> {
    run_heartbeat_restart_with(cfg, plan, seed, 1)
}

pub(crate) fn run_heartbeat_restart_with(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    shards: usize,
) -> Judged<FdAction> {
    assert_eq!(cfg.kind, ScenarioKind::HeartbeatRestart);
    let seam = cfg
        .restart_at_ns
        .expect("restart scenario carries a seam time");
    let mut first = build_heartbeat(cfg, plan, seed);
    let run1 = first
        .engine
        .run_until(at_ns(seam))
        .map_err(|e| e.to_string());
    match run1 {
        Ok(r) if r.stop == StopReason::Horizon => {
            let checkpoint = first.engine.checkpoint();
            let metrics = first.hub.snapshot();
            let fault_values: Vec<[u64; 5]> =
                first.fault_stats.iter().map(FaultStats::values).collect();
            // The "restarted process": a fresh engine built from the same
            // artifact inputs, with the snapshot poured back in. restore()
            // also restores the captured horizon (the seam), so the final
            // horizon is re-armed explicitly.
            let mut second = build_heartbeat(cfg, plan, seed);
            second.engine.restore(&checkpoint);
            second.hub.restore(&metrics);
            for (stats, values) in second.fault_stats.iter().zip(&fault_values) {
                stats.set_values(*values);
            }
            let run = second
                .engine
                .run_until(at_ns(cfg.horizon_ns))
                .map_err(|e| e.to_string());
            let violations = judge_heartbeat(cfg, plan, &run, shards);
            finish_case(&second, violations, run)
        }
        run => {
            // Stopped before the seam (quiescent or capped): nothing to
            // restart; judge what was recorded.
            let violations = judge_heartbeat(cfg, plan, &run, shards);
            finish_case(&first, violations, run)
        }
    }
}

/// The heartbeat family's oracle set (shared with conformance-style
/// sweeps via the [`Oracle`] trait).
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn heartbeat_oracles(cfg: &ScenarioConfig, plan: &FaultPlan) -> Vec<Box<dyn Oracle<FdAction>>> {
    let shape = hb_shape(cfg.kind);
    let declared = cfg.bounds();
    let dropped: Vec<(u32, u32, u32)> = plan
        .entries
        .iter()
        .filter_map(|e| match *e {
            FaultEntry::Drop { src, dst, seq } => Some((src, dst, seq)),
            _ => None,
        })
        .collect();
    let duplicated: Vec<(u32, u32, u32)> = plan
        .entries
        .iter()
        .filter_map(|e| match *e {
            FaultEntry::Duplicate { src, dst, seq, .. } => Some((src, dst, seq)),
            _ => None,
        })
        .collect();

    let envelope = FnOracle::new("delivery envelope", move |exec: &Execution<FdAction>| {
        let mut sends: Vec<(u64, Time)> = Vec::new();
        let mut copies: Vec<(u64, u32)> = Vec::new();
        for (i, e) in exec.events().iter().enumerate() {
            match &e.action {
                SysAction::Send(env) => sends.push((env.id.0, e.now)),
                SysAction::Recv(env) => {
                    let Some((_, sent)) = sends.iter().find(|(id, _)| *id == env.id.0) else {
                        return Verdict::violated(format!(
                            "event {i}: received message {} that was never sent",
                            env.id.0
                        ));
                    };
                    let latency = e.now - *sent;
                    if latency < declared.min() || latency > declared.max() {
                        return Verdict::violated(format!(
                            "event {i}: message {} delivered after {latency}, outside [{}, {}]",
                            env.id.0,
                            declared.min(),
                            declared.max()
                        ));
                    }
                    let seq = seq_of(env.id);
                    let edge_seq = (env.src.0 as u32, env.dst.0 as u32, seq);
                    if dropped.contains(&edge_seq) {
                        return Verdict::violated(format!(
                            "event {i}: message {seq} was delivered despite a planned drop"
                        ));
                    }
                    match copies.iter_mut().find(|(id, _)| *id == env.id.0) {
                        Some((_, n)) => *n += 1,
                        None => copies.push((env.id.0, 1)),
                    }
                    let n = copies
                        .iter()
                        .find(|(id, _)| *id == env.id.0)
                        .map_or(0, |(_, n)| *n);
                    // Only a *planned* duplicate may arrive twice: a
                    // channel that duplicates on its own (the
                    // duplicate-delivery canary) is exactly what this
                    // oracle exists to catch.
                    let allowed = if duplicated.contains(&edge_seq) { 2 } else { 1 };
                    if n > allowed {
                        return Verdict::violated(format!(
                            "event {i}: message {seq} delivered {n} times (plan allows {allowed})"
                        ));
                    }
                }
                _ => {}
            }
        }
        Verdict::Holds
    });

    let fifo = FnOracle::new("fifo order", |exec: &Execution<FdAction>| {
        check_fifo_per_edge(exec)
    });

    let relayed = shape.relay.is_some();
    let params = monitor_params(cfg, relayed);
    let hops = if relayed { 2 } else { 1 };
    let detection = ns(cfg.d2_ns) * hops + params.timeout + Duration::from_millis(1);
    let horizon = at_ns(cfg.horizon_ns);
    let pairs = shape.monitors.clone();
    let fd = FnOracle::new("failure detector", move |exec: &Execution<FdAction>| {
        for &(m, t) in &pairs {
            let mut crashed_at: Option<Time> = None;
            let mut suspected_at: Option<Time> = None;
            for e in exec.events() {
                match &e.action {
                    SysAction::App(FdOp::Crash { node })
                        if node.0 == t as usize && crashed_at.is_none() =>
                    {
                        crashed_at = Some(e.now);
                    }
                    SysAction::App(FdOp::Suspect { monitor, target })
                        if monitor.0 == m as usize
                            && target.0 == t as usize
                            && suspected_at.is_none() =>
                    {
                        suspected_at = Some(e.now);
                    }
                    _ => {}
                }
            }
            match (crashed_at, suspected_at) {
                (None, Some(s)) => {
                    return Verdict::violated(format!(
                        "monitor {m}: false suspicion of {t} at {s} (no crash ever happened)"
                    ))
                }
                (Some(c), Some(s)) if s < c => {
                    return Verdict::violated(format!(
                        "monitor {m}: false suspicion of {t} at {s}, before the crash at {c}"
                    ))
                }
                (Some(c), Some(s)) if s - c > detection => {
                    return Verdict::violated(format!(
                        "monitor {m}: suspicion at {s} exceeds the detection bound {detection} \
                         after the crash at {c}"
                    ))
                }
                (Some(c), None) if c + detection < horizon => {
                    return Verdict::violated(format!(
                        "monitor {m}: crash of {t} at {c} never suspected within {detection} \
                         (completeness)"
                    ))
                }
                _ => {}
            }
        }
        Verdict::Holds
    });

    let mut oracles: Vec<Box<dyn Oracle<FdAction>>> =
        vec![Box::new(envelope), Box::new(fifo), Box::new(fd)];
    for &(node, target) in &shape.monitors {
        oracles.push(Box::new(FnOracle::new(
            format!("replay(monitor {node})"),
            move |exec: &Execution<FdAction>| match replay_timed(
                Monitor::new(NodeId(node as usize), NodeId(target as usize), params),
                exec,
            ) {
                Ok(_) => Verdict::Holds,
                Err(e) => Verdict::violated(format!("Lemma 2.1 replay failed: {e}")),
            },
        )));
    }
    let period = ns(cfg.period_ns);
    for &(src, dst) in &shape.beaters {
        oracles.push(Box::new(FnOracle::new(
            format!("replay(heartbeater {src})"),
            move |exec: &Execution<FdAction>| match replay_timed(
                Heartbeater::new(NodeId(src as usize), NodeId(dst as usize), period),
                exec,
            ) {
                Ok(_) => Verdict::Holds,
                Err(e) => Verdict::violated(format!("Lemma 2.1 replay failed: {e}")),
            },
        )));
    }
    if let Some((me, to)) = shape.relay {
        let relay = relay_component(cfg, me, to);
        oracles.push(Box::new(FnOracle::new(
            "replay(relay)",
            move |exec: &Execution<FdAction>| match replay_timed(relay.clone(), exec) {
                Ok(_) => Verdict::Holds,
                Err(e) => Verdict::violated(format!("Lemma 2.1 replay failed: {e}")),
            },
        )));
    }
    oracles
}

/// Per-node beep period of the clock fleet (staggered so the fleet's
/// interleavings are non-trivial).
fn fleet_period(cfg: &ScenarioConfig, node: u32) -> Duration {
    ns(cfg.period_ns + i64::from(node) * 1_000_000)
}

/// Runs one clock-fleet case. Returns the run, oracle verdicts, and the
/// number of clock-script requests the C1–C4 guard clamped.
///
/// # Panics
///
/// Panics if the config is not a clockfleet-family config.
pub fn run_clockfleet(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> Judged<BeepAction> {
    run_clockfleet_with(cfg, plan, seed, 1)
}

pub(crate) fn run_clockfleet_with(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    shards: usize,
) -> Judged<BeepAction> {
    assert!(matches!(
        cfg.kind,
        ScenarioKind::ClockFleet | ScenarioKind::ClockFleetLarge
    ));
    let mut built = build_clockfleet(cfg, plan, seed);
    let run = built.engine.run().map_err(|e| e.to_string());
    let violations = judge_clockfleet(cfg, &run, shards);
    finish_case(&built, violations, run)
}

/// Builds the clock-fleet case's engine (without running it).
pub(crate) fn build_clockfleet(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
) -> BuiltCase<BeepAction> {
    let eps = ns(cfg.eps_ns);
    let hub = MetricsHub::new();
    let mut builder = Engine::builder();
    let mut handles = Vec::new();
    for i in 0..cfg.nodes {
        let period = if cfg.canary == Some(CanaryKind::CadenceRush) && i == 0 {
            fleet_period(cfg, 0) - Duration::from_millis(1)
        } else {
            fleet_period(cfg, i)
        };
        if cfg.canary == Some(CanaryKind::SkewBeyondEps) && i == 0 {
            // The planted bug: node 0's clock runs 1 ms beyond the
            // declared ε. Its ClockNode is registered with a widened
            // envelope so the engine guard lets the readings through —
            // the C_ε oracle still judges against the declared ε.
            let widened = eps + Duration::from_millis(2);
            builder = builder.clock_node(
                ClockNode::new(
                    "n0".to_string(),
                    widened,
                    OffsetClock::new(eps + Duration::from_millis(1), widened),
                )
                .with(ClockBeeper::with_src(period, 0)),
            );
            continue;
        }
        let clock = scripted_clock_for(plan, i);
        handles.push(clock.rejections());
        builder = builder.clock_node(
            ClockNode::new(format!("n{i}"), eps, clock).with(ClockBeeper::with_src(period, i)),
        );
    }
    let engine = builder
        .observer(hub.engine_observer().without_checkpoint_counters())
        .scheduler(BiasedScheduler::new(plan, seed))
        .horizon(at_ns(cfg.horizon_ns))
        .max_events(CASE_MAX_EVENTS)
        .build();
    BuiltCase {
        engine,
        hub,
        fault_stats: Vec::new(),
        rejections: handles,
    }
}

/// Judges a clock-fleet run against the scenario's oracles.
pub(crate) fn judge_clockfleet(
    cfg: &ScenarioConfig,
    run: &Result<Run<BeepAction>, String>,
    shards: usize,
) -> JudgeVerdicts {
    judge_sharded(&clockfleet_oracles(cfg), run, shards)
}

/// The clock-fleet scenario's oracle set.
#[must_use]
pub fn clockfleet_oracles(cfg: &ScenarioConfig) -> Vec<Box<dyn Oracle<BeepAction>>> {
    let eps = ns(cfg.eps_ns);
    let mut oracles: Vec<Box<dyn Oracle<BeepAction>>> = vec![Box::new(CEpsOracle::new(eps))];

    // Per-node clock monotonicity and exact clock-time cadence: beep k of
    // node i must carry clock reading (k+1)·period_i even under scripted
    // skew — the deadline clamp in the C1–C4 guard guarantees it.
    let periods: Vec<(u32, Duration)> = (0..cfg.nodes).map(|i| (i, fleet_period(cfg, i))).collect();
    oracles.push(Box::new(FnOracle::new(
        "clock cadence",
        move |exec: &Execution<BeepAction>| {
            for (node, period) in &periods {
                let mut last: Option<Time> = None;
                let mut expected_seq = 0u64;
                for (i, e) in exec.events().iter().enumerate() {
                    let BeepAction::Beep { src, seq } = &e.action;
                    if src != node {
                        continue;
                    }
                    let clock = match e.clock {
                        Some(c) => c,
                        None => {
                            return Verdict::violated(format!(
                                "event {i}: beep of node {node} recorded without a clock reading"
                            ))
                        }
                    };
                    if let Some(prev) = last {
                        if clock <= prev {
                            return Verdict::violated(format!(
                                "event {i}: node {node} clock moved {prev} → {clock} (C3 broken)"
                            ));
                        }
                    }
                    last = Some(clock);
                    if *seq != expected_seq {
                        return Verdict::violated(format!(
                            "event {i}: node {node} beeped seq {seq}, expected {expected_seq}"
                        ));
                    }
                    expected_seq += 1;
                    let due = Time::ZERO + *period * (*seq as i64 + 1);
                    if clock != due {
                        return Verdict::violated(format!(
                            "event {i}: node {node} beep {seq} at clock {clock}, expected {due}"
                        ));
                    }
                }
            }
            Verdict::Holds
        },
    )));

    for i in 0..cfg.nodes {
        let period = fleet_period(cfg, i);
        oracles.push(Box::new(FnOracle::new(
            format!("replay(beeper {i})"),
            move |exec: &Execution<BeepAction>| match replay_clock(
                ClockBeeper::with_src(period, i),
                exec,
            ) {
                Ok(_) => Verdict::Holds,
                Err(e) => Verdict::violated(format!("Lemma 2.1 clock replay failed: {e}")),
            },
        )));
    }
    oracles
}

/// The slot users' guard band: `ε` normally, zero under the
/// [`CanaryKind::MutexGuardZero`] canary (the paper's Section 7 failure
/// mode: an unguarded schedule is exclusive in the timed model but not
/// under any non-trivial clock skew).
fn mutex_guard(cfg: &ScenarioConfig) -> Duration {
    if cfg.canary == Some(CanaryKind::MutexGuardZero) {
        Duration::ZERO
    } else {
        ns(cfg.eps_ns)
    }
}

/// Runs one mutual-exclusion case.
///
/// # Panics
///
/// Panics if the config is not a mutex-family config.
pub fn run_mutex(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> Judged<MutexAction> {
    run_mutex_with(cfg, plan, seed, 1)
}

pub(crate) fn run_mutex_with(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    shards: usize,
) -> Judged<MutexAction> {
    assert!(matches!(
        cfg.kind,
        ScenarioKind::Mutex | ScenarioKind::MutexContended
    ));
    let mut built = build_mutex(cfg, plan, seed);
    let run = built.engine.run().map_err(|e| e.to_string());
    let violations = judge_mutex(cfg, &run, shards);
    finish_case(&built, violations, run)
}

/// Builds the mutual-exclusion case's engine (without running it): `n`
/// clock nodes, each running `C(SlotUser, ε)` against a plan-scripted
/// clock.
pub(crate) fn build_mutex(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
) -> BuiltCase<MutexAction> {
    let eps = ns(cfg.eps_ns);
    let slot = ns(cfg.period_ns);
    let guard = mutex_guard(cfg);
    let n = cfg.nodes as usize;
    let rounds = u64::from(cfg.ops_per_node);
    let hub = MetricsHub::new();
    let mut builder = Engine::builder();
    let mut handles = Vec::new();
    for i in 0..cfg.nodes {
        let clock = scripted_clock_for(plan, i);
        handles.push(clock.rejections());
        builder = builder.clock_node(ClockNode::new(format!("n{i}"), eps, clock).with(
            ClockSim::new(SlotUser::guarded(
                NodeId(i as usize),
                n,
                slot,
                guard,
                rounds,
            )),
        ));
    }
    let engine = builder
        .observer(hub.engine_observer().without_checkpoint_counters())
        .scheduler(BiasedScheduler::new(plan, seed))
        .horizon(at_ns(cfg.horizon_ns))
        .max_events(CASE_MAX_EVENTS)
        .build();
    BuiltCase {
        engine,
        hub,
        fault_stats: Vec::new(),
        rejections: handles,
    }
}

/// Judges a mutex run against the scenario's oracles.
pub(crate) fn judge_mutex(
    cfg: &ScenarioConfig,
    run: &Result<Run<MutexAction>, String>,
    shards: usize,
) -> JudgeVerdicts {
    judge_sharded(&mutex_oracles(cfg), run, shards)
}

/// Interval-based mutual exclusion over real time: occupancies of
/// *different* nodes must not strictly overlap (touching at a boundary
/// instant is allowed — with `guard = ε` the transformed schedule is
/// exactly edge-to-edge in the worst case).
fn check_mutual_exclusion(exec: &Execution<MutexAction>, n: usize) -> Verdict {
    let mut open: Vec<Option<(u64, Time)>> = vec![None; n];
    let mut intervals: Vec<(usize, u64, Time, Time)> = Vec::new();
    let mut end = Time::ZERO;
    for (i, e) in exec.events().iter().enumerate() {
        end = end.max(e.now);
        let SysAction::App(op) = &e.action else {
            continue;
        };
        match op {
            MutexOp::Enter { node, round } => {
                if open[node.0].is_some() {
                    return Verdict::violated(format!(
                        "event {i}: {node} re-entered while already inside"
                    ));
                }
                open[node.0] = Some((*round, e.now));
            }
            MutexOp::Exit { node, round } => match open[node.0].take() {
                Some((r, entered)) if r == *round => {
                    intervals.push((node.0, r, entered, e.now));
                }
                other => {
                    return Verdict::violated(format!(
                        "event {i}: {node} exited round {round} without a matching entry \
                         (open: {other:?})"
                    ))
                }
            },
        }
    }
    for (node, slot) in open.iter().enumerate() {
        if let Some((r, entered)) = slot {
            intervals.push((node, *r, *entered, end));
        }
    }
    for (i, a) in intervals.iter().enumerate() {
        for b in &intervals[i + 1..] {
            if a.0 == b.0 {
                continue;
            }
            let start = a.2.max(b.2);
            let finish = a.3.min(b.3);
            if start < finish {
                return Verdict::violated(format!(
                    "node {} round {} [{}, {}] overlaps node {} round {} [{}, {}]",
                    a.0, a.1, a.2, a.3, b.0, b.1, b.2, b.3
                ));
            }
        }
    }
    Verdict::Holds
}

/// The mutex scenario's oracle set.
#[must_use]
pub fn mutex_oracles(cfg: &ScenarioConfig) -> Vec<Box<dyn Oracle<MutexAction>>> {
    let n = cfg.nodes as usize;
    let rounds = u64::from(cfg.ops_per_node);
    let exclusion = FnOracle::new("mutual exclusion", move |exec: &Execution<MutexAction>| {
        check_mutual_exclusion(exec, n)
    });
    let liveness = FnOracle::new("mutex liveness", move |exec: &Execution<MutexAction>| {
        let mut enters = vec![0u64; n];
        for e in exec.events() {
            if let SysAction::App(MutexOp::Enter { node, .. }) = &e.action {
                enters[node.0] += 1;
            }
        }
        for (node, &count) in enters.iter().enumerate() {
            if count != rounds {
                return Verdict::violated(format!(
                    "node {node} entered {count} times, expected {rounds}"
                ));
            }
        }
        Verdict::Holds
    });
    let mut oracles: Vec<Box<dyn Oracle<MutexAction>>> = vec![
        Box::new(exclusion),
        Box::new(liveness),
        Box::new(CEpsOracle::new(ns(cfg.eps_ns))),
    ];
    let slot = ns(cfg.period_ns);
    let guard = mutex_guard(cfg);
    for i in 0..cfg.nodes {
        oracles.push(Box::new(FnOracle::new(
            format!("replay(slot-user {i})"),
            move |exec: &Execution<MutexAction>| match replay_clock(
                ClockSim::new(SlotUser::guarded(
                    NodeId(i as usize),
                    n,
                    slot,
                    guard,
                    rounds,
                )),
                exec,
            ) {
                Ok(_) => Verdict::Holds,
                Err(e) => Verdict::violated(format!("Lemma 2.1 clock replay failed: {e}")),
            },
        )));
    }
    oracles
}

/// Runs one register (`D_C`) case. Returns the run, oracle verdicts, and
/// clamped clock-request count.
///
/// # Panics
///
/// Panics if the config is not a register-family config.
pub fn run_register(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> Judged<RegAction> {
    run_register_with(cfg, plan, seed, 1)
}

pub(crate) fn run_register_with(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    shards: usize,
) -> Judged<RegAction> {
    assert!(matches!(
        cfg.kind,
        ScenarioKind::Register | ScenarioKind::RegisterTriple
    ));
    let mut built = build_register(cfg, plan, seed);
    let run = built.engine.run().map_err(|e| e.to_string());
    let violations = judge_register(cfg, seed, &run, shards);
    finish_case(&built, violations, run)
}

/// The register/counter parameter set, with the sign-flip canary hook:
/// the mutant skips the `2ε` read wait (`read_slack = 0`), the exact
/// slack Lemma 6.4 needs — linearizability then breaks under admissible
/// clock skew.
fn register_params(cfg: &ScenarioConfig, topo: &Topology, canary: CanaryKind) -> RegisterParams {
    let mut params = RegisterParams::for_clock_model(
        topo,
        cfg.bounds(),
        ns(cfg.eps_ns),
        ns(cfg.d2_ns / 2),
        Duration::from_micros(100),
    );
    if cfg.canary == Some(canary) {
        params.read_slack = Duration::ZERO;
    }
    params
}

/// The closed-loop workloads' think-time bounds.
fn think_bounds() -> DelayBounds {
    DelayBounds::new(Duration::from_millis(1), Duration::from_millis(6)).expect("valid")
}

/// The clock strategies a `D_C` scenario deploys: plan-scripted clocks —
/// except under a sign-flip canary, where nodes 0 and 1 run at fixed
/// *admissible* worst-case offsets (`+ε` / `−ε`). The skew itself is
/// legal (`C_ε` holds throughout), but the mutant's missing `2ε` read
/// slack turns any node-1 read racing just behind a node-0 write ack
/// into a stale, non-linearizable return — the paper's own argument for
/// why Algorithm L does not survive the clock transformation
/// (Section 6.2).
fn dc_strategies(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    sign_flip: CanaryKind,
    handles: &mut Vec<Rc<Cell<u64>>>,
) -> Vec<Box<dyn psync_executor::ClockStrategy>> {
    let eps = ns(cfg.eps_ns);
    (0..cfg.nodes)
        .map(|i| {
            if cfg.canary == Some(sign_flip) && i < 2 {
                let offset = if i == 0 { eps } else { -eps };
                return Box::new(OffsetClock::new(offset, eps))
                    as Box<dyn psync_executor::ClockStrategy>;
            }
            let clock = scripted_clock_for(plan, i);
            handles.push(clock.rejections());
            Box::new(clock) as Box<dyn psync_executor::ClockStrategy>
        })
        .collect()
}

/// Builds the register (`D_C`) case's engine (without running it).
pub(crate) fn build_register(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
) -> BuiltCase<RegAction> {
    let hub = MetricsHub::new();
    let topo = Topology::complete(cfg.nodes as usize);
    let physical = cfg.bounds();
    let eps = ns(cfg.eps_ns);
    let params = register_params(cfg, &topo, CanaryKind::RegisterSignFlip);
    let algorithms = topo
        .nodes()
        .map(|i| NodeSpec::new(i, AlgorithmS::new(i, params.clone())))
        .collect();
    let mut handles = Vec::new();
    let strategies = dc_strategies(cfg, plan, CanaryKind::RegisterSignFlip, &mut handles);
    let plan_for_policy = plan.clone();
    let workload = ClosedLoopWorkload::new(&topo, seed, think_bounds(), cfg.ops_per_node);
    let engine = build_dc(&topo, physical, eps, algorithms, strategies, move |_, _| {
        Box::new(PlanDelayPolicy::new(&plan_for_policy, seed))
    })
    .timed(workload)
    .observer(hub.engine_observer().without_checkpoint_counters())
    .scheduler(BiasedScheduler::new(plan, seed ^ 0x5C4E_D01E))
    .horizon(at_ns(cfg.horizon_ns))
    .max_events(CASE_MAX_EVENTS)
    .build();
    BuiltCase {
        engine,
        hub,
        fault_stats: Vec::new(),
        rejections: handles,
    }
}

/// Judges a register run: liveness (the closed loop must drain before the
/// horizon) plus the oracle set.
pub(crate) fn judge_register(
    cfg: &ScenarioConfig,
    seed: u64,
    run: &Result<Run<RegAction>, String>,
    shards: usize,
) -> JudgeVerdicts {
    let (oracle_violations, metrics) = judge_sharded(&register_oracles(cfg, seed), run, shards);
    match run {
        Ok(run) => {
            let mut violations = Vec::new();
            if run.stop != StopReason::Quiescent {
                violations.push((
                    "liveness".to_string(),
                    format!("workload did not finish by the horizon ({:?})", run.stop),
                ));
            }
            violations.extend(oracle_violations);
            (violations, metrics)
        }
        Err(_) => (oracle_violations, metrics),
    }
}

/// The register scenario's oracle set. Linearizability is the *same*
/// [`LinearizableRegister`] problem instance the conformance sweeps use,
/// adapted through [`ProblemOracle`] — the shared-checker seam the
/// explorer was built around.
#[must_use]
pub fn register_oracles(cfg: &ScenarioConfig, seed: u64) -> Vec<Box<dyn Oracle<RegAction>>> {
    let n = cfg.nodes as usize;
    let ops = cfg.ops_per_node;
    vec![
        Box::new(ProblemOracle::new(
            LinearizableRegister::new(n, Value::INITIAL),
            |e: &Execution<RegAction>| app_trace(e),
        )),
        Box::new(CEpsOracle::new(ns(cfg.eps_ns))),
        Box::new(FnOracle::new(
            "replay(workload)",
            move |exec: &Execution<RegAction>| {
                // ClosedLoopWorkload is not Clone; rebuild the identical
                // component from the artifact inputs for each replay.
                let workload =
                    ClosedLoopWorkload::new(&Topology::complete(n), seed, think_bounds(), ops);
                match replay_timed(workload, exec) {
                    Ok(_) => Verdict::Holds,
                    Err(e) => Verdict::violated(format!("Lemma 2.1 replay failed: {e}")),
                }
            },
        )),
    ]
}

/// The counter workload's update payloads: powers of ten per node, so
/// any lost or double-counted increment is visible in a query's digits.
fn counter_update(node: NodeId, _op: u32) -> i64 {
    10i64.pow(node.0 as u32)
}

/// Runs one generalized-object counter case.
///
/// # Panics
///
/// Panics if the config is not a counter config.
pub fn run_counter(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
) -> Judged<ObjAction<Counter>> {
    run_counter_with(cfg, plan, seed, 1)
}

pub(crate) fn run_counter_with(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    shards: usize,
) -> Judged<ObjAction<Counter>> {
    assert_eq!(cfg.kind, ScenarioKind::Counter);
    let mut built = build_counter(cfg, plan, seed);
    let run = built.engine.run().map_err(|e| e.to_string());
    let violations = judge_counter(cfg, seed, &run, shards);
    finish_case(&built, violations, run)
}

/// Builds the counter (`AlgorithmSObj<Counter>` in `D_C`) case's engine
/// (without running it).
pub(crate) fn build_counter(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
) -> BuiltCase<ObjAction<Counter>> {
    let hub = MetricsHub::new();
    let topo = Topology::complete(cfg.nodes as usize);
    let physical = cfg.bounds();
    let eps = ns(cfg.eps_ns);
    let params = register_params(cfg, &topo, CanaryKind::CounterSignFlip);
    let algorithms = topo
        .nodes()
        .map(|i| NodeSpec::new(i, AlgorithmSObj::new(i, Counter, params.clone())))
        .collect();
    let mut handles = Vec::new();
    let strategies = dc_strategies(cfg, plan, CanaryKind::CounterSignFlip, &mut handles);
    let plan_for_policy = plan.clone();
    let workload = ObjWorkload::<Counter>::new(
        &topo,
        seed,
        think_bounds(),
        cfg.ops_per_node,
        counter_update,
    );
    let engine = build_dc(&topo, physical, eps, algorithms, strategies, move |_, _| {
        Box::new(PlanDelayPolicy::new(&plan_for_policy, seed))
    })
    .timed(workload)
    .observer(hub.engine_observer().without_checkpoint_counters())
    .scheduler(BiasedScheduler::new(plan, seed ^ 0x5C4E_D01E))
    .horizon(at_ns(cfg.horizon_ns))
    .max_events(CASE_MAX_EVENTS)
    .build();
    BuiltCase {
        engine,
        hub,
        fault_stats: Vec::new(),
        rejections: handles,
    }
}

/// Judges a counter run: liveness plus the oracle set.
pub(crate) fn judge_counter(
    cfg: &ScenarioConfig,
    seed: u64,
    run: &Result<Run<ObjAction<Counter>>, String>,
    shards: usize,
) -> JudgeVerdicts {
    let (oracle_violations, metrics) = judge_sharded(&counter_oracles(cfg, seed), run, shards);
    match run {
        Ok(run) => {
            let mut violations = Vec::new();
            if run.stop != StopReason::Quiescent {
                violations.push((
                    "liveness".to_string(),
                    format!("workload did not finish by the horizon ({:?})", run.stop),
                ));
            }
            violations.extend(oracle_violations);
            (violations, metrics)
        }
        Err(_) => (oracle_violations, metrics),
    }
}

/// The counter scenario's oracle set: generalized-object
/// linearizability, `C_ε`, and a workload replay.
#[must_use]
pub fn counter_oracles(
    cfg: &ScenarioConfig,
    seed: u64,
) -> Vec<Box<dyn Oracle<ObjAction<Counter>>>> {
    let n = cfg.nodes as usize;
    let ops = cfg.ops_per_node;
    vec![
        Box::new(ObjectLinearizableOracle::new(Counter, n)),
        Box::new(CEpsOracle::new(ns(cfg.eps_ns))),
        Box::new(FnOracle::new(
            "replay(workload)",
            move |exec: &Execution<ObjAction<Counter>>| {
                let workload = ObjWorkload::<Counter>::new(
                    &Topology::complete(n),
                    seed,
                    think_bounds(),
                    ops,
                    counter_update,
                );
                match replay_timed(workload, exec) {
                    Ok(_) => Verdict::Holds,
                    Err(e) => Verdict::violated(format!("Lemma 2.1 replay failed: {e}")),
                }
            },
        )),
    ]
}

/// The probe-sync parameter set for node `i`, with the skew-burst
/// canary hook: the mutant holds every echo back by
/// `2(d₂ − d₁) + 1 ms` — an in-envelope component bug (no channel ever
/// exceeds `d₂`) that turns every offset sample contradictory, so the
/// node certifies nothing better than the `2ε` prior and never covers
/// its peers. Only the ε̂-parameterized `C_ε` oracle can see that.
fn sync_params(cfg: &ScenarioConfig, i: u32) -> SyncParams {
    let echo_hold = if cfg.canary == Some(CanaryKind::SyncSkewBurst) {
        ns(2 * (cfg.d2_ns - cfg.d1_ns)) + Duration::from_millis(1)
    } else {
        Duration::ZERO
    };
    let grace = if cfg.kind == ScenarioKind::SyncRounds {
        RoundSync::grace_for_drops(u64::from(cfg.max_drops))
    } else {
        1
    };
    SyncParams {
        me: NodeId(i as usize),
        peers: (0..cfg.nodes)
            .filter(|&j| j != i)
            .map(|j| NodeId(j as usize))
            .collect(),
        d1: ns(cfg.d1_ns),
        d2: ns(cfg.d2_ns),
        eps: ns(cfg.eps_ns),
        rho_ppm: rho_max(cfg.nodes as usize, cfg.drift_ppm),
        period: ns(cfg.period_ns),
        burst: cfg.ops_per_node,
        grace,
        echo_hold,
    }
}

/// Builds the sync case's engine (without running it): `n` drifting
/// clock nodes running [`ProbeSync`] (or [`RoundSync`] for the
/// fault-resistant variant), wired over per-edge [`FaultChannel`]s that
/// the plan may drop, duplicate, or spike inside `[d₁, d₂]`.
pub(crate) fn build_sync(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
) -> BuiltCase<SyncAction> {
    let eps = ns(cfg.eps_ns);
    let declared = cfg.bounds();
    let actual = DelayBounds::new(declared.min(), declared.max() + ns(cfg.bug_extra_ns))
        .expect("widened bounds stay ordered");
    let rates = drift_rates(cfg.nodes as usize, cfg.drift_ppm);
    let hub = MetricsHub::new();
    let mut builder = Engine::builder();
    for i in 0..cfg.nodes {
        let node = ClockNode::new(format!("n{i}"), eps, DriftClock::new(rates[i as usize]));
        builder = if cfg.kind == ScenarioKind::SyncRounds {
            builder.clock_node(node.with(RoundSync::new(sync_params(cfg, i))))
        } else {
            builder.clock_node(node.with(ProbeSync::new(sync_params(cfg, i))))
        };
    }
    let mut fault_stats = Vec::new();
    for i in 0..cfg.nodes {
        for j in 0..cfg.nodes {
            if i == j {
                continue;
            }
            let fault = PlanChannelFault::new(plan, i, j, seed, declared, ns(cfg.bug_extra_ns));
            let channel = FaultChannel::<SyncMsg, SyncOp>::new(
                NodeId(i as usize),
                NodeId(j as usize),
                actual,
                MaxDelay,
                fault,
            );
            fault_stats.push(channel.stats());
            builder = builder.timed(channel);
        }
    }
    let engine = builder
        .observer(hub.engine_observer().without_checkpoint_counters())
        .observer(hub.channel_delay_observer())
        .scheduler(BiasedScheduler::new(plan, seed))
        .horizon(at_ns(cfg.horizon_ns))
        .max_events(CASE_MAX_EVENTS)
        .build();
    BuiltCase {
        engine,
        hub,
        fault_stats,
        rejections: Vec::new(),
    }
}

/// Judges a sync run against the scenario's oracles.
pub(crate) fn judge_sync(
    cfg: &ScenarioConfig,
    run: &Result<Run<SyncAction>, String>,
    shards: usize,
) -> JudgeVerdicts {
    judge_sharded(&sync_oracles(cfg), run, shards)
}

/// The sync scenario's oracle set: the ε̂-parameterized `C_ε`
/// (certificate soundness and achievement of the predicted bound — the
/// primary oracle), the constant-ε `C_ε` probe, and a Lemma 2.1 clock
/// replay of every sync component. The per-edge FIFO oracle is
/// deliberately omitted: probe bursts and held echoes are handed to
/// independently delayed channels in the same instant, so cross-message
/// reordering is legitimate.
#[must_use]
pub fn sync_oracles(cfg: &ScenarioConfig) -> Vec<Box<dyn Oracle<SyncAction>>> {
    let bound = predicted_eps_hat(
        ns(cfg.d1_ns),
        ns(cfg.d2_ns),
        rho_max(cfg.nodes as usize, cfg.drift_ppm),
        at_ns(cfg.horizon_ns),
    );
    let mut oracles: Vec<Box<dyn Oracle<SyncAction>>> = vec![
        Box::new(EpsHatOracle::new(cfg.nodes as usize, bound)),
        Box::new(CEpsOracle::new(ns(cfg.eps_ns))),
    ];
    for i in 0..cfg.nodes {
        let cfg = cfg.clone();
        let rounds = cfg.kind == ScenarioKind::SyncRounds;
        oracles.push(Box::new(FnOracle::new(
            format!("replay(sync {i})"),
            move |exec: &Execution<SyncAction>| {
                let result = if rounds {
                    replay_clock(RoundSync::new(sync_params(&cfg, i)), exec).map(|_| ())
                } else {
                    replay_clock(ProbeSync::new(sync_params(&cfg, i)), exec).map(|_| ())
                };
                match result {
                    Ok(()) => Verdict::Holds,
                    Err(e) => Verdict::violated(format!("Lemma 2.1 clock replay failed: {e}")),
                }
            },
        )));
    }
    oracles
}

/// Runs one clock-synchronization case and publishes each node's final
/// certified ε̂ as a `sync.eps_hat_ns.n{i}` gauge (campaign merging
/// keeps the worst level).
///
/// # Panics
///
/// Panics if the config is not a sync-family config.
pub fn run_sync(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> Judged<SyncAction> {
    run_sync_with(cfg, plan, seed, 1)
}

pub(crate) fn run_sync_with(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    shards: usize,
) -> Judged<SyncAction> {
    assert!(cfg.kind.is_sync());
    let mut built = build_sync(cfg, plan, seed);
    let run = built.engine.run().map_err(|e| e.to_string());
    if let Ok(run) = &run {
        let measured = MeasuredEps::from_execution(&run.execution);
        for i in 0..cfg.nodes {
            let node = NodeId(i as usize);
            if let Some(cert) = measured.last_for(node) {
                built
                    .hub
                    .set_gauge(&format!("sync.eps_hat_ns.{node}"), cert.eps_hat.as_nanos());
            }
        }
    }
    let violations = judge_sync(cfg, &run, shards);
    finish_case(&built, violations, run)
}

/// Collapses a typed [`Judged`] result into the kind-erased
/// [`CaseOutcome`] the exploration loop stores and compares.
pub(crate) fn outcome_of<A: Action>(judged: Judged<A>) -> CaseOutcome {
    let (events, fp) = match &judged.run {
        Ok(r) => (r.execution.len(), fingerprint(&r.execution)),
        Err(_) => (0, 0),
    };
    CaseOutcome {
        violations: judged.violations,
        events,
        rejected_clock_requests: judged.rejected_clock_requests,
        fingerprint: fp,
        metrics: judged.metrics,
    }
}

/// Runs one case of any scenario kind and judges it sequentially — the
/// generic entry point `replay_artifact` and one-off callers share.
/// Equivalent to [`run_case_sharded`] with one shard (every outcome is
/// shard-count invariant, so replays need not know the campaign's
/// monitor width).
#[must_use]
pub fn run_case(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> CaseOutcome {
    run_case_sharded(cfg, plan, seed, 1)
}

/// Runs one case of any scenario kind and judges it on `monitor_shards`
/// judge threads. The shard count is a pure performance knob threaded
/// down from [`CampaignConfig::monitor_shards`](crate::CampaignConfig);
/// the outcome is bit-identical for every value.
#[must_use]
pub fn run_case_sharded(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    monitor_shards: usize,
) -> CaseOutcome {
    let shards = monitor_shards.max(1);
    match cfg.kind {
        ScenarioKind::HeartbeatRestart => {
            outcome_of(run_heartbeat_restart_with(cfg, plan, seed, shards))
        }
        ScenarioKind::Heartbeat
        | ScenarioKind::HeartbeatCrash
        | ScenarioKind::HeartbeatGray
        | ScenarioKind::HeartbeatBidi
        | ScenarioKind::Relay
        | ScenarioKind::Partition => outcome_of(run_heartbeat_with(cfg, plan, seed, shards)),
        ScenarioKind::ClockFleet | ScenarioKind::ClockFleetLarge => {
            outcome_of(run_clockfleet_with(cfg, plan, seed, shards))
        }
        ScenarioKind::Mutex | ScenarioKind::MutexContended => {
            outcome_of(run_mutex_with(cfg, plan, seed, shards))
        }
        ScenarioKind::Register | ScenarioKind::RegisterTriple => {
            outcome_of(run_register_with(cfg, plan, seed, shards))
        }
        ScenarioKind::Counter => outcome_of(run_counter_with(cfg, plan, seed, shards)),
        ScenarioKind::SyncProbe | ScenarioKind::SyncRounds => {
            outcome_of(run_sync_with(cfg, plan, seed, shards))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cases_pass_all_oracles_in_every_scenario() {
        for kind in ScenarioKind::all() {
            let cfg = ScenarioConfig::default_for(kind);
            let out = run_case(&cfg, &FaultPlan::empty(), 1);
            assert!(
                out.violations.is_empty(),
                "{}: {:?}",
                kind.name(),
                out.violations
            );
            assert!(out.events > 0, "{}: no events", kind.name());
        }
    }

    #[test]
    fn clean_clockfleet_case_rejects_no_clock_requests() {
        let cfg = ScenarioConfig::clockfleet_default();
        let out = run_case(&cfg, &FaultPlan::empty(), 1);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.rejected_clock_requests, 0);
    }

    #[test]
    fn crash_is_detected_within_the_bound() {
        let mut cfg = ScenarioConfig::heartbeat_default();
        cfg.crash_at_ns = Some(150_000_000);
        let out = run_case(&cfg, &FaultPlan::empty(), 3);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    /// Lemma 2.1 at the checkpoint seam: the restart scenario's outcome —
    /// violations, event count, fingerprint, metrics — is bit-identical
    /// to an uninterrupted run of the same system.
    #[test]
    fn restart_run_matches_the_uninterrupted_run() {
        let restart = ScenarioConfig::default_for(ScenarioKind::HeartbeatRestart);
        let mut straight = restart.clone();
        straight.kind = ScenarioKind::HeartbeatCrash;
        straight.restart_at_ns = None;
        for seed in [1u64, 7, 0x0C1A_551C] {
            let a = run_case(&restart, &FaultPlan::empty(), seed);
            let b = run_case(&straight, &FaultPlan::empty(), seed);
            assert_eq!(a, b, "seed {seed}: restart diverged from straight run");
        }
    }

    #[test]
    fn scenario_names_round_trip() {
        for kind in ScenarioKind::all() {
            assert_eq!(ScenarioKind::from_name(kind.name()).unwrap(), kind);
        }
        assert!(ScenarioKind::from_name("nope").is_err());
    }

    #[test]
    fn config_round_trips_through_json() {
        for kind in ScenarioKind::all() {
            let cfg = ScenarioConfig::default_for(kind);
            let back = ScenarioConfig::from_json(&cfg.to_json()).unwrap();
            assert_eq!(cfg, back);
        }
        let mut with_canary = ScenarioConfig::heartbeat_default();
        with_canary.canary = Some(crate::canary::CanaryKind::DuplicateDelivery);
        assert_eq!(
            ScenarioConfig::from_json(&with_canary.to_json()).unwrap(),
            with_canary
        );
    }

    /// Pre-catalog artifacts carry neither `restart_at_ns` nor `canary`;
    /// their configs must still parse (as `None`).
    #[test]
    fn config_json_tolerates_missing_new_fields() {
        let cfg = ScenarioConfig::heartbeat_default();
        let Json::Obj(mut fields) = cfg.to_json() else {
            panic!("config JSON is an object")
        };
        fields.retain(|(k, _)| k != "restart_at_ns" && k != "canary" && k != "drift_ppm");
        let back = ScenarioConfig::from_json(&Json::Obj(fields)).unwrap();
        assert_eq!(back, cfg);
    }
}
