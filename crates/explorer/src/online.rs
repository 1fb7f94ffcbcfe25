//! Online judging of heartbeat-family cases: stream oracles consume
//! events through the engine's [`Observer`](psync_executor::Observer)
//! hooks *while the case runs*, and the driver stops the engine the
//! moment any oracle declares a violation certain — judging cost scales
//! with the distance to the first violation instead of the horizon.
//!
//! Three [`StreamOracle`]s mirror the heartbeat family's post-hoc
//! oracles byte-for-byte (same names, same messages):
//!
//! * `EnvelopeStream` — the `[d₁, d₂]` delivery envelope plus the
//!   plan's drop/duplicate ledger ("delivery envelope").
//! * `FifoStream` — per-edge FIFO first-delivery order ("fifo order"),
//!   the incremental form of [`psync_verify::check_fifo_per_edge`].
//! * `FdStream` — per-pair failure-detector accuracy and completeness
//!   ("failure detector"). Accuracy violations are certain the instant
//!   the offending suspicion (or its absence past the detection bound)
//!   is observed; completeness is only *decidable* at the horizon, but
//!   becomes certain mid-run once the bound has silently expired —
//!   every continuation then violates either completeness or the bound.
//!
//! The parity contract (pinned by this module's tests): a run driven to
//! its natural stop without short-circuiting yields exactly the
//! verdicts the post-hoc oracles of the same names produce on the
//! recorded execution. A short-circuited run instead reports the single
//! certain violation; its message describes the truncated prefix, which
//! is precisely what a failing case's artifact wants. The Lemma 2.1
//! replay oracles stay post-hoc only — replay is a whole-execution
//! property with no incremental form, and a certain safety violation
//! makes a replay verdict moot.

use std::collections::{BTreeMap, BTreeSet};

use psync_apps::heartbeat::{FdAction, FdOp};
use psync_automata::{TimedEvent, Verdict};
use psync_executor::StopReason;
use psync_net::SysAction;
use psync_obs::{monitor_snapshot, OnlineJudge};
use psync_time::{DelayBounds, Duration, Time};
use psync_verify::StreamOracle;

use crate::faults::seq_of;
use crate::plan::{at_ns, ns, FaultEntry, FaultPlan};
use crate::scenario::{
    build_heartbeat_with, finish_case, hb_shape, monitor_params, outcome_of, CaseOutcome, Judged,
    ScenarioConfig, ScenarioKind, CASE_MAX_EVENTS,
};

/// Events between judge polls: the engine pauses every this many events
/// so the driver can check for a certain violation. Small enough that a
/// short-circuit saves nearly the whole tail even on the catalog's
/// short default horizons, large enough that the pause bookkeeping is
/// noise (a pause is just an early return from the step loop).
const ONLINE_CHUNK: usize = 32;

/// Streaming form of the "delivery envelope" oracle: every `Recv` must
/// match a prior `Send`, land inside the declared `[d₁, d₂]` window,
/// not resurrect a planned drop, and not exceed its duplicate budget.
/// Every violation here is existential, hence certain on sight.
struct EnvelopeStream {
    declared: DelayBounds,
    dropped: Vec<(u32, u32, u32)>,
    duplicated: Vec<(u32, u32, u32)>,
    sends: Vec<(u64, Time)>,
    copies: Vec<(u64, u32)>,
    violation: Option<String>,
}

impl StreamOracle<FdAction> for EnvelopeStream {
    fn name(&self) -> String {
        "delivery envelope".to_string()
    }

    fn observe_event(&mut self, i: usize, e: &TimedEvent<FdAction>) {
        if self.violation.is_some() {
            return;
        }
        match &e.action {
            SysAction::Send(env) => self.sends.push((env.id.0, e.now)),
            SysAction::Recv(env) => {
                let Some((_, sent)) = self.sends.iter().find(|(id, _)| *id == env.id.0) else {
                    self.violation = Some(format!(
                        "event {i}: received message {} that was never sent",
                        env.id.0
                    ));
                    return;
                };
                let latency = e.now - *sent;
                if latency < self.declared.min() || latency > self.declared.max() {
                    self.violation = Some(format!(
                        "event {i}: message {} delivered after {latency}, outside [{}, {}]",
                        env.id.0,
                        self.declared.min(),
                        self.declared.max()
                    ));
                    return;
                }
                let seq = seq_of(env.id);
                let edge_seq = (env.src.0 as u32, env.dst.0 as u32, seq);
                if self.dropped.contains(&edge_seq) {
                    self.violation = Some(format!(
                        "event {i}: message {seq} was delivered despite a planned drop"
                    ));
                    return;
                }
                match self.copies.iter_mut().find(|(id, _)| *id == env.id.0) {
                    Some((_, n)) => *n += 1,
                    None => self.copies.push((env.id.0, 1)),
                }
                let n = self
                    .copies
                    .iter()
                    .find(|(id, _)| *id == env.id.0)
                    .map_or(0, |(_, n)| *n);
                let allowed = if self.duplicated.contains(&edge_seq) {
                    2
                } else {
                    1
                };
                if n > allowed {
                    self.violation = Some(format!(
                        "event {i}: message {seq} delivered {n} times (plan allows {allowed})"
                    ));
                }
            }
            _ => {}
        }
    }

    fn violation(&self) -> Option<String> {
        self.violation.clone()
    }

    fn finish(&mut self, _end: Time) -> Verdict {
        match &self.violation {
            Some(why) => Verdict::Violated(why.clone()),
            None => Verdict::Holds,
        }
    }
}

/// Streaming form of [`psync_verify::check_fifo_per_edge`]: on each
/// `(src, dst)` edge a never-before-seen sequence number must not
/// surface after a higher one already has; re-deliveries of seen
/// sequence numbers (duplicates) are always admissible.
struct FifoStream {
    edges: BTreeMap<(usize, usize), (u32, BTreeSet<u32>)>,
    violation: Option<String>,
}

impl StreamOracle<FdAction> for FifoStream {
    fn name(&self) -> String {
        "fifo order".to_string()
    }

    fn observe_event(&mut self, _i: usize, e: &TimedEvent<FdAction>) {
        if self.violation.is_some() {
            return;
        }
        let SysAction::Recv(env) = &e.action else {
            return;
        };
        let seq = (env.id.0 & 0xffff_ffff) as u32;
        let (max_seen, seen) = self
            .edges
            .entry((env.src.0, env.dst.0))
            .or_insert_with(|| (0, BTreeSet::new()));
        if seen.contains(&seq) {
            return;
        }
        if !seen.is_empty() && seq < *max_seen {
            self.violation = Some(format!(
                "FIFO violation on {}->{}: first delivery of seq {} at {} \
                 after seq {} was already delivered",
                env.src, env.dst, seq, e.now, max_seen
            ));
            return;
        }
        *max_seen = seq.max(*max_seen);
        seen.insert(seq);
    }

    fn violation(&self) -> Option<String> {
        self.violation.clone()
    }

    fn finish(&mut self, _end: Time) -> Verdict {
        match &self.violation {
            Some(why) => Verdict::Violated(why.clone()),
            None => Verdict::Holds,
        }
    }
}

/// Streaming form of the "failure detector" oracle: per monitored pair,
/// the first crash of the target and the first suspicion by the monitor
/// decide accuracy (no false or late suspicions) and completeness (a
/// crash inside the horizon must be suspected within the detection
/// bound).
struct FdStream {
    /// `(monitor, target)` pairs, in the shape's order.
    pairs: Vec<(u32, u32)>,
    detection: Duration,
    /// The *configured* horizon — completeness judges against it, not
    /// against wherever the run actually stopped, matching the post-hoc
    /// oracle.
    horizon: Time,
    /// Per pair: first crash of the target, first suspicion by the
    /// monitor.
    observed: Vec<(Option<Time>, Option<Time>)>,
    /// Time of the latest event seen (event times are non-decreasing).
    latest: Time,
}

impl FdStream {
    /// The post-hoc verdict for pair `k` from what has been observed so
    /// far; `None` = nothing wrong yet.
    fn pair_verdict(&self, k: usize) -> Option<String> {
        let (m, t) = self.pairs[k];
        match self.observed[k] {
            (None, Some(s)) => Some(format!(
                "monitor {m}: false suspicion of {t} at {s} (no crash ever happened)"
            )),
            (Some(c), Some(s)) if s < c => Some(format!(
                "monitor {m}: false suspicion of {t} at {s}, before the crash at {c}"
            )),
            (Some(c), Some(s)) if s - c > self.detection => Some(format!(
                "monitor {m}: suspicion at {s} exceeds the detection bound {} \
                 after the crash at {c}",
                self.detection
            )),
            _ => None,
        }
    }

    /// The completeness violation for pair `k`, decided against `cut`:
    /// the crash happened early enough that the detection bound expired
    /// before `cut`, and no suspicion ever arrived.
    fn completeness(&self, k: usize, cut: Time) -> Option<String> {
        let (m, t) = self.pairs[k];
        match self.observed[k] {
            (Some(c), None) if c + self.detection < cut => Some(format!(
                "monitor {m}: crash of {t} at {c} never suspected within {} \
                 (completeness)",
                self.detection
            )),
            _ => None,
        }
    }
}

impl StreamOracle<FdAction> for FdStream {
    fn name(&self) -> String {
        "failure detector".to_string()
    }

    fn observe_event(&mut self, _i: usize, e: &TimedEvent<FdAction>) {
        self.latest = e.now;
        match &e.action {
            SysAction::App(FdOp::Crash { node }) => {
                for (k, &(_, t)) in self.pairs.iter().enumerate() {
                    if node.0 == t as usize && self.observed[k].0.is_none() {
                        self.observed[k].0 = Some(e.now);
                    }
                }
            }
            SysAction::App(FdOp::Suspect { monitor, target }) => {
                for (k, &(m, t)) in self.pairs.iter().enumerate() {
                    if monitor.0 == m as usize
                        && target.0 == t as usize
                        && self.observed[k].1.is_none()
                    {
                        self.observed[k].1 = Some(e.now);
                    }
                }
            }
            _ => {}
        }
    }

    fn violation(&self) -> Option<String> {
        for k in 0..self.pairs.len() {
            if let Some(why) = self.pair_verdict(k) {
                return Some(why);
            }
            // Once the detection bound has silently expired (and would
            // have expired before the horizon), every continuation
            // violates: a suspicion now would be late, silence forever
            // is incompleteness. Report the incompleteness reading of
            // the prefix.
            if self.latest > self.observed[k].0.map_or(Time::MAX, |c| c + self.detection) {
                if let Some(why) = self.completeness(k, self.horizon) {
                    return Some(why);
                }
            }
        }
        None
    }

    fn finish(&mut self, _end: Time) -> Verdict {
        for k in 0..self.pairs.len() {
            if let Some(why) = self.pair_verdict(k) {
                return Verdict::Violated(why);
            }
            if let Some(why) = self.completeness(k, self.horizon) {
                return Verdict::Violated(why);
            }
        }
        Verdict::Holds
    }
}

/// The heartbeat family's stream-oracle set: the incremental twins of
/// the "delivery envelope", "fifo order", and "failure detector"
/// post-hoc oracles, in that order. The Lemma 2.1 replay oracles have
/// no streaming form and stay post-hoc.
#[must_use]
pub fn heartbeat_stream_oracles(
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
) -> Vec<Box<dyn StreamOracle<FdAction>>> {
    let shape = hb_shape(cfg.kind);
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
    let relayed = shape.relay.is_some();
    let params = monitor_params(cfg, relayed);
    let hops = if relayed { 2 } else { 1 };
    let detection = ns(cfg.d2_ns) * hops + params.timeout + Duration::from_millis(1);
    vec![
        Box::new(EnvelopeStream {
            declared: cfg.bounds(),
            dropped,
            duplicated,
            sends: Vec::new(),
            copies: Vec::new(),
            violation: None,
        }),
        Box::new(FifoStream {
            edges: BTreeMap::new(),
            violation: None,
        }),
        Box::new(FdStream {
            observed: vec![(None, None); shape.monitors.len()],
            pairs: shape.monitors,
            detection,
            horizon: at_ns(cfg.horizon_ns),
            latest: Time::ZERO,
        }),
    ]
}

/// Runs one heartbeat-family case with the stream oracles attached as
/// an observer, pausing every `ONLINE_CHUNK` events to poll the judge
/// and stopping the engine the moment a violation is certain. A
/// short-circuited case reports that single certain violation (and
/// bumps `monitor.short_circuits`); a case that reaches its natural
/// stop reports the full stream verdicts, which match the post-hoc
/// oracles of the same names byte-for-byte.
///
/// # Panics
///
/// Panics if the config is not a heartbeat-family config, or is the
/// restart variant (whose checkpoint seam needs the offline runner).
#[must_use]
pub fn run_heartbeat_online(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> Judged<FdAction> {
    assert!(
        cfg.kind.is_heartbeat() && cfg.kind != ScenarioKind::HeartbeatRestart,
        "online judging covers the non-restart heartbeat family"
    );
    let oracles = heartbeat_stream_oracles(cfg, plan);
    let checks = oracles.len() as u64;
    let judge = OnlineJudge::new(oracles);
    let mut built = build_heartbeat_with(cfg, plan, seed, Some(&judge), CASE_MAX_EVENTS);
    let mut pause_at = ONLINE_CHUNK;
    let run = loop {
        match built.engine.run_until_events(pause_at) {
            Ok(run) if run.stop == StopReason::Paused && judge.certain().is_none() => {
                pause_at = run.execution.len() + ONLINE_CHUNK;
            }
            Ok(run) => break Ok(run),
            Err(e) => break Err(e.to_string()),
        }
    };
    let violations = match &run {
        Err(e) => vec![("engine".into(), e.clone())],
        Ok(r) if r.stop == StopReason::Paused => {
            built.hub.add("monitor.short_circuits", 1);
            vec![judge
                .certain()
                .expect("the online driver only pauses on a certain violation")]
        }
        Ok(_) => judge.finish(at_ns(cfg.horizon_ns)),
    };
    let metrics = monitor_snapshot(checks, violations.len() as u64);
    finish_case(&built, (violations, metrics), run)
}

/// Online counterpart of [`crate::scenario::run_case`], for the kinds
/// that support it: `Some(outcome)` for the non-restart heartbeat
/// family, `None` otherwise (the caller falls back to the post-hoc
/// judge).
#[must_use]
pub fn run_case_online(cfg: &ScenarioConfig, plan: &FaultPlan, seed: u64) -> Option<CaseOutcome> {
    (cfg.kind.is_heartbeat() && cfg.kind != ScenarioKind::HeartbeatRestart)
        .then(|| outcome_of(run_heartbeat_online(cfg, plan, seed)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canary::CanaryKind;
    use crate::plan::FaultPlan;
    use crate::scenario::{heartbeat_oracles, run_heartbeat};
    use psync_verify::check_all;

    /// Feeds a recorded execution through fresh stream oracles — the
    /// post-hoc half of the parity harness.
    fn stream_posthoc(
        cfg: &ScenarioConfig,
        plan: &FaultPlan,
        run: &Judged<FdAction>,
    ) -> Vec<(String, String)> {
        let mut oracles = heartbeat_stream_oracles(cfg, plan);
        let exec = &run.run.as_ref().expect("run succeeded").execution;
        for (i, e) in exec.events().iter().enumerate() {
            for oracle in &mut oracles {
                oracle.observe_event(i, e);
            }
        }
        let mut violations = Vec::new();
        for oracle in &mut oracles {
            if let Verdict::Violated(why) = oracle.finish(at_ns(cfg.horizon_ns)) {
                violations.push((oracle.name(), why));
            }
        }
        violations
    }

    /// Post-hoc verdicts of the three oracles the stream set mirrors.
    fn posthoc_streamable(
        cfg: &ScenarioConfig,
        plan: &FaultPlan,
        run: &Judged<FdAction>,
    ) -> Vec<(String, String)> {
        let streamed = ["delivery envelope", "fifo order", "failure detector"];
        let exec = &run.run.as_ref().expect("run succeeded").execution;
        check_all(&heartbeat_oracles(cfg, plan), exec)
            .into_iter()
            .filter(|(name, _)| streamed.contains(&name.as_str()))
            .collect()
    }

    #[test]
    fn stream_oracles_match_posthoc_on_clean_and_failing_runs() {
        // Clean runs across the family's topologies, then planted bugs
        // that trip each stream oracle: a widened delay (envelope), the
        // LIFO-healing relay (fifo), and an underbudgeted timeout with a
        // crash (failure detector).
        let mut cases: Vec<ScenarioConfig> = vec![
            ScenarioConfig::default_for(ScenarioKind::Heartbeat),
            ScenarioConfig::default_for(ScenarioKind::HeartbeatCrash),
            ScenarioConfig::default_for(ScenarioKind::HeartbeatBidi),
            ScenarioConfig::default_for(ScenarioKind::Relay),
            ScenarioConfig::default_for(ScenarioKind::Partition),
        ];
        cases.push(ScenarioConfig {
            bug_extra_ns: 40_000_000,
            ..ScenarioConfig::default_for(ScenarioKind::Heartbeat)
        });
        cases.push(ScenarioConfig {
            canary: Some(CanaryKind::RelayLifoHeal),
            ..ScenarioConfig::default_for(ScenarioKind::Relay)
        });
        cases.push(ScenarioConfig {
            canary: Some(CanaryKind::FdTimeoutUnderbudget),
            ..ScenarioConfig::default_for(ScenarioKind::HeartbeatGray)
        });
        let plan = FaultPlan::default();
        for cfg in &cases {
            let run = run_heartbeat(cfg, &plan, 7);
            let streamed = stream_posthoc(cfg, &plan, &run);
            let posthoc = posthoc_streamable(cfg, &plan, &run);
            assert_eq!(streamed, posthoc, "parity broke for {:?}", cfg.kind);
        }
    }

    #[test]
    fn online_run_matches_offline_verdicts_on_a_clean_case() {
        let cfg = ScenarioConfig::default_for(ScenarioKind::Heartbeat);
        let plan = FaultPlan::default();
        let offline = run_heartbeat(&cfg, &plan, 3);
        let online = run_heartbeat_online(&cfg, &plan, 3);
        assert!(offline.violations.is_empty());
        assert!(online.violations.is_empty());
        // Same execution: attaching the judge observer never perturbs
        // the run, and a clean case is never short-circuited.
        assert_eq!(
            offline.run.as_ref().unwrap().execution.len(),
            online.run.as_ref().unwrap().execution.len()
        );
    }

    #[test]
    fn online_run_short_circuits_a_planted_violation() {
        // The duplicate-delivery canary dupes every message; the second
        // copy of heartbeat 1 arrives early in the run, so the online
        // driver should stop long before the (stretched) offline
        // horizon.
        let cfg = ScenarioConfig {
            canary: Some(CanaryKind::DuplicateDelivery),
            horizon_ns: 1_200_000_000,
            ..ScenarioConfig::default_for(ScenarioKind::Heartbeat)
        };
        let plan = FaultPlan::default();
        let offline = run_heartbeat(&cfg, &plan, 5);
        let online = run_heartbeat_online(&cfg, &plan, 5);
        let offline_events = offline.run.as_ref().unwrap().execution.len();
        let online_events = online.run.as_ref().unwrap().execution.len();
        assert!(
            online_events < offline_events,
            "short-circuit saved nothing: {online_events} vs {offline_events}"
        );
        assert_eq!(online.violations.len(), 1);
        assert_eq!(online.violations[0].0, "delivery envelope");
        assert_eq!(online.metrics.counter("monitor.short_circuits"), 1);
        // The offline judge blames the same oracle.
        assert!(offline
            .violations
            .iter()
            .any(|(name, _)| name == "delivery envelope"));
    }

    #[test]
    fn online_runs_are_deterministic() {
        let cfg = ScenarioConfig {
            canary: Some(CanaryKind::FdTimeoutUnderbudget),
            ..ScenarioConfig::default_for(ScenarioKind::HeartbeatGray)
        };
        let plan = FaultPlan::default();
        let a = run_case_online(&cfg, &plan, 11).expect("heartbeat kind is online-capable");
        let b = run_case_online(&cfg, &plan, 11).expect("heartbeat kind is online-capable");
        assert_eq!(a, b);
    }

    #[test]
    fn online_declines_non_heartbeat_kinds() {
        let plan = FaultPlan::default();
        for kind in [
            ScenarioKind::HeartbeatRestart,
            ScenarioKind::ClockFleet,
            ScenarioKind::Mutex,
            ScenarioKind::Register,
            ScenarioKind::Counter,
            ScenarioKind::SyncProbe,
        ] {
            let cfg = ScenarioConfig::default_for(kind);
            assert!(run_case_online(&cfg, &plan, 1).is_none(), "{kind:?}");
        }
    }
}
