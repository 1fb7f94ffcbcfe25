//! Checkpoint-resuming shrink probes: re-run only the suffix of a case
//! that a candidate sub-plan can actually change.
//!
//! The ddmin loop in [`shrink_entries`] evaluates many candidate plans,
//! each differing from previously executed plans by a few entries. Each
//! fault entry has an **activation index** — the position of the first
//! recorded event whose production consults it (the `Send` a drop
//! disposition applies to, the first event at or past a clock segment's
//! scripted time, the numbered scheduler pick a bias flips). Two plans'
//! runs are byte-identical up to the smallest activation index of any
//! entry in their symmetric difference, so by the paper's pasting lemma
//! (Lemma 2.1) a probe may *resume* from a
//! [`psync_executor::EngineCheckpoint`] captured at or before that index
//! instead of re-running the prefix.
//!
//! The machinery, per failing case:
//!
//! * the **primary run** is a plain case run, like every other case's:
//!   clean cases never pay for resume sources. Only once a primary has
//!   failed is its plan re-driven, without judging (the outcome is
//!   already known), to record a ladder of checkpoints (stride
//!   `CHECKPOINT_STRIDE`, thinned beyond `MAX_CHECKPOINTS`, plus a final
//!   rung at the natural stop);
//! * every rung stores its engine state with the events detached — only
//!   its position. A rung that held a view of the engine's arena would
//!   make the engine's next append copy the whole log, so a ladder would
//!   cost O(n²/stride) event clones. A resumed probe instead takes its
//!   prefix from the recorded run's final log;
//! * every probe consults a bounded **pool** of recorded runs — the
//!   primary plus recent probes — and resumes from whichever run offers
//!   the deepest rung before its divergence. Sibling ddmin probes often
//!   differ only in late-activating entries, so probing against the pool
//!   routinely skips far more prefix than the primary run alone could
//!   justify. A probe whose symmetric difference never activates resumes
//!   from the final rung and re-executes *zero* events.
//!
//! Two invariants make this safe to ship as the default:
//!
//! * **Bit-identity.** A resumed probe produces the same
//!   [`CaseOutcome`] — violations, fingerprint, metrics snapshot,
//!   everything `==` sees — as a from-scratch run of the same candidate.
//!   Engine observers are attached with checkpoint counters suppressed
//!   and side counters (fault stats, clock rejections) are captured in
//!   the `CaseCheckpoint` alongside the engine state, so the resumed
//!   history is indistinguishable from the straight-line one.
//! * **Conservative activation.** When an entry's first consult cannot
//!   be located (its message was never sent, its kind has no cheap
//!   mapping) the activation index degrades toward `0` — never past the
//!   true first consult — which only costs re-execution, never
//!   correctness.
//!
//! The same module also hosts the cached shrink driver shared by both
//! probe modes: every evaluated candidate's outcome is memoised, the
//! final plan's outcome is read from the cache instead of a
//! confirmation re-run, and `shrink_probes` therefore counts true case
//! executions.

use std::rc::Rc;

use psync_apps::heartbeat::FdAction;
use psync_automata::{Action, ArenaSnapshot, TimedEvent};
use psync_executor::{Run, StopReason};
use psync_net::{FaultStats, SysAction};

use crate::faults::seq_of;
use crate::online::run_case_online;
use crate::plan::{at_ns, FaultEntry, FaultPlan};
use crate::scenario::{
    build_clockfleet, build_counter, build_heartbeat, build_mutex, build_register, finish_case,
    judge_clockfleet, judge_counter, judge_heartbeat, judge_mutex, judge_register, outcome_of,
    run_case_sharded, BuiltCase, CaseOutcome, JudgeVerdicts, ScenarioConfig, ScenarioKind,
};
use crate::shrink::shrink_entries;

/// Events between consecutive checkpoints of a recorded run (before any
/// thinning). Small on purpose: case runs are short and a fine ladder is
/// what lets a probe resume right at its divergence index.
const CHECKPOINT_STRIDE: usize = 4;

/// Checkpoint-ladder size cap: when a run outgrows it, every other
/// checkpoint is dropped and the stride doubles, keeping memory bounded
/// while the resolution stays proportional to the run length.
const MAX_CHECKPOINTS: usize = 512;

/// Recorded runs a shrink keeps around as resume sources: the primary
/// run plus the most recent probes. Rungs are `Rc`-shared between pool
/// entries, so the bound is on ladders, not on checkpoint copies.
const POOL_MAX: usize = 8;

/// Execution-cost counters of a campaign's shrink phase, reported next
/// to (never inside) the [`crate::CampaignReport`] — the report stays a
/// pure function of the case seeds, while the telemetry measures how
/// much work the probe strategy actually spent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignTelemetry {
    /// Events re-executed by shrink probes: per probe, only the suffix
    /// past its resume point. (Primary case runs are case executions,
    /// not shrink work, and are counted in the campaign stats instead.)
    pub shrink_events: u64,
    /// Re-drives of a failing primary's plan that recorded its checkpoint
    /// ladder: one per failure shrunk with resumed probes, none for clean
    /// cases or from-scratch shrinks.
    pub recording_runs: u64,
    /// Engine checkpoints captured across recorded runs and probes.
    pub checkpoints: u64,
    /// Probes answered from the outcome cache with no execution at all.
    pub cache_hits: u64,
}

impl CampaignTelemetry {
    /// Folds another telemetry record into this one.
    pub fn absorb(&mut self, other: &CampaignTelemetry) {
        self.shrink_events += other.shrink_events;
        self.recording_runs += other.recording_runs;
        self.checkpoints += other.checkpoints;
        self.cache_hits += other.cache_hits;
    }
}

/// The shrink phase's result for one failing case.
#[derive(Debug, Clone)]
pub(crate) struct ShrinkResult {
    /// The 1-minimal failing plan ddmin settled on.
    pub(crate) plan: FaultPlan,
    /// That plan's full outcome, read from the probe cache (no
    /// confirmation re-run).
    pub(crate) outcome: CaseOutcome,
    /// True case executions spent probing (cache misses).
    pub(crate) probes: u64,
}

/// One rung of a checkpoint ladder: the engine snapshot (events
/// detached — a rung is restored with the prefix of a recorded run's
/// log) plus the side counters the engine does not own (observer metrics
/// live in the hub's registry, fault counters in the channel's shared
/// cells).
struct CaseCheckpoint<A: Action> {
    engine: psync_executor::EngineCheckpoint<A>,
    metrics: psync_obs::MetricsSnapshot,
    fault_values: Vec<[u64; 5]>,
}

/// A driven run paired with the checkpoints captured along the way.
type DrivenRun<A> = (Result<Run<A>, String>, Vec<Rc<CaseCheckpoint<A>>>);

/// A fully recorded run — plan, events, checkpoint ladder — usable as a
/// resume source for later probes. Rungs are `Rc`-shared, and `events`
/// is the engine's whole log, including the events before an engine
/// error: every rung's prefix is read from it.
struct RecordedRun<A: Action> {
    plan: FaultPlan,
    events: ArenaSnapshot<A>,
    cps: Vec<Rc<CaseCheckpoint<A>>>,
}

fn capture<A: Action>(
    built: &mut BuiltCase<A>,
    telemetry: &mut CampaignTelemetry,
) -> Rc<CaseCheckpoint<A>> {
    telemetry.checkpoints += 1;
    Rc::new(CaseCheckpoint {
        engine: built.engine.checkpoint().without_events(),
        metrics: built.hub.snapshot(),
        fault_values: built.fault_stats.iter().map(FaultStats::values).collect(),
    })
}

/// Drives a built case to completion, pausing every `CHECKPOINT_STRIDE`
/// events (doubling after thinning) to capture a checkpoint, plus one
/// final rung at the natural stop. `start` is the engine's current event
/// count (0 for a fresh engine, the restored checkpoint's position for a
/// resumed probe). Returns the final run and the checkpoints captured
/// *after* `start`.
fn drive<A: Action>(
    built: &mut BuiltCase<A>,
    start: usize,
    telemetry: &mut CampaignTelemetry,
) -> DrivenRun<A> {
    let mut cps = Vec::new();
    let mut stride = CHECKPOINT_STRIDE;
    let mut pos = start;
    loop {
        match built.engine.run_until_events(pos + stride) {
            Ok(run) if run.stop == StopReason::Paused => {
                pos = run.execution.len();
                cps.push(capture(built, telemetry));
                if cps.len() >= MAX_CHECKPOINTS {
                    let mut i = 0usize;
                    cps.retain(|_| {
                        i += 1;
                        i.is_multiple_of(2)
                    });
                    stride *= 2;
                }
            }
            Ok(run) => {
                // The final rung: a probe whose plan cannot change any
                // remaining event resumes here and re-executes nothing.
                if run.execution.len() > pos || cps.is_empty() {
                    cps.push(capture(built, telemetry));
                }
                return (Ok(run), cps);
            }
            Err(e) => return (Err(e.to_string()), cps),
        }
    }
}

/// First recorded event index whose production consults a clock-script
/// segment scripted at `t` nanoseconds: scripted offsets only apply to
/// readings at or past their segment time, and every clock consult
/// during the production of event `i` targets a time at most
/// `events[i].now` (deadline lookahead is rate-1 and script-independent).
fn clock_segment_activation<A: Action>(t: i64, events: &[TimedEvent<A>]) -> usize {
    events
        .iter()
        .position(|e| e.now >= at_ns(t))
        .unwrap_or(usize::MAX)
}

/// Activation index of a heartbeat-scenario entry: channel dispositions
/// are consulted when their `Send` fires, scheduler bias at its numbered
/// pick (pick `k` chooses event `k`).
fn heartbeat_activation(entry: &FaultEntry, events: &[TimedEvent<FdAction>]) -> usize {
    match *entry {
        FaultEntry::Drop { src, dst, seq }
        | FaultEntry::Duplicate { src, dst, seq, .. }
        | FaultEntry::DelaySpike { src, dst, seq, .. } => events
            .iter()
            .position(|e| match &e.action {
                SysAction::Send(env) => {
                    env.src.0 == src as usize && env.dst.0 == dst as usize && seq_of(env.id) == seq
                }
                _ => false,
            })
            .unwrap_or(usize::MAX),
        FaultEntry::SchedulerBias { pick } => usize::try_from(pick).unwrap_or(usize::MAX),
        // Clock entries are outside the heartbeat envelope; if one slips
        // through validation anyway, re-run from the top.
        _ => 0,
    }
}

/// Activation index of a clock-model entry (clock-fleet, mutex,
/// register, and counter scenarios alike). Delay spikes flow through the
/// `build_dc` clock channels, whose send times have no cheap mapping to
/// event indices — stay conservative and replay from the start.
fn clock_activation<A: Action>(entry: &FaultEntry, events: &[TimedEvent<A>]) -> usize {
    match *entry {
        FaultEntry::ClockSkew { at_ns: t, .. } | FaultEntry::ClockBackwardJump { at_ns: t, .. } => {
            clock_segment_activation(t, events)
        }
        FaultEntry::SchedulerBias { pick } => usize::try_from(pick).unwrap_or(usize::MAX),
        _ => 0,
    }
}

/// Index of the first event of `run` the candidate plan could change:
/// the smallest activation index over the *symmetric* multiset
/// difference between the run's plan and the candidate. Up to that
/// index no differing entry has been consulted in either run, so the
/// runs are identical — entries present only in the candidate activate
/// at the same index they would in `run` (the runs agree up to there,
/// so consult opportunities agree too).
fn divergence_index<A: Action>(
    run: &RecordedRun<A>,
    candidate: &FaultPlan,
    activation: &impl Fn(&FaultEntry, &[TimedEvent<A>]) -> usize,
) -> usize {
    let mut cand_pool: Vec<&FaultEntry> = candidate.entries.iter().collect();
    let mut d = usize::MAX;
    for entry in &run.plan.entries {
        if let Some(i) = cand_pool.iter().position(|c| *c == entry) {
            cand_pool.swap_remove(i);
        } else {
            d = d.min(activation(entry, run.events.events()));
        }
    }
    for entry in cand_pool {
        d = d.min(activation(entry, run.events.events()));
    }
    d
}

/// The cached ddmin driver shared by both probe modes: memoises every
/// evaluated candidate, counts only cache misses as probes, and reads
/// the final plan's outcome from the cache — no confirmation re-run.
/// The second return is the number of cache hits (probes avoided).
fn shrink_with_cache(
    plan: &FaultPlan,
    primary: &CaseOutcome,
    probe: &mut dyn FnMut(&FaultPlan) -> CaseOutcome,
) -> (ShrinkResult, u64) {
    let mut cache: Vec<(FaultPlan, CaseOutcome)> = vec![(plan.clone(), primary.clone())];
    let mut probes = 0u64;
    let mut hits = 0u64;
    let shrunk = shrink_entries(plan, &mut |candidate| {
        if let Some((_, cached)) = cache.iter().find(|(p, _)| p == candidate) {
            hits += 1;
            return !cached.violations.is_empty();
        }
        probes += 1;
        let outcome = probe(candidate);
        let failing = !outcome.violations.is_empty();
        cache.push((candidate.clone(), outcome));
        failing
    });
    let outcome = cache
        .iter()
        .find(|(p, _)| *p == shrunk)
        .map(|(_, o)| o.clone())
        .expect("ddmin returns the seeded plan or an evaluated candidate");
    (
        ShrinkResult {
            plan: shrunk,
            outcome,
            probes,
        },
        hits,
    )
}

/// Re-drives `plan`, whose outcome is already known, to record its
/// checkpoint ladder — no judging. The engine run is bit-identical to the
/// primary's: checkpointing is read-only, and the observers are attached
/// with checkpoint counters suppressed.
fn record_ladder<A: Action>(
    plan: &FaultPlan,
    telemetry: &mut CampaignTelemetry,
    build: &impl Fn(&FaultPlan) -> BuiltCase<A>,
) -> RecordedRun<A> {
    let mut built = build(plan);
    let first = capture(&mut built, telemetry);
    let (_, mut cps) = drive(&mut built, 0, telemetry);
    cps.insert(0, first);
    telemetry.recording_runs += 1;
    RecordedRun {
        plan: plan.clone(),
        events: built.engine.events_snapshot(),
        cps,
    }
}

/// Executes one candidate probe by resuming from the deepest checkpoint
/// any pooled run offers before the candidate's divergence from it. The
/// outcome is bit-identical to a from-scratch run of the candidate; the
/// probe's own recorded run joins the pool (evicting the oldest probe)
/// so later siblings can resume from it.
fn probe_resumed<A: Action>(
    pool: &mut Vec<RecordedRun<A>>,
    candidate: &FaultPlan,
    telemetry: &mut CampaignTelemetry,
    build: &impl Fn(&FaultPlan) -> BuiltCase<A>,
    judge: &impl Fn(&FaultPlan, &Result<Run<A>, String>) -> JudgeVerdicts,
    activation: &impl Fn(&FaultEntry, &[TimedEvent<A>]) -> usize,
) -> CaseOutcome {
    // The deepest usable rung across the pool. pool[0].cps[0] sits at
    // position 0, so a resume point always exists.
    let (mut bi, mut ci, mut start) = (0usize, 0usize, 0usize);
    for (i, base) in pool.iter().enumerate() {
        let d = divergence_index(base, candidate, activation);
        let c = base
            .cps
            .iter()
            .rposition(|cp| cp.engine.event_count() <= d)
            .expect("every ladder starts at position 0");
        let s = base.cps[c].engine.event_count();
        if s > start {
            (bi, ci, start) = (i, c, s);
        }
    }

    let mut built = build(candidate);
    let rung = &pool[bi].cps[ci];
    built
        .engine
        .restore_from_log(&rung.engine, &pool[bi].events);
    built.hub.restore(&rung.metrics);
    for (stats, values) in built.fault_stats.iter().zip(&rung.fault_values) {
        stats.set_values(*values);
    }

    let (run, new_cps) = drive(&mut built, start, telemetry);
    let events = built.engine.events_snapshot();
    telemetry.shrink_events += (events.len() - start) as u64;
    // This probe's ladder: the shared prefix rungs plus its own. Its log
    // agrees with the base's up to `start`, so it serves them all.
    let mut cps = pool[bi].cps[..=ci].to_vec();
    cps.extend(new_cps);
    let violations = judge(candidate, &run);
    let outcome = outcome_of(finish_case(&built, violations, run));
    if pool.len() >= POOL_MAX {
        // Keep the primary run at slot 0; evict the oldest probe.
        pool.remove(1);
    }
    pool.push(RecordedRun {
        plan: candidate.clone(),
        events,
        cps,
    });
    outcome
}

/// Shrinks a failing primary with resumed probes, seeding the pool with
/// the primary's recorded ladder.
fn shrink_resumed<A: Action>(
    plan: &FaultPlan,
    primary: &CaseOutcome,
    telemetry: &mut CampaignTelemetry,
    build: &impl Fn(&FaultPlan) -> BuiltCase<A>,
    judge: &impl Fn(&FaultPlan, &Result<Run<A>, String>) -> JudgeVerdicts,
    activation: &impl Fn(&FaultEntry, &[TimedEvent<A>]) -> usize,
) -> (ShrinkResult, u64) {
    let mut pool = vec![record_ladder(plan, telemetry, build)];
    shrink_with_cache(plan, primary, &mut |candidate| {
        probe_resumed(&mut pool, candidate, telemetry, build, judge, activation)
    })
}

/// Shrinks a failing primary by running every probe from scratch.
fn shrink_from_scratch(
    plan: &FaultPlan,
    primary: &CaseOutcome,
    telemetry: &mut CampaignTelemetry,
    run: &impl Fn(&FaultPlan) -> CaseOutcome,
) -> (ShrinkResult, u64) {
    shrink_with_cache(plan, primary, &mut |candidate| {
        let probe = run(candidate);
        telemetry.shrink_events += probe.events as u64;
        probe
    })
}

/// Runs one case and shrinks it if it fails, using the cached ddmin
/// driver — resuming probes from pooled checkpoints when `checkpointed`
/// is set and re-running each probe from scratch otherwise. Both modes
/// produce bit-identical outcomes and [`ShrinkResult`]s; only the
/// telemetry differs.
pub(crate) fn run_shrinkable_case(
    scenario: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
    checkpointed: bool,
    online: bool,
    monitor_shards: usize,
    telemetry: &mut CampaignTelemetry,
) -> (CaseOutcome, Option<ShrinkResult>) {
    let shards = monitor_shards.max(1);
    // Online judging short-circuits runs, so the checkpoint ladders a
    // resumed probe needs are never recorded — online cases (and their
    // probes) always run from scratch, with the same online judge so the
    // shrink predicate is self-consistent.
    let online =
        online && scenario.kind.is_heartbeat() && scenario.kind != ScenarioKind::HeartbeatRestart;
    let run = |p: &FaultPlan| {
        if online {
            run_case_online(scenario, p, seed).expect("kind checked online-capable above")
        } else {
            run_case_sharded(scenario, p, seed, shards)
        }
    };
    let outcome = run(plan);
    if outcome.violations.is_empty() {
        return (outcome, None);
    }
    // The restart scenario already checkpoints and restores *inside* its
    // primary run; layering probe-resume checkpoints over that seam is
    // not supported, so its shrinks replay from scratch. Sync shrinks
    // also replay from scratch: their post-run ε̂ gauges are derived
    // outside the engine, so a pooled-checkpoint resume would need its
    // own gauge bookkeeping for no measurable probe savings (sync plans
    // are channel-only and activate early).
    let (result, hits) = match scenario.kind {
        _ if !checkpointed || online => shrink_from_scratch(plan, &outcome, telemetry, &run),
        ScenarioKind::HeartbeatRestart | ScenarioKind::SyncProbe | ScenarioKind::SyncRounds => {
            shrink_from_scratch(plan, &outcome, telemetry, &run)
        }
        ScenarioKind::Heartbeat
        | ScenarioKind::HeartbeatCrash
        | ScenarioKind::HeartbeatGray
        | ScenarioKind::HeartbeatBidi
        | ScenarioKind::Relay
        | ScenarioKind::Partition => shrink_resumed(
            plan,
            &outcome,
            telemetry,
            &|p| build_heartbeat(scenario, p, seed),
            &|p, run| judge_heartbeat(scenario, p, run, shards),
            &heartbeat_activation,
        ),
        ScenarioKind::ClockFleet | ScenarioKind::ClockFleetLarge => shrink_resumed(
            plan,
            &outcome,
            telemetry,
            &|p| build_clockfleet(scenario, p, seed),
            &|_p, run| judge_clockfleet(scenario, run, shards),
            &clock_activation,
        ),
        ScenarioKind::Mutex | ScenarioKind::MutexContended => shrink_resumed(
            plan,
            &outcome,
            telemetry,
            &|p| build_mutex(scenario, p, seed),
            &|_p, run| judge_mutex(scenario, run, shards),
            &clock_activation,
        ),
        ScenarioKind::Register | ScenarioKind::RegisterTriple => shrink_resumed(
            plan,
            &outcome,
            telemetry,
            &|p| build_register(scenario, p, seed),
            &|_p, run| judge_register(scenario, seed, run, shards),
            &clock_activation,
        ),
        ScenarioKind::Counter => shrink_resumed(
            plan,
            &outcome,
            telemetry,
            &|p| build_counter(scenario, p, seed),
            &|_p, run| judge_counter(scenario, seed, run, shards),
            &clock_activation,
        ),
    };
    telemetry.cache_hits += hits;
    (outcome, Some(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;
    use crate::scenario::{build_heartbeat_with, run_case};

    fn outcome(violations: Vec<(String, String)>, events: usize) -> CaseOutcome {
        CaseOutcome {
            violations,
            events,
            rejected_clock_requests: 0,
            fingerprint: events as u64,
            metrics: psync_obs::MetricsSnapshot::default(),
        }
    }

    fn plan_of(seqs: &[u32]) -> FaultPlan {
        FaultPlan {
            entries: seqs
                .iter()
                .map(|&seq| FaultEntry::Drop {
                    src: 0,
                    dst: 1,
                    seq,
                })
                .collect(),
        }
    }

    /// Satellite regression: `shrink_probes` counts true case
    /// executions — the driver never re-probes a cached plan, and in
    /// particular never re-runs the final shrunk plan to fetch its
    /// outcome.
    #[test]
    fn cached_driver_probes_each_plan_at_most_once() {
        let plan = plan_of(&[1, 2, 3, 4]);
        // "Fails" iff the plan still contains drop seq 3.
        let failing = |p: &FaultPlan| {
            p.entries
                .iter()
                .any(|e| matches!(e, FaultEntry::Drop { seq: 3, .. }))
        };
        let primary = outcome(vec![("o".into(), "v".into())], 10);
        let mut evaluated: Vec<FaultPlan> = Vec::new();
        let (result, _hits) = shrink_with_cache(&plan, &primary, &mut |candidate| {
            assert!(
                !evaluated.contains(candidate),
                "candidate probed twice: {candidate:?}"
            );
            evaluated.push(candidate.clone());
            if failing(candidate) {
                outcome(vec![("o".into(), "v".into())], 5)
            } else {
                outcome(vec![], 5)
            }
        });
        assert_eq!(result.plan, plan_of(&[3]));
        assert!(!result.outcome.violations.is_empty());
        assert_eq!(result.probes, evaluated.len() as u64);
        // The original plan's outcome was seeded, never re-probed.
        assert!(!evaluated.contains(&plan));
    }

    /// The final outcome comes from the cache even when ddmin's last
    /// evaluation of the winning plan happened many probes earlier.
    #[test]
    fn final_outcome_is_served_from_the_cache() {
        let plan = plan_of(&[7]);
        let primary = outcome(vec![("o".into(), "only".into())], 3);
        let (result, _hits) = shrink_with_cache(&plan, &primary, &mut |candidate| {
            assert!(candidate.is_empty(), "only the empty sub-plan is probed");
            outcome(vec![], 1)
        });
        // A single entry that still fails: ddmin keeps it, and its
        // outcome is the seeded primary — zero extra executions.
        assert_eq!(result.plan, plan);
        assert_eq!(result.outcome, primary);
        assert_eq!(result.probes, 1);
    }

    /// Records `plan`'s ladder, then checks that a pool-resumed probe of
    /// every leave-one-out sub-plan (plus the full and empty plans)
    /// produces a [`CaseOutcome`] bit-identical — violations, event
    /// count, fingerprint, metrics — to a from-scratch run.
    fn assert_probes_match_straight_runs<A: Action>(
        scenario: &ScenarioConfig,
        plan: &FaultPlan,
        straight: &impl Fn(&FaultPlan) -> CaseOutcome,
        build: &impl Fn(&FaultPlan) -> BuiltCase<A>,
        judge: &impl Fn(&FaultPlan, &Result<Run<A>, String>) -> JudgeVerdicts,
        activation: &impl Fn(&FaultEntry, &[TimedEvent<A>]) -> usize,
    ) {
        plan.validate(&scenario.envelope())
            .expect("admissible plan");
        let mut telemetry = CampaignTelemetry::default();
        let mut pool = vec![record_ladder(plan, &mut telemetry, build)];
        assert_eq!(telemetry.recording_runs, 1);
        assert!(
            telemetry.checkpoints > 0,
            "the recording run captured nothing"
        );

        let mut candidates = vec![plan.clone(), FaultPlan::empty()];
        for i in 0..plan.entries.len() {
            let mut entries = plan.entries.clone();
            entries.remove(i);
            candidates.push(FaultPlan { entries });
        }
        for candidate in candidates {
            let resumed = probe_resumed(
                &mut pool,
                &candidate,
                &mut telemetry,
                build,
                judge,
                activation,
            );
            assert_eq!(
                resumed,
                straight(&candidate),
                "resumed probe diverged for candidate {candidate:?}"
            );
        }
        assert!(pool.len() > 1, "probe runs never joined the resume pool");
    }

    #[test]
    fn heartbeat_probes_are_bit_identical_to_straight_runs() {
        let scenario = ScenarioConfig::heartbeat_default();
        let plan = FaultPlan {
            entries: vec![
                FaultEntry::Drop {
                    src: 0,
                    dst: 1,
                    seq: 2,
                },
                FaultEntry::Duplicate {
                    src: 0,
                    dst: 1,
                    seq: 6,
                    delay_ns: 2_500_000,
                },
                FaultEntry::DelaySpike {
                    src: 0,
                    dst: 1,
                    seq: 9,
                    delay_ns: 4_000_000,
                },
                FaultEntry::SchedulerBias { pick: 11 },
            ],
        };
        assert_probes_match_straight_runs(
            &scenario,
            &plan,
            &|p| run_case(&scenario, p, 0xD15C_0B01),
            &|p| build_heartbeat(&scenario, p, 0xD15C_0B01),
            &|p, run| judge_heartbeat(&scenario, p, run, 1),
            &heartbeat_activation,
        );
    }

    #[test]
    fn failing_heartbeat_probes_stay_bit_identical_through_adoption() {
        // The planted d2+1 bug makes sub-plans keeping the boundary
        // spike fail, so this walk exercises failing probes joining the
        // pool too.
        let scenario = ScenarioConfig::heartbeat_default().with_bug(1);
        let plan = FaultPlan {
            entries: vec![
                FaultEntry::Drop {
                    src: 0,
                    dst: 1,
                    seq: 3,
                },
                FaultEntry::DelaySpike {
                    src: 0,
                    dst: 1,
                    seq: 7,
                    delay_ns: scenario.d2_ns,
                },
                FaultEntry::SchedulerBias { pick: 5 },
            ],
        };
        assert_probes_match_straight_runs(
            &scenario,
            &plan,
            &|p| run_case(&scenario, p, 42),
            &|p| build_heartbeat(&scenario, p, 42),
            &|p, run| judge_heartbeat(&scenario, p, run, 1),
            &heartbeat_activation,
        );
    }

    #[test]
    fn clockfleet_probes_are_bit_identical_to_straight_runs() {
        let scenario = ScenarioConfig::clockfleet_default();
        let plan = FaultPlan {
            entries: vec![
                FaultEntry::ClockSkew {
                    node: 0,
                    at_ns: 50_000_000,
                    offset_ns: scenario.eps_ns,
                },
                // Clamped by the C1–C4 guard: rejection-counter parity
                // between resumed and straight runs is part of the check.
                FaultEntry::ClockBackwardJump {
                    node: 1,
                    at_ns: 100_000_000,
                    jump_ns: scenario.eps_ns * 2 + 5_000_000,
                },
                FaultEntry::SchedulerBias { pick: 5 },
            ],
        };
        assert_probes_match_straight_runs(
            &scenario,
            &plan,
            &|p| run_case(&scenario, p, 13),
            &|p| build_clockfleet(&scenario, p, 13),
            &|_p, run| judge_clockfleet(&scenario, run, 1),
            &clock_activation,
        );
    }

    #[test]
    fn register_probes_are_bit_identical_to_straight_runs() {
        let scenario = ScenarioConfig::register_default();
        let plan = FaultPlan {
            entries: vec![
                FaultEntry::ClockSkew {
                    node: 0,
                    at_ns: 20_000_000,
                    offset_ns: scenario.eps_ns,
                },
                FaultEntry::DelaySpike {
                    src: 0,
                    dst: 1,
                    seq: 1,
                    delay_ns: scenario.d2_ns,
                },
                FaultEntry::SchedulerBias { pick: 3 },
            ],
        };
        assert_probes_match_straight_runs(
            &scenario,
            &plan,
            &|p| run_case(&scenario, p, 7),
            &|p| build_register(&scenario, p, 7),
            &|_p, run| judge_register(&scenario, 7, run, 1),
            &clock_activation,
        );
    }

    /// An engine error ends the recorded run early. Its activation
    /// lookups must still see the events recorded before the error: with
    /// no events every entry looks never-consulted, and a probe resumes
    /// from the deepest rung, past its real divergence.
    #[test]
    fn errored_primary_probes_are_bit_identical_to_straight_runs() {
        // The heartbeat case records ~60 events; the cap stops it at 40.
        const CAP: usize = 40;
        const SEED: u64 = 0xE770;
        let scenario = ScenarioConfig::heartbeat_default();
        let build = |p: &FaultPlan| build_heartbeat_with(&scenario, p, SEED, None, CAP);
        let judge = |p: &FaultPlan, run: &Result<Run<FdAction>, String>| {
            judge_heartbeat(&scenario, p, run, 1)
        };
        let straight = |p: &FaultPlan| {
            let mut built = build(p);
            let run = built.engine.run().map_err(|e| e.to_string());
            let verdicts = judge(p, &run);
            outcome_of(finish_case(&built, verdicts, run))
        };
        let plan = FaultPlan {
            entries: vec![
                FaultEntry::Drop {
                    src: 0,
                    dst: 1,
                    seq: 2,
                },
                FaultEntry::DelaySpike {
                    src: 0,
                    dst: 1,
                    seq: 4,
                    delay_ns: 3_000_000,
                },
            ],
        };
        let primary = straight(&plan);
        assert_eq!(primary.violations[0].0, "engine", "{primary:?}");
        assert_probes_match_straight_runs(
            &scenario,
            &plan,
            &straight,
            &build,
            &judge,
            &heartbeat_activation,
        );
    }

    #[test]
    fn divergence_index_is_the_smallest_symmetric_difference_activation() {
        let base = RecordedRun::<FdAction> {
            plan: plan_of(&[1, 2]),
            events: ArenaSnapshot::default(),
            cps: Vec::new(),
        };
        let act = |entry: &FaultEntry, _events: &[TimedEvent<FdAction>]| match *entry {
            FaultEntry::Drop { seq, .. } => seq as usize * 10,
            _ => 0,
        };
        // Removing seq 1 (activation 10) and keeping seq 2.
        assert_eq!(divergence_index(&base, &plan_of(&[2]), &act), 10);
        // Removing both: the smaller activation wins.
        assert_eq!(divergence_index(&base, &plan_of(&[]), &act), 10);
        // Nothing removed: no divergence.
        assert_eq!(divergence_index(&base, &plan_of(&[1, 2]), &act), usize::MAX);
        // Additions activate where they would first be consulted — the
        // symmetric difference, not just removals, bounds the resume.
        assert_eq!(divergence_index(&base, &plan_of(&[1, 2, 9]), &act), 90);
        assert_eq!(divergence_index(&base, &plan_of(&[2, 9]), &act), 10);
    }
}
