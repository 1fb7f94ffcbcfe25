//! Differential tests for [`Engine::checkpoint`] / [`Engine::restore`]:
//! resuming from a snapshot must be bit-identical to never having paused.
//!
//! This is the executable form of the paper's Lemma 2.1 (pasting): a
//! checkpoint captures everything the suffix of a run depends on — the
//! component states, the node clocks, the clock-strategy and scheduler
//! positions, and the recorded prefix — so the pasted run
//! `prefix ⌢ suffix-from-checkpoint` *is* the uninterrupted run, event
//! for event, clock reading for clock reading.
//!
//! The sweep is deliberately adversarial on the clock side: every
//! [`ClockStrategy`] the crate ships (perfect, constant-offset, drifting,
//! random-walk, scripted — including a scripted backward jump the C1–C4
//! guard clamps and counts) runs in one fleet, so any strategy whose
//! snapshot misses hidden state (an RNG, an accumulated offset, a
//! rejection counter) diverges somewhere in the index sweep. Both the
//! incremental [`Engine`] and the scan-everything [`ReferenceEngine`]
//! are covered, and — since both speak the same [`EngineCheckpoint`]
//! type — checkpoints are also transplanted *across* the two
//! implementations.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use psync_apps::heartbeat::{FdAction, FdParams, Heartbeater, Monitor};
use psync_automata::toys::{BeepAction, Beeper, ClockBeeper};
use psync_automata::{Action, TimedEvent};
use psync_executor::{
    ClockNode, DriftClock, Engine, Observer, OffsetClock, PerfectClock, RandomScheduler,
    RandomWalkClock, ReferenceEngine, Run, ScriptedClock, StopReason,
};
use psync_net::{DropSeeded, FifoChannel, LossyChannel, NodeId, SeededDelay};
use psync_time::{DelayBounds, Duration, Time};

const SEEDS: [u64; 6] = [1, 7, 42, 99, 1234, 987_654_321];

fn ms(n: i64) -> Duration {
    Duration::from_millis(n)
}

fn at(n: i64) -> Time {
    Time::ZERO + ms(n)
}

/// The adversary clock fleet: one node per shipped [`ClockStrategy`],
/// each driving a `ClockBeeper` whose beep times expose the node clock,
/// plus a real-time `Beeper` so timed and clock deadlines interleave.
/// The scripted node attempts a backward jump at 60 ms that the guard
/// must clamp — its rejection counter is part of the snapshot too.
///
/// The mix is written as a macro because the two engines' builders are
/// distinct types with identical builder vocabularies.
macro_rules! fleet_mix {
    ($b:expr, $seed:expr) => {
        $b.timed(Beeper::with_src(ms(5), 0))
            .clock_node(
                ClockNode::new("perfect", ms(2), PerfectClock)
                    .with(ClockBeeper::with_src(ms(9), 10)),
            )
            .clock_node(
                ClockNode::new("offset", ms(2), OffsetClock::new(ms(2), ms(2)))
                    .with(ClockBeeper::with_src(ms(11), 11)),
            )
            .clock_node(
                ClockNode::new("drift", ms(2), DriftClock::new(400))
                    .with(ClockBeeper::with_src(ms(7), 12)),
            )
            .clock_node(
                ClockNode::new("walk", ms(2), RandomWalkClock::new($seed ^ 0xA5, ms(1)))
                    .with(ClockBeeper::with_src(ms(13), 13)),
            )
            .clock_node(
                ClockNode::new(
                    "scripted",
                    ms(2),
                    ScriptedClock::new([(at(30), ms(2)), (at(60), ms(-2))]),
                )
                .with(ClockBeeper::with_src(ms(10), 14)),
            )
            .horizon(at(150))
    };
}

fn fleet_engine(seed: u64) -> Engine<BeepAction> {
    fleet_mix!(Engine::builder(), seed)
        .scheduler(RandomScheduler::new(seed))
        .build()
}

fn fleet_reference(seed: u64) -> ReferenceEngine<BeepAction> {
    fleet_mix!(ReferenceEngine::builder(), seed)
        .scheduler(RandomScheduler::new(seed))
        .build()
}

fn assert_same_run<A: Action>(label: &str, resumed: &Run<A>, straight: &Run<A>) {
    assert_eq!(resumed.stop, straight.stop, "{label}: stop reasons diverge");
    assert_eq!(
        resumed.execution, straight.execution,
        "{label}: executions diverge"
    );
}

/// Checkpoint at *every* event index of the fleet run, restore each
/// snapshot into a freshly built engine, run to the horizon: every
/// resumed run must equal the uninterrupted one. The recorder is a
/// single engine paused index by index, so repeated pause/checkpoint
/// cycles are exercised as well as the restores.
#[test]
fn every_prefix_checkpoint_resumes_bit_identically() {
    for seed in SEEDS {
        let straight = fleet_engine(seed).run().unwrap();
        let n = straight.execution.len();
        assert!(n > 50, "seed {seed}: fleet produced only {n} events");
        assert_eq!(straight.stop, StopReason::Horizon);

        let mut recorder = fleet_engine(seed);
        for k in 0..=n {
            let paused = recorder.run_until_events(k).unwrap();
            assert_eq!(paused.stop, StopReason::Paused, "seed {seed}, index {k}");
            assert_eq!(paused.execution.len(), k, "seed {seed}: pause overshoots");
            let cp = recorder.checkpoint();
            let mut resumed = fleet_engine(seed);
            resumed.restore(&cp);
            let run = resumed.run().unwrap();
            assert_same_run(&format!("seed {seed}, index {k}"), &run, &straight);
        }
        // The paused-and-checkpointed recorder itself also finishes
        // identically: checkpointing is read-only.
        let rest = recorder.run().unwrap();
        assert_same_run(&format!("seed {seed}, recorder"), &rest, &straight);
    }
}

/// A ladder of rungs with their events detached, restored from the
/// recorded run's final log, continues bit-identically to a full
/// checkpoint taken at the same index — events, stop reason, and the
/// prefix the restored engine holds (which must be the log's prefix, not
/// the whole log).
#[test]
fn detached_rungs_restored_from_the_log_match_full_checkpoints() {
    for seed in SEEDS {
        let straight = fleet_engine(seed).run().unwrap();
        let n = straight.execution.len();

        let mut recorder = fleet_engine(seed);
        let mut rungs = Vec::new();
        for k in 0..=n {
            recorder.run_until_events(k).unwrap();
            rungs.push(recorder.checkpoint().without_events());
        }
        let log = recorder.run().unwrap().execution.snapshot().clone();
        assert_eq!(log.len(), n);

        for rung in &rungs {
            let k = rung.event_count();
            let mut full = fleet_engine(seed);
            full.run_until_events(k).unwrap();
            let full_cp = full.checkpoint();

            let mut from_log = fleet_engine(seed);
            from_log.restore_from_log(rung, &log);
            assert_eq!(
                from_log.events(),
                full_cp.events(),
                "seed {seed}, index {k}: restored prefix"
            );
            let mut from_full = fleet_engine(seed);
            from_full.restore(&full_cp);
            let label = format!("seed {seed}, detached rung {k}");
            let run = from_log.run().unwrap();
            assert_same_run(&label, &run, &from_full.run().unwrap());
            assert_same_run(&label, &run, &straight);
        }
    }
}

/// The same every-index sweep for the [`ReferenceEngine`] — its simpler
/// scan loop shares the snapshot type and must honour the same contract.
#[test]
fn reference_engine_checkpoints_resume_bit_identically() {
    for seed in SEEDS {
        let straight = fleet_reference(seed).run().unwrap();
        let n = straight.execution.len();
        let mut recorder = fleet_reference(seed);
        for k in 0..=n {
            recorder.run_until_events(k).unwrap();
            let cp = recorder.checkpoint();
            let mut resumed = fleet_reference(seed);
            resumed.restore(&cp);
            let run = resumed.run().unwrap();
            assert_same_run(&format!("seed {seed}, index {k}"), &run, &straight);
        }
    }
}

/// Checkpoints transplant across engine implementations: a snapshot
/// taken by the incremental engine resumes inside the reference engine
/// (and vice versa) to the same run both would produce alone. This pins
/// that the snapshot contains *all* run state and nothing
/// implementation-private.
#[test]
fn checkpoints_transfer_across_engine_implementations() {
    for seed in SEEDS {
        let straight = fleet_engine(seed).run().unwrap();
        let n = straight.execution.len();
        for k in (0..=n).step_by(5) {
            let mut fast = fleet_engine(seed);
            fast.run_until_events(k).unwrap();
            let mut slow = fleet_reference(seed);
            slow.restore(&fast.checkpoint());
            let run = slow.run().unwrap();
            assert_same_run(
                &format!("fast->ref seed {seed}, index {k}"),
                &run,
                &straight,
            );

            let mut slow = fleet_reference(seed);
            slow.run_until_events(k).unwrap();
            let mut fast = fleet_engine(seed);
            fast.restore(&slow.checkpoint());
            let run = fast.run().unwrap();
            assert_same_run(
                &format!("ref->fast seed {seed}, index {k}"),
                &run,
                &straight,
            );
        }
    }
}

/// Restoring *backwards* — checkpoint, keep running (which pushes fresh
/// entries into the wake/deadline heaps, re-hints components, and grows
/// the shared event arena past the snapshot), then restore the old
/// snapshot — must leave no trace of the abandoned continuation. The
/// heaps are lazily invalidated, so after the rollback they still hold
/// entries from the discarded future; restore's all-dirty rebuild must
/// make every one of them unreachable. The snapshot's own event view
/// must also be unaffected by the arena growing underneath it
/// (copy-on-write, never truncation).
#[test]
fn restore_after_heap_mutating_advances_is_bit_identical() {
    for seed in SEEDS {
        let straight = fleet_engine(seed).run().unwrap();
        let n = straight.execution.len();
        for k in [0, 1, n / 4, n / 2, 3 * n / 4] {
            let mut engine = fleet_engine(seed);
            engine.run_until_events(k).unwrap();
            let cp = engine.checkpoint();
            let frozen = cp.events().to_vec();

            // Mutate the scheduler state: many fires and time advances
            // past the snapshot, each re-hinting components and pushing
            // heap entries the rollback will orphan.
            engine.run_until_events(k + 25).unwrap();
            assert_eq!(
                cp.events(),
                &frozen[..],
                "seed {seed}, index {k}: the snapshot's event view moved while the engine ran on"
            );

            engine.restore(&cp);
            // A second snapshot taken right after the rollback sees the
            // same prefix — the arena rewound, not just the counter.
            assert_eq!(
                engine.checkpoint().events(),
                &frozen[..],
                "seed {seed}, index {k}: rollback left extra events in the arena"
            );
            let run = engine.run().unwrap();
            assert_same_run(&format!("seed {seed}, rollback at {k}"), &run, &straight);
        }
    }
}

/// [`Engine::fork`] mid-run: the sibling and the original continue
/// independently and both land on the uninterrupted run — the shared
/// prefix is copy-on-write, so neither continuation can disturb the
/// other.
#[test]
fn forked_sibling_and_original_continue_identically() {
    for seed in SEEDS {
        let straight = fleet_engine(seed).run().unwrap();
        let mid = straight.execution.len() / 2;
        let mut original = fleet_engine(seed);
        original.run_until_events(mid).unwrap();
        let mut sibling = original
            .fork(fleet_mix!(Engine::builder(), seed).scheduler(RandomScheduler::new(seed)));
        // Finish the sibling first so any prefix aliasing bug would
        // corrupt the original's continuation.
        let sibling_run = sibling.run().unwrap();
        let original_run = original.run().unwrap();
        assert_same_run(&format!("seed {seed}, sibling"), &sibling_run, &straight);
        assert_same_run(&format!("seed {seed}, original"), &original_run, &straight);
    }
}

/// Channels carry real message state (in-flight envelopes, FIFO queues,
/// drop RNGs): the heartbeat failure-detector pair over FIFO + lossy
/// channels must also resume bit-identically from every index.
#[test]
fn heartbeat_channel_state_survives_checkpoint_restore() {
    let bounds = DelayBounds::new(ms(1), ms(4)).unwrap();
    let params = FdParams {
        period: ms(10),
        timeout: ms(25),
    };
    let build = |seed: u64| -> Engine<FdAction> {
        Engine::builder()
            .timed(Heartbeater::new(NodeId(0), NodeId(1), ms(10)))
            .timed(FifoChannel::new(
                NodeId(0),
                NodeId(1),
                bounds,
                SeededDelay::new(5),
            ))
            .timed(Monitor::new(NodeId(1), NodeId(0), params))
            .timed(Heartbeater::new(NodeId(1), NodeId(0), ms(10)))
            .timed(LossyChannel::new(
                NodeId(1),
                NodeId(0),
                bounds,
                SeededDelay::new(6),
                DropSeeded::new(7, 30),
            ))
            .timed(Monitor::new(NodeId(0), NodeId(1), params))
            .horizon(at(400))
            .scheduler(RandomScheduler::new(seed))
            .build()
    };
    for seed in SEEDS {
        let straight = build(seed).run().unwrap();
        let n = straight.execution.len();
        assert!(
            n > 50,
            "seed {seed}: heartbeat mix produced only {n} events"
        );
        let mut recorder = build(seed);
        for k in 0..=n {
            recorder.run_until_events(k).unwrap();
            let cp = recorder.checkpoint();
            let mut resumed = build(seed);
            resumed.restore(&cp);
            let run = resumed.run().unwrap();
            assert_same_run(&format!("seed {seed}, index {k}"), &run, &straight);
        }
    }
}

/// Logs the checkpoint-related hooks plus every event, so the resumed
/// engine's hook stream can be aligned against the straight run's.
struct CheckpointObserver {
    log: Rc<RefCell<Vec<String>>>,
}

impl CheckpointObserver {
    fn new() -> (CheckpointObserver, Rc<RefCell<Vec<String>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        (
            CheckpointObserver {
                log: Rc::clone(&log),
            },
            log,
        )
    }
}

impl<A: Action> Observer<A> for CheckpointObserver {
    fn on_event(&mut self, index: usize, event: &TimedEvent<A>) {
        self.log.borrow_mut().push(format!(
            "event[{index}] {:?} kind={:?} now={} clock={:?}",
            event.action, event.kind, event.now, event.clock
        ));
    }

    fn on_checkpoint(&mut self, events: usize) {
        self.log.borrow_mut().push(format!("checkpoint n={events}"));
    }

    fn on_restore(&mut self, events: &[TimedEvent<A>]) {
        self.log
            .borrow_mut()
            .push(format!("restore n={}", events.len()));
    }
}

fn event_lines(log: &[String]) -> Vec<String> {
    log.iter()
        .filter(|l| l.starts_with("event"))
        .cloned()
        .collect()
}

/// A restored engine's observers see exactly the suffix: `on_restore`
/// with the k-event prefix, then event hooks identical line for line to
/// the straight run's events `k..`. The recorder's observer sees the
/// matching `on_checkpoint` notifications.
#[test]
fn observer_streams_after_restore_match_the_straight_suffix() {
    for seed in SEEDS {
        let (obs, straight_log) = CheckpointObserver::new();
        let straight = fleet_mix!(Engine::builder(), seed)
            .observer(obs)
            .scheduler(RandomScheduler::new(seed))
            .build()
            .run()
            .unwrap();
        let straight_events = event_lines(&straight_log.borrow());
        assert_eq!(straight_events.len(), straight.execution.len());

        let n = straight.execution.len();
        for k in [0, 1, n / 3, n / 2, n - 1, n] {
            let (obs, recorder_log) = CheckpointObserver::new();
            let mut recorder = fleet_mix!(Engine::builder(), seed)
                .observer(obs)
                .scheduler(RandomScheduler::new(seed))
                .build();
            recorder.run_until_events(k).unwrap();
            let cp = recorder.checkpoint();
            assert_eq!(
                recorder_log.borrow().last().map(String::as_str),
                Some(format!("checkpoint n={k}").as_str()),
                "seed {seed}, index {k}: recorder missed the checkpoint hook"
            );

            let (obs, resumed_log) = CheckpointObserver::new();
            let mut resumed = fleet_mix!(Engine::builder(), seed)
                .observer(obs)
                .scheduler(RandomScheduler::new(seed))
                .build();
            resumed.restore(&cp);
            let run = resumed.run().unwrap();
            assert_same_run(&format!("seed {seed}, index {k}"), &run, &straight);

            let resumed_log = resumed_log.borrow();
            assert_eq!(
                resumed_log.first().map(String::as_str),
                Some(format!("restore n={k}").as_str()),
                "seed {seed}, index {k}: restore hook missing or out of order"
            );
            assert_eq!(
                event_lines(&resumed_log),
                straight_events[k..],
                "seed {seed}, index {k}: resumed event hooks diverge from the straight suffix"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random seeds and random pause points over the adversary fleet:
    /// for any seed and any index, restoring the index-k snapshot into a
    /// fresh engine of either implementation reproduces the straight
    /// run exactly.
    #[test]
    fn any_pause_point_resumes_identically(seed in 0u64..u64::MAX, pause in 0usize..400) {
        let straight = fleet_engine(seed).run().unwrap();
        let k = pause.min(straight.execution.len());

        let mut recorder = fleet_engine(seed);
        recorder.run_until_events(k).unwrap();
        let cp = recorder.checkpoint();

        let mut resumed = fleet_engine(seed);
        resumed.restore(&cp);
        let run = resumed.run().unwrap();
        prop_assert_eq!(run.stop, straight.stop);
        prop_assert_eq!(&run.execution, &straight.execution);

        let mut crossed = fleet_reference(seed);
        crossed.restore(&cp);
        let run = crossed.run().unwrap();
        prop_assert_eq!(run.stop, straight.stop);
        prop_assert_eq!(&run.execution, &straight.execution);
    }
}
