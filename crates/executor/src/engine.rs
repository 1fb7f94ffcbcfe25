//! The execution engine: composition + run loop.
//!
//! # Incremental architecture
//!
//! The engine is *incremental*: instead of re-querying every component on
//! every loop iteration it maintains
//!
//! * a per-component **enabled cache** with a dirty set — only components
//!   whose state or clock changed since the last query are re-asked for
//!   their enabled actions;
//! * a static **routing table** built once at [`EngineBuilder::build`] from
//!   the components' [`TimedComponent::action_names`] hints, so firing an
//!   action visits only the components that might have it in signature;
//! * **wake-up heaps** fed by the components'
//!   [`TimedComponent::wake_hint`] promises: a time advance wakes only the
//!   components whose promised wake time has come due (popped from a lazy
//!   min-heap in deterministic `(deadline, component-index)` order) plus
//!   the components that made no promise, instead of advancing and
//!   re-querying all of them — O(woken · log n) per advance instead of
//!   O(n);
//! * a **deadline scratch** that carries each node's minimum clock deadline
//!   from [`compute_target`](Engine::run) to the immediately following
//!   time advance (the states have not changed in between, so the reuse is
//!   exact).
//!
//! The event log is an arena ([`EventArena`]) shared by `Arc`: run
//! snapshots, checkpoints and observers all view the same flat storage,
//! so snapshotting is O(1) and the engine copy-on-writes only when it
//! appends past a still-live snapshot.
//!
//! All of this is invisible in the recorded executions: the candidate
//! order, scheduler consultation and event log are bit-identical to the
//! straightforward scan-everything implementation preserved in
//! [`ReferenceEngine`](crate::ReferenceEngine) (see the
//! `engine_equiv` integration tests).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use psync_automata::ClockComponent;
use psync_automata::{
    Action, ArenaSnapshot, ClockComponentBox, ClockPredicate, ComponentBox, DynState, EventArena,
    Execution, TimedComponent, TimedEvent, WakeHint,
};
use psync_time::{Duration, Time};

use crate::clock_driver::{AdvanceCtx, ClockCheckpoint, ClockStrategy};
use crate::error::EngineError;
use crate::fasthash::FastBuildHasher;
use crate::observer::{ClockRead, Observer};
use crate::scheduler::{FifoScheduler, Scheduler, SchedulerCheckpoint};
use crate::wakeheap::WakeHeap;

/// Default cap on recorded events, guarding against Zeno compositions.
const DEFAULT_MAX_EVENTS: usize = 1_000_000;

/// After this many consecutive estimate-guided advances with no event, the
/// engine falls back to the `Dc + ε` hard cap to guarantee progress.
const IDLE_ADVANCE_FALLBACK: u32 = 8;

struct TimedRuntime<A: Action> {
    comp: ComponentBox<A>,
    state: DynState,
}

struct NodeRuntime<A: Action> {
    /// Interned at `build()`: the engine shares this one allocation into
    /// every event the node performs (an `Arc` refcount bump per event,
    /// never a `String` clone).
    name: Arc<str>,
    comps: Vec<(ClockComponentBox<A>, DynState)>,
    clock: Time,
    strategy: Box<dyn ClockStrategy>,
    pred: ClockPredicate,
}

/// A group of clock components sharing one node clock — the clock-automaton
/// composition of Definition 2.7, plus the clock *behavior* (strategy) and
/// envelope (`ε`) that the paper's clock subsystem would provide.
///
/// # Examples
///
/// ```
/// use psync_automata::toys::ClockBeeper;
/// use psync_executor::{ClockNode, PerfectClock};
/// use psync_time::Duration;
///
/// let node = ClockNode::new("n0", Duration::from_millis(2), PerfectClock)
///     .with(ClockBeeper::new(Duration::from_millis(10)));
/// ```
pub struct ClockNode<A: Action> {
    pub(crate) name: String,
    pub(crate) eps: Duration,
    pub(crate) strategy: Box<dyn ClockStrategy>,
    pub(crate) comps: Vec<ClockComponentBox<A>>,
}

impl<A: Action> ClockNode<A> {
    /// Creates an empty node with skew bound `eps` and a clock strategy.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        eps: Duration,
        strategy: impl ClockStrategy + 'static,
    ) -> Self {
        assert!(!eps.is_negative(), "skew bound must be non-negative");
        ClockNode {
            name: name.into(),
            eps,
            strategy: Box::new(strategy),
            comps: Vec::new(),
        }
    }

    /// Adds a clock component to the node.
    #[must_use]
    pub fn with<C: ClockComponent<Action = A>>(mut self, comp: C) -> Self {
        self.comps.push(ClockComponentBox::new(comp));
        self
    }

    /// Adds an already-boxed clock component to the node.
    #[must_use]
    pub fn with_boxed(mut self, comp: ClockComponentBox<A>) -> Self {
        self.comps.push(comp);
        self
    }

    /// The node's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The time horizon was reached.
    Horizon,
    /// No component had anything left to do and no deadline was pending.
    Quiescent,
    /// An [`Engine::run_until_events`] pause point was reached. The engine
    /// state is exactly the state between two events of the uninterrupted
    /// run: calling `run` (or `run_until_events` again) continues
    /// bit-identically.
    Paused,
}

/// A detached, deep snapshot of an engine's run state, captured by
/// [`Engine::checkpoint`] and resumed by [`Engine::restore`] — the
/// operational form of the paper's pasting lemma (Lemma 2.1): an
/// admissible execution can be cut at any state and resumed from there.
///
/// The snapshot captures *pure run state* only: real time, every
/// component's `DynState` (deep-cloned via `clone_box`), node clocks,
/// clock-strategy state (drift offsets, RNG positions, scripted rejection
/// counts), scheduler state, and the accumulated execution prefix (shared
/// by `Arc`, so a checkpoint is O(components), not O(events)). Static
/// configuration — the components themselves, routing tables, `ε` bounds,
/// `max_events` — is *not* captured: it belongs to the engine a checkpoint
/// is restored into. That makes checkpoints portable across engine
/// instances built from structurally compatible configurations (same
/// component layout), which is exactly what the explorer's prefix-sharing
/// shrink probes need: a probe engine is built from a *different* fault
/// plan and then restored from the base run's checkpoint taken before the
/// plans diverge.
///
/// The engine's derived caches (enabled cache, dirty set, duplicate map,
/// deadline scratch) are deliberately omitted: restore marks everything
/// dirty, and the next refresh rebuilds them from the restored states —
/// the all-dirty rebuild produces bit-identical candidate lists, so the
/// resumed run is indistinguishable from an uninterrupted one.
///
/// While a checkpoint holds its prefix it shares the capturing engine's
/// live arena, so that engine's next append copies the whole log. A
/// caller that takes many checkpoints of one run (a ladder) should
/// [detach](EngineCheckpoint::without_events) them and restore with
/// [`Engine::restore_from_log`], which reads the prefix from a log of the
/// same run instead.
pub struct EngineCheckpoint<A: Action> {
    pub(crate) now: Time,
    pub(crate) timed_states: Vec<DynState>,
    pub(crate) node_clocks: Vec<Time>,
    pub(crate) node_states: Vec<Vec<DynState>>,
    pub(crate) clock_states: Vec<ClockCheckpoint>,
    pub(crate) scheduler_state: SchedulerCheckpoint,
    /// The captured prefix; `None` once detached.
    pub(crate) events: Option<ArenaSnapshot<A>>,
    pub(crate) event_count: usize,
    pub(crate) idle_advances: u32,
    pub(crate) horizon: Option<Time>,
}

impl<A: Action> EngineCheckpoint<A> {
    /// Real time at the moment of capture.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The captured execution prefix (every event recorded before the
    /// checkpoint, oldest first).
    ///
    /// # Panics
    ///
    /// Panics if the events were detached.
    #[must_use]
    pub fn events(&self) -> &[TimedEvent<A>] {
        self.events_snapshot().events()
    }

    /// The captured prefix as an O(1) arena view, for callers that want to
    /// share the storage onward.
    ///
    /// # Panics
    ///
    /// Panics if the events were detached.
    #[must_use]
    pub fn events_snapshot(&self) -> &ArenaSnapshot<A> {
        self.events
            .as_ref()
            .expect("checkpoint events were detached; restore with Engine::restore_from_log")
    }

    /// Number of events in the captured prefix — the checkpoint's position
    /// in the run. Kept when the events are detached.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.event_count
    }

    /// Drops the checkpoint's view of the event log, keeping only its
    /// position. The capturing engine then owns its arena alone again and
    /// keeps appending in place; restore the detached checkpoint with
    /// [`Engine::restore_from_log`].
    #[must_use]
    pub fn without_events(mut self) -> Self {
        self.events = None;
        self
    }
}

/// The result of a completed run: the recorded execution and why it ended.
#[derive(Debug, Clone)]
pub struct Run<A> {
    /// The recorded execution.
    pub execution: Execution<A>,
    /// Why the run ended.
    pub stop: StopReason,
}

/// Builds an [`Engine`] from components, nodes and policies.
pub struct EngineBuilder<A: Action> {
    timed: Vec<ComponentBox<A>>,
    nodes: Vec<ClockNode<A>>,
    scheduler: Box<dyn Scheduler<A>>,
    horizon: Option<Time>,
    max_events: usize,
    observers: Vec<Box<dyn Observer<A>>>,
}

impl<A: Action> Default for EngineBuilder<A> {
    fn default() -> Self {
        EngineBuilder {
            timed: Vec::new(),
            nodes: Vec::new(),
            scheduler: Box::new(FifoScheduler),
            horizon: None,
            max_events: DEFAULT_MAX_EVENTS,
            observers: Vec::new(),
        }
    }
}

impl<A: Action> EngineBuilder<A> {
    /// Adds a timed component (channel, environment, workload, node
    /// algorithm in the timed model…).
    #[must_use]
    pub fn timed<C: TimedComponent<Action = A>>(mut self, comp: C) -> Self {
        self.timed.push(ComponentBox::new(comp));
        self
    }

    /// Adds an already-boxed timed component.
    #[must_use]
    pub fn timed_boxed(mut self, comp: ComponentBox<A>) -> Self {
        self.timed.push(comp);
        self
    }

    /// Adds a clock node (a group of clock components sharing one clock).
    #[must_use]
    pub fn clock_node(mut self, node: ClockNode<A>) -> Self {
        self.nodes.push(node);
        self
    }

    /// Sets the scheduler (default: [`FifoScheduler`]).
    #[must_use]
    pub fn scheduler(mut self, s: impl Scheduler<A> + 'static) -> Self {
        self.scheduler = Box::new(s);
        self
    }

    /// Stops the run when real time reaches `horizon`.
    #[must_use]
    pub fn horizon(mut self, horizon: Time) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Caps the number of recorded events (default 1 000 000).
    #[must_use]
    pub fn max_events(mut self, max: usize) -> Self {
        self.max_events = max;
        self
    }

    /// Attaches an [`Observer`]; may be called several times, observers are
    /// notified in attachment order. Observers are read-only taps — the
    /// recorded execution is bit-identical with or without them.
    #[must_use]
    pub fn observer(mut self, obs: impl Observer<A> + 'static) -> Self {
        self.observers.push(Box::new(obs));
        self
    }

    /// Attaches an already-boxed observer.
    #[must_use]
    pub fn observer_boxed(mut self, obs: Box<dyn Observer<A>>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Builds the engine with all components in their start states and
    /// `now = clock = 0` (axioms S1 and C1).
    ///
    /// This is also where the static **routing table** is assembled: each
    /// component's [`TimedComponent::action_names`] hint is read once, and
    /// components are indexed by the action names they admit. Components
    /// without a hint land in the wildcard set and are visited for every
    /// action, so hint-less components behave exactly as before.
    #[must_use]
    pub fn build(self) -> Engine<A> {
        let timed: Vec<TimedRuntime<A>> = self
            .timed
            .into_iter()
            .map(|comp| {
                let state = comp.initial();
                TimedRuntime { comp, state }
            })
            .collect();
        let nodes: Vec<NodeRuntime<A>> = self
            .nodes
            .into_iter()
            .map(|n| NodeRuntime {
                name: Arc::from(n.name.as_str()),
                comps: n
                    .comps
                    .into_iter()
                    .map(|c| {
                        let s = c.initial();
                        (c, s)
                    })
                    .collect(),
                clock: Time::ZERO,
                strategy: n.strategy,
                pred: ClockPredicate::skew(n.eps),
            })
            .collect();

        // Flat component index space: timed components first, then each
        // node's components, all in insertion order. This is the engine's
        // canonical iteration order; everything below preserves it.
        let mut flat_origin: Vec<Origin> = (0..timed.len()).map(Origin::Timed).collect();
        for (n, node) in nodes.iter().enumerate() {
            flat_origin.extend((0..node.comps.len()).map(|j| Origin::Node(n, j)));
        }

        let mut hinted: HashMap<&'static str, Vec<usize>> = HashMap::new();
        let mut wildcard: Vec<usize> = Vec::new();
        for (id, origin) in flat_origin.iter().enumerate() {
            let hint = match *origin {
                Origin::Timed(i) => timed[i].comp.action_names(),
                Origin::Node(n, j) => nodes[n].comps[j].0.action_names(),
            };
            match hint {
                None => wildcard.push(id),
                Some(names) => {
                    for name in names {
                        let ids = hinted.entry(name).or_default();
                        if ids.last() != Some(&id) {
                            ids.push(id);
                        }
                    }
                }
            }
        }
        // Merge each hinted list with the wildcard ids *once*, here: firing
        // an action then iterates a precomputed ascending visit list with no
        // per-event merge work. (A component is hinted or wildcard, never
        // both, so the merge never produces duplicates.)
        let route: HashMap<&'static str, Rc<[usize]>, FastBuildHasher> = hinted
            .into_iter()
            .map(|(name, ids)| {
                let mut merged = Vec::with_capacity(ids.len() + wildcard.len());
                let (mut i, mut j) = (0, 0);
                while i < ids.len() && j < wildcard.len() {
                    if ids[i] < wildcard[j] {
                        merged.push(ids[i]);
                        i += 1;
                    } else {
                        merged.push(wildcard[j]);
                        j += 1;
                    }
                }
                merged.extend_from_slice(&ids[i..]);
                merged.extend_from_slice(&wildcard[j..]);
                (name, Rc::from(merged))
            })
            .collect();
        let wildcard: Rc<[usize]> = Rc::from(wildcard);

        let flat_count = flat_origin.len();
        let node_count = nodes.len();
        let timed_count = timed.len();
        // The arena is born knowing every node name: events then share the
        // interned `Arc<str>`s, and index-based consumers can resolve a
        // name without touching the events.
        let mut arena = EventArena::new();
        for node in &nodes {
            arena.intern(&node.name);
        }
        Engine {
            timed,
            nodes,
            now: Time::ZERO,
            scheduler: self.scheduler,
            events: Arc::new(arena),
            horizon: self.horizon,
            max_events: self.max_events,
            idle_advances: 0,
            observers: self.observers,
            flat_origin,
            route,
            wildcard,
            enabled_cache: vec![Vec::new(); flat_count],
            dirty: vec![true; flat_count],
            dirty_ids: Vec::new(),
            all_dirty: true,
            seg_len: vec![0; flat_count],
            dup_map: HashMap::default(),
            cand: Vec::new(),
            cand_origin: Vec::new(),
            node_dc_scratch: vec![None; node_count],
            dc_scratch_valid: false,
            wake_cached: vec![WakeHint::Always; timed_count],
            dl_cached: vec![None; timed_count],
            wake_heap: WakeHeap::new(),
            dl_heap: WakeHeap::new(),
            always_ids: Vec::new(),
            in_always: vec![false; timed_count],
            touched_scratch: Vec::new(),
        }
    }
}

/// Where an enabled action came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Timed(usize),
    Node(usize, usize),
}

/// The composed system plus its run state.
///
/// See the [crate docs](crate) for the execution semantics, the
/// crate-level example for typical use, and the module docs (`engine.rs`) for
/// the incremental machinery (routing table, enabled cache, deadline
/// scratch) that keeps the run loop from rescanning every component on
/// every event.
pub struct Engine<A: Action> {
    timed: Vec<TimedRuntime<A>>,
    nodes: Vec<NodeRuntime<A>>,
    now: Time,
    scheduler: Box<dyn Scheduler<A>>,
    events: Arc<EventArena<A>>,
    horizon: Option<Time>,
    max_events: usize,
    idle_advances: u32,
    /// Read-only taps notified at the four observation points (see
    /// [`Observer`]); empty unless attached, in which case every hook site
    /// iterates an empty vector.
    observers: Vec<Box<dyn Observer<A>>>,

    // ---- incremental machinery (derived, never observable in traces) ----
    /// Flat component id → where it lives. Timed components first, then
    /// node components, all in insertion order.
    flat_origin: Vec<Origin>,
    /// Action name → ascending flat ids of the components to visit when
    /// firing an action of that name (hinted components listing the name,
    /// pre-merged with the wildcard ids). Fast-hashed: looked up once per
    /// fired event.
    route: HashMap<&'static str, Rc<[usize]>, FastBuildHasher>,
    /// Flat ids of components without an `action_names` hint (ascending);
    /// the visit list for action names no hint mentions.
    wildcard: Rc<[usize]>,
    /// Per-component cached `enabled()` result; valid iff not dirty.
    enabled_cache: Vec<Vec<A>>,
    /// Components whose state or clock changed since their cache entry was
    /// last refreshed.
    dirty: Vec<bool>,
    /// The ids currently flagged in `dirty`, unordered (sorted on use);
    /// meaningless while `all_dirty` is set. Lets the refresh visit only
    /// the changed components instead of scanning every flag.
    dirty_ids: Vec<usize>,
    /// Every component is dirty (initial state, and after every time
    /// advance) — cheaper than pushing all ids into `dirty_ids`.
    all_dirty: bool,
    /// `seg_len[id]` is the number of candidates component `id`
    /// contributes to `cand` — the length of its segment in the
    /// concatenation invariant (see `refresh_candidates`).
    seg_len: Vec<u32>,
    /// Currently enabled action → the flat id offering it, maintained
    /// incrementally as caches refresh. Two components claiming the same
    /// action is the Definition 2.2 incompatibility; the map detects it in
    /// O(dirty) per event instead of a pairwise scan over all candidates.
    /// Fast-hashed: every offer of every dirty component is hashed on every
    /// refresh, making this the hottest hashing site in the engine.
    dup_map: HashMap<A, usize, FastBuildHasher>,
    /// Scratch: current candidates, concatenation of the caches in flat
    /// order.
    cand: Vec<A>,
    /// Scratch: `cand_origin[i]` is the flat id that offered `cand[i]`
    /// (ascending).
    cand_origin: Vec<usize>,
    /// Per-node minimum clock deadline computed by `compute_target`, reused
    /// by the immediately following `advance_to` (states are unchanged in
    /// between, so the value is exact, not a heuristic).
    node_dc_scratch: Vec<Option<Time>>,
    dc_scratch_valid: bool,
    /// Timed component `id`'s wake hint as of its last cache refresh
    /// (indexed by flat id, which equals the timed index; node components
    /// are not tracked here — their hints are consulted inline per
    /// advance, on the clock-time basis).
    wake_cached: Vec<WakeHint>,
    /// Timed component `id`'s deadline as of the same refresh; meaningful
    /// only while `wake_cached[id]` is not `Always` (an `Always` component
    /// promises nothing, so its deadline is re-queried on every
    /// `compute_target`).
    dl_cached: Vec<Option<Time>>,
    /// Lazy min-heap of `(wake time, timed id)`. An entry is live iff the
    /// component still caches exactly that `At(time)` hint; stale entries
    /// are discarded when popped. Pushes are unconditional on every
    /// refresh — duplicates are cheaper than a lookup structure and are
    /// bounded by `rebuild_heaps`.
    wake_heap: WakeHeap,
    /// Lazy min-heap of `(deadline, timed id)` over the non-`Always` timed
    /// components; an entry is live iff the component still caches that
    /// deadline. Its live top is the earliest timed deadline
    /// `compute_target` needs, found without scanning.
    dl_heap: WakeHeap,
    /// Timed ids currently hinting `Always` (lazy membership: an entry is
    /// live iff `in_always[id]`; stale and duplicate entries are dropped
    /// on iteration or by periodic compaction).
    always_ids: Vec<usize>,
    in_always: Vec<bool>,
    /// Scratch for the ids woken by one time advance.
    touched_scratch: Vec<usize>,
}

impl<A: Action> Engine<A> {
    /// Starts building an engine.
    #[must_use]
    pub fn builder() -> EngineBuilder<A> {
        EngineBuilder::default()
    }

    /// The current real time.
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// The current clock of node `idx` (in insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn node_clock(&self, idx: usize) -> Time {
        self.nodes[idx].clock
    }

    /// Views the state of timed component `idx` as a concrete type, for
    /// tests and diagnostics.
    #[must_use]
    pub fn timed_state<S: 'static>(&self, idx: usize) -> Option<&S> {
        self.timed.get(idx)?.state.downcast_ref::<S>()
    }

    /// The events recorded so far.
    #[must_use]
    pub fn events(&self) -> &[TimedEvent<A>] {
        self.events.events()
    }

    /// An O(1) view of the events recorded so far. Like every snapshot,
    /// it makes the engine's next append copy the log while it is alive.
    #[must_use]
    pub fn events_snapshot(&self) -> ArenaSnapshot<A> {
        ArenaSnapshot::full(Arc::clone(&self.events))
    }

    /// Extends (or sets) the horizon and continues the run — incremental
    /// driving for interactive exploration. The returned execution always
    /// contains *all* events since the start, so a sequence of
    /// `run_until` calls observes the same execution a single `run` with
    /// the final horizon would have produced (the engine's state persists
    /// between calls).
    ///
    /// # Examples
    ///
    /// ```
    /// use psync_automata::toys::Beeper;
    /// use psync_executor::Engine;
    /// use psync_time::{Duration, Time};
    ///
    /// let ms = Duration::from_millis;
    /// let mut engine = Engine::builder().timed(Beeper::new(ms(7))).build();
    /// let first = engine.run_until(Time::ZERO + ms(10))?;
    /// assert_eq!(first.execution.len(), 1); // the 7 ms beep
    /// let second = engine.run_until(Time::ZERO + ms(20))?;
    /// assert_eq!(second.execution.len(), 2); // 7 ms and 14 ms
    /// # Ok::<(), psync_executor::EngineError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// As for [`Engine::run`].
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is earlier than the current time (time cannot
    /// run backwards).
    pub fn run_until(&mut self, horizon: Time) -> Result<Run<A>, EngineError> {
        assert!(
            horizon >= self.now,
            "horizon {horizon} is before the current time {}",
            self.now
        );
        self.horizon = Some(horizon);
        self.run()
    }

    /// Runs to quiescence or the horizon, consuming the engine's current
    /// state and returning the recorded execution.
    ///
    /// # Errors
    ///
    /// Returns an [`EngineError`] when the composition is ill-formed (see
    /// the error type for the catalogue); the partial event history is
    /// available through [`Engine::events`] afterwards.
    pub fn run(&mut self) -> Result<Run<A>, EngineError> {
        self.run_inner(None)
    }

    /// Runs until the execution holds at least `pause_at` events, then
    /// pauses ([`StopReason::Paused`]) with the engine state exactly as it
    /// is between two events of the uninterrupted run — the natural grain
    /// for [`Engine::checkpoint`]. If the run ends (horizon, quiescence)
    /// before reaching `pause_at` events, the natural stop reason is
    /// returned instead. A paused engine resumes with [`Engine::run`] or a
    /// further `run_until_events`, bit-identically to never having paused.
    ///
    /// Pausing is event-count-based on purpose: a time-based cut could
    /// split a `ν` advance in two, which consults the clock strategies
    /// with different targets than the uninterrupted run would.
    ///
    /// # Errors
    ///
    /// As for [`Engine::run`].
    pub fn run_until_events(&mut self, pause_at: usize) -> Result<Run<A>, EngineError> {
        self.run_inner(Some(pause_at))
    }

    /// Like [`Engine::run_until`], but guarantees `now == horizon` on a
    /// clean return: if the run goes quiescent short of the horizon, time
    /// is advanced through `ν` to the horizon anyway (possibly enabling
    /// clock-deadline work, which is then run too).
    ///
    /// [`Engine::run_until`] deliberately leaves a quiescent engine's
    /// clock where it stopped — the simulator has no use for idle time.
    /// A live runtime does: wall time passes whether or not the node has
    /// work, and an injection ([`Engine::inject`]) must be recorded at
    /// the *current wall time*, not at whenever the node last had
    /// something to do. Quiescence here is exactly the case where
    /// arbitrary delay is legal (no deadline is pending), so pushing `ν`
    /// to the horizon stays inside the model.
    ///
    /// # Errors
    ///
    /// As for [`Engine::run`].
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is earlier than the current time.
    pub fn run_idle_until(&mut self, horizon: Time) -> Result<Run<A>, EngineError> {
        loop {
            let run = self.run_until(horizon)?;
            if self.now >= horizon {
                return Ok(run);
            }
            self.advance_to(horizon)?;
        }
    }

    /// Applies an *environment-supplied* input action at the current time
    /// and records it — exactly as if an external composition partner had
    /// just fired it as its output.
    ///
    /// This is the seam a live runtime drives: an engine that holds only
    /// one node of a distributed system receives that node's message
    /// deliveries (with their *measured* wire delays) and workload
    /// invocations through `inject`, while everything the node itself
    /// controls still fires through the normal scheduling loop. Injection
    /// is synchronous and ordered: the event is appended to the log at
    /// [`Engine::now`], observers see it like any engine-fired event, and
    /// the next [`Engine::run_until`] call resumes with the components
    /// already stepped.
    ///
    /// Every interested component must classify the action as
    /// [`ActionKind::Input`](psync_automata::ActionKind) — the environment
    /// controls an injected action, so a locally-controlled claim is the
    /// same incompatibility as two composed components both claiming an
    /// output. The recorded event carries the clock of the unique node
    /// that steps on it (the `c_i(α)` of Section 4.3), like any other.
    ///
    /// # Errors
    ///
    /// [`EngineError::IncompatibleControllers`] if a component claims the
    /// action as locally controlled; [`EngineError::InputNotEnabled`] if a
    /// component has it in signature but refuses the step;
    /// [`EngineError::UnclaimedInjection`] if no component has it in
    /// signature at all (the injection would vanish without a trace, which
    /// is always a plumbing bug in the caller).
    pub fn inject(&mut self, action: A) -> Result<(), EngineError> {
        self.dc_scratch_valid = false;
        let interested: Rc<[usize]> = self
            .route
            .get(action.name())
            .cloned()
            .unwrap_or_else(|| Rc::clone(&self.wildcard));
        let mut event_clock: Option<(usize, Time)> = None;
        let mut stepped = false;
        let now = self.now;
        for &id in interested.iter() {
            match self.flat_origin[id] {
                Origin::Timed(i) => {
                    let rt = &mut self.timed[i];
                    let Some(k) = rt.comp.classify(&action) else {
                        continue;
                    };
                    if k.is_locally_controlled() {
                        return Err(EngineError::IncompatibleControllers {
                            first: rt.comp.name().to_string(),
                            second: String::from("<injected>"),
                            action: format!("{action:?}"),
                        });
                    }
                    match rt.comp.step(&rt.state, &action, now) {
                        Some(next) => {
                            rt.state = next;
                            stepped = true;
                            if !self.dirty[id] {
                                self.dirty[id] = true;
                                self.dirty_ids.push(id);
                            }
                        }
                        None => {
                            return Err(EngineError::InputNotEnabled {
                                component: rt.comp.name().to_string(),
                                action: format!("{action:?}"),
                                now,
                            })
                        }
                    }
                }
                Origin::Node(n, j) => {
                    let node = &mut self.nodes[n];
                    let clock = node.clock;
                    let (comp, state) = &mut node.comps[j];
                    let Some(k) = comp.classify(&action) else {
                        continue;
                    };
                    if event_clock.is_none() {
                        event_clock = Some((n, clock));
                    }
                    if k.is_locally_controlled() {
                        return Err(EngineError::IncompatibleControllers {
                            first: format!("{}/{}", node.name, comp.name()),
                            second: String::from("<injected>"),
                            action: format!("{action:?}"),
                        });
                    }
                    match comp.step(state, &action, clock) {
                        Some(next) => {
                            *state = next;
                            stepped = true;
                            if !self.dirty[id] {
                                self.dirty[id] = true;
                                self.dirty_ids.push(id);
                            }
                        }
                        None => {
                            return Err(EngineError::InputNotEnabled {
                                component: format!("{}/{}", node.name, comp.name()),
                                action: format!("{action:?}"),
                                now,
                            })
                        }
                    }
                }
            }
        }
        if !stepped {
            return Err(EngineError::UnclaimedInjection {
                action: format!("{action:?}"),
                now,
            });
        }
        let event = TimedEvent {
            node: event_clock.map(|(n, _)| Arc::clone(&self.nodes[n].name)),
            action,
            kind: psync_automata::ActionKind::Input,
            now,
            clock: event_clock.map(|(_, c)| c),
        };
        if !self.observers.is_empty() {
            if let Some((n, clock)) = event_clock {
                let eps = self.nodes[n].pred.eps();
                for obs in &mut self.observers {
                    obs.on_clock_read(ClockRead {
                        node: n,
                        now,
                        clock,
                        eps,
                    });
                }
            }
            let index = self.events.len();
            for obs in &mut self.observers {
                obs.on_event(index, &event);
            }
        }
        Arc::make_mut(&mut self.events).push(event);
        Ok(())
    }

    /// Captures a detached snapshot of the current run state. See
    /// [`EngineCheckpoint`] for what is (and is not) captured. Observers
    /// are notified via [`Observer::on_checkpoint`]; like every hook this
    /// is read-only, so checkpointing never perturbs the run.
    #[must_use = "a checkpoint is only useful if restored or inspected"]
    pub fn checkpoint(&mut self) -> EngineCheckpoint<A> {
        let cp = EngineCheckpoint {
            now: self.now,
            timed_states: self.timed.iter().map(|rt| rt.state.clone()).collect(),
            node_clocks: self.nodes.iter().map(|n| n.clock).collect(),
            node_states: self
                .nodes
                .iter()
                .map(|n| n.comps.iter().map(|(_, s)| s.clone()).collect())
                .collect(),
            clock_states: self.nodes.iter().map(|n| n.strategy.checkpoint()).collect(),
            scheduler_state: self.scheduler.checkpoint(),
            events: Some(ArenaSnapshot::full(Arc::clone(&self.events))),
            event_count: self.events.len(),
            idle_advances: self.idle_advances,
            horizon: self.horizon,
        };
        let count = cp.event_count;
        for obs in &mut self.observers {
            obs.on_checkpoint(count);
        }
        cp
    }

    /// Restores the run state captured in `checkpoint`, discarding the
    /// engine's current state. The engine must be structurally compatible
    /// with the one that captured the snapshot: same number of timed
    /// components, nodes and per-node components (their *configurations*
    /// may differ — that is the point of detached checkpoints). Continuing
    /// the run afterwards is bit-identical to continuing the captured
    /// engine, provided the configurations agree on everything the
    /// remaining events depend on.
    ///
    /// Derived caches are not restored; everything is marked dirty and the
    /// next refresh rebuilds them from the restored states, producing
    /// identical candidate lists. Observers are notified via
    /// [`Observer::on_restore`] with the restored prefix, so stateful
    /// observers can rebuild their own context.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint's shape (component counts) does not match
    /// this engine, or if its events were detached.
    pub fn restore(&mut self, checkpoint: &EngineCheckpoint<A>) {
        self.restore_state(checkpoint, checkpoint.events_snapshot());
    }

    /// [`Engine::restore`] for a checkpoint whose events were detached
    /// ([`EngineCheckpoint::without_events`]): the prefix is the first
    /// [`EngineCheckpoint::event_count`] events of `log`, which must be a
    /// log of the run that took the checkpoint (or of any run that agrees
    /// with it that far). Restoring an attached checkpoint this way is
    /// the same as [`Engine::restore`].
    ///
    /// # Panics
    ///
    /// As for [`Engine::restore`], and if `log` is shorter than the
    /// checkpoint's position.
    pub fn restore_from_log(&mut self, checkpoint: &EngineCheckpoint<A>, log: &ArenaSnapshot<A>) {
        self.restore_state(checkpoint, &log.prefix(checkpoint.event_count));
    }

    fn restore_state(&mut self, checkpoint: &EngineCheckpoint<A>, prefix: &ArenaSnapshot<A>) {
        assert_eq!(
            self.timed.len(),
            checkpoint.timed_states.len(),
            "checkpoint shape mismatch: timed component count"
        );
        assert_eq!(
            self.nodes.len(),
            checkpoint.node_clocks.len(),
            "checkpoint shape mismatch: node count"
        );
        self.now = checkpoint.now;
        for (rt, state) in self.timed.iter_mut().zip(&checkpoint.timed_states) {
            rt.state = state.clone();
        }
        for (n, node) in self.nodes.iter_mut().enumerate() {
            node.clock = checkpoint.node_clocks[n];
            let states = &checkpoint.node_states[n];
            assert_eq!(
                node.comps.len(),
                states.len(),
                "checkpoint shape mismatch: components of node {n}"
            );
            for ((_, state), snap) in node.comps.iter_mut().zip(states) {
                *state = snap.clone();
            }
            node.strategy.restore(&checkpoint.clock_states[n]);
        }
        self.scheduler.restore(&checkpoint.scheduler_state);
        // A full view (an attached checkpoint, or a log that ends at the
        // checkpoint) is an `Arc` clone; a proper prefix of a longer log
        // materializes a truncated copy.
        self.events = prefix.to_arena();
        self.idle_advances = checkpoint.idle_advances;
        self.horizon = checkpoint.horizon;
        // Derived caches — including the wake/deadline heaps, which hold
        // no state a checkpoint would need — are rebuilt from the restored
        // states on the next refresh; the all-dirty rebuild yields
        // identical candidate lists and re-notes every hint.
        self.invalidate_caches();
        for obs in &mut self.observers {
            obs.on_restore(prefix.events());
        }
    }

    /// Forks the run: builds a sibling engine from `builder` and restores
    /// this engine's current state into it. The sibling continues
    /// independently — its events, component states and RNG positions no
    /// longer affect this engine (the shared execution prefix is
    /// copy-on-write). The builder must describe a structurally compatible
    /// system (see [`Engine::restore`]); components are not cloneable, so
    /// the caller supplies the sibling's configuration.
    ///
    /// # Panics
    ///
    /// Panics if `builder` does not match this engine's shape.
    #[must_use = "the fork is a new engine; dropping it discards the fork"]
    pub fn fork(&mut self, builder: EngineBuilder<A>) -> Engine<A> {
        let cp = self.checkpoint();
        let mut sibling = builder.build();
        sibling.restore(&cp);
        sibling
    }

    fn run_inner(&mut self, pause_at: Option<usize>) -> Result<Run<A>, EngineError> {
        loop {
            if let Some(p) = pause_at {
                if self.events.len() >= p {
                    let now = self.now;
                    return Ok(self.finish(StopReason::Paused, now));
                }
            }
            if self.events.len() >= self.max_events {
                return Err(EngineError::EventLimitExceeded {
                    limit: self.max_events,
                    now: self.now,
                });
            }
            if let Some(h) = self.horizon {
                if self.now >= h {
                    return Ok(self.finish(StopReason::Horizon, h));
                }
            }

            self.refresh_candidates()?;
            if !self.cand.is_empty() {
                let (now, depth) = (self.now, self.cand.len());
                for obs in &mut self.observers {
                    obs.on_candidates(now, depth);
                }
                let idx = self
                    .scheduler
                    .pick_with_origins(self.now, &self.cand, &self.cand_origin);
                assert!(
                    idx < self.cand.len(),
                    "scheduler returned out-of-range index"
                );
                // Clone exactly the picked action — the candidate list is
                // maintained in place across events (see
                // `refresh_candidates`), so the other candidates are never
                // re-cloned, and this one slot must stay intact for the
                // next splice.
                let origin = self.flat_origin[self.cand_origin[idx]];
                let action = self.cand[idx].clone();
                self.fire(action, origin)?;
                self.idle_advances = 0;
                continue;
            }

            match self.compute_target(self.idle_advances >= IDLE_ADVANCE_FALLBACK)? {
                None => {
                    let ltime = self.horizon.unwrap_or(self.now).max(self.now);
                    return Ok(self.finish(StopReason::Quiescent, ltime));
                }
                Some(target) => {
                    debug_assert!(target > self.now);
                    let capped = match self.horizon {
                        Some(h) if target > h => h,
                        _ => target,
                    };
                    if capped > self.now {
                        self.advance_to(capped)?;
                        self.idle_advances += 1;
                    }
                    if Some(capped) == self.horizon && capped < target {
                        return Ok(self.finish(StopReason::Horizon, capped));
                    }
                }
            }
        }
    }

    fn finish(&mut self, stop: StopReason, ltime: Time) -> Run<A> {
        // O(1): the run keeps an arena view of the shared event log. The
        // engine copy-on-writes (`Arc::make_mut`) only if it appends again
        // while this snapshot is still alive.
        Run {
            execution: Execution::from_snapshot(
                ArenaSnapshot::full(Arc::clone(&self.events)),
                ltime.max(self.now),
            ),
            stop,
        }
    }

    /// Refreshes the enabled caches of dirty components and patches the
    /// candidate list.
    ///
    /// Invariant (holds whenever the scheduler is consulted): `cand` is
    /// the concatenation of the enabled caches in flat order — the same
    /// order the scan-everything engine produces: timed components in
    /// insertion order, then node components, each component's `enabled()`
    /// result in its own order — `cand_origin[i]` is the flat id owning
    /// `cand[i]`, and `seg_len[id]` is the length of id's segment.
    ///
    /// The list is maintained *in place*: only the dirty components'
    /// segments are spliced out and replaced (a tail memmove), instead of
    /// re-cloning every candidate of every component on every event. An
    /// event typically dirties two components out of many, so this turns
    /// the per-event cost from O(total candidates) clones into O(dirty
    /// segments) clones plus a memmove.
    ///
    /// When *everything* is dirty — the state after any time advance —
    /// per-segment splicing would pay one tail memmove per component for
    /// a list that is being wholly replaced anyway, so that case takes a
    /// flat rebuild instead: same re-queries, same duplicate-map
    /// registrations in the same id order, one append-only pass over the
    /// list. The two paths leave identical state; only the shuffling
    /// differs.
    fn refresh_candidates(&mut self) -> Result<(), EngineError> {
        if self.all_dirty {
            return self.rebuild_candidates();
        }
        // Ascending order keeps both the splice arithmetic and the
        // conflict attribution ("first" vs "second" claimant)
        // identical to a full scan in id order.
        self.dirty_ids.sort_unstable();
        // Pass 1: retire the dirty components' old offers from the
        // duplicate map. Only entries a component owns are removed — by the
        // map's invariant (a conflicting claim ends the run on the spot) an
        // entry under another id belongs to a component that still offers
        // the action.
        for k in 0..self.dirty_ids.len() {
            let id = self.dirty_ids[k];
            for a in &self.enabled_cache[id] {
                if self.dup_map.get(a) == Some(&id) {
                    self.dup_map.remove(a);
                }
            }
        }
        // Pass 2: re-query, re-register, splice. Two distinct components
        // offering the same action value means two controllers: the
        // composition is incompatible (Definition 2.2). The persistent map
        // detects a conflict the moment it first exists — the same loop
        // iteration a pairwise scan over all candidates would — in
        // O(dirty) per event.
        for k in 0..self.dirty_ids.len() {
            let id = self.dirty_ids[k];
            let fresh = match self.flat_origin[id] {
                Origin::Timed(i) => {
                    let rt = &self.timed[i];
                    rt.comp.enabled(&rt.state, self.now)
                }
                Origin::Node(n, j) => {
                    let node = &self.nodes[n];
                    let (comp, state) = &node.comps[j];
                    comp.enabled(state, node.clock)
                }
            };
            for a in &fresh {
                // Entry API: one hash lookup per action instead of a
                // `get` + `insert` pair. Pass 1 retired this component's
                // own offers, so the entry is vacant in the common case;
                // occupied-by-self only happens when a component offers
                // the same action twice, occupied-by-other is the
                // Definition 2.2 incompatibility.
                let owner = match self.dup_map.entry(a.clone()) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(v) => *v.insert(id),
                };
                if owner != id {
                    return Err(EngineError::IncompatibleControllers {
                        first: self.origin_name(self.flat_origin[owner]),
                        second: self.origin_name(self.flat_origin[id]),
                        action: format!("{a:?}"),
                    });
                }
            }
            // Replace id's segment of the candidate list. Earlier dirty
            // ids have already been spliced, so the prefix sum over
            // `seg_len` is the segment's current start.
            let start: usize = self.seg_len[..id].iter().map(|&l| l as usize).sum();
            let old_len = self.seg_len[id] as usize;
            self.cand
                .splice(start..start + old_len, fresh.iter().cloned());
            self.cand_origin
                .splice(start..start + old_len, std::iter::repeat_n(id, fresh.len()));
            self.seg_len[id] = u32::try_from(fresh.len()).expect("candidate count fits u32");
            self.enabled_cache[id] = fresh;
            self.dirty[id] = false;
            if id < self.timed.len() {
                self.note_timed(id);
            }
        }
        self.dirty_ids.clear();
        // Lazy structures accumulate stale duplicates; once they exceed a
        // small multiple of the component count, rebuild them exactly from
        // the (now all-fresh) caches.
        let cap = 2 * self.timed.len() + 64;
        if self.wake_heap.len() > cap || self.dl_heap.len() > cap {
            self.rebuild_heaps();
        }
        if self.always_ids.len() > self.timed.len() + 16 {
            self.always_ids.clear();
            for id in 0..self.timed.len() {
                if self.in_always[id] {
                    self.always_ids.push(id);
                }
            }
        }
        Ok(())
    }

    /// The all-dirty refresh: re-queries every component and rebuilds the
    /// candidate list append-only. Every map entry's owner is dirty, so
    /// retiring old offers is one `clear()`; re-registration then visits
    /// ids in the same ascending order as the splice path, keeping
    /// conflict attribution identical.
    fn rebuild_candidates(&mut self) -> Result<(), EngineError> {
        self.dup_map.clear();
        self.cand.clear();
        self.cand_origin.clear();
        // Everything is re-noted below, so the wake structures restart
        // empty instead of accumulating one stale generation per rebuild.
        self.wake_heap.clear();
        self.dl_heap.clear();
        self.always_ids.clear();
        self.in_always.fill(false);
        for id in 0..self.flat_origin.len() {
            let fresh = match self.flat_origin[id] {
                Origin::Timed(i) => {
                    let rt = &self.timed[i];
                    rt.comp.enabled(&rt.state, self.now)
                }
                Origin::Node(n, j) => {
                    let node = &self.nodes[n];
                    let (comp, state) = &node.comps[j];
                    comp.enabled(state, node.clock)
                }
            };
            for a in &fresh {
                let owner = match self.dup_map.entry(a.clone()) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(v) => *v.insert(id),
                };
                if owner != id {
                    return Err(EngineError::IncompatibleControllers {
                        first: self.origin_name(self.flat_origin[owner]),
                        second: self.origin_name(self.flat_origin[id]),
                        action: format!("{a:?}"),
                    });
                }
            }
            self.cand.extend(fresh.iter().cloned());
            self.cand_origin
                .extend(std::iter::repeat_n(id, fresh.len()));
            self.seg_len[id] = u32::try_from(fresh.len()).expect("candidate count fits u32");
            self.enabled_cache[id] = fresh;
            self.dirty[id] = false;
            if id < self.timed.len() {
                self.note_timed(id);
            }
        }
        self.all_dirty = false;
        self.dirty_ids.clear();
        Ok(())
    }

    /// Records timed component `id`'s wake hint — and, unless the hint is
    /// `Always`, its deadline — right after its enabled cache was
    /// refreshed. Heap entries are pushed unconditionally: a push per
    /// refresh is cheaper than any in-heap lookup, and a popped or
    /// superseded entry is recognized as stale because it no longer
    /// matches these caches.
    fn note_timed(&mut self, id: usize) {
        let rt = &self.timed[id];
        let hint = rt.comp.wake_hint(&rt.state, self.now);
        self.wake_cached[id] = hint;
        if hint == WakeHint::Always {
            self.dl_cached[id] = None;
            if !self.in_always[id] {
                self.in_always[id] = true;
                self.always_ids.push(id);
            }
            return;
        }
        self.in_always[id] = false;
        if let WakeHint::At(t) = hint {
            self.wake_heap.push(t, id);
        }
        let d = rt.comp.deadline(&rt.state, self.now);
        self.dl_cached[id] = d;
        if let Some(d) = d {
            self.dl_heap.push(d, id);
        }
    }

    /// Rebuilds both heaps exactly from the caches, dropping every stale
    /// duplicate. Only called when nothing is dirty, so every cache entry
    /// is current.
    fn rebuild_heaps(&mut self) {
        self.wake_heap.clear();
        self.dl_heap.clear();
        for id in 0..self.timed.len() {
            match self.wake_cached[id] {
                WakeHint::Always => {}
                hint => {
                    if let WakeHint::At(t) = hint {
                        self.wake_heap.push(t, id);
                    }
                    if let Some(d) = self.dl_cached[id] {
                        self.dl_heap.push(d, id);
                    }
                }
            }
        }
    }

    /// Forgets every derived cache. Called after a mid-advance error
    /// (states may be partially advanced, so nothing cached can be
    /// trusted) and by [`Engine::restore`].
    fn invalidate_caches(&mut self) {
        self.dirty.fill(true);
        self.dirty_ids.clear();
        self.all_dirty = true;
        self.dc_scratch_valid = false;
        self.wake_heap.clear();
        self.dl_heap.clear();
        self.always_ids.clear();
        self.in_always.fill(false);
    }

    fn origin_name(&self, o: Origin) -> String {
        match o {
            Origin::Timed(i) => self.timed[i].comp.name().to_string(),
            Origin::Node(n, j) => {
                format!("{}/{}", self.nodes[n].name, self.nodes[n].comps[j].0.name())
            }
        }
    }

    /// Applies `action` to every component having it in signature.
    ///
    /// Routed: only the components whose `action_names` hint lists
    /// `action.name()` — plus the wildcard components — are visited, in
    /// flat (insertion) order. By the hint contract every skipped
    /// component classifies the action as `None`, so the sequence of
    /// components actually stepped is identical to a full scan.
    fn fire(&mut self, action: A, origin: Origin) -> Result<(), EngineError> {
        let kind = match origin {
            Origin::Timed(i) => self.timed[i].comp.classify(&action),
            Origin::Node(n, j) => self.nodes[n].comps[j].0.classify(&action),
        }
        .expect("origin component must have the action in its signature");
        debug_assert!(kind.is_locally_controlled());
        self.dc_scratch_valid = false;

        // The visit list was merged (routed + wildcard, ascending) at build
        // time; an action name no hint mentions visits the wildcard
        // components alone. The `Rc` clone is a refcount bump, freeing
        // `self` for the mutable component steps below.
        let interested: Rc<[usize]> = self
            .route
            .get(action.name())
            .cloned()
            .unwrap_or_else(|| Rc::clone(&self.wildcard));

        // The clock recorded with the event is the clock of the (unique)
        // node that has the action in its signature — the `c_i(α)` of
        // Section 4.3. Actions touching no clock node carry no clock.
        let mut event_clock: Option<(usize, Time)> = None;

        let now = self.now;
        for &id in interested.iter() {
            match self.flat_origin[id] {
                Origin::Timed(i) => {
                    let rt = &mut self.timed[i];
                    let Some(k) = rt.comp.classify(&action) else {
                        continue;
                    };
                    if k.is_locally_controlled() && Origin::Timed(i) != origin {
                        return Err(EngineError::IncompatibleControllers {
                            first: rt.comp.name().to_string(),
                            second: String::from("<origin>"),
                            action: format!("{action:?}"),
                        });
                    }
                    match rt.comp.step(&rt.state, &action, now) {
                        Some(next) => {
                            rt.state = next;
                            if !self.dirty[id] {
                                self.dirty[id] = true;
                                self.dirty_ids.push(id);
                            }
                        }
                        None if Origin::Timed(i) == origin => {
                            return Err(EngineError::EnabledButRefused {
                                component: rt.comp.name().to_string(),
                                action: format!("{action:?}"),
                                now,
                            })
                        }
                        None => {
                            return Err(EngineError::InputNotEnabled {
                                component: rt.comp.name().to_string(),
                                action: format!("{action:?}"),
                                now,
                            })
                        }
                    }
                }
                Origin::Node(n, j) => {
                    let node = &mut self.nodes[n];
                    let clock = node.clock;
                    let (comp, state) = &mut node.comps[j];
                    let Some(k) = comp.classify(&action) else {
                        continue;
                    };
                    if event_clock.is_none() {
                        event_clock = Some((n, clock));
                    }
                    if k.is_locally_controlled() && Origin::Node(n, j) != origin {
                        return Err(EngineError::IncompatibleControllers {
                            first: format!("{}/{}", node.name, comp.name()),
                            second: String::from("<origin>"),
                            action: format!("{action:?}"),
                        });
                    }
                    match comp.step(state, &action, clock) {
                        Some(next) => {
                            *state = next;
                            if !self.dirty[id] {
                                self.dirty[id] = true;
                                self.dirty_ids.push(id);
                            }
                        }
                        None if Origin::Node(n, j) == origin => {
                            return Err(EngineError::EnabledButRefused {
                                component: format!("{}/{}", node.name, comp.name()),
                                action: format!("{action:?}"),
                                now,
                            })
                        }
                        None => {
                            return Err(EngineError::InputNotEnabled {
                                component: format!("{}/{}", node.name, comp.name()),
                                action: format!("{action:?}"),
                                now,
                            })
                        }
                    }
                }
            }
        }

        // The action moves into the event (it was handed over by value from
        // the candidate list) and the node name is the interned `Arc<str>`
        // shared by every event of that node — neither costs an allocation.
        let event = TimedEvent {
            node: event_clock.map(|(n, _)| Arc::clone(&self.nodes[n].name)),
            action,
            kind,
            now,
            clock: event_clock.map(|(_, c)| c),
        };
        if !self.observers.is_empty() {
            if let Some((n, clock)) = event_clock {
                let eps = self.nodes[n].pred.eps();
                for obs in &mut self.observers {
                    obs.on_clock_read(ClockRead {
                        node: n,
                        now,
                        clock,
                        eps,
                    });
                }
            }
            let index = self.events.len();
            for obs in &mut self.observers {
                obs.on_event(index, &event);
            }
        }
        Arc::make_mut(&mut self.events).push(event);
        Ok(())
    }

    /// The earliest time any component forces an action, or `None` when
    /// time may pass forever.
    ///
    /// Real-time deadlines are taken as-is. A *clock* deadline `Dc` forces
    /// the node clock to stop at `Dc`, which can happen no later than real
    /// time `Dc + ε` (clock predicate `C_ε`); the engine normally aims for
    /// the strategy's own estimate of when its clock reaches `Dc`, so that
    /// fast clocks really do act early. When several estimate-guided
    /// advances in a row produce no event (`pessimistic`), it falls back to
    /// the hard cap to guarantee progress.
    ///
    /// # Errors
    ///
    /// Detects stopped time: a deadline at or before `now` with nothing
    /// enabled (the caller guarantees no candidates exist).
    fn compute_target(&mut self, pessimistic: bool) -> Result<Option<Time>, EngineError> {
        // Track only the minimum and the (flat) index it came from; the
        // component *name* — a `String` the old implementation allocated
        // for every component on every call — is materialised lazily, on
        // the error path alone.
        let mut best: Option<Time> = None;
        let consider = |t: Time, best: &mut Option<Time>| match best {
            Some(b) if *b <= t => {}
            _ => *best = Some(t),
        };
        // ---- timed components: heap fast path -------------------------
        // `Always` components promise nothing across time passage, so
        // their deadlines are re-queried on every call (compacting the
        // membership list as stale entries surface). Everything else
        // cached its deadline at its last refresh; the earliest live one
        // sits at the top of the lazy heap once stale entries are popped.
        // A deadline at or before `now` is an anomaly (nothing is enabled,
        // yet something is due): rerun the legacy scan so the
        // `TimeStopped` error names the same (first-in-flat-order)
        // component the reference engine would.
        let mut anomaly = false;
        let mut k = 0;
        while k < self.always_ids.len() {
            let id = self.always_ids[k];
            if !self.in_always[id] {
                self.always_ids.swap_remove(k);
                continue;
            }
            k += 1;
            let rt = &self.timed[id];
            if let Some(d) = rt.comp.deadline(&rt.state, self.now) {
                if d <= self.now {
                    anomaly = true;
                    break;
                }
                consider(d, &mut best);
            }
        }
        while !anomaly {
            let Some((d, id)) = self.dl_heap.peek() else {
                break;
            };
            let live = self.wake_cached[id] != WakeHint::Always && self.dl_cached[id] == Some(d);
            if !live {
                let _ = self.dl_heap.pop();
                continue;
            }
            if d <= self.now {
                anomaly = true;
            } else {
                consider(d, &mut best);
            }
            break;
        }
        if anomaly {
            best = None;
            for rt in &self.timed {
                if let Some(d) = rt.comp.deadline(&rt.state, self.now) {
                    if d <= self.now {
                        return Err(EngineError::TimeStopped {
                            component: rt.comp.name().to_string(),
                            now: self.now,
                            deadline: d,
                        });
                    }
                    consider(d, &mut best);
                }
            }
        }
        // ---- clock nodes: one legacy pass (it also fills the deadline
        // scratch and must consult each strategy exactly once) -----------
        for (n, node) in self.nodes.iter().enumerate() {
            let mut node_min_dc: Option<Time> = None;
            for (comp, state) in &node.comps {
                if let Some(dc) = comp.clock_deadline(state, node.clock) {
                    let cap = node.pred.latest_now_for(dc);
                    if cap <= self.now {
                        return Err(EngineError::TimeStopped {
                            component: format!("{}/{}", node.name, comp.name()),
                            now: self.now,
                            deadline: cap,
                        });
                    }
                    let aim = if pessimistic {
                        cap
                    } else {
                        node.strategy
                            .when_reaches(self.now, node.clock, dc)
                            .max(self.now + Duration::NANOSECOND)
                            .min(cap)
                    };
                    consider(aim, &mut best);
                    consider(dc, &mut node_min_dc);
                }
            }
            // Remember the node's earliest clock deadline for the
            // `advance_to` that follows: no state changes in between, so
            // the value is still exact there.
            self.node_dc_scratch[n] = node_min_dc;
        }
        self.dc_scratch_valid = true;
        Ok(best)
    }

    /// Performs `ν`, moving real time to `target` and each node clock
    /// along its strategy.
    ///
    /// Only the components that can be *touched* by the advance are woken:
    /// every `Always`-mode timed component plus every timed component
    /// whose promised wake time falls inside the advance, popped from the
    /// wake heap in deterministic order (stale entries discarded against
    /// the caches). Skipped components promised — via their
    /// [`TimedComponent::wake_hint`] — that this advance is the identity
    /// on their state and that their cached enabled set, deadline and hint
    /// remain exact, so neither their state nor their caches are invalid
    /// afterwards. Node components make the same promise on the clock-time
    /// basis and are consulted inline. When the hints wake most of the
    /// system anyway, the next refresh is handed the cheaper all-dirty
    /// rebuild instead of per-segment splices.
    ///
    /// Any mid-advance error leaves partially advanced states behind, so
    /// every error path forgets all derived caches first.
    fn advance_to(&mut self, target: Time) -> Result<(), EngineError> {
        debug_assert!(target > self.now);
        let now = self.now;
        for obs in &mut self.observers {
            obs.on_advance(now, target);
        }
        let use_scratch = self.dc_scratch_valid;
        self.dc_scratch_valid = false;

        // ---- timed components: wake only what the hints allow ----------
        // Ascending id order (after sort+dedup — the lazy structures may
        // yield duplicates) keeps first-refuser error attribution
        // identical to the legacy whole-system scan: a skipped component
        // promised its advance succeeds, so the first refuser among the
        // woken ids is the first refuser outright.
        let mut touched = std::mem::take(&mut self.touched_scratch);
        touched.clear();
        let mut k = 0;
        while k < self.always_ids.len() {
            let id = self.always_ids[k];
            if self.in_always[id] {
                touched.push(id);
                k += 1;
            } else {
                self.always_ids.swap_remove(k);
            }
        }
        while let Some((t, id)) = self.wake_heap.pop_le(target) {
            if self.wake_cached[id] == WakeHint::At(t) {
                touched.push(id);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for &id in &touched {
            let rt = &mut self.timed[id];
            match rt.comp.advance(&rt.state, now, target) {
                Some(next) => rt.state = next,
                None => {
                    let component = rt.comp.name().to_string();
                    self.touched_scratch = touched;
                    self.invalidate_caches();
                    return Err(EngineError::AdvanceRefused {
                        component,
                        now,
                        target,
                    });
                }
            }
            if !self.dirty[id] {
                self.dirty[id] = true;
                self.dirty_ids.push(id);
            }
        }
        let mut dirtied = touched.len();
        self.touched_scratch = touched;

        // ---- clock nodes: the legacy loop, with hint-gated advances ----
        // Every node is still visited (its strategy must be consulted and
        // its clock validated exactly once per `ν`), but a component whose
        // `clock_wake` promises sleep past the new clock value skips the
        // state-cloning `advance` call and stays clean.
        let mut failed: Option<EngineError> = None;
        let mut flat = self.timed.len();
        'nodes: for (n, node) in self.nodes.iter_mut().enumerate() {
            let base = flat;
            flat += node.comps.len();
            let max_clock = if use_scratch {
                self.node_dc_scratch[n]
            } else {
                node.comps
                    .iter()
                    .filter_map(|(c, s)| c.clock_deadline(s, node.clock))
                    .min()
            };
            if let Some(mc) = max_clock {
                if mc <= node.clock {
                    // A clock deadline is due but nothing fired: the node
                    // has stopped time.
                    failed = Some(EngineError::TimeStopped {
                        component: node.name.to_string(),
                        now,
                        deadline: node.pred.latest_now_for(mc),
                    });
                    break 'nodes;
                }
            }
            let ctx = AdvanceCtx {
                now,
                clock: node.clock,
                target,
                max_clock,
                eps: node.pred.eps(),
            };
            let next_clock = node.strategy.next_clock(ctx);
            if next_clock <= node.clock {
                failed = Some(EngineError::StrategyViolation {
                    node: node.name.to_string(),
                    reason: format!(
                        "clock moved from {} to {next_clock}: axiom C3 requires strict increase",
                        node.clock
                    ),
                });
                break 'nodes;
            }
            if !node.pred.holds(target, next_clock) {
                failed = Some(EngineError::StrategyViolation {
                    node: node.name.to_string(),
                    reason: format!(
                        "clock {next_clock} at real time {target} violates C_ε (ε = {})",
                        node.pred.eps()
                    ),
                });
                break 'nodes;
            }
            if let Some(mc) = max_clock {
                if next_clock > mc {
                    failed = Some(EngineError::StrategyViolation {
                        node: node.name.to_string(),
                        reason: format!("clock {next_clock} passed the deadline {mc}"),
                    });
                    break 'nodes;
                }
            }
            for (j, (comp, state)) in node.comps.iter_mut().enumerate() {
                match comp.clock_wake(state, node.clock) {
                    WakeHint::Never => continue,
                    WakeHint::At(t) if t > next_clock => continue,
                    _ => {}
                }
                match comp.advance(state, node.clock, next_clock) {
                    Some(next) => *state = next,
                    None => {
                        failed = Some(EngineError::AdvanceRefused {
                            component: format!("{}/{}", node.name, comp.name()),
                            now,
                            target,
                        });
                        break 'nodes;
                    }
                }
                let id = base + j;
                if !self.dirty[id] {
                    self.dirty[id] = true;
                    self.dirty_ids.push(id);
                }
                dirtied += 1;
            }
            for obs in self.observers.iter_mut() {
                obs.on_clock_read(ClockRead {
                    node: n,
                    now: target,
                    clock: next_clock,
                    eps: node.pred.eps(),
                });
            }
            node.clock = next_clock;
        }
        if let Some(err) = failed {
            self.invalidate_caches();
            return Err(err);
        }
        if dirtied * 2 >= self.flat_origin.len() {
            self.dirty.fill(true);
            self.dirty_ids.clear();
            self.all_dirty = true;
        }
        self.now = target;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock_driver::{OffsetClock, PerfectClock};
    use crate::scheduler::RandomScheduler;
    use psync_automata::toys::{BeepAction, Beeper, ClockBeeper, Echo, EchoAction};
    use psync_automata::ActionKind;
    use psync_automata::TimedTrace;

    fn ms(n: i64) -> Duration {
        Duration::from_millis(n)
    }

    fn at(n: i64) -> Time {
        Time::ZERO + ms(n)
    }

    #[test]
    fn beeper_fires_at_exact_times() {
        let mut engine = Engine::builder()
            .timed(Beeper::new(ms(10)))
            .horizon(at(35))
            .build();
        let run = engine.run().unwrap();
        assert_eq!(run.stop, StopReason::Horizon);
        let trace = run.execution.t_trace();
        assert_eq!(
            trace.as_slice(),
            &[
                (BeepAction::Beep { src: 0, seq: 0 }, at(10)),
                (BeepAction::Beep { src: 0, seq: 1 }, at(20)),
                (BeepAction::Beep { src: 0, seq: 2 }, at(30)),
            ]
        );
        assert_eq!(run.execution.ltime(), at(35));
    }

    #[test]
    fn quiescent_system_stops() {
        let mut engine = Engine::builder().timed(Echo::new(ms(1))).build();
        let run = engine.run().unwrap();
        assert_eq!(run.stop, StopReason::Quiescent);
        assert!(run.execution.is_empty());
    }

    #[test]
    fn run_idle_until_advances_a_quiescent_engine_to_the_horizon() {
        let mut engine = Engine::builder().timed(Echo::new(ms(3))).build();
        let run = engine.run_idle_until(at(10)).unwrap();
        assert_eq!(engine.now(), at(10));
        assert!(run.execution.is_empty());
        // An injection lands at the pushed-forward time, and the work it
        // enables runs on the next call — the live-runtime loop shape.
        engine.inject(EchoAction::Ping { id: 7 }).unwrap();
        assert_eq!(engine.events()[0].now, at(10));
        let run = engine.run_idle_until(at(20)).unwrap();
        assert_eq!(engine.now(), at(20));
        assert_eq!(
            run.execution.t_trace().as_slice(),
            &[
                (EchoAction::Ping { id: 7 }, at(10)),
                (EchoAction::Pong { id: 7 }, at(13)),
            ]
        );
    }

    #[test]
    fn clock_beeper_with_perfect_clock_matches_real_time() {
        let node = ClockNode::new("n0", ms(2), PerfectClock).with(ClockBeeper::new(ms(10)));
        let mut engine = Engine::builder().clock_node(node).horizon(at(25)).build();
        let run = engine.run().unwrap();
        let trace = run.execution.t_trace();
        assert_eq!(
            trace.as_slice(),
            &[
                (BeepAction::Beep { src: 0, seq: 0 }, at(10)),
                (BeepAction::Beep { src: 0, seq: 1 }, at(20)),
            ]
        );
        // Events carry the node clock.
        assert_eq!(run.execution.events()[0].clock, Some(at(10)));
    }

    #[test]
    fn slow_clock_delays_beeps_by_eps() {
        // A clock slow by the full ε = 2 ms reads 10 ms only when real time
        // is 12 ms: the beep moves to 12 ms of real time but 10 ms of clock.
        let node = ClockNode::new("n0", ms(2), OffsetClock::new(ms(-2), ms(2)))
            .with(ClockBeeper::new(ms(10)));
        let mut engine = Engine::builder().clock_node(node).horizon(at(25)).build();
        let run = engine.run().unwrap();
        let ev = &run.execution.events()[0];
        assert_eq!(ev.now, at(12));
        assert_eq!(ev.clock, Some(at(10)));
    }

    #[test]
    fn fast_clock_advances_beeps_by_eps() {
        let node = ClockNode::new("n0", ms(2), OffsetClock::new(ms(2), ms(2)))
            .with(ClockBeeper::new(ms(10)));
        let mut engine = Engine::builder().clock_node(node).horizon(at(25)).build();
        let run = engine.run().unwrap();
        let ev = &run.execution.events()[0];
        assert_eq!(ev.now, at(8));
        assert_eq!(ev.clock, Some(at(10)));
    }

    #[test]
    fn clock_trace_eps_close_to_timed_trace() {
        // The clock-model beeper's trace is =_{ε} the timed beeper's trace —
        // a miniature of Theorem 4.7.
        let mut timed_engine = Engine::builder()
            .timed(Beeper::new(ms(10)))
            .horizon(at(100))
            .build();
        let timed_trace = timed_engine.run().unwrap().execution.t_trace();

        let node = ClockNode::new("n0", ms(2), OffsetClock::new(ms(-2), ms(2)))
            .with(ClockBeeper::new(ms(10)));
        let mut clock_engine = Engine::builder().clock_node(node).horizon(at(100)).build();
        let clock_trace = clock_engine.run().unwrap().execution.t_trace();

        use psync_automata::relations::{eps_equivalent, ClassMap};
        let w = eps_equivalent(&timed_trace, &clock_trace, ms(2), &ClassMap::single()).unwrap();
        assert_eq!(w.max_deviation, ms(2));
    }

    #[test]
    fn echo_round_trip_through_engine() {
        // A beeper's beeps drive nothing; pair an Echo with a driver that
        // pings at a fixed time instead.
        #[derive(Debug, Clone)]
        struct PingOnce;
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct PingState {
            fired: bool,
        }
        impl TimedComponent for PingOnce {
            type Action = EchoAction;
            type State = PingState;
            fn name(&self) -> String {
                "ping-once".into()
            }
            fn initial(&self) -> PingState {
                PingState { fired: false }
            }
            fn classify(&self, a: &EchoAction) -> Option<ActionKind> {
                match a {
                    EchoAction::Ping { .. } => Some(ActionKind::Output),
                    EchoAction::Pong { .. } => Some(ActionKind::Input),
                }
            }
            fn step(&self, s: &PingState, a: &EchoAction, now: Time) -> Option<PingState> {
                match a {
                    EchoAction::Ping { .. } if !s.fired && now >= at(5) => {
                        Some(PingState { fired: true })
                    }
                    EchoAction::Pong { .. } => Some(s.clone()),
                    _ => None,
                }
            }
            fn enabled(&self, s: &PingState, now: Time) -> Vec<EchoAction> {
                if !s.fired && now >= at(5) {
                    vec![EchoAction::Ping { id: 1 }]
                } else {
                    Vec::new()
                }
            }
            fn deadline(&self, s: &PingState, _now: Time) -> Option<Time> {
                if s.fired {
                    None
                } else {
                    Some(at(5))
                }
            }
        }

        let mut engine = Engine::builder()
            .timed(PingOnce)
            .timed(Echo::new(ms(3)))
            .build();
        let run = engine.run().unwrap();
        assert_eq!(run.stop, StopReason::Quiescent);
        let trace = run.execution.t_trace();
        assert_eq!(
            trace.as_slice(),
            &[
                (EchoAction::Ping { id: 1 }, at(5)),
                (EchoAction::Pong { id: 1 }, at(8)),
            ]
        );
    }

    #[test]
    fn random_scheduler_is_reproducible() {
        let run_with_seed = |seed: u64| -> TimedTrace<BeepAction> {
            let mut engine = Engine::builder()
                .timed(Beeper::with_src(ms(5), 0))
                .timed(Beeper::with_src(ms(5), 1))
                .scheduler(RandomScheduler::new(seed))
                .horizon(at(50))
                .build();
            engine.run().unwrap().execution.t_trace()
        };
        assert_eq!(run_with_seed(11), run_with_seed(11));
    }

    #[test]
    fn duplicate_controllers_are_rejected() {
        // Two identical beepers offer the *same* action value — an
        // incompatible composition (shared output action).
        let mut engine = Engine::builder()
            .timed(Beeper::new(ms(5)))
            .timed(Beeper::new(ms(5)))
            .horizon(at(20))
            .build();
        let err = engine.run().unwrap_err();
        assert!(matches!(err, EngineError::IncompatibleControllers { .. }));
    }

    #[test]
    fn event_limit_guards_against_zeno() {
        #[derive(Debug, Clone)]
        struct Zeno;
        impl TimedComponent for Zeno {
            type Action = BeepAction;
            type State = u64;
            fn name(&self) -> String {
                "zeno".into()
            }
            fn initial(&self) -> u64 {
                0
            }
            fn classify(&self, _a: &BeepAction) -> Option<ActionKind> {
                Some(ActionKind::Output)
            }
            fn step(&self, s: &u64, _a: &BeepAction, _now: Time) -> Option<u64> {
                Some(s + 1)
            }
            fn enabled(&self, s: &u64, _now: Time) -> Vec<BeepAction> {
                vec![BeepAction::Beep { src: 0, seq: *s }]
            }
            fn deadline(&self, _s: &u64, _now: Time) -> Option<Time> {
                None
            }
        }
        let mut engine = Engine::builder().timed(Zeno).max_events(100).build();
        let err = engine.run().unwrap_err();
        assert!(matches!(
            err,
            EngineError::EventLimitExceeded { limit: 100, .. }
        ));
    }

    #[test]
    fn horizon_before_first_event_yields_empty_run() {
        let mut engine = Engine::builder()
            .timed(Beeper::new(ms(10)))
            .horizon(at(5))
            .build();
        let run = engine.run().unwrap();
        assert_eq!(run.stop, StopReason::Horizon);
        assert!(run.execution.is_empty());
        assert_eq!(run.execution.ltime(), at(5));
    }

    #[test]
    fn two_nodes_keep_independent_clocks() {
        let n0 = ClockNode::new("n0", ms(2), OffsetClock::new(ms(2), ms(2)))
            .with(ClockBeeper::with_src(ms(10), 0));
        let n1 = ClockNode::new("n1", ms(2), OffsetClock::new(ms(-2), ms(2)))
            .with(ClockBeeper::with_src(ms(10), 1));
        let mut engine = Engine::builder()
            .clock_node(n0)
            .clock_node(n1)
            .horizon(at(15))
            .build();
        let run = engine.run().unwrap();
        let evs = run.execution.events();
        assert_eq!(evs.len(), 2);
        // Fast node beeps at real 8, slow node at real 12; both at clock 10.
        assert_eq!(evs[0].now, at(8));
        assert_eq!(evs[1].now, at(12));
        assert_eq!(evs[0].clock, Some(at(10)));
        assert_eq!(evs[1].clock, Some(at(10)));
    }

    fn checkpoint_mix() -> EngineBuilder<BeepAction> {
        Engine::builder()
            .timed(Beeper::with_src(ms(5), 0))
            .timed(Beeper::with_src(ms(7), 1))
            .clock_node(
                ClockNode::new("fast", ms(2), OffsetClock::new(ms(2), ms(2)))
                    .with(ClockBeeper::with_src(ms(9), 7)),
            )
            .scheduler(RandomScheduler::new(3))
            .horizon(at(200))
    }

    #[test]
    fn pause_and_resume_is_bit_identical_to_straight_run() {
        let straight = checkpoint_mix().build().run().unwrap();
        let mut paused = checkpoint_mix().build();
        let p1 = paused.run_until_events(10).unwrap();
        assert_eq!(p1.stop, StopReason::Paused);
        assert_eq!(p1.execution.len(), 10);
        let p2 = paused.run_until_events(25).unwrap();
        assert_eq!(p2.stop, StopReason::Paused);
        let done = paused.run().unwrap();
        assert_eq!(done.stop, straight.stop);
        assert_eq!(done.execution, straight.execution);
    }

    #[test]
    fn pause_past_the_end_returns_the_natural_stop() {
        let mut engine = checkpoint_mix().build();
        let run = engine.run_until_events(usize::MAX).unwrap();
        assert_eq!(run.stop, StopReason::Horizon);
    }

    #[test]
    fn restore_into_fresh_engine_resumes_bit_identically() {
        let straight = checkpoint_mix().build().run().unwrap();
        let mut base = checkpoint_mix().build();
        let _ = base.run_until_events(12).unwrap();
        let cp = base.checkpoint();
        assert_eq!(cp.event_count(), 12);
        // One checkpoint seeds two independent resumes; both must complete
        // exactly like the uninterrupted run.
        for _ in 0..2 {
            let mut probe = checkpoint_mix().build();
            probe.restore(&cp);
            let resumed = probe.run().unwrap();
            assert_eq!(resumed.stop, straight.stop);
            assert_eq!(resumed.execution, straight.execution);
        }
        // The base engine is untouched by the probes.
        let base_done = base.run().unwrap();
        assert_eq!(base_done.execution, straight.execution);
    }

    /// A detached rung holds no view of the log, so a ladder of them
    /// leaves the arena uniquely owned and every append stays in place;
    /// an attached checkpoint makes the next append copy the log.
    #[test]
    fn detached_checkpoints_leave_the_arena_uniquely_owned() {
        let mut engine = checkpoint_mix().build();
        let mut ladder = Vec::new();
        for k in (4..=40).step_by(4) {
            let _ = engine.run_until_events(k).unwrap();
            ladder.push(engine.checkpoint().without_events());
            assert_eq!(Arc::strong_count(&engine.events), 1, "rung at {k}");
            let storage = Arc::as_ptr(&engine.events);
            let _ = engine.run_until_events(k + 1).unwrap();
            assert_eq!(Arc::as_ptr(&engine.events), storage, "append after {k}");
        }
        assert_eq!(ladder.last().unwrap().event_count(), 40);

        let attached = engine.checkpoint();
        let storage = Arc::as_ptr(&engine.events);
        let _ = engine.run_until_events(45).unwrap();
        assert_ne!(Arc::as_ptr(&engine.events), storage);
        assert_eq!(attached.event_count(), 41);
    }

    #[test]
    fn fork_continues_independently() {
        let straight = checkpoint_mix().build().run().unwrap();
        let mut base = checkpoint_mix().build();
        let _ = base.run_until_events(8).unwrap();
        let mut sibling = base.fork(checkpoint_mix());
        let sibling_run = sibling.run().unwrap();
        assert_eq!(sibling_run.execution, straight.execution);
        let base_run = base.run().unwrap();
        assert_eq!(base_run.execution, straight.execution);
    }
}
