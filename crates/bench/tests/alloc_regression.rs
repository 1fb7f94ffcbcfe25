//! Allocation-count regression test for the engine hot loop.
//!
//! Installs [`CountingAlloc`] as the global allocator of this test binary
//! and runs the deterministic ring workload (`n = 32`, ~4096 events) that
//! `engine_scaling` benchmarks, in both token flavours:
//!
//! - the `String`-token ("heavy") ring, where every action clone is a real
//!   heap allocation — this pins the allocation diet: the quotient
//!   *allocations / event* must stay strictly below the pre-diet baseline,
//!   so reintroducing a per-event clone (action clone on the pick path,
//!   `String` node names, double-lookup duplicate tracking) fails this
//!   test instead of silently shifting the benchmarks;
//! - the classic `u32`-token ring, where action clones are plain copies —
//!   this is a loose sanity bound that catches gross regressions (a new
//!   per-event `String`/`Vec` allocation) without being sensitive to the
//!   diet itself.
//!
//! Both engines are built *outside* the counted region: the diet targets
//! the run loop, and one-time construction (routing table, name interning)
//! is allowed to allocate freely.
//!
//! The test harness runs both tests at once on separate threads; the
//! counter is per thread, and each measured run stays on its test's
//! thread, so the before/after difference is exact for the measured
//! region.

use psync_bench::alloc_count::CountingAlloc;
use psync_bench::ring::{
    build_ring_engine, build_ring_heavy_engine, ring_horizon, run_ring_heavy, run_ring_incremental,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Heavy-ring (`String` tokens) allocations per event measured at the
/// pre-diet seed (commit a53cf8e): ring n=32, horizon sized for 4096
/// events, run loop only (327375 allocations / 3968 events). The bulk of
/// it was the candidate list: every enabled action of every component was
/// re-cloned into the scheduler's slice on every event. The diet keeps
/// the candidate list alive across events and splices only the dirty
/// components' segments, clones exactly the one picked action, and moves
/// it into the event record, landing at 20.151 allocs/event — a 4×
/// reduction. Kept for context; the pinned bound is the ceiling below.
const PRE_DIET_HEAVY_ALLOCS_PER_EVENT: f64 = 82.504;

/// Pinned bound for the post-diet engine. The workload and the engine are
/// fully deterministic, so the measured 20.151 allocs/event is exact and
/// repeatable; the ceiling leaves ~0.85 allocs/event of headroom, which
/// still trips on a single reintroduced per-event clone (+1.0) — and
/// spectacularly on a return of per-candidate re-cloning (~80).
const HEAVY_ALLOCS_PER_EVENT_CEILING: f64 = 21.0;

/// Loose ceiling for the `u32`-token ring. Action clones are allocation
/// free here, so the diet barely moves this figure (~6.4 measured both
/// before and after); the bound only exists to catch a new per-event heap
/// allocation sneaking into the hot loop.
const U32_ALLOCS_PER_EVENT_CEILING: f64 = 7.5;

fn measured_events(events: usize) -> f64 {
    let events = events as f64;
    assert!(events > 0.0);
    events
}

#[test]
fn heavy_ring_n32_allocations_per_event_beat_pre_diet_baseline() {
    let n = 32;
    let horizon = ring_horizon(n, 4096);
    // Warm up once so lazy process-wide setup is paid before measuring.
    let warm = run_ring_heavy(n, horizon);
    let events = measured_events(warm.execution.len());

    let mut engine = build_ring_heavy_engine(n, horizon);
    let (run, allocs) = ALLOC.count(move || engine.run().expect("ring run"));
    assert_eq!(run.execution.len() as f64, events);

    let per_event = allocs as f64 / events;
    eprintln!(
        "heavy ring n={n}: {allocs} allocations / {events} events = {per_event:.3} allocs/event \
         (ceiling {HEAVY_ALLOCS_PER_EVENT_CEILING}, pre-diet baseline \
         {PRE_DIET_HEAVY_ALLOCS_PER_EVENT})"
    );
    assert!(
        per_event < HEAVY_ALLOCS_PER_EVENT_CEILING,
        "allocation diet regressed: {per_event:.3} allocs/event >= ceiling \
         {HEAVY_ALLOCS_PER_EVENT_CEILING} (pre-diet baseline was \
         {PRE_DIET_HEAVY_ALLOCS_PER_EVENT})"
    );
}

#[test]
fn u32_ring_n32_allocations_per_event_stay_bounded() {
    let n = 32;
    let horizon = ring_horizon(n, 4096);
    let warm = run_ring_incremental(n, horizon);
    let events = measured_events(warm.execution.len());

    let mut engine = build_ring_engine(n, horizon);
    let (run, allocs) = ALLOC.count(move || engine.run().expect("ring run"));
    assert_eq!(run.execution.len() as f64, events);

    let per_event = allocs as f64 / events;
    eprintln!(
        "u32 ring n={n}: {allocs} allocations / {events} events = {per_event:.3} allocs/event \
         (ceiling {U32_ALLOCS_PER_EVENT_CEILING})"
    );
    assert!(
        per_event < U32_ALLOCS_PER_EVENT_CEILING,
        "hot loop grew a per-event allocation: {per_event:.3} allocs/event >= ceiling \
         {U32_ALLOCS_PER_EVENT_CEILING}"
    );
}
