//! Differential tests for checkpoint-resumed shrink probes: the campaign
//! report must be bit-identical whether probes resume from checkpoints
//! (the default) or re-run from scratch, and resuming must actually
//! re-execute fewer events.

use psync_explorer::{run_campaign_with_telemetry, CampaignConfig, ScenarioConfig, ScenarioKind};

fn campaign(checkpointed: bool) -> CampaignConfig {
    CampaignConfig {
        cases: 24,
        seed: 0x0C1A_551C,
        max_entries: 6,
        checkpointed_shrink: checkpointed,
        online: false,
        monitor_shards: 1,
    }
}

/// The acceptance cross-check: a planted-bug campaign shrinks many
/// failing cases; both probe modes must settle on byte-for-byte the same
/// report (stats, metrics, shrunk plans, artifacts), while the
/// checkpointed mode re-executes strictly fewer events doing so.
#[test]
fn planted_bug_campaign_is_identical_across_probe_modes() {
    let scenario = ScenarioConfig::heartbeat_default().with_bug(1);
    let (resumed, resumed_cost) = run_campaign_with_telemetry(&campaign(true), &scenario, 1);
    let (straight, straight_cost) = run_campaign_with_telemetry(&campaign(false), &scenario, 1);

    assert!(
        !resumed.failures.is_empty(),
        "the planted bug should fail cases so both modes actually shrink"
    );
    assert_eq!(resumed, straight, "probe modes produced different reports");

    // Cost: the checkpointed mode records a ladder only for a failing
    // case, by re-driving its plan once before shrinking it, then
    // re-executes only probe suffixes.
    assert_eq!(
        resumed_cost.recording_runs,
        resumed.failures.len() as u64,
        "one recording run per shrunk failure"
    );
    assert_eq!(straight_cost.recording_runs, 0);
    assert!(resumed_cost.checkpoints > 0);
    assert!(
        resumed_cost.shrink_events * 2 <= straight_cost.shrink_events,
        "resumed probes re-executed {} events, straight probes {} — less than 2x saved",
        resumed_cost.shrink_events,
        straight_cost.shrink_events
    );
}

/// The crash/recovery scenario checkpoints and restores *inside* its
/// primary run, so probe-resume ladders are never layered on top: both
/// probe modes replay its shrinks from scratch and must still settle on
/// the same report for a planted-bug campaign.
#[test]
fn crash_scenario_planted_bug_is_identical_across_probe_modes() {
    let scenario = ScenarioConfig::default_for(ScenarioKind::HeartbeatRestart).with_bug(1);
    let cfg = CampaignConfig {
        cases: 16,
        ..campaign(true)
    };
    let (resumed, resumed_cost) = run_campaign_with_telemetry(&cfg, &scenario, 1);
    let straight_cfg = CampaignConfig {
        checkpointed_shrink: false,
        ..cfg
    };
    let (straight, straight_cost) = run_campaign_with_telemetry(&straight_cfg, &scenario, 1);

    assert!(
        !resumed.failures.is_empty(),
        "the planted bug should fail crash-scenario cases"
    );
    assert_eq!(resumed, straight, "probe modes produced different reports");

    // The restart scenario opts out of probe-resume recording entirely,
    // so even the checkpointed mode shows from-scratch telemetry.
    assert_eq!(resumed_cost.recording_runs, 0);
    assert_eq!(resumed_cost.checkpoints, 0);
    assert_eq!(resumed_cost.shrink_events, straight_cost.shrink_events);
}

/// Clean campaigns never shrink, so the two modes produce equal reports
/// and neither spends anything on shrinking: ladders are recorded only
/// for failing cases, so the telemetry is all zero in both modes, for
/// every scenario.
#[test]
fn clean_campaigns_spend_no_shrink_work_in_either_mode() {
    for kind in ScenarioKind::all() {
        let scenario = ScenarioConfig::default_for(kind);
        let cfg = CampaignConfig {
            cases: 6,
            ..campaign(true)
        };
        let (resumed, resumed_cost) = run_campaign_with_telemetry(&cfg, &scenario, 1);
        let straight_cfg = CampaignConfig {
            checkpointed_shrink: false,
            ..cfg
        };
        let (straight, straight_cost) = run_campaign_with_telemetry(&straight_cfg, &scenario, 1);
        assert!(
            resumed.failures.is_empty(),
            "[{kind:?}] unexpected failures"
        );
        assert_eq!(resumed, straight, "[{kind:?}] reports differ");
        assert_eq!(resumed_cost, Default::default(), "[{kind:?}] resumed cost");
        assert_eq!(
            straight_cost,
            Default::default(),
            "[{kind:?}] straight cost"
        );
    }
}

/// `shrink_probes` counts true case executions: the cached driver never
/// re-probes a plan it has already evaluated, so the planted-bug
/// campaign's probe count is the same in both modes and every probe was
/// a cache miss (cache hits are tallied separately).
#[test]
fn shrink_probe_counts_are_true_executions_in_both_modes() {
    let scenario = ScenarioConfig::heartbeat_default().with_bug(1);
    let (resumed, resumed_cost) = run_campaign_with_telemetry(&campaign(true), &scenario, 1);
    let (straight, straight_cost) = run_campaign_with_telemetry(&campaign(false), &scenario, 1);
    assert_eq!(resumed.stats.shrink_probes, straight.stats.shrink_probes);
    assert!(resumed.stats.shrink_probes > 0);
    // ddmin revisits its seeded plan and adopted bases; those answers
    // come from the cache, not from re-execution.
    assert!(resumed_cost.cache_hits > 0);
    assert_eq!(resumed_cost.cache_hits, straight_cost.cache_hits);
}
