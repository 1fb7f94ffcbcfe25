//! The three campaign workloads: `fleet`, `sync_wide` and `canaries`.
//!
//! Each run is a sequence of *passes*. A pass runs one explorer campaign
//! per target (scenario or canary) on the explorer's own worker pool, at
//! [`JOBS`] workers, all with the pass's campaign seed. End-to-end rates
//! are medians over the passes of one run; the traced run replays a pass
//! at one worker, in both checkpoint modes, and re-executes its cases
//! layer by layer.

use std::fmt::Write as _;
use std::time::Instant;

use psync_automata::Action;
use psync_explorer::{
    clockfleet_oracles, counter_oracles, heartbeat_oracles, mutex_oracles, register_oracles,
    replay_artifact, run_campaign_with_telemetry, run_case, run_clockfleet, run_counter,
    run_heartbeat, run_heartbeat_restart, run_mutex, run_register, run_sync, sync_oracles,
    Artifact, CampaignConfig, CampaignReport, CampaignTelemetry, CanaryKind, FaultPlan, Judged,
    ScenarioConfig, ScenarioKind,
};
use psync_verify::{check_all, Oracle};

use crate::stats::median;
use crate::trace::Tracer;
use crate::{host, Metrics, Outcome};

/// Explorer workers per campaign: the host this benchmark was sized on
/// has two cores, and the campaign CI job runs `--jobs 2`.
pub const JOBS: usize = 2;

/// Seed of the reference pass whose report digests are recorded in
/// `digests.txt` (the seed CI's campaign runs with).
pub const DEFAULT_SEED: u64 = 0x0C1A_551C;

/// Report digests of the reference pass, one `<workload> <hex>` per line.
const DIGESTS: &str = include_str!("../digests.txt");

/// Plan length cap, as in the explorer's default campaign.
const MAX_ENTRIES: usize = 6;

/// Node count of the `sync_wide` scenarios (catalog: 3 and 4).
const SYNC_WIDE_NODES: u32 = 8;

/// Largest minimal counterexample a caught canary may shrink to (the
/// bound the explorer's canary test pins).
const MAX_MIN_PLAN: u64 = 2;

/// A campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The 14 non-sync catalog scenarios at catalog sizes.
    Fleet,
    /// Both sync scenarios widened to eight nodes.
    SyncWide,
    /// The ten planted-bug canaries at catalog sizes.
    Canaries,
}

impl Family {
    /// Workload name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Family::Fleet => "fleet",
            Family::SyncWide => "sync_wide",
            Family::Canaries => "canaries",
        }
    }

    /// Cases per target in the reference pass behind the recorded
    /// digests. For the canaries it is the CI campaign, whose 10/10
    /// mutation score `tests/canaries.rs` pins.
    fn reference_cases(self) -> u64 {
        match self {
            Family::Fleet | Family::SyncWide => 8,
            Family::Canaries => 64,
        }
    }

    /// Cases per target in one pass.
    fn cases(self) -> u64 {
        match self {
            // ~0.5 s per pass at two workers: many short passes per run.
            Family::Fleet => 256,
            // ~90 ms cases: 32 per pass keeps a pass near 1.5 s.
            Family::SyncWide => 16,
            // The CI canary campaign size.
            Family::Canaries => 64,
        }
    }
}

/// One campaign target of a workload.
#[derive(Debug, Clone)]
pub struct Target {
    /// Scenario or canary keyword (the `campaign_s.<name>` suffix).
    pub name: &'static str,
    /// The scenario, with its canary planted if it has one.
    pub scenario: ScenarioConfig,
}

/// The workload's targets, in catalog order.
#[must_use]
pub fn targets(family: Family) -> Vec<Target> {
    match family {
        Family::Fleet => ScenarioKind::all()
            .into_iter()
            .filter(|k| !k.is_sync())
            .map(|k| Target {
                name: k.name(),
                scenario: ScenarioConfig::default_for(k),
            })
            .collect(),
        Family::SyncWide => [ScenarioKind::SyncProbe, ScenarioKind::SyncRounds]
            .into_iter()
            .map(|k| Target {
                name: k.name(),
                scenario: ScenarioConfig {
                    nodes: SYNC_WIDE_NODES,
                    ..ScenarioConfig::default_for(k)
                },
            })
            .collect(),
        Family::Canaries => CanaryKind::all()
            .into_iter()
            .map(|c| Target {
                name: c.name(),
                scenario: c.scenario(),
            })
            .collect(),
    }
}

/// Every `campaign_s.<name>` suffix across the three workloads.
#[must_use]
pub fn all_target_names() -> Vec<&'static str> {
    [Family::Fleet, Family::SyncWide, Family::Canaries]
        .into_iter()
        .flat_map(|f| targets(f).into_iter().map(|t| t.name))
        .collect()
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Campaign seed of pass `k` of a run seeded `seed` (pass 0 uses the
/// run seed itself).
#[must_use]
pub fn pass_seed(seed: u64, k: u64) -> u64 {
    seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The case seeds a campaign seeded `seed` draws, in case order: the
/// explorer's splitmix chain, reproduced so the traced run can
/// re-execute exactly the campaign's cases.
#[must_use]
pub fn case_seeds(seed: u64, cases: u64) -> Vec<u64> {
    let mut state = splitmix64(seed);
    (0..cases)
        .map(|_| {
            state = splitmix64(state);
            state
        })
        .collect()
}

fn campaign_config(cases: u64, seed: u64, checkpointed_shrink: bool) -> CampaignConfig {
    CampaignConfig {
        cases,
        seed,
        max_entries: MAX_ENTRIES,
        checkpointed_shrink,
        online: false,
        monitor_shards: 1,
    }
}

/// One target's campaign within a pass.
#[derive(Debug)]
struct Campaign {
    /// Campaign seed.
    seed: u64,
    report: CampaignReport,
    telemetry: CampaignTelemetry,
    wall_s: f64,
}

/// Runs one pass: a campaign per target. With a tracer, each campaign is
/// wrapped in a span named `<prefix><target>` under `parent`.
fn run_pass(
    targets: &[Target],
    cases: u64,
    seed: u64,
    jobs: usize,
    checkpointed_shrink: bool,
    mut tracer: Option<(&mut Tracer, usize, &str)>,
) -> Vec<Campaign> {
    let campaign = campaign_config(cases, seed, checkpointed_shrink);
    targets
        .iter()
        .map(|t| {
            let span = tracer.as_mut().map(|(tr, parent, prefix)| {
                tr.open(format!("{prefix}{}", t.name), Some(*parent), None)
            });
            let start = Instant::now();
            let (report, telemetry) = run_campaign_with_telemetry(&campaign, &t.scenario, jobs);
            let wall_s = start.elapsed().as_secs_f64();
            if let (Some((tr, _, _)), Some(span)) = (tracer.as_mut(), span) {
                tr.close(span);
            }
            Campaign {
                seed,
                report,
                telemetry,
                wall_s,
            }
        })
        .collect()
}

fn pass_cases(pass: &[Campaign]) -> u64 {
    pass.iter().map(|c| c.report.stats.cases).sum()
}

fn pass_events(pass: &[Campaign]) -> u64 {
    pass.iter().map(|c| c.report.stats.events).sum()
}

/// FNV-1a over the reports' `Debug` renderings: any change to a
/// simulated statistic, metric, failure or verdict changes it.
fn digest(pass: &[Campaign]) -> u64 {
    let mut text = String::new();
    for c in pass {
        let _ = write!(text, "{:?}", c.report);
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn recorded_digest(family: Family) -> Option<u64> {
    DIGESTS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(name, _)| *name == family.name())
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
}

/// Re-runs the reference pass and compares its digest with the recorded
/// one, so that a change that alters any simulated statistic is caught
/// whatever seed the run was given. For the canaries the reference pass
/// is the CI campaign, which must also catch all ten.
fn check_reference(family: Family, targets: &[Target], problems: &mut Vec<String>) {
    let pass = run_pass(
        targets,
        family.reference_cases(),
        DEFAULT_SEED,
        JOBS,
        true,
        None,
    );
    if family == Family::Canaries {
        for (c, t) in pass.iter().zip(targets) {
            if let Err(e) = canary_caught(c) {
                problems.push(format!("{} (seed {DEFAULT_SEED:#x}): {e}", t.name));
            }
        }
    }
    let got = digest(&pass);
    match recorded_digest(family) {
        Some(want) if want == got => {}
        Some(want) => problems.push(format!(
            "reference report digest {got:016x} differs from the recorded {want:016x} \
             (seed {DEFAULT_SEED:#x}); a change altered simulated results"
        )),
        None => problems.push(format!(
            "no digest recorded for {}; the reference pass digests to {got:016x}",
            family.name()
        )),
    }
}

/// Per-pass verdict of the correctness checks.
#[derive(Debug, Default)]
struct Verdict {
    /// Clean cases, or canaries caught with sound artifacts.
    ok: u64,
    /// Cases, or canaries planted.
    of: u64,
    /// Failed ops: cases with a violation, or (canaries) whose artifact
    /// does not round-trip or replay.
    failed: u64,
    /// JSON bytes of the artifacts checked.
    artifact_bytes: u64,
}

impl Verdict {
    fn absorb(&mut self, other: &Verdict) {
        self.ok += other.ok;
        self.of += other.of;
        self.failed += other.failed;
        self.artifact_bytes += other.artifact_bytes;
    }
}

/// `fleet` and `sync_wide`: no case may report a violation or an engine
/// error.
fn check_clean(pass: &[Campaign], targets: &[Target], problems: &mut Vec<String>) -> Verdict {
    let mut v = Verdict::default();
    for (c, t) in pass.iter().zip(targets) {
        let bad = c.report.failures.len() as u64;
        v.of += c.report.stats.cases;
        v.ok += c.report.stats.cases - bad;
        v.failed += bad;
        if let Some(f) = c.report.failures.first() {
            problems.push(format!(
                "{} (campaign seed {:#x}): {bad} failing case(s); case {} reports {:?}",
                t.name, c.seed, f.case_index, f.artifact.violation
            ));
        }
    }
    v
}

/// Round-trips an artifact through JSON and replays it, returning the
/// JSON size, or what went wrong.
fn check_artifact(
    artifact: &Artifact,
    tr: &mut Tracer,
    parent: Option<usize>,
) -> Result<usize, String> {
    let span = tr.open("artifact.codec", parent, None);
    let text = artifact.to_json();
    let back = Artifact::from_json(&text);
    tr.close(span);
    let span = tr.open("artifact.replay", parent, None);
    let replayed = replay_artifact(artifact);
    tr.close(span);
    if back.as_ref() != Ok(artifact) {
        return Err(format!(
            "artifact does not round-trip through JSON: {back:?}"
        ));
    }
    let replayed = replayed?;
    if replayed.violations.first() != artifact.violation.as_ref() {
        return Err(format!(
            "replay reports {:?}, artifact recorded {:?}",
            replayed.violations.first(),
            artifact.violation
        ));
    }
    Ok(text.len())
}

/// Did the campaign catch its canary with its expected oracle, and
/// shrink the smallest counterexample to at most [`MAX_MIN_PLAN`] entries?
fn canary_caught(c: &Campaign) -> Result<(), String> {
    match &c.report.canary {
        Some(v) if v.caught_cases > 0 => match v.min_shrunk_entries {
            Some(min) if min <= MAX_MIN_PLAN => Ok(()),
            min => Err(format!(
                "smallest shrunk counterexample has {min:?} entries (> {MAX_MIN_PLAN})"
            )),
        },
        _ => Err("planted bug not caught by its oracle".to_string()),
    }
}

/// `canaries`: every failure's artifact must round-trip and replay. A
/// canary that a pass's 64 random cases miss is a measurement, not a
/// failed check: it lowers `ok_share` and is reported on standard error.
fn check_canaries(
    pass: &[Campaign],
    targets: &[Target],
    tr: &mut Tracer,
    parent: Option<usize>,
    problems: &mut Vec<String>,
) -> Verdict {
    let mut v = Verdict::default();
    for (c, t) in pass.iter().zip(targets) {
        let caught = canary_caught(c)
            .map_err(|e| {
                eprintln!("perfbench: {} (campaign seed {:#x}): {e}", t.name, c.seed);
            })
            .is_ok();
        let mut bad_artifacts = 0;
        for f in &c.report.failures {
            match check_artifact(&f.artifact, tr, parent) {
                Ok(bytes) => v.artifact_bytes += bytes as u64,
                Err(e) => {
                    bad_artifacts += 1;
                    problems.push(format!("{} case {}: {e}", t.name, f.case_index));
                }
            }
        }
        v.of += 1;
        v.ok += u64::from(caught && bad_artifacts == 0);
        v.failed += bad_artifacts;
    }
    v
}

fn check_pass(
    family: Family,
    pass: &[Campaign],
    targets: &[Target],
    tr: &mut Tracer,
    parent: Option<usize>,
    problems: &mut Vec<String>,
) -> Verdict {
    match family {
        Family::Canaries => check_canaries(pass, targets, tr, parent, problems),
        Family::Fleet | Family::SyncWide => check_clean(pass, targets, problems),
    }
}

/// Least set-up time one `setup_s` sample spans. The sizing host's speed
/// swings by a third for a tenth of a second at a time, which a 4 ms
/// fleet set-up samples as noise; a sample repeats the set-up back to
/// back until this much time has passed and takes the mean.
const SETUP_SAMPLE_S: f64 = 0.05;

/// One `setup_s` sample: the mean of repeated set-ups.
fn setup_sample(family: Family, seed: u64) -> f64 {
    let (mut total, mut n) = (0.0, 0u32);
    while total < SETUP_SAMPLE_S {
        total += setup_once(family, seed);
        n += 1;
    }
    total / f64::from(n)
}

/// Set-up as a user pays it before the first result: build the configs
/// and envelopes, then run one case per target.
fn setup_once(family: Family, seed: u64) -> f64 {
    let start = Instant::now();
    let targets = targets(family);
    let case_seed = case_seeds(seed, 1)[0];
    for t in &targets {
        let envelope = t.scenario.envelope();
        let plan = FaultPlan::generate(case_seed, &envelope, MAX_ENTRIES);
        std::hint::black_box(run_case(&t.scenario, &plan, case_seed));
    }
    start.elapsed().as_secs_f64()
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// The host counters under `/proc` could not be read.
pub fn run(family: Family, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let targets = targets(family);

    // Passes run until `seconds` of pass time have accrued. A set-up
    // sample runs before each pass, so their median covers the run. Each
    // pass is checked and dropped before the next, so the checks stay
    // outside the timed windows and memory does not grow with the pass
    // count.
    let mut verdict = Verdict::default();
    let (mut setups, mut case_rates, mut event_rates, mut cpu_per_case) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut passes, mut cases, mut timed_s) = (0u64, 0u64, 0.0);
    while timed_s < seconds {
        setups.push(setup_sample(family, pass_seed(seed, passes)));
        let cpu0 = host::cpu_time_s()?;
        let pass = run_pass(
            &targets,
            family.cases(),
            pass_seed(seed, passes),
            JOBS,
            true,
            None,
        );
        let cpu_s = host::cpu_time_s()? - cpu0;
        let wall: f64 = pass.iter().map(|c| c.wall_s).sum();
        let (n, events) = (pass_cases(&pass), pass_events(&pass));
        eprintln!(
            "perfbench: {} pass {passes}: {n} cases, {events} events in {wall:.3} s \
             (set-up {:.6} s)",
            family.name(),
            setups[setups.len() - 1]
        );
        #[allow(clippy::cast_precision_loss)]
        {
            case_rates.push(n as f64 / wall);
            event_rates.push(events as f64 / wall);
            cpu_per_case.push(cpu_s * 1e3 / n as f64);
        }
        timed_s += wall;
        cases += n;
        passes += 1;
        verdict.absorb(&check_pass(
            family,
            &pass,
            &targets,
            &mut Tracer::default(),
            None,
            &mut problems,
        ));
    }
    let peak_rss_mb = host::peak_rss_mb()?;
    check_reference(family, &targets, &mut problems);

    let mut m = Metrics::default();
    m.put("ops_per_s", median(&case_rates));
    m.put("events_per_s", median(&event_rates));
    m.put("cpu_ms_per_op", median(&cpu_per_case));
    m.put("setup_s", median(&setups));
    m.put("peak_rss_mb", peak_rss_mb);
    #[allow(clippy::cast_precision_loss)]
    m.put("ok_share", verdict.ok as f64 / verdict.of as f64);
    Ok(Outcome {
        problems,
        attempted: cases,
        failed: verdict.failed,
        metrics: m,
        op_counts: vec![
            ("passes".to_string(), passes),
            ("cases".to_string(), cases),
            ("cases_per_target_per_pass".to_string(), family.cases()),
            ("targets".to_string(), targets.len() as u64),
        ],
        tracer: None,
    })
}

/// What the layer-by-layer replay of one case saw.
struct CaseLayers {
    events: u64,
    failed: bool,
}

/// Runs a typed scenario runner under a `scenario.run` span, then
/// re-judges its recorded execution with the kind's public oracle set
/// under a sibling `verify.judge` span.
fn layer_case<A: Action>(
    tr: &mut Tracer,
    parent: usize,
    run: impl FnOnce() -> Judged<A>,
    oracles: impl FnOnce() -> Vec<Box<dyn Oracle<A>>>,
) -> CaseLayers {
    let span = tr.open("scenario.run", Some(parent), None);
    let judged = run();
    tr.close(span);
    let failed = !judged.violations.is_empty();
    let Ok(run) = &judged.run else {
        return CaseLayers { events: 0, failed };
    };
    let span = tr.open("verify.judge", Some(parent), None);
    let oracles = oracles();
    std::hint::black_box(check_all(&oracles, &run.execution));
    tr.close(span);
    CaseLayers {
        events: run.execution.len() as u64,
        failed,
    }
}

fn layer_case_of(
    tr: &mut Tracer,
    parent: usize,
    cfg: &ScenarioConfig,
    plan: &FaultPlan,
    seed: u64,
) -> CaseLayers {
    match cfg.kind {
        ScenarioKind::HeartbeatRestart => layer_case(
            tr,
            parent,
            || run_heartbeat_restart(cfg, plan, seed),
            || heartbeat_oracles(cfg, plan),
        ),
        k if k.is_heartbeat() => layer_case(
            tr,
            parent,
            || run_heartbeat(cfg, plan, seed),
            || heartbeat_oracles(cfg, plan),
        ),
        ScenarioKind::ClockFleet | ScenarioKind::ClockFleetLarge => layer_case(
            tr,
            parent,
            || run_clockfleet(cfg, plan, seed),
            || clockfleet_oracles(cfg),
        ),
        ScenarioKind::Mutex | ScenarioKind::MutexContended => layer_case(
            tr,
            parent,
            || run_mutex(cfg, plan, seed),
            || mutex_oracles(cfg),
        ),
        ScenarioKind::Register | ScenarioKind::RegisterTriple => layer_case(
            tr,
            parent,
            || run_register(cfg, plan, seed),
            || register_oracles(cfg, seed),
        ),
        ScenarioKind::Counter => layer_case(
            tr,
            parent,
            || run_counter(cfg, plan, seed),
            || counter_oracles(cfg, seed),
        ),
        _ => layer_case(
            tr,
            parent,
            || run_sync(cfg, plan, seed),
            || sync_oracles(cfg),
        ),
    }
}

/// Re-executes every case of a pass layer by layer, and cross-checks the
/// totals against the campaign's own report.
fn layer_pass(
    tr: &mut Tracer,
    targets: &[Target],
    pass: &[Campaign],
    cases: u64,
    seed: u64,
    problems: &mut Vec<String>,
) {
    let root = tr.open("layers", None, None);
    let seeds = case_seeds(seed, cases);
    for (t, c) in targets.iter().zip(pass) {
        let envelope = t.scenario.envelope();
        let (mut events, mut entries, mut failing) = (0u64, 0u64, 0u64);
        for (i, &case_seed) in seeds.iter().enumerate() {
            let case = tr.open("case", Some(root), Some(i as u64));
            let span = tr.open("plan.generate", Some(case), None);
            let plan = FaultPlan::generate(case_seed, &envelope, MAX_ENTRIES);
            tr.close(span);
            let layers = layer_case_of(tr, case, &t.scenario, &plan, case_seed);
            tr.close(case);
            events += layers.events;
            entries += plan.len() as u64;
            failing += u64::from(layers.failed);
        }
        let stats = &c.report.stats;
        if (events, entries, failing)
            != (stats.events, stats.entries, c.report.failures.len() as u64)
        {
            problems.push(format!(
                "{}: layer replay saw {events} events / {entries} entries / {failing} failing \
                 cases, the campaign {} / {} / {}",
                t.name,
                stats.events,
                stats.entries,
                c.report.failures.len()
            ));
        }
    }
    tr.close(root);
}

/// Requires `got` to equal the timed pass's reports.
fn check_same(
    label: &str,
    want: &[Campaign],
    got: &[Campaign],
    targets: &[Target],
    problems: &mut Vec<String>,
) {
    for ((w, g), t) in want.iter().zip(got).zip(targets) {
        if w.report != g.report {
            problems.push(format!(
                "{}: the {label} report differs from the timed two-worker report",
                t.name
            ));
        }
    }
}

/// The traced run: per-layer metrics.
///
/// # Errors
///
/// Never at present; the signature matches [`run`].
#[allow(clippy::too_many_lines)]
pub fn run_traced(family: Family, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let targets = targets(family);
    let cases = family.cases();
    let mut tr = Tracer::default();
    let (mut w2, mut w1, mut w1_traced, mut w1_no_ladder) = (0.0, 0.0, 0.0, 0.0);
    let mut telemetry = CampaignTelemetry::default();
    let (mut probes, mut primary_events, mut total_cases, mut passes) = (0u64, 0u64, 0u64, 0u64);
    let mut min_plan = 0u64;
    let mut verdict = Verdict::default();

    let start = Instant::now();
    for k in 0.. {
        let ps = pass_seed(seed, k);
        let timed = run_pass(&targets, cases, ps, JOBS, true, None);
        w2 += timed.iter().map(|c| c.wall_s).sum::<f64>();
        let sequential = run_pass(&targets, cases, ps, 1, true, None);
        w1 += sequential.iter().map(|c| c.wall_s).sum::<f64>();

        let span = tr.open("pass.traced", None, None);
        let traced = run_pass(
            &targets,
            cases,
            ps,
            1,
            true,
            Some((&mut tr, span, "campaign_s.")),
        );
        w1_traced += tr.close(span);
        let span = tr.open("pass.no_ladder", None, None);
        let no_ladder = run_pass(
            &targets,
            cases,
            ps,
            1,
            false,
            Some((&mut tr, span, "no_ladder.")),
        );
        w1_no_ladder += tr.close(span);

        check_same("one-worker", &timed, &sequential, &targets, &mut problems);
        check_same(
            "traced one-worker",
            &timed,
            &traced,
            &targets,
            &mut problems,
        );
        check_same(
            "no-ladder one-worker",
            &timed,
            &no_ladder,
            &targets,
            &mut problems,
        );

        layer_pass(&mut tr, &targets, &traced, cases, ps, &mut problems);
        let span = tr.open("artifacts", None, None);
        let v = check_pass(
            family,
            &traced,
            &targets,
            &mut tr,
            Some(span),
            &mut problems,
        );
        tr.close(span);
        verdict.absorb(&v);

        for c in &traced {
            telemetry.absorb(&c.telemetry);
            probes += c.report.stats.shrink_probes;
            primary_events += c.report.stats.events;
            total_cases += c.report.stats.cases;
            if let Some(v) = &c.report.canary {
                min_plan = min_plan.max(v.min_shrunk_entries.unwrap_or(0));
            }
        }
        passes += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    check_reference(family, &targets, &mut problems);

    #[allow(clippy::cast_precision_loss)]
    let (n, events) = (total_cases as f64, primary_events as f64);
    let run_s = tr.self_s("scenario.run");
    let judge_s = tr.self_s("verify.judge");
    let ladder_s = w1_traced - w1_no_ladder;
    let mut m = Metrics::default();
    m.put("explore.sequential_s", w1);
    m.put("explore.pool_efficiency", w1 / (JOBS as f64 * w2));
    for t in &targets {
        m.put(
            &format!("campaign_s.{}", t.name),
            tr.self_s(&format!("campaign_s.{}", t.name)),
        );
    }
    m.put(
        "plan.generate_us_per_case",
        tr.self_s("plan.generate") * 1e6 / n,
    );
    m.put("scenario.execute_ms_per_case", (run_s - judge_s) * 1e3 / n);
    m.put("engine.events_per_case", events / n);
    m.put("engine.exec_events_per_s", events / (run_s - judge_s));
    m.put("verify.judge_ms_per_case", judge_s * 1e3 / n);
    m.put("verify.judge_share", judge_s / run_s);
    m.put("resume.ladder_s", ladder_s);
    m.count("resume.checkpoints", telemetry.checkpoints);
    m.count("resume.recording_runs", telemetry.recording_runs);
    m.count("shrink.probes", probes);
    m.count("shrink.events", telemetry.shrink_events);
    m.count("shrink.cache_hits", telemetry.cache_hits);
    #[allow(clippy::cast_precision_loss)]
    m.put(
        "shrink.events_per_primary_event",
        telemetry.shrink_events as f64 / events,
    );
    m.count("shrink.min_plan_entries", min_plan);
    m.count("artifact.bytes", verdict.artifact_bytes);
    m.put("artifact.codec_ms", tr.self_s("artifact.codec") * 1e3);
    m.put("artifact.replay_ms", tr.self_s("artifact.replay") * 1e3);
    m.put("trace.overhead_share", w1_traced / w1 - 1.0);
    m.count("trace.spans", tr.spans().len() as u64);
    Ok(Outcome {
        problems,
        attempted: total_cases,
        failed: verdict.failed,
        metrics: m,
        op_counts: vec![
            ("passes".to_string(), passes),
            ("cases".to_string(), total_cases),
            ("cases_per_target_per_pass".to_string(), cases),
            ("targets".to_string(), targets.len() as u64),
        ],
        tracer: Some(tr),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduced_case_seeds_match_the_explorer() {
        // Every failure's artifact carries its case seed.
        let scenario = CanaryKind::SyncSkewBurst.scenario();
        let (report, _) = run_campaign_with_telemetry(&campaign_config(3, 77, true), &scenario, 1);
        let seeds = case_seeds(77, 3);
        assert!(!report.failures.is_empty());
        for f in &report.failures {
            assert_eq!(f.artifact.seed, seeds[f.case_index as usize]);
        }
    }

    #[test]
    fn workloads_cover_every_catalog_target_once() {
        let names = all_target_names();
        assert_eq!(names.len(), 26);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn every_campaign_workload_has_a_recorded_digest() {
        for f in [Family::Fleet, Family::SyncWide, Family::Canaries] {
            assert!(recorded_digest(f).is_some(), "{}", f.name());
        }
    }
}
