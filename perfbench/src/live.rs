//! The `live_register` workload: Algorithm S on real threads, closed
//! loop, one operation in flight per node.
//!
//! Theorem 6.5 fixes each operation's floor (read `2ε+δ+c`, write
//! `d₂+2ε−c`); that wait is the protocol, not the runtime. The traced
//! run's latency metrics are therefore the *overhead* above the floor,
//! per op kind, paired from the captured execution.

use std::time::Instant;

use psync_automata::TimedEvent;
use psync_executor::{Driver, Run, StopReason};
use psync_live::{
    judge_live_register, measure_eps_hat, LiveConfig, LiveRegister, LiveReport, WallClock,
};
use psync_net::SysAction;
use psync_register::{RegAction, RegisterOp};
use psync_time::{DelayBounds, Duration};

use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{host, Metrics, Outcome};

/// Node threads: at most the host's two cores.
const NODES: usize = 2;

/// Operations per node per drive: each node alternates writes and reads,
/// so each kind gets 100 samples per drive, and a 15 s run makes about
/// five drives, each also a set-up sample.
const OPS_PER_NODE: u32 = 100;

/// Probe rounds per ε̂ measurement (the runtime's default).
const PROBE_ROUNDS: usize = 8;

/// Standalone ε̂ probe sweeps per traced run.
const PROBE_REPS: usize = 5;

fn bounds() -> DelayBounds {
    // d₂ = 50 ms, not the runtime's 80 ms default, so the protocol wait
    // does not swamp the runtime's own cost; and not 20 ms, because on a
    // shared 2-vCPU VM, vCPUs descheduled for ~20 ms delivered messages
    // up to 20.6 ms after sending, failing about one drive in a hundred
    // on the declared envelope.
    DelayBounds::new(Duration::from_millis(1), Duration::from_millis(50))
        .expect("static bounds are valid")
}

fn eps_floor() -> Duration {
    Duration::from_millis(1)
}

fn config(seed: u64) -> LiveConfig {
    LiveConfig {
        nodes: NODES,
        bounds: bounds(),
        eps_floor: eps_floor(),
        ops_per_node: OPS_PER_NODE,
        seed,
        ..LiveConfig::default()
    }
}

/// Register operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `READ` … `RETURN`.
    Read,
    /// `WRITE` … `ACK`.
    Write,
}

/// Pairs each node's invocations with its responses, in order, and
/// returns `(kind, latency)` per completed operation.
///
/// # Errors
///
/// A response with no pending invocation, a response of the wrong kind,
/// or a second invocation while one is pending on the same node.
pub fn pair_ops(events: &[TimedEvent<RegAction>]) -> Result<Vec<(OpKind, Duration)>, String> {
    let mut pending: Vec<Option<(OpKind, psync_time::Time)>> = Vec::new();
    let mut ops = Vec::new();
    for e in events {
        let SysAction::App(op) = &e.action else {
            continue;
        };
        let node = op.node().0;
        if pending.len() <= node {
            pending.resize(node + 1, None);
        }
        let kind = match op {
            RegisterOp::Read { .. } | RegisterOp::Return { .. } => OpKind::Read,
            RegisterOp::Write { .. } | RegisterOp::Ack { .. } => OpKind::Write,
            RegisterOp::Update { .. } => continue,
        };
        if op.is_invocation() {
            if let Some((open, _)) = pending[node] {
                return Err(format!(
                    "node {node}: {kind:?} invoked while {open:?} pending"
                ));
            }
            pending[node] = Some((kind, e.now));
        } else {
            match pending[node].take() {
                Some((open, start)) if open == kind => ops.push((kind, e.now.skew(start))),
                Some((open, _)) => {
                    return Err(format!(
                        "node {node}: {kind:?} response to a pending {open:?}"
                    ))
                }
                None => {
                    return Err(format!(
                        "node {node}: {kind:?} response with nothing pending"
                    ))
                }
            }
        }
    }
    Ok(ops)
}

#[allow(clippy::cast_precision_loss)]
fn ms(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

/// One `drive()` of the live system, checked.
struct Drive {
    report: LiveReport,
    /// `drive()` wall time.
    wall_s: f64,
    events: u64,
    /// Latency above the Theorem 6.5 floor, ms, per kind.
    read_overhead_ms: Vec<f64>,
    write_overhead_ms: Vec<f64>,
    /// Operations that completed with no online or post-hoc violation.
    ok_ops: u64,
    posthoc_s: f64,
}

impl Drive {
    /// `drive()` wall time minus the run phase: ε̂ probing, wire and
    /// thread construction, and the merge.
    fn setup_s(&self) -> f64 {
        self.wall_s - self.report.wall_elapsed.as_secs_f64()
    }
}

/// Drives the system once under a `live.drive` span tagged `k`.
fn drive(seed: u64, k: u64, tr: &mut Tracer) -> Result<(Run<RegAction>, LiveReport, f64), String> {
    let mut live = LiveRegister::new(config(crate::campaign::pass_seed(seed, k)));
    let span = tr.open("live.drive", None, Some(k));
    let run = live.drive()?;
    let wall_s = tr.close(span);
    let report = live.take_report().ok_or("live run left no report")?;
    Ok((run, report, wall_s))
}

/// Judges a finished drive post hoc (under a `live.posthoc_judge` span)
/// and pairs its operations.
fn check(
    (run, report, wall_s): (Run<RegAction>, LiveReport, f64),
    k: u64,
    tr: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<Drive, String> {
    let span = tr.open("live.posthoc_judge", None, Some(k));
    let posthoc = judge_live_register(&run.execution, NODES, report.eps_hat, bounds());
    let posthoc_s = tr.close(span);

    let mut clean = true;
    if run.stop != StopReason::Quiescent || report.ops_completed != report.ops_requested {
        clean = false;
        problems.push(format!(
            "live drive {k}: {} of {} ops completed",
            report.ops_completed, report.ops_requested
        ));
    }
    for (oracle, why) in report.monitor.violations.iter().chain(&posthoc) {
        clean = false;
        problems.push(format!("live drive {k}: {oracle}: {why}"));
    }
    let (mut read_overhead_ms, mut write_overhead_ms) = (Vec::new(), Vec::new());
    for (kind, latency) in pair_ops(run.execution.events())? {
        match kind {
            OpKind::Read => read_overhead_ms.push(ms(latency - report.read_latency)),
            OpKind::Write => write_overhead_ms.push(ms(latency - report.write_latency)),
        }
    }
    let paired = (read_overhead_ms.len() + write_overhead_ms.len()) as u64;
    if paired != report.ops_completed {
        clean = false;
        problems.push(format!(
            "live drive {k}: paired {paired} ops, the runtime counted {}",
            report.ops_completed
        ));
    }
    Ok(Drive {
        wall_s,
        events: run.execution.len() as u64,
        ok_ops: if clean { report.ops_completed } else { 0 },
        read_overhead_ms,
        write_overhead_ms,
        posthoc_s,
        report,
    })
}

/// Drives until `seconds` of drive time have accrued, checking each drive
/// (and dropping its execution) before the next. Also returns the process
/// CPU time the drives themselves used.
fn drives(
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    problems: &mut Vec<String>,
) -> Result<(Vec<Drive>, f64), String> {
    let (mut out, mut cpu_s, mut timed_s) = (Vec::new(), 0.0, 0.0);
    for k in 0.. {
        let cpu0 = host::cpu_time_s()?;
        let raw = drive(seed, k, tr)?;
        cpu_s += host::cpu_time_s()? - cpu0;
        timed_s += raw.2;
        out.push(check(raw, k, tr, problems)?);
        if timed_s >= seconds {
            break;
        }
    }
    Ok((out, cpu_s))
}

fn pooled(drives: &[Drive], pick: fn(&Drive) -> &Vec<f64>) -> Vec<f64> {
    drives
        .iter()
        .flat_map(|d| pick(d).iter().copied())
        .collect()
}

fn totals(drives: &[Drive]) -> (u64, u64, u64, f64) {
    let requested = drives.iter().map(|d| d.report.ops_requested).sum();
    let ok = drives.iter().map(|d| d.ok_ops).sum();
    let completed = drives.iter().map(|d| d.report.ops_completed).sum();
    let run_s = drives
        .iter()
        .map(|d| d.report.wall_elapsed.as_secs_f64())
        .sum();
    (requested, ok, completed, run_s)
}

fn op_counts(drives: &[Drive], requested: u64) -> Vec<(String, u64)> {
    vec![
        ("drives".to_string(), drives.len() as u64),
        ("ops".to_string(), requested),
        ("nodes".to_string(), NODES as u64),
        (
            "ops_per_node_per_drive".to_string(),
            u64::from(OPS_PER_NODE),
        ),
    ]
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// A drive could not run, or the host counters could not be read.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let (drives, cpu_s) = drives(seed, seconds, &mut Tracer::default(), &mut problems)?;
    let peak_rss_mb = host::peak_rss_mb()?;
    let (requested, ok, completed, run_s) = totals(&drives);
    let events: u64 = drives.iter().map(|d| d.events).sum();
    let setups: Vec<f64> = drives.iter().map(Drive::setup_s).collect();
    #[allow(clippy::cast_precision_loss)]
    let (completed_f, events_f) = (completed as f64, events as f64);
    let mut m = Metrics::default();
    m.put("ops_per_s", completed_f / run_s);
    m.put("events_per_s", events_f / run_s);
    m.put("cpu_ms_per_op", cpu_s * 1e3 / completed_f);
    m.put("setup_s", median(&setups));
    m.put("peak_rss_mb", peak_rss_mb);
    #[allow(clippy::cast_precision_loss)]
    m.put("ok_share", ok as f64 / requested as f64);
    Ok(Outcome {
        problems,
        attempted: requested,
        failed: requested - ok,
        metrics: m,
        op_counts: op_counts(&drives, requested),
        tracer: None,
    })
}

/// The traced run: per-layer metrics of the live backend.
///
/// # Errors
///
/// A drive could not run, or a percentile lacks samples.
pub fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut problems = Vec::new();
    let mut tr = Tracer::default();

    let mut probe_ms = Vec::new();
    for _ in 0..PROBE_REPS {
        let origin = Instant::now();
        let clocks = vec![WallClock::new(origin, Duration::ZERO); NODES];
        let span = tr.open("live.probe", None, None);
        std::hint::black_box(measure_eps_hat(&clocks, PROBE_ROUNDS, eps_floor()));
        probe_ms.push(tr.close(span) * 1e3);
    }

    // Tracing overhead: drive 0 untraced, against the same drive traced.
    let (_, _, untraced_s) = drive(seed, 0, &mut Tracer::default())?;
    let (drives, _) = drives(seed, seconds, &mut tr, &mut problems)?;
    let (requested, ok, completed, _) = totals(&drives);
    let events: u64 = drives.iter().map(|d| d.events).sum();
    #[allow(clippy::cast_precision_loss)]
    let (completed_f, events_f) = (completed as f64, events as f64);
    let per_op = |counter: &str| -> f64 {
        let total: u64 = drives
            .iter()
            .flat_map(|d| d.report.snapshots.iter())
            .map(|s| s.counter(counter))
            .sum();
        #[allow(clippy::cast_precision_loss)]
        let total = total as f64;
        total / completed_f
    };
    let max_delay_ms = drives
        .iter()
        .map(|d| ms(d.report.max_delivery_delay))
        .fold(0.0, f64::max);
    let mut m = Metrics::default();
    m.put("live.probe_ms", median(&probe_ms));
    m.put(
        "live.eps_hat_ms",
        median(
            &drives
                .iter()
                .map(|d| ms(d.report.eps_hat))
                .collect::<Vec<_>>(),
        ),
    );
    let (reads, writes) = (
        pooled(&drives, |d| &d.read_overhead_ms),
        pooled(&drives, |d| &d.write_overhead_ms),
    );
    m.put("live.read_overhead_p50_ms", percentile(&reads, 0.5)?);
    m.put("live.write_overhead_p50_ms", percentile(&writes, 0.5)?);
    m.put("live.read_overhead_p95_ms", percentile(&reads, 0.95)?);
    m.put("live.write_overhead_p95_ms", percentile(&writes, 0.95)?);
    m.put("live.events_per_op", events_f / completed_f);
    m.put("live.engine_steps_per_op", per_op("engine.steps"));
    m.put("live.clock_reads_per_op", per_op("engine.clock_reads"));
    m.put("live.advances_per_op", per_op("engine.advances"));
    m.put(
        "live.scheduling_points_per_op",
        per_op("engine.scheduling_points"),
    );
    m.put("live.max_delivery_delay_ms", max_delay_ms);
    m.put("live.delivery_slack_ms", ms(bounds().max()) - max_delay_ms);
    m.put(
        "live.posthoc_judge_ms",
        median(&drives.iter().map(|d| d.posthoc_s * 1e3).collect::<Vec<_>>()),
    );
    m.put("trace.overhead_share", drives[0].wall_s / untraced_s - 1.0);
    m.count("trace.spans", tr.spans().len() as u64);
    Ok(Outcome {
        problems,
        attempted: requested,
        failed: requested - ok,
        metrics: m,
        op_counts: op_counts(&drives, requested),
        tracer: Some(tr),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psync_automata::ActionKind;
    use psync_net::NodeId;
    use psync_register::Value;
    use psync_time::Time;

    fn at(ms: i64, op: RegisterOp) -> TimedEvent<RegAction> {
        TimedEvent {
            action: SysAction::App(op),
            kind: ActionKind::Output,
            now: Time::ZERO + Duration::from_millis(ms),
            clock: None,
            node: None,
        }
    }

    #[test]
    fn pairs_interleaved_nodes_by_kind() {
        let (a, b) = (NodeId(0), NodeId(1));
        let events = vec![
            at(
                0,
                RegisterOp::Write {
                    node: a,
                    value: Value::unique(a, 0),
                },
            ),
            at(1, RegisterOp::Read { node: b }),
            at(
                2,
                RegisterOp::Update {
                    node: b,
                    due: Time::ZERO,
                },
            ),
            at(
                5,
                RegisterOp::Return {
                    node: b,
                    value: Value::INITIAL,
                },
            ),
            at(7, RegisterOp::Ack { node: a }),
            at(8, RegisterOp::Read { node: a }),
            at(
                20,
                RegisterOp::Return {
                    node: a,
                    value: Value::unique(a, 0),
                },
            ),
        ];
        let ops = pair_ops(&events).unwrap();
        assert_eq!(
            ops,
            vec![
                (OpKind::Read, Duration::from_millis(4)),
                (OpKind::Write, Duration::from_millis(7)),
                (OpKind::Read, Duration::from_millis(12)),
            ]
        );
    }

    #[test]
    fn mismatched_or_orphan_responses_are_errors() {
        let a = NodeId(0);
        let wrong = vec![
            at(0, RegisterOp::Read { node: a }),
            at(3, RegisterOp::Ack { node: a }),
        ];
        assert!(pair_ops(&wrong).is_err());
        let orphan = vec![at(3, RegisterOp::Ack { node: a })];
        assert!(pair_ops(&orphan).is_err());
        let overlap = vec![
            at(0, RegisterOp::Read { node: a }),
            at(1, RegisterOp::Read { node: a }),
        ];
        assert!(pair_ops(&overlap).is_err());
    }
}
