//! The repository benchmark: four workloads over the two things a user
//! runs, explorer campaigns and the live register backend.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet|sync_wide|canaries|live_register> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it records spans around the calls into each layer and
//! reports the per-layer metrics instead. Either way the last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`), the line before it stamps the result's provenance, and the
//! exit code is non-zero when any correctness or determinism check
//! failed. `README.md` beside this file explains the workloads and what
//! each metric should move.

mod campaign;
mod host;
mod live;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use campaign::Family;
use trace::Tracer;

/// End-to-end metrics: `(name, unit)`. Every workload reports each.
const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics other than the `campaign_s.<target>` family. A
/// workload reports 0 for a layer it does not exercise.
const PER_LAYER: [(&str, &str); 35] = [
    ("explore.sequential_s", "s"),
    ("explore.pool_efficiency", "ratio"),
    ("plan.generate_us_per_case", "us"),
    ("scenario.execute_ms_per_case", "ms"),
    ("engine.events_per_case", "count"),
    ("engine.exec_events_per_s", "1/s"),
    ("verify.judge_ms_per_case", "ms"),
    ("verify.judge_share", "ratio"),
    ("resume.ladder_s", "s"),
    ("resume.checkpoints", "count"),
    ("resume.recording_runs", "count"),
    ("shrink.probes", "count"),
    ("shrink.events", "count"),
    ("shrink.cache_hits", "count"),
    ("shrink.events_per_primary_event", "ratio"),
    ("shrink.min_plan_entries", "count"),
    ("artifact.bytes", "B"),
    ("artifact.codec_ms", "ms"),
    ("artifact.replay_ms", "ms"),
    ("live.probe_ms", "ms"),
    ("live.eps_hat_ms", "ms"),
    ("live.read_overhead_p50_ms", "ms"),
    ("live.write_overhead_p50_ms", "ms"),
    ("live.read_overhead_p95_ms", "ms"),
    ("live.write_overhead_p95_ms", "ms"),
    ("live.events_per_op", "count"),
    ("live.engine_steps_per_op", "count"),
    ("live.clock_reads_per_op", "count"),
    ("live.advances_per_op", "count"),
    ("live.scheduling_points_per_op", "count"),
    ("live.max_delivery_delay_ms", "ms"),
    ("live.delivery_slack_ms", "ms"),
    ("live.posthoc_judge_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// Every per-layer metric, `(name, unit)`, in reporting order.
fn per_layer() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(
            campaign::all_target_names()
                .into_iter()
                .map(|t| (format!("campaign_s.{t}"), "s")),
        )
        .collect()
}

/// Measured values by metric name; units come from the catalogs above.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    /// Records a measured value.
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    /// Records a count.
    pub fn count(&mut self, name: &str, value: u64) {
        #[allow(clippy::cast_precision_loss)]
        self.put(name, value as f64);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// What one workload run found.
#[derive(Debug)]
pub struct Outcome {
    /// Failed correctness or determinism checks (empty = correct).
    pub problems: Vec<String>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Work done, for the stamp.
    pub op_counts: Vec<(String, u64)>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = Some(parsed.map_err(|e| format!("--seed {value}: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: expected (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(campaign::DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let family = match args.workload.as_str() {
        "fleet" => Family::Fleet,
        "sync_wide" => Family::SyncWide,
        "canaries" => Family::Canaries,
        "live_register" if args.trace => return live::run_traced(args.seed, args.seconds),
        "live_register" => return live::run(args.seed, args.seconds),
        other => return Err(format!("unknown workload {other:?}")),
    };
    if args.trace {
        campaign::run_traced(family, args.seed, args.seconds)
    } else {
        campaign::run(family, args.seed, args.seconds)
    }
}

/// The result line: every metric of the run's catalog, in order. A metric
/// this workload does not exercise reads 0; a missing or non-finite
/// end-to-end value is a failed check.
fn result_line(outcome: &Outcome, trace: bool, problems: &mut Vec<String>) -> String {
    let catalog: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = String::new();
    for (i, (name, unit)) in catalog.iter().enumerate() {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => {
                problems.push(format!("{name} measured {v}"));
                0.0
            }
            None if trace => 0.0,
            None => {
                problems.push(format!("{name} was not measured"));
                0.0
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        problems.is_empty(),
        outcome.attempted,
        outcome.failed
    )
}

/// Writes the stamp, result and spans under `out/` beside this package.
fn write_record(
    args: &Args,
    stamp: &str,
    line: &str,
    tracer: Option<&Tracer>,
) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let spans = tracer.map_or_else(|| "[]".to_string(), Tracer::to_json);
    let body = format!("{{\"stamp\": {stamp},\n\"result\": {line},\n\"spans\": {spans}}}\n");
    std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let mut problems = outcome.problems.clone();
    let line = result_line(&outcome, args.trace, &mut problems);
    let stamp = host::stamp(&args.workload, args.seed, args.trace, &outcome.op_counts);
    if let Err(e) = write_record(&args, &stamp, &line, outcome.tracer.as_ref()) {
        eprintln!("perfbench: could not keep the run record: {e}");
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    // The result must be the last line of standard output.
    println!("{{\"stamp\": {stamp}}}");
    println!("{line}");
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| (*n).to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for (name, unit) in END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
        {
            assert!(
                BENCHMARK.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "BENCHMARK.json lacks {name} [{unit}]"
            );
        }
        let listed = BENCHMARK.matches("\"unit\":").count();
        assert_eq!(listed, names.len(), "BENCHMARK.json lists other metrics");
    }
}
