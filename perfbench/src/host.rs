//! Process-level measurements and the stamp every result carries.

/// Clock ticks per second of the `/proc` CPU counters (`USER_HZ`, fixed
/// at 100 by the Linux ABI on every architecture).
const USER_HZ: f64 = 100.0;

/// CPU time (user + system, all threads, live and exited) this process
/// has used, in seconds.
///
/// # Errors
///
/// `/proc/self/stat` missing or malformed (the benchmark needs Linux).
pub fn cpu_time_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so indices 11 and 12 here.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| {
                #[allow(clippy::cast_precision_loss)]
                let t = t as f64;
                t / USER_HZ
            })
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// High-water resident set size of this process, in MiB.
///
/// # Errors
///
/// `/proc/self/status` missing or without a `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    #[allow(clippy::cast_precision_loss)]
    Ok(kib as f64 / 1024.0)
}

/// Worker threads the host offers.
#[must_use]
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The provenance of a result, as a JSON object: host parallelism,
/// toolchain, build profile, source revision, seed and op counts.
#[must_use]
pub fn stamp(workload: &str, seed: u64, trace: bool, op_counts: &[(String, u64)]) -> String {
    let counts: Vec<String> = op_counts
        .iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
         \"host_parallelism\": {}, \"rustc\": \"{}\", \"profile\": \"{}\", \
         \"git_revision\": \"{}\", \"op_counts\": {{{}}}}}",
        parallelism(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_GIT_REVISION"),
        counts.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_counters_are_readable_and_grow() {
        let before = cpu_time_s().unwrap();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_time_s().unwrap() >= before);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
