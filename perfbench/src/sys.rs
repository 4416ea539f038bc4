//! Process-level readings from `/proc/self` and the run's provenance.

use std::fs;
use std::path::{Path, PathBuf};

/// `/proc` reports CPU time in ticks of `USER_HZ`, which Linux fixes at
/// 100 for user space.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU time of the whole process so far, in seconds,
/// including threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / TICKS_PER_SECOND,
        _ => 0.0,
    }
}

fn status_field(name: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Number of live threads in this process.
pub fn threads() -> f64 {
    status_field("Threads:").unwrap_or(0.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line naming the host and build the numbers were taken on.
pub fn provenance() -> String {
    format!(
        "nproc={} simd={:?} rustc=\"{}\" commit={}",
        nproc(),
        codesign_nn::simd::active_level(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
    )
}

/// A private scratch directory for one workload of this process, under
/// `.bench_state/` in the working directory (the checkout root). It is
/// removed, with `.bench_state/` if that is then empty, when dropped.
pub struct StateDir(PathBuf);

impl StateDir {
    pub fn create(workload: &str) -> std::io::Result<StateDir> {
        let path = Path::new(STATE_ROOT).join(format!("{workload}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(StateDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        let _ = fs::remove_dir(STATE_ROOT);
    }
}

const STATE_ROOT: &str = ".bench_state";
