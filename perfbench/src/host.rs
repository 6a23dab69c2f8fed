//! What the host looks like and what it did during a run: CPU count,
//! memory, compiler, stolen CPU time and the program's peak RSS.

use std::fs;

/// Aggregate CPU tick counters from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    pub steal: u64,
    pub total: u64,
}

impl CpuTicks {
    /// Reads the counters now; all zero where `/proc/stat` is missing.
    pub fn now() -> CpuTicks {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let Some(line) = stat.lines().next() else {
            return CpuTicks::default();
        };
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            // user nice system idle iowait irq softirq steal guest guest_nice;
            // guest time is already inside user time.
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// Share of the ticks since `earlier` that the hypervisor stole.
    pub fn steal_share_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

fn status_kb(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// The process's resident high-water mark in MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_kb("VmHWM:").map(|kb| kb as f64 / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands the pages that glibc's allocator holds free, in every arena,
/// back to the OS; a no-op on other allocators.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers; it walks glibc's own arenas
    // under their locks and only releases memory no allocation owns.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets the resident high-water mark to the current RSS, so that a
/// later [`peak_rss_mb`] covers only what runs after this call.
///
/// # Errors
///
/// A message when the kernel refuses the reset.
pub fn reset_peak_rss() -> Result<(), String> {
    fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

fn mem_total_mb() -> f64 {
    fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|m| {
            m.lines()
                .find(|l| l.starts_with("MemTotal:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One line that identifies the host a result came from.
pub fn fingerprint(steal_share: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} mem_total_mb={:.0} rustc=\"{}\" simd={} steal_share={steal_share:.4}",
        mem_total_mb(),
        env!("PERFBENCH_RUSTC"),
        cfg!(feature = "simd"),
    )
}
