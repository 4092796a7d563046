//! The environment pin and the machine header every result carries.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Refuses to run while any `PDX_*` override is set: `PDX_THREADS`,
/// `PDX_KERNEL`, `PDX_CACHE_BYTES` and `PDX_TRACE` change what the
/// library defaults resolve to, and the benchmark must measure the
/// same configuration everywhere.
pub fn refuse_overrides() -> Result<(), String> {
    let mut set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PDX_"))
        .collect();
    set.sort();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: unset every PDX_* override",
            set.join(", ")
        ))
    }
}

/// The header line: resolved kernel ISA, visible cores, compiler and
/// source revision.
pub fn header() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"machine\": {{\"kernel_isa\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{}\", \
         \"revision\": \"{}\", \"source_digest\": \"{:016x}\"}}}}",
        pdx::prelude::active_kernel_isa().name(),
        env!("PERFBENCH_RUSTC"),
        git_revision(),
        source_digest(Path::new(".")),
    )
}

/// `git rev-parse HEAD` of the checkout, or `"unknown"` outside a git
/// repository (the search stops at the checkout's parent).
fn git_revision() -> String {
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the paths and bytes of the sources the benchmark builds
/// from, so results stay attributable where there is no git metadata.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(&f).unwrap_or_default());
    }
    h
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        for entry in std::fs::read_dir(path).into_iter().flatten().flatten() {
            collect(&entry.path(), out);
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

/// Starts the peak resident set over from the current one (5 written
/// to `/proc/self/clear_refs`), so a later [`peak_rss_mb`] covers only
/// what the process held from here on; false where that is refused.
/// Free heap pages go back to the kernel first: the set-up's garbage
/// would otherwise stay resident and count.
pub fn reset_peak_rss() -> bool {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Returns free heap memory to the kernel (glibc's `malloc_trim`).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointer and only releases pages
    // that hold no allocation; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

/// The machine's CPU time counters (the `cpu` line of `/proc/stat`:
/// user, nice, system, idle, iowait, irq, softirq, steal, …), in ticks.
pub fn cpu_times() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace()
        .skip(1)
        .map(|x| x.parse().ok())
        .collect()
}

/// The process's resident set (`VmRSS`), in MiB.
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS:")
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM:")
}

fn status_mb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
