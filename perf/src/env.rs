//! Where a run happened: the `env` block of the run document, and the
//! process's own memory high-water mark.

use crate::json;
use std::path::Path;
use std::process::Command;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Resident-set high-water mark (`VmHWM`) of this process in MB (0 when
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of the largest cache level CPU 0 reports (0 when unknown).
pub fn llc_bytes() -> usize {
    let mut best = (0u32, 0usize);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(size)) =
            (read(&format!("{dir}/level")), read(&format!("{dir}/size")))
        else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<usize>().map(|k| k * 1024),
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<usize>().map(|m| m * 1024 * 1024),
                None => size.parse::<usize>(),
            },
        };
        if let Ok(bytes) = bytes {
            if level > best.0 {
                best = (level, bytes);
            }
        }
    }
    best.1
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/mounts`).
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mut best: Option<(usize, String)> = None;
    for line in read("/proc/mounts").unwrap_or_default().lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fstype)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() > *len) {
            best = Some((mount.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// First line of a command's output, or `unknown`. The child is waited for.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The `env` object of a run document. `bandwidth_array_bytes` is the size
/// of the array the memory-bandwidth measurement streamed (0 when that
/// measurement did not run).
pub fn block(seed: u64, scratch: &Path, smoke: bool, bandwidth_array_bytes: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    json::object([
        ("nproc", nproc.to_string()),
        ("cpu_model", json::string(&cpu_model())),
        ("llc_bytes", llc_bytes().to_string()),
        ("bandwidth_array_bytes", bandwidth_array_bytes.to_string()),
        (
            "kernel_isa",
            json::string(enkf_linalg::kernel::active_isa().name()),
        ),
        ("scratch_fs", json::string(&fs_type(scratch))),
        ("rustc", json::string(&first_line("rustc", &["--version"]))),
        (
            "commit",
            json::string(&first_line("git", &["rev-parse", "--short", "HEAD"])),
        ),
        ("seed", seed.to_string()),
        ("smoke", smoke.to_string()),
    ])
}
