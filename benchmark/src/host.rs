//! Host fingerprint: what a reader needs to judge whether two sets of
//! numbers are comparable.

use std::process::{Command, Stdio};

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-minute load average, or `None` off Linux.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// First line of `program args…`'s stdout, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One line naming the host, toolchain and commit.
pub fn fingerprint() -> String {
    format!(
        "nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
        cores(),
        cpu_model(),
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}
