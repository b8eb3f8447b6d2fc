//! End-to-end measurement: build the real `terra` CLI, spawn it on a
//! generated script (closed loop, one client, one child at a time), reap it
//! with `wait4` for its CPU time and peak memory, and compare its stdout with
//! the native reference.

use crate::workloads::{Config, Generated};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Builds `terra` in release mode from the repository at `root` and returns
/// the binary's path. A no-op when the build is fresh.
pub fn build_cli(root: &Path) -> Result<PathBuf, String> {
    if !root.join("crates/core/src/bin/terra.rs").is_file() {
        return Err(format!(
            "{} is not the root of a terra-rs checkout (run from the repository root)",
            root.display()
        ));
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "terra-core", "--bin", "terra"])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the terra CLI failed ({status})"));
    }
    // Cargo resolves a relative CARGO_TARGET_DIR against its working
    // directory, which was `root`.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let bin = root.join(target).join("release/terra");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("cargo succeeded but {} is missing", bin.display()))
    }
}

/// One input on disk, ready to hand to the CLI.
pub struct Prepared {
    pub script: PathBuf,
    /// Leading CLI flags of the workload's configuration.
    pub flags: Vec<String>,
    stderr: PathBuf,
    pub reference: String,
}

/// Writes `gen`'s script under `dir` (created if missing).
pub fn prepare(
    dir: &Path,
    name: &str,
    gen: &Generated,
    config: Config,
) -> Result<Prepared, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let script = dir.join(format!("{name}.t"));
    std::fs::write(&script, gen.script())
        .map_err(|e| format!("cannot write {}: {e}", script.display()))?;
    let rec = dir.join(format!("{name}.rec"));
    Ok(Prepared {
        script,
        flags: config.cli_flags(&rec.to_string_lossy()),
        stderr: dir.join(format!("{name}.stderr")),
        reference: gen.reference.clone(),
    })
}

/// What one child did.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Spawn to exit.
    pub wall_s: f64,
    /// User plus system CPU time of the child.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    /// `None` when the child exited with 0 and printed the reference.
    pub failure: Option<String>,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs, of
/// which the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs `terra [flags] script` once and checks its stdout.
pub fn run_child(terra: &Path, input: &Prepared) -> ChildRun {
    let failed = |why: String| ChildRun {
        wall_s: 0.0,
        cpu_s: 0.0,
        peak_rss_mb: 0.0,
        failure: Some(why),
    };
    // stderr goes to a file: an observed run prints a long profile report
    // there, and a second pipe read after stdout could deadlock on it.
    let stderr = match std::fs::File::create(&input.stderr) {
        Ok(f) => f,
        Err(e) => return failed(format!("cannot create {}: {e}", input.stderr.display())),
    };
    let start = Instant::now();
    let mut child = match Command::new(terra)
        .args(&input.flags)
        .arg(&input.script)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
    {
        Ok(c) => c,
        Err(e) => return failed(format!("cannot spawn {}: {e}", terra.display())),
    };
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut stdout);
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `child.id()` is a child of this process that has not been
    // waited for (`Child::wait` is never called on it, and dropping a
    // `Child` does not reap it); `status` and `ru` are live, writable and
    // laid out as wait4(2) expects on 64-bit Linux.
    let reaped = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped < 0 {
        return failed(format!("wait4 failed: {}", std::io::Error::last_os_error()));
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    let failure = if let Err(e) = read {
        Some(format!("cannot read the child's stdout: {e}"))
    } else if status & 0x7f != 0 {
        Some(format!("killed by signal {}", status & 0x7f))
    } else if (status >> 8) & 0xff != 0 {
        let tail = std::fs::read_to_string(&input.stderr).unwrap_or_default();
        let tail = tail.lines().last().unwrap_or("").to_string();
        Some(format!("exit code {}: {tail}", (status >> 8) & 0xff))
    } else if stdout != input.reference {
        Some(format!(
            "stdout {stdout:?} differs from the reference {:?}",
            input.reference
        ))
    } else {
        None
    };
    ChildRun {
        wall_s,
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: ru.maxrss as f64 / 1024.0,
        failure,
    }
}

/// The timed children of one run.
#[derive(Debug, Default)]
pub struct Measurement {
    pub runs: Vec<ChildRun>,
}

impl Measurement {
    /// Spawns children back to back until `budget` has passed (at least
    /// `min_runs` of them), calling `between` with the number of children so
    /// far after each one.
    pub fn collect(
        terra: &Path,
        input: &Prepared,
        budget: Duration,
        min_runs: usize,
        between: &mut dyn FnMut(usize),
    ) -> Measurement {
        let start = Instant::now();
        let mut runs = Vec::new();
        while runs.len() < min_runs || start.elapsed() < budget {
            runs.push(run_child(terra, input));
            between(runs.len());
        }
        Measurement { runs }
    }

    pub fn attempted(&self) -> usize {
        self.runs.len()
    }

    pub fn failures(&self) -> impl Iterator<Item = &str> {
        self.runs.iter().filter_map(|r| r.failure.as_deref())
    }

    /// The runs that count: the correct ones, or all of them when none was
    /// (so that a broken build still reports numbers beside `correct:
    /// false`).
    fn counted(&self) -> Vec<&ChildRun> {
        let ok: Vec<_> = self.runs.iter().filter(|r| r.failure.is_none()).collect();
        if ok.is_empty() {
            self.runs.iter().collect()
        } else {
            ok
        }
    }

    /// Wall-clock seconds of the counted runs, in run order.
    pub fn wall(&self) -> Vec<f64> {
        self.counted().iter().map(|r| r.wall_s).collect()
    }

    /// CPU seconds of the counted runs, in run order.
    pub fn cpu(&self) -> Vec<f64> {
        self.counted().iter().map(|r| r.cpu_s).collect()
    }

    pub fn peak_rss_mb(&self) -> f64 {
        self.counted()
            .iter()
            .map(|r| r.peak_rss_mb)
            .fold(0.0, f64::max)
    }
}
