//! The benchmark behind `BENCHMARK.json`: wall-clock time of `terra file.t`,
//! end to end and layer by layer. See `README.md` beside this package.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--emit-dir D]
//! ```
//!
//! Run from the repository root. `--trace 0` (the default) measures the real
//! CLI end to end with telemetry off; `--trace 1` is the separate traced run
//! that yields the per-layer metrics. Human-readable lines start with `#`;
//! the last line of each workload's output is its result as one JSON object.

mod e2e;
mod host;
mod layers;
mod probes;
mod spans;
mod stats;
mod workloads;

use e2e::{Measurement, Prepared};
use layers::Metrics;
use spans::SpanLog;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Scale, Workload, WORKLOADS};

/// End-to-end metrics: name, unit, and the regression bound recorded in
/// `BENCHMARK.json` (a share of the parent's median).
const END_TO_END: [(&str, &str, f64); 4] = [
    ("setup_s", "s", 0.25),
    ("wall_s", "s", 0.25),
    ("cpu_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
];

/// Where generated inputs, child stderr, recordings and `spans.json` go.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    emit_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        emit_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = workloads::find(&name).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}' (one of: {})", names.join(", "))
                })?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err("--seconds must be between 0 and 3600".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => args.scale = Scale::Quick,
            "--emit-dir" => args.emit_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(dir) = &args.emit_dir {
        return emit(args, dir);
    }
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let load_start = host::load_average();
    println!(
        "# host: {} seed={} scale={:?}",
        host::fingerprint(),
        args.seed,
        args.scale
    );
    let mut logs = Vec::new();
    for w in &args.workloads {
        let result = if args.trace {
            let (log, result) = traced_run(&root, w, args)?;
            logs.push(log);
            result
        } else {
            end_to_end_run(&root, w, args)?
        };
        if let (Some(a), Some(b)) = (load_start, host::load_average()) {
            println!("# {}: load average {a:.2} at start, {b:.2} now", w.name);
        }
        println!("{result}");
    }
    if !logs.is_empty() {
        let path = root.join(OUT_DIR).join("spans.json");
        std::fs::write(&path, spans::to_json(&logs))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// `--emit-dir`: writes each selected workload's `.t` file and expected
/// output, and measures nothing.
fn emit(args: &Args, dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    for w in &args.workloads {
        let gen = w.generate(args.seed, args.scale);
        for (ext, text) in [("t", gen.script()), ("expected", gen.reference)] {
            let path = dir.join(format!("{}.{ext}", w.name));
            std::fs::write(&path, text)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// One set-up: make sure the CLI is built, generate the input from the
/// seed, compute its reference natively, and write the script to disk.
fn set_up(
    root: &Path,
    w: &Workload,
    args: &Args,
) -> Result<(PathBuf, Prepared, workloads::Generated), String> {
    let terra = e2e::build_cli(root)?;
    let gen = w.generate(args.seed, args.scale);
    let dir = root.join(OUT_DIR).join(w.name);
    let input = e2e::prepare(&dir, w.name, &gen, w.config(host::cores()))?;
    Ok((terra, input, gen))
}

/// Returns the run's result line.
fn end_to_end_run(root: &Path, w: &Workload, args: &Args) -> Result<String, String> {
    let quick = args.scale == Scale::Quick;
    // Set-up is repeated, a few times before the children and then once
    // after every eighth child, so that its repetitions sample the whole
    // run like the children do. The first repetition of the first run in a
    // checkout also pays for the build.
    let mut setups = Vec::new();
    let mut timed_set_up = || {
        let start = Instant::now();
        let done = set_up(root, w, args);
        setups.push(start.elapsed().as_secs_f64());
        done
    };
    let (terra, input, _) = timed_set_up()?;
    for _ in 1..if quick { 1 } else { 5 } {
        timed_set_up()?;
    }
    if w.config(2) != w.config(host::cores()) {
        println!(
            "# {}: SKIPPED as a parallel measurement: this host has one core, so it runs on \
             one thread",
            w.name
        );
    }

    let warm_up = e2e::run_child(&terra, &input);
    let mut set_up_failure = None;
    let m = Measurement::collect(
        &terra,
        &input,
        Duration::from_secs_f64(if quick { 0.0 } else { args.seconds }),
        if quick { 1 } else { 5 },
        &mut |children| {
            if children % 8 == 0 {
                if let Err(e) = timed_set_up() {
                    set_up_failure.get_or_insert(e);
                }
            }
        },
    );
    if let Some(e) = set_up_failure {
        return Err(e);
    }
    let failures: Vec<&str> = warm_up
        .failure
        .as_deref()
        .into_iter()
        .chain(m.failures())
        .collect();
    for why in failures.iter().take(3) {
        println!("# {}: FAILED run: {why}", w.name);
    }
    println!(
        "# {}: {} timed runs after 1 warm-up, {} failed; each time below is the fastest of its \
         repetitions",
        w.name,
        m.attempted(),
        failures.len()
    );
    let mut metrics = Metrics::new();
    for (name, samples) in [
        ("setup_s", setups),
        ("wall_s", m.wall()),
        ("cpu_s", m.cpu()),
    ] {
        let all = Summary::of(&samples).ok_or(format!("{}: {name} has no samples", w.name))?;
        println!(
            "# {}: {name} min {:.4} median {:.4} max {:.4} IQR {:.4} N {}",
            w.name,
            all.min,
            all.median,
            all.max,
            all.iqr(),
            all.n
        );
        let ms: Vec<String> = samples.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
        println!(
            "# {}: {name} samples in run order, ms: {}",
            w.name,
            ms.join(" ")
        );
        metrics.insert(name, (all.min, "s"));
        // Noise guard: the statistic reported is a minimum, so its own
        // steadiness is judged by the minima of the run's two halves.
        let (first, second) = samples.split_at(samples.len() / 2);
        if let (Some(a), Some(b)) = (Summary::of(first), Summary::of(second)) {
            let drift = (a.min - b.min).abs() / all.min;
            if drift > bound(name) {
                println!(
                    "# {}: WARNING: the two halves of this run disagree on {name} by {:.1}%, \
                     more than its bound of {:.0}%: the host is too noisy for this number",
                    w.name,
                    drift * 100.0,
                    bound(name) * 100.0
                );
            }
        }
    }
    metrics.insert("peak_rss_mb", (m.peak_rss_mb(), "MB"));
    Ok(report(
        w.name,
        &metrics,
        failures.is_empty(),
        m.attempted() + 1,
        failures.len(),
    ))
}

/// The regression bound of an end-to-end metric.
fn bound(name: &str) -> f64 {
    END_TO_END
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or(0.0, |(_, _, b)| *b)
}

/// Returns the run's spans and its result line.
fn traced_run(root: &Path, w: &Workload, args: &Args) -> Result<(SpanLog, String), String> {
    let (terra, input, gen) = set_up(root, w, args)?;
    // A few untraced children give the wall time the traced run is compared
    // with (the fastest of them, like every time here); their stdout is
    // checked like any other run's.
    let untraced: Vec<_> = (0..3).map(|_| e2e::run_child(&terra, &input)).collect();
    let mut failed = untraced.iter().filter(|r| r.failure.is_some()).count();
    let untraced_wall = untraced
        .iter()
        .map(|r| r.wall_s)
        .fold(f64::INFINITY, f64::min);

    let config = w.config(host::cores());
    let script_path = input.script.to_string_lossy();
    let (mut log, mut metrics) =
        match layers::trace_workload(w.name, &gen, config, &script_path, untraced_wall) {
            Ok(traced) => traced,
            Err(e) => {
                println!("# {}: FAILED traced run: {e}", w.name);
                failed += 1;
                (SpanLog::new(w.name), Metrics::new())
            }
        };
    metrics.extend(probes::run_all(
        &mut log,
        args.seed,
        host::cores(),
        &terra,
        args.scale,
    )?);
    let result = report(w.name, &metrics, failed == 0, untraced.len() + 1, failed);
    Ok((log, result))
}

/// Prints every metric by name with its unit and returns the result as the
/// one JSON object the driver reads from the last line.
fn report(
    workload: &str,
    metrics: &Metrics,
    correct: bool,
    attempted: usize,
    failed: usize,
) -> String {
    let mut correct = correct;
    let mut fields = Vec::new();
    for (name, (value, unit)) in metrics {
        println!("# {workload}: {name} = {value} {unit}");
        // JSON has no NaN or infinity; a metric that is not a number is a
        // failed measurement.
        let value = if value.is_finite() {
            *value
        } else {
            correct = false;
            0.0
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

#[cfg(test)]
mod tests;
