//! A command-line driver for combined Lua-Terra programs, in the spirit of
//! the real system's `terra` executable:
//!
//! ```text
//! terra [flags] script.t [args...]  run a script (args in the global `arg` table)
//! terra [flags] -e 'code'           run a one-liner
//! terra replay-diff A.rec B.rec     align two recordings and pinpoint their
//!                                   first divergent effect (exit 0 = agree,
//!                                   1 = divergence found, 2 = cannot compare)
//! terra                             start a tiny REPL
//!
//! flags:
//!   -O0 | -O1 | -O2   mid-end optimization level (default -O2): -O0 compiles
//!                     the typechecker's IR directly; -O1 adds constant
//!                     folding, algebraic simplification, copy propagation,
//!                     and dead-code elimination; -O2 adds inlining, CSE, and
//!                     loop-invariant code motion
//!   --lint            run the IR analysis suite over every compiled function
//!                     and print the warnings: use-before-init, dead-store,
//!                     unreachable-code, missing-return, and the abstract
//!                     interpreter's definite bugs — definite-oob (constant
//!                     index or proven range; there is no separate
//!                     out-of-bounds code), misaligned-vector, null-deref,
//!                     div-by-zero, guaranteed-overflow
//!                     (diagnostics are computed pre-optimization and are
//!                     identical at every -O level)
//!   --sanitize        poison fresh/freed VM memory and trap on use-after-free
//!   --threads=N       worker threads for `parallelfor` loops (default 1,
//!                     the sequential fallback; 0 = use the host's available
//!                     core count; the chunk schedule depends only on the
//!                     iteration count, so results, traps, and profiles are
//!                     identical at every N)
//!   --no-checkelim    keep every memory access bounds-checked and every
//!                     narrow-integer result wrapped at -O2 (by default the
//!                     abstract interpreter proves accesses in-bounds and
//!                     results in range, and the VM elides those checks;
//!                     under --sanitize nothing is elided)
//!   --profile         collect staging/VM/memory counters and print a profile
//!                     report after the program finishes
//!   --heap-profile    attribute every heap allocation to its (function,
//!                     line, provenance) site and print the `== heap ==`
//!                     section — per-site traffic, the live-heap high-water
//!                     timeline, and a leak report naming surviving
//!                     allocations with their staging chains; with --profile
//!                     the section joins the full report
//!   --sample=N        deterministic sampling profiler: capture the Terra
//!                     call stack every N retired instructions (byte-stable
//!                     across runs) and print the `== samples ==` ranking;
//!                     `--trace-out x.folded` then emits the sampled stacks
//!   --trace-out FILE  write the run's timeline and counters; the format is
//!                     chosen by extension: `.json` Chrome trace-event JSON
//!                     (open in about:tracing / Perfetto), `.folded` folded
//!                     stacks for flamegraph tools (inferno / flamegraph.pl),
//!                     `.jsonl` the unified JSONL event stream; implies
//!                     --profile
//!   --events-out F    write the unified telemetry stream — spans, counters,
//!                     cache stats, remarks, heap sites, samples — as
//!                     newline-delimited JSON (deterministic: byte-identical
//!                     across runs); implies profiling
//!   --cache SPEC      simulated cache geometry for the locality profile,
//!                     e.g. `l1=32k,64,8:l2=256k,64,8` (per level: total
//!                     size, line size, associativity); implies --profile
//!   --remarks[=pass]  print the optimizer's structured remarks (what each
//!                     pass applied or missed, with staging provenance) to
//!                     stderr after the program finishes, optionally
//!                     restricted to one pass (inline, licm, cse, ...)
//!   --remarks-out F   write the remark stream as JSON to F (deterministic:
//!                     byte-identical across runs)
//!   --record=F.rec    execution flight recorder: stream the run's heap
//!                     effects and periodic state checksums into F.rec
//!                     (deterministic: byte-identical across runs and
//!                     --threads settings; requires a script file)
//!   --replay=F.rec    re-execute the script recorded in F.rec under the
//!                     recorded configuration and verify every checkpoint
//!                     (exit 0 = verified, 1 = diverged)
//! ```

use std::io::{BufRead, Write};
use terra_core::{LuaValue, Terra};

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let mut t = Terra::new();
    let mut lint = false;
    let mut profile = false;
    let mut heap_profile = false;
    let mut sample: u64 = 0;
    let mut trace_out: Option<String> = None;
    let mut events_out: Option<String> = None;
    let mut remarks: Option<Option<String>> = None;
    let mut remarks_out: Option<String> = None;
    let mut record_out: Option<String> = None;
    let mut replay_in: Option<String> = None;
    // Mirror of the configuration applied to `t`, captured into recording
    // metadata so `--replay` can reconstruct the run.
    let mut opt_num: u8 = 2;
    let mut checkelim = true;
    let mut sanitize = false;
    while let Some(first) = argv.first().map(|s| s.as_str()) {
        match first {
            "--lint" => {
                lint = true;
                t.set_lint(true);
                argv.remove(0);
            }
            "--sanitize" => {
                sanitize = true;
                t.set_sanitize(true);
                argv.remove(0);
            }
            "--no-checkelim" => {
                checkelim = false;
                t.set_check_elim(false);
                argv.remove(0);
            }
            _ if first.starts_with("-O") => {
                match terra_core::OptLevel::parse(&first[2..]) {
                    Some(level) => {
                        opt_num = first[2..].parse().unwrap_or(2);
                        t.set_opt_level(level)
                    }
                    None => {
                        eprintln!("terra: unknown optimization level '{first}' (use -O0/-O1/-O2)");
                        std::process::exit(1);
                    }
                }
                argv.remove(0);
            }
            _ if first.starts_with("--record=") => {
                let path = first["--record=".len()..].to_string();
                if !path.ends_with(".rec") {
                    eprintln!(
                        "terra: --record={path}: unsupported recording sink (recordings use \
                         the .rec extension, e.g. --record=run.rec)"
                    );
                    std::process::exit(1);
                }
                record_out = Some(path);
                argv.remove(0);
            }
            _ if first.starts_with("--replay=") => {
                let path = first["--replay=".len()..].to_string();
                if !path.ends_with(".rec") {
                    eprintln!(
                        "terra: --replay={path}: unsupported recording sink (recordings use \
                         the .rec extension, e.g. --replay=run.rec)"
                    );
                    std::process::exit(1);
                }
                replay_in = Some(path);
                argv.remove(0);
            }
            "--profile" => {
                profile = true;
                argv.remove(0);
            }
            "--heap-profile" => {
                heap_profile = true;
                argv.remove(0);
            }
            _ if first.starts_with("--threads=") => {
                let spec = &first["--threads=".len()..];
                match spec.parse::<usize>() {
                    Ok(n) => t.set_threads(n),
                    _ => {
                        eprintln!(
                            "terra: bad --threads count '{spec}' (expected a non-negative \
                             integer, e.g. --threads=4; 0 = host core count)"
                        );
                        std::process::exit(1);
                    }
                }
                argv.remove(0);
            }
            _ if first.starts_with("--sample=") => {
                let spec = &first["--sample=".len()..];
                match spec.parse::<u64>() {
                    Ok(n) if n > 0 => sample = n,
                    _ => {
                        eprintln!(
                            "terra: bad --sample interval '{spec}' (expected a positive \
                             instruction count, e.g. --sample=1000)"
                        );
                        std::process::exit(1);
                    }
                }
                argv.remove(0);
            }
            "--trace-out" => {
                argv.remove(0);
                match argv.first() {
                    Some(path) => {
                        if !(path.ends_with(".json")
                            || path.ends_with(".folded")
                            || path.ends_with(".jsonl"))
                        {
                            eprintln!(
                                "terra: --trace-out {path}: unsupported trace sink (the format \
                                 is chosen by extension: .json for Chrome trace-event JSON, \
                                 .folded for flamegraph stacks, .jsonl for the JSONL event \
                                 stream)"
                            );
                            std::process::exit(1);
                        }
                        trace_out = Some(path.clone());
                        profile = true;
                        argv.remove(0);
                    }
                    None => {
                        eprintln!("terra: --trace-out requires a file argument");
                        std::process::exit(1);
                    }
                }
            }
            "--events-out" => {
                argv.remove(0);
                match argv.first() {
                    Some(path) => {
                        events_out = Some(path.clone());
                        argv.remove(0);
                    }
                    None => {
                        eprintln!("terra: --events-out requires a file argument");
                        std::process::exit(1);
                    }
                }
            }
            "--cache" => {
                argv.remove(0);
                match argv.first() {
                    Some(spec) => {
                        match terra_core::CacheConfig::parse(spec) {
                            Ok(cfg) => t.set_cache_config(cfg),
                            Err(e) => {
                                eprintln!("terra: bad --cache spec: {e}");
                                std::process::exit(1);
                            }
                        }
                        profile = true;
                        argv.remove(0);
                    }
                    None => {
                        eprintln!("terra: --cache requires a spec argument");
                        std::process::exit(1);
                    }
                }
            }
            "--remarks" => {
                remarks = Some(None);
                argv.remove(0);
            }
            _ if first.starts_with("--remarks=") => {
                remarks = Some(Some(first["--remarks=".len()..].to_string()));
                argv.remove(0);
            }
            "--remarks-out" => {
                argv.remove(0);
                match argv.first() {
                    Some(path) => {
                        remarks_out = Some(path.clone());
                        argv.remove(0);
                    }
                    None => {
                        eprintln!("terra: --remarks-out requires a file argument");
                        std::process::exit(1);
                    }
                }
            }
            _ => break,
        }
    }
    if let (Some(r), Some(p)) = (&record_out, &replay_in) {
        if r == p {
            eprintln!(
                "terra: --record and --replay name the same file '{r}' (the replay would \
                 verify against the recording it is overwriting); use distinct paths"
            );
            std::process::exit(1);
        }
    }
    if let Some(rec_path) = &replay_in {
        // --replay re-runs the script named inside the recording; a script
        // argument on the command line is a contradiction.
        if let Some(extra) = argv.first() {
            eprintln!(
                "terra: --replay={rec_path} re-runs the script recorded in the file; drop \
                 the extra argument '{extra}'"
            );
            std::process::exit(1);
        }
        do_replay(rec_path);
    }
    if record_out.is_some() && argv.first().map(|s| s.as_str()) != Some("replay-diff") {
        // Recording needs a script *file*: --replay re-runs the script by
        // its recorded path, so -e one-liners and the REPL cannot be
        // replayed and are rejected up front.
        match argv.first().map(|s| s.as_str()) {
            Some("-e") | None => {
                eprintln!(
                    "terra: --record requires a script file argument (recordings replay the \
                     script by path, so -e one-liners and the REPL cannot be recorded)"
                );
                std::process::exit(1);
            }
            _ => {}
        }
    }
    // --heap-profile and --events-out need the collectors running even when
    // the full text report was not requested; --sample=N only arms the
    // deterministic sampler (exact per-instruction counting stays off).
    if profile || heap_profile || events_out.is_some() {
        t.set_profile(true);
    }
    if sample > 0 {
        t.set_sample_interval(sample);
    }
    match argv.first().map(|s| s.as_str()) {
        Some("replay-diff") => {
            let (Some(a), Some(b)) = (argv.get(1), argv.get(2)) else {
                eprintln!("terra: replay-diff requires two .rec file arguments");
                std::process::exit(2);
            };
            do_replay_diff(a, b);
        }
        Some("-e") => {
            let Some(code) = argv.get(1).cloned() else {
                eprintln!("terra: -e requires a code argument");
                std::process::exit(1);
            };
            run(&mut t, &code, "(command line)", lint);
        }
        Some("-h") | Some("--help") => {
            eprintln!(
                "usage: terra [-O0|-O1|-O2] [--lint] [--sanitize] [--profile] \
                 [--heap-profile] [--sample=N] [--threads=N (0 = host cores)] \
                 [--trace-out FILE] [--events-out FILE] \
                 [--cache SPEC] [--remarks[=pass]] [--remarks-out FILE] \
                 [--record=F.rec] [--replay=F.rec] \
                 [script.t [args...] | -e 'code' | replay-diff A.rec B.rec]"
            );
        }
        Some(path) => {
            let src = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("terra: cannot open {path}: {e}");
                    std::process::exit(1);
                }
            };
            // Expose script arguments as the `arg` table, like Lua.
            let args_tbl = terra_core::Table::new();
            let tref = std::rc::Rc::new(std::cell::RefCell::new(args_tbl));
            for (i, a) in argv.iter().skip(1).enumerate() {
                tref.borrow_mut()
                    .set(LuaValue::Number((i + 1) as f64), LuaValue::str(a.as_str()));
            }
            t.set_global("arg", LuaValue::Table(tref));
            let path = path.to_string();
            if let Some(out) = &record_out {
                t.set_record(terra_core::RecMeta {
                    script: path.clone(),
                    opt: opt_num,
                    checkelim,
                    sanitize,
                    cadence: terra_core::DEFAULT_CADENCE,
                    window: None,
                });
                // `run` exits the process on a script error, so the write
                // below only happens for a completed run.
                run(&mut t, &src, &path, lint);
                let rec = t.take_recording().expect("recorder was started above");
                match std::fs::write(out, rec.to_text()) {
                    Ok(()) => eprintln!(
                        "terra: wrote recording to {out} ({} checkpoints, {} effects, {} \
                         instructions)",
                        rec.checkpoints.len(),
                        rec.total_effects,
                        rec.total_retired
                    ),
                    Err(e) => {
                        eprintln!("terra: cannot write {out}: {e}");
                        std::process::exit(1);
                    }
                }
            } else {
                run(&mut t, &src, &path, lint);
            }
        }
        None => repl(&mut t, lint),
    }
    if profile {
        emit_profile(&t, trace_out.as_deref());
    } else {
        // Section-only modes: --heap-profile / --sample=N without --profile
        // print just their own report section.
        if heap_profile {
            eprint!("{}", t.profile().render_heap());
        }
        if sample > 0 {
            eprint!("{}", t.profile().render_samples());
        }
    }
    if let Some(path) = &events_out {
        match std::fs::write(path, t.profile().to_jsonl()) {
            Ok(()) => eprintln!("terra: wrote event stream to {path}"),
            Err(e) => {
                eprintln!("terra: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(pass) = &remarks {
        eprint!("{}", t.profile().render_remarks(pass.as_deref()));
    }
    if let Some(path) = &remarks_out {
        match std::fs::write(path, t.profile().remarks_json()) {
            Ok(()) => eprintln!("terra: wrote remarks to {path}"),
            Err(e) => {
                eprintln!("terra: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Prints the profile report to stderr and, if requested, writes the trace
/// file. The sink format follows the extension (validated at flag-parse
/// time): `.folded` flamegraph stacks, `.jsonl` the unified event stream,
/// `.json` Chrome trace-event JSON.
fn emit_profile(t: &Terra, trace_out: Option<&str>) {
    let profile = t.profile();
    eprint!("{}", profile.render_report());
    if let Some(path) = trace_out {
        let (contents, what) = if path.ends_with(".folded") {
            (profile.to_folded(), "folded stacks")
        } else if path.ends_with(".jsonl") {
            (profile.to_jsonl(), "event stream")
        } else {
            (profile.to_chrome_json(), "Chrome trace")
        };
        match std::fs::write(path, contents) {
            Ok(()) => eprintln!("terra: wrote {what} to {path}"),
            Err(e) => {
                eprintln!("terra: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Re-executes the script named in `meta` under the recorded configuration
/// with the flight recorder on, returning the finished recording. Output is
/// captured: these runs exist for verification, not for their stdout.
fn record_run(meta: &terra_core::RecMeta) -> Result<terra_core::Recording, String> {
    let mut t = Terra::new();
    match terra_core::OptLevel::parse(&meta.opt.to_string()) {
        Some(level) => t.set_opt_level(level),
        None => return Err(format!("recording names unknown opt level {}", meta.opt)),
    }
    t.set_check_elim(meta.checkelim);
    t.set_sanitize(meta.sanitize);
    t.capture_output();
    t.set_record(meta.clone());
    let src = std::fs::read_to_string(&meta.script)
        .map_err(|e| format!("cannot open recorded script {}: {e}", meta.script))?;
    t.exec(&src).map_err(|e| format!("{}: {e}", meta.script))?;
    t.take_recording()
        .ok_or_else(|| "recorder was not running after the script".to_string())
}

fn load_recording(path: &str) -> Result<terra_core::Recording, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    terra_core::Recording::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `--replay=FILE.rec`: re-execute and verify. Exit 0 = verified, 1 =
/// diverged or could not run.
fn do_replay(rec_path: &str) -> ! {
    let recorded = match load_recording(rec_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("terra: {e}");
            std::process::exit(1);
        }
    };
    let live = match record_run(&recorded.meta) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("terra: --replay: {e}");
            std::process::exit(1);
        }
    };
    match terra_core::replay::verify(&recorded, &live) {
        Ok(s) => {
            eprintln!(
                "terra: replay of {rec_path} verified: {} checkpoints, {} effects, {} \
                 instructions",
                s.checkpoints, s.effects, s.retired
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("terra: replay of {rec_path} DIVERGED: {e}");
            std::process::exit(1);
        }
    }
}

/// `terra replay-diff A.rec B.rec`: align two recordings, binary-search the
/// checkpoint stream to the first divergent effect window, re-record that
/// window at full fidelity, and report the first divergent effect. Exit 0 =
/// recordings agree, 1 = divergence found, 2 = could not compare.
fn do_replay_diff(a_path: &str, b_path: &str) -> ! {
    let (a, b) = match (load_recording(a_path), load_recording(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("terra: replay-diff: {e}");
            std::process::exit(2);
        }
    };
    match terra_core::replay::diff(&a, &b, |meta, _window| record_run(meta)) {
        Ok(report) => {
            println!("{}", report.render());
            std::process::exit(if report.is_clean() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("terra: replay-diff: {e}");
            std::process::exit(2);
        }
    }
}

fn report_diagnostics(t: &mut Terra) {
    for d in t.take_diagnostics() {
        eprintln!("terra: {d}");
    }
}

fn run(t: &mut Terra, src: &str, what: &str, lint: bool) {
    let result = t.exec(src);
    if lint {
        report_diagnostics(t);
    }
    match result {
        Ok(values) => {
            for v in values {
                match t.interp().tostring_value(&v, terra_core::span_synthetic()) {
                    Ok(s) => println!("{s}"),
                    Err(_) => println!("{}", v.type_name()),
                }
            }
        }
        Err(e) => {
            eprintln!("terra: {what}: {e}");
            std::process::exit(1);
        }
    }
}

fn repl(t: &mut Terra, lint: bool) {
    eprintln!("terra-rs REPL — staged Lua-Terra; end a statement, or prefix '=' to evaluate.");
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        eprint!("> ");
        let _ = std::io::stderr().flush();
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let chunk = if let Some(rest) = trimmed.strip_prefix('=') {
            format!("return {rest}")
        } else {
            trimmed.to_string()
        };
        let result = t.exec(&chunk);
        // Lint diagnostics surface per chunk, same as batch mode.
        if lint {
            report_diagnostics(t);
        }
        match result {
            Ok(values) => {
                for v in values {
                    if let Ok(s) = t.interp().tostring_value(&v, terra_core::span_synthetic()) {
                        println!("{s}");
                    }
                }
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
}
