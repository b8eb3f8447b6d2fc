//! A command-line driver for combined Lua-Terra programs, in the spirit of
//! the real system's `terra` executable: it runs a script, a `-e` one-liner,
//! the `replay-diff` subcommand or a tiny REPL. `terra --help` prints the
//! modes ([`USAGE`]) and every flag ([`FLAGS`]).

use std::io::{BufRead, Write};
use terra_core::{CacheConfig, LuaValue, OptLevel, Profile, Terra};

const USAGE: &str = "\
usage: terra [flags] script.t [args...]  run a script (args in the global `arg` table)
       terra [flags] -e 'code'           run a one-liner
       terra replay-diff A.rec B.rec     align two recordings and pinpoint their first
                                         divergent effect (exit 0 = agree, 1 = divergence
                                         found, 2 = cannot compare)
       terra [flags]                     start a tiny REPL

flags (before the script; a flag that takes a value may be given once):
";

/// `--trace-out`'s sinks: the extension that names one, what writes it, and
/// what the file holds.
type TraceSink = (&'static str, fn(&Profile) -> String, &'static str);
const TRACE_SINKS: [TraceSink; 3] = [
    (".json", Profile::to_chrome_json, "Chrome trace"),
    (".folded", Profile::to_folded, "folded stacks"),
    (".jsonl", Profile::to_jsonl, "event stream"),
];

/// How a flag is written; the string names its value in `--help`.
enum Arg {
    /// `--flag`
    Bare,
    /// `--flag=VALUE`
    Eq(&'static str),
    /// `--flag VALUE`
    Next(&'static str),
}
use Arg::{Bare, Eq, Next};

/// Every flag: its name, how it is written, its `--help` text. Parsing,
/// `--help` and the README's table (`tests/cli_flags.rs` compares them) all
/// come from here; `main` reads the parsed flags back by name.
#[rustfmt::skip]
const FLAGS: &[(&str, Arg, &str)] = &[
    ("-h", Bare, "print this help and exit"),
    ("--help", Bare, "print this help and exit"),
    ("-O0", Bare, "no mid-end passes: compile the typechecker's IR directly"),
    ("-O1", Bare, "constant folding, algebraic simplification, copy propagation and dead-code \
                   elimination"),
    ("-O2", Bare, "the default: -O1 plus inlining, unrolling and loop-invariant code motion"),
    ("--lint", Bare,
     "run the IR analysis suite over every compiled function and print the warnings: \
      use-before-init, dead-store, unreachable-code, missing-return, and the abstract \
      interpreter's definite bugs (definite-oob, misaligned-vector, null-deref, div-by-zero, \
      guaranteed-overflow); computed before optimization, so identical at every -O level"),
    ("--sanitize", Bare,
     "poison fresh and freed VM memory and trap on use-after-free; nothing is check-elided"),
    ("--threads", Eq("N"),
     "worker threads for `parallelfor` loops (default 1, the sequential fallback; 0 = the \
      host's core count); results, traps and profiles are identical at every N"),
    ("--no-checkelim", Bare,
     "keep every memory access bounds-checked and every narrow-integer result wrapped at -O2 \
      (by default the abstract interpreter proves what it can and the VM elides those checks)"),
    ("--profile", Bare,
     "collect staging/VM/memory counters and print a profile report after the program"),
    ("--sample", Eq("N"),
     "deterministic sampling profiler: capture the Terra call stack every N retired \
      instructions and print the `== samples ==` ranking; `--trace-out x.folded` then emits \
      the sampled stacks"),
    ("--trace-out", Next("FILE"),
     "write the run's timeline and counters in the format the extension names: `.json` Chrome \
      trace-event JSON (about:tracing / Perfetto), `.folded` flamegraph stacks, `.jsonl` the \
      JSONL event stream; implies --profile"),
    ("--cache", Next("SPEC"),
     "simulated cache geometry for the locality profile, e.g. `l1=32k,64,8:l2=256k,64,8` (per \
      level: total size, line size, associativity); implies --profile"),
    ("--remarks", Bare,
     "print the optimizer's structured remarks (what each pass applied or missed, with staging \
      provenance) to stderr after the program"),
    ("--remarks", Eq("PASS"), "the same, restricted to one pass (inline, licm, unroll, ...)"),
    ("--record", Eq("F.rec"),
     "execution flight recorder: stream the run's heap effects and periodic state checksums \
      into F.rec, byte-identical across runs and --threads settings; requires a script file"),
    ("--replay", Eq("F.rec"),
     "re-execute the script recorded in F.rec under the recorded configuration and verify \
      every checkpoint (exit 0 = verified, 1 = diverged)"),
];

/// A flag as `--help` and error messages spell it: `--threads=N`.
fn spelling(name: &str, arg: &Arg) -> String {
    match arg {
        Bare => name.to_string(),
        Eq(value) => format!("{name}={value}"),
        Next(value) => format!("{name} {value}"),
    }
}

/// [`USAGE`] and one entry per flag, its text wrapped at 100 columns.
fn help() -> String {
    let mut out = USAGE.to_string();
    for (name, arg, text) in FLAGS {
        let mut line = format!("  {:<19}", spelling(name, arg));
        for word in text.split(' ') {
            if line.len() + 1 + word.len() > 100 {
                out += line.trim_end();
                line = format!("\n{:21}", "");
            }
            line += " ";
            line += word;
        }
        out += line.trim_end();
        out.push('\n');
    }
    out
}

/// The flags of one command line, in the order given, each with its value
/// (empty for a bare flag).
struct Flags(Vec<(&'static str, String)>);

impl Flags {
    /// Consumes the leading flags of `argv`; what is left is the mode
    /// (`script.t args...`, `-e code`, `replay-diff A B`, or nothing).
    fn parse(argv: &mut Vec<String>) -> Result<Flags, String> {
        let mut flags = Flags(Vec::new());
        while argv
            .first()
            .is_some_and(|a| a.starts_with('-') && a != "-e")
        {
            let first = argv.remove(0);
            let (name, attached) = match first.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (first.as_str(), None),
            };
            // A name has one row per way of writing it (`--remarks[=PASS]`).
            let forms = || FLAGS.iter().filter(|row| row.0 == name);
            let Some((_, listed, _)) = forms().next() else {
                return Err(format!("unknown option '{first}' (see terra --help)"));
            };
            let form = forms().find(|row| matches!(row.1, Eq(_)) == attached.is_some());
            let Some(&(name, ref arg, _)) = form else {
                let usage = spelling(name, listed);
                return Err(format!(
                    "option '{first}' is written '{usage}' (see terra --help)"
                ));
            };
            let value = match arg {
                Bare => String::new(),
                Eq(_) => attached.unwrap_or_default().to_string(),
                Next(what) if argv.is_empty() => {
                    let what = what.to_lowercase();
                    return Err(format!("{name} requires a {what} argument"));
                }
                Next(_) => argv.remove(0),
            };
            if !matches!(arg, Bare) && flags.has(name) {
                return Err(format!("{name} is given twice"));
            }
            flags.0.push((name, value));
        }
        Ok(flags)
    }

    /// The value of the last `name` given, if any was.
    fn value(&self, name: &str) -> Option<&str> {
        debug_assert!(FLAGS.iter().any(|row| row.0 == name), "{name} is no flag");
        let found = self.0.iter().rev().find(|(n, _)| *n == name);
        found.map(|(_, value)| value.as_str())
    }

    fn has(&self, name: &str) -> bool {
        self.value(name).is_some()
    }

    /// The path given to `--record`/`--replay`, which must end in `.rec`.
    fn rec_path(&self, name: &str) -> Option<&str> {
        let path = self.value(name)?;
        if !path.ends_with(".rec") {
            die(&format!(
                "{name}={path}: unsupported recording sink (recordings use the .rec \
                 extension, e.g. {name}=run.rec)"
            ));
        }
        Some(path)
    }
}

/// Reports a command-line error and exits with status 1.
fn die(message: &str) -> ! {
    eprintln!("terra: {message}");
    std::process::exit(1);
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&mut argv).unwrap_or_else(|e| die(&e));
    if flags.has("-h") || flags.has("--help") {
        print!("{}", help());
        return;
    }
    let mode = argv.first().map(|s| s.as_str());
    let mut t = Terra::new();
    // The last -O given wins.
    let mut given = flags.0.iter().rev();
    let opt = given.find_map(|(name, _)| OptLevel::parse(name.strip_prefix("-O")?));
    let opt = opt.unwrap_or_default();
    t.set_opt_level(opt);
    let (lint, sanitize) = (flags.has("--lint"), flags.has("--sanitize"));
    t.set_lint(lint);
    t.set_sanitize(sanitize);
    let checkelim = !flags.has("--no-checkelim");
    t.set_check_elim(checkelim);
    if let Some(n) = flags.value("--threads") {
        t.set_threads(n.parse().unwrap_or_else(|_| {
            die(&format!(
                "bad --threads count '{n}' (expected a non-negative integer, e.g. \
                 --threads=4; 0 = host core count)"
            ))
        }));
    }
    let sample = flags.value("--sample").map(|n| match n.parse::<u64>() {
        Ok(n) if n > 0 => n,
        _ => die(&format!(
            "bad --sample interval '{n}' (expected a positive instruction count, e.g. \
             --sample=1000)"
        )),
    });
    let trace_out = flags.value("--trace-out").map(|path| {
        match TRACE_SINKS.iter().find(|sink| path.ends_with(sink.0)) {
            Some(sink) => (path, sink),
            None => die(&format!(
                "--trace-out {path}: unsupported trace sink (the format is chosen by \
                 extension: .json for Chrome trace-event JSON, .folded for flamegraph \
                 stacks, .jsonl for the JSONL event stream)"
            )),
        }
    });
    if let Some(spec) = flags.value("--cache") {
        let cfg = CacheConfig::parse(spec);
        t.set_cache_config(cfg.unwrap_or_else(|e| die(&format!("bad --cache spec: {e}"))));
    }
    let record_out = flags.rec_path("--record");
    if let Some(rec_path) = flags.rec_path("--replay") {
        if record_out == Some(rec_path) {
            die(&format!(
                "--record and --replay name the same file '{rec_path}' (the replay would \
                 verify against the recording it is overwriting); use distinct paths"
            ));
        }
        // --replay re-runs the script named inside the recording; a script
        // argument on the command line is a contradiction.
        if let Some(extra) = mode {
            die(&format!(
                "--replay={rec_path} re-runs the script recorded in the file; drop the extra \
                 argument '{extra}'"
            ));
        }
        do_replay(rec_path);
    }
    // Recording needs a script *file*: --replay re-runs the script by its
    // recorded path, so -e one-liners and the REPL cannot be replayed and
    // are rejected up front.
    if record_out.is_some() && matches!(mode, Some("-e") | None) {
        die(
            "--record requires a script file argument (recordings replay the script by \
             path, so -e one-liners and the REPL cannot be recorded)",
        );
    }
    // --sample=N only arms the deterministic sampler (exact per-instruction
    // counting stays off).
    let profile = flags.has("--profile") || trace_out.is_some() || flags.has("--cache");
    if profile {
        t.set_profile(true);
    }
    if let Some(n) = sample {
        t.set_sample_interval(n);
    }
    match mode {
        Some("replay-diff") => {
            let (Some(a), Some(b)) = (argv.get(1), argv.get(2)) else {
                eprintln!("terra: replay-diff requires two .rec file arguments");
                std::process::exit(2);
            };
            do_replay_diff(a, b);
        }
        Some("-e") => {
            let Some(code) = argv.get(1) else {
                die("-e requires a code argument");
            };
            run(&mut t, code, "(command line)", lint);
        }
        Some(path) => {
            let src = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot open {path}: {e}")));
            // Expose script arguments as the `arg` table, like Lua.
            let args_tbl = terra_core::Table::new();
            let tref = std::rc::Rc::new(std::cell::RefCell::new(args_tbl));
            for (i, a) in argv.iter().skip(1).enumerate() {
                tref.borrow_mut()
                    .set(LuaValue::Number((i + 1) as f64), LuaValue::str(a.as_str()));
            }
            t.set_global("arg", LuaValue::Table(tref));
            if record_out.is_some() {
                t.set_record(terra_core::RecMeta {
                    script: path.to_string(),
                    opt: opt as u8,
                    checkelim,
                    sanitize,
                    cadence: terra_core::DEFAULT_CADENCE,
                    window: None,
                });
            }
            // `run` exits the process on a script error, so the recording
            // is only written for a completed run.
            run(&mut t, &src, path, lint);
            if let Some(out) = record_out {
                let rec = t.take_recording().expect("recorder was started above");
                let what = format!(
                    "recording ({} checkpoints, {} effects, {} instructions)",
                    rec.checkpoints.len(),
                    rec.total_effects,
                    rec.total_retired
                );
                write_sink(out, rec.to_text(), &what);
            }
        }
        None => repl(&mut t, lint),
    }
    // Each sink takes its own snapshot, so a run that asked for none pays
    // for none.
    if profile {
        eprint!("{}", t.profile().render_report());
    } else if sample.is_some() {
        // --sample=N without --profile prints just its own report section.
        eprint!("{}", t.profile().render_samples());
    }
    if let Some((path, (_, render, what))) = trace_out {
        write_sink(path, render(&t.profile()), what);
    }
    if let Some(pass) = flags.value("--remarks") {
        let pass = (!pass.is_empty()).then_some(pass);
        eprint!("{}", t.profile().render_remarks(pass));
    }
    // Every sink is written; the OS reclaims the session faster than its drop.
    std::mem::forget(t);
}

/// Writes one output file and says so on stderr; a failed write ends the
/// process with status 1.
fn write_sink(path: &str, contents: String, what: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("terra: wrote {what} to {path}"),
        Err(e) => die(&format!("cannot write {path}: {e}")),
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
    let recorded = load_recording(rec_path).unwrap_or_else(|e| die(&e));
    let live = record_run(&recorded.meta).unwrap_or_else(|e| die(&format!("--replay: {e}")));
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
