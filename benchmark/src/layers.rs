//! The traced run of one workload: the same program the CLI runs, driven
//! in-process through the layers' public functions with a span around each
//! call, followed by one profiled invocation for the counts.

use crate::spans::SpanLog;
use crate::workloads::{Config, Generated};
use std::collections::BTreeMap;
use terra_core::{Profile, SpanEvent, Stage, Terra, TerraFn};
use terra_eval::Context;
use terra_ir::{EnvEntry, FuncId, FuncTy, GlobalId, InlineEnv, IrFunction, ModuleEnv, Ty};

/// Metric name to (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The mid-end passes and the metric each one's summed time is reported as.
const PASS_METRICS: [(&str, &str); 8] = [
    ("inline", "ir.passes.inline_s"),
    ("fold", "ir.passes.fold_s"),
    ("simplify", "ir.passes.simplify_s"),
    ("cse", "ir.passes.cse_s"),
    ("copyprop", "ir.passes.copyprop_s"),
    ("licm", "ir.passes.licm_s"),
    ("dce", "ir.passes.dce_s"),
    ("checkelim", "ir.passes.checkelim_s"),
];

/// The evaluator's view of the module, for calling the `ir` layer directly:
/// the same answers `terra_eval` gives its own pipeline (its adapter is
/// private).
struct Env<'a> {
    ctx: &'a Context,
}

impl InlineEnv for Env<'_> {
    fn callee_ir(&self, id: FuncId) -> Option<IrFunction> {
        self.ctx.funcs.get(id.0 as usize)?.ir.clone()
    }
}

impl ModuleEnv for Env<'_> {
    fn function_sig(&self, id: FuncId) -> EnvEntry<FuncTy> {
        match self.ctx.funcs.get(id.0 as usize) {
            Some(meta) => match &meta.sig {
                Some(sig) => EnvEntry::Known(sig.clone()),
                None => EnvEntry::Opaque,
            },
            None => EnvEntry::Invalid,
        }
    }

    fn global_ty(&self, id: GlobalId) -> EnvEntry<Ty> {
        match self.ctx.globals.get(id.0 as usize) {
            Some(g) => EnvEntry::Known(g.ty.clone()),
            None => EnvEntry::Invalid,
        }
    }
}

/// Attaches the program's own stage spans `events`, translating tracer
/// microseconds to log nanoseconds with `offset_ns`: beneath span `compile`
/// if they began after it did, beneath span `exec` otherwise.
fn attach_stage_spans(
    log: &mut SpanLog,
    exec: usize,
    compile: usize,
    events: &[SpanEvent],
    offset_ns: i64,
) {
    let compile_start = log.spans()[compile].start_ns;
    for e in events {
        let start = (e.start_us as i64 * 1000 + offset_ns).max(0) as u64;
        let parent = if start >= compile_start {
            compile
        } else {
            exec
        };
        let name = match e.stage {
            // "func:pass" becomes "optimize.pass" so spans group by pass.
            Stage::Optimize => {
                format!("stage.optimize.{}", e.name.rsplit(':').next().unwrap_or(""))
            }
            stage => format!("stage.{}", stage.label()),
        };
        log.attach(parent, &name, start, start + e.dur_us * 1000);
    }
}

/// One pass of the program through the pipeline, as the CLI drives it: lex
/// and parse (timed apart, for the `syntax` layer), a fresh session, the
/// staging chunk, the first call of `main`, and one invocation.
struct Pass {
    log: SpanLog,
    t: Terra,
    main: TerraFn,
    /// Everything the session's tracer recorded while staging and compiling.
    staging: Profile,
    m: Metrics,
    invoke_s: f64,
    /// Session creation, staging, compilation and invocation together.
    total_s: f64,
}

fn pass(
    workload: &str,
    gen: &Generated,
    config: Config,
    script_path: &str,
) -> Result<Pass, String> {
    let mut log = SpanLog::new(workload);
    let mut m = Metrics::new();
    let script = gen.script();

    // -- syntax ---------------------------------------------------------
    let (tokens, lex_s) = log.time("syntax.lex", |_| terra_syntax::lex(&script));
    let tokens = tokens.map_err(|e| format!("lex: {e}"))?.len();
    let (ast, parse_s) = log.time("syntax.parse", |_| terra_syntax::parse(&script));
    ast.map_err(|e| format!("parse: {e}"))?;
    m.insert("syntax.tokens", (tokens as f64, "count"));
    m.insert(
        "syntax.lex_ns_per_token",
        (lex_s * 1e9 / tokens as f64, "ns"),
    );
    m.insert("syntax.parse_s", (parse_s, "s"));

    // -- eval: session, staging ------------------------------------------
    let (mut t, session_new_s) = log.time("eval.session_new", |_| Terra::new());
    t.capture_output();
    config.apply(&mut t, script_path);
    // Stage spans are only recorded while profiling; staging itself runs
    // (almost) no VM code, so the gate costs it nothing. It is switched
    // off again before the timed invocation.
    t.set_profile(true);
    let offset_ns = log.now_ns() as i64 - t.interp().ctx.exec.trace.now_us() as i64 * 1000;

    let exec_id = log.next_id();
    let (staged, exec_s) = log.time("eval.exec", |_| t.exec(&gen.defs));
    staged.map_err(|e| format!("exec: {e}"))?;

    // -- core: first call of `main` compiles its connected component ------
    let compile_id = log.next_id();
    let (main, compile_s) = log.time("core.compile", |_| t.function("main"));
    let main = main.map_err(|e| format!("compile: {e}"))?;
    let staging = t.profile();
    attach_stage_spans(&mut log, exec_id, compile_id, &staging.events, offset_ns);
    let self_times = log.self_times();
    m.insert("eval.session_new_s", (session_new_s, "s"));
    m.insert("eval.exec_s", (exec_s, "s"));
    m.insert("eval.lua_self_s", (self_times[exec_id] as f64 / 1e9, "s"));
    m.insert(
        "eval.specialize_s",
        (log.covered_s("stage.specialize"), "s"),
    );
    m.insert("eval.typecheck_s", (log.covered_s("stage.typecheck"), "s"));
    m.insert("core.compile_s", (compile_s, "s"));
    m.insert(
        "core.compile_self_s",
        (self_times[compile_id] as f64 / 1e9, "s"),
    );

    // -- vm.machine: the timed invocation, telemetry as the workload says --
    t.set_profile(config.observed);
    t.take_output();
    let (ran, invoke_s) = log.time("vm.machine.invoke", |_| t.invoke(&main, &[]));
    ran.map_err(|e| format!("invoke: {e}"))?;
    let printed = t.take_output();
    if printed != gen.reference {
        return Err(format!(
            "in-process output {printed:?} differs from the reference {:?}",
            gen.reference
        ));
    }
    // The recorder keeps every effect in memory; drop it before counting.
    t.take_recording();
    Ok(Pass {
        log,
        t,
        main,
        staging,
        m,
        invoke_s,
        total_s: session_new_s + exec_s + compile_s + invoke_s,
    })
}

/// Passes through the pipeline per traced run; the fastest is the one
/// reported, because this host slows down by a quarter for seconds at a time
/// and a disturbed pass says nothing about the layers.
const PASSES: usize = 3;

/// Runs `gen` through every layer under `config` and returns the spans with
/// the workload-scoped per-layer metrics. `untraced_wall_s` is the CLI's
/// wall time on the same script, for `bench.trace_overhead_share`.
pub fn trace_workload(
    workload: &str,
    gen: &Generated,
    config: Config,
    script_path: &str,
    untraced_wall_s: f64,
) -> Result<(SpanLog, Metrics), String> {
    let mut best: Option<Pass> = None;
    for _ in 0..PASSES {
        let next = pass(workload, gen, config, script_path)?;
        if best.as_ref().is_none_or(|b| next.total_s < b.total_s) {
            best = Some(next);
        }
    }
    let Pass {
        mut log,
        mut t,
        main,
        staging,
        mut m,
        invoke_s,
        total_s,
    } = best.expect("at least one pass");

    // -- counts: one extra profiled invocation ----------------------------
    t.set_sample_interval(0);
    t.set_profile(true);
    t.reset_profile();
    let (counted, _) = log.time("vm.machine.counted_invoke", |_| t.invoke(&main, &[]));
    counted.map_err(|e| format!("counted invoke: {e}"))?;
    t.take_output();
    let mut p = t.profile();
    t.set_profile(false);
    let accesses = (p.mem.total_loads() + p.mem.total_stores()) as f64;
    // A checked access retires a "chk" micro-op beside the access itself.
    let checks = p.op_count("chk") as f64;
    let retired = p.total_instructions() as f64 - checks;
    let calls: u64 = p.funcs.iter().map(|f| f.counters.calls).sum();
    m.insert("vm.machine.instrs_retired", (retired, "count"));
    m.insert("vm.machine.ns_per_instr", (invoke_s * 1e9 / retired, "ns"));
    m.insert("vm.machine.mflops", (gen.flops / invoke_s / 1e6, "Mflop/s"));
    m.insert(
        "vm.machine.ns_per_call",
        (invoke_s * 1e9 / calls.max(1) as f64, "ns"),
    );
    m.insert("vm.memory.loads", (p.mem.total_loads() as f64, "count"));
    m.insert("vm.memory.stores", (p.mem.total_stores() as f64, "count"));
    m.insert(
        "vm.memory.checked_share",
        (checks / accesses.max(1.0), "ratio"),
    );
    m.insert("vm.cache.l1_miss_rate", (p.cache.l1.miss_rate(), "ratio"));
    m.insert("vm.cache.l2_miss_rate", (p.cache.l2.miss_rate(), "ratio"));

    // -- trace: rendering what `terra --profile file.t` would hold at exit,
    // the staging timeline plus the run's counters -----------------------
    p.events.splice(0..0, staging.events);
    type Render = fn(&Profile) -> String;
    let renderers: [(&str, &str, Render); 3] = [
        (
            "trace.render_report",
            "trace.render_report_s",
            Profile::render_report,
        ),
        (
            "trace.chrome_json",
            "trace.chrome_json_s",
            Profile::to_chrome_json,
        ),
        ("trace.jsonl", "trace.jsonl_s", Profile::to_jsonl),
    ];
    for (name, metric, render) in renderers {
        let (text, s) = log.time(name, |_| render(&p));
        std::hint::black_box(text);
        m.insert(metric, (s, "s"));
    }

    // -- ir and vm.compile: each function's unoptimized IR, replayed through
    // the layers' public entry points one call at a time ------------------
    let mut ir = IrTotals::default();
    let ids: Vec<usize> = (0..t.interp().ctx.funcs.len())
        .filter(|i| t.interp().ctx.funcs[*i].ir.is_some())
        .collect();
    m.insert(
        "eval.funcs_defined",
        (t.interp().ctx.funcs.len() as f64, "count"),
    );
    let opt = t.opt_level();
    for i in ids {
        let interp = t.interp();
        let elide = interp.elide_checks;
        let optimized = {
            let ctx = &interp.ctx;
            let env = Env { ctx };
            let meta = &ctx.funcs[i];
            let func = meta.ir.clone().expect("filtered on ir");
            ir.nodes_before += terra_ir::passes::util::count_nodes(&func);
            let mut unit = vec![(FuncId(i as u32), func.clone())];
            for dep in &meta.deps {
                if dep.0 as usize != i {
                    if let Some(dir) = ctx.funcs[dep.0 as usize].ir.clone() {
                        unit.push((*dep, dir));
                    }
                }
            }
            let (sums, _) = log.time("ir.analysis.summarize", |_| {
                terra_ir::summarize(&unit, Some(&ctx.types), &env)
            });
            let (verdict, _) = log.time("ir.analysis.verify", |_| {
                terra_ir::verify_function(&func, Some(&ctx.types), &env)
            });
            verdict.map_err(|d| format!("verify: {d}"))?;
            let cfg = terra_ir::PassConfig {
                level: opt,
                types: Some(&ctx.types),
                env: &env,
                inline: &env,
                summaries: Some(&sums),
                elide_checks: elide,
            };
            let mut optimized = func;
            let (stats, _) = log.time("ir.passes.optimize", |_| {
                terra_ir::optimize(&mut optimized, &cfg)
            });
            for run in &stats.runs {
                *ir.pass_us.entry(run.pass).or_insert(0) += run.dur_us;
            }
            for r in &stats.remarks {
                match r.kind {
                    terra_ir::RemarkKind::Applied => ir.applied += 1,
                    terra_ir::RemarkKind::Missed => ir.missed += 1,
                }
            }
            ir.nodes_after += terra_ir::passes::util::count_nodes(&optimized);
            optimized
        };
        let ctx = &mut interp.ctx;
        let globals = ctx.global_addrs();
        let (code, _) = log.time("vm.compile", |_| {
            terra_vm::compile(&optimized, &ctx.types, &mut ctx.exec, &globals)
        });
        ir.bytecode += code.code.len();
        for (pc, instr) in code.code.iter().enumerate() {
            if instr.is_mem_access() {
                ir.accesses += 1;
                ir.elided += usize::from(code.check_free(pc));
            }
        }
    }
    m.insert(
        "ir.analysis.verify_s",
        (log.total_s("ir.analysis.verify"), "s"),
    );
    m.insert(
        "ir.analysis.summarize_s",
        (log.total_s("ir.analysis.summarize"), "s"),
    );
    m.insert(
        "ir.passes.optimize_s",
        (log.total_s("ir.passes.optimize"), "s"),
    );
    for (pass, metric) in PASS_METRICS {
        let us = ir.pass_us.get(pass).copied().unwrap_or(0);
        m.insert(metric, (us as f64 / 1e6, "s"));
    }
    m.insert("ir.nodes_before", (ir.nodes_before as f64, "count"));
    m.insert("ir.nodes_after", (ir.nodes_after as f64, "count"));
    m.insert("ir.remarks_applied", (ir.applied as f64, "count"));
    m.insert("ir.remarks_missed", (ir.missed as f64, "count"));
    m.insert(
        "ir.checkelim.elided_share",
        (ir.elided as f64 / ir.accesses.max(1) as f64, "ratio"),
    );
    m.insert("vm.compile_s", (log.total_s("vm.compile"), "s"));
    m.insert("vm.compile.bytecode_instrs", (ir.bytecode as f64, "count"));

    // -- core and the driver itself ----------------------------------------
    m.insert("core.execute_share", (invoke_s / total_s, "ratio"));
    m.insert(
        "bench.trace_overhead_share",
        ((total_s - untraced_wall_s) / untraced_wall_s, "ratio"),
    );
    Ok((log, m))
}

#[derive(Default)]
struct IrTotals {
    nodes_before: usize,
    nodes_after: usize,
    applied: usize,
    missed: usize,
    pass_us: BTreeMap<&'static str, u64>,
    bytecode: usize,
    accesses: usize,
    elided: usize,
}
