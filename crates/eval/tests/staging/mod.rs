//! Running one source at `-O0` and at `-O2`: the staging tests and the
//! Terra Core properties both require the two levels to agree.

// Each test binary compiles its own copy of this module and uses a
// different subset of it.
#![allow(dead_code)]

use terra_eval::{Interp, LuaError, LuaValue};
use terra_ir::OptLevel;

/// Every source runs at both levels, and both must agree.
pub const LEVELS: [OptLevel; 2] = [OptLevel::O0, OptLevel::O2];

pub fn interp_at(level: OptLevel) -> Interp {
    let mut t = Interp::new();
    t.opt = level;
    t
}

/// The first result of running `src` in session `t`, a number.
pub fn exec_num(t: &mut Interp, src: &str) -> f64 {
    let out = t.exec(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    match out.first() {
        Some(LuaValue::Number(n)) => *n,
        other => panic!("{src}: expected number, got {other:?}"),
    }
}

pub fn eval_num(src: &str) -> f64 {
    let [o0, o2] = LEVELS.map(|level| exec_num(&mut interp_at(level), src));
    assert_eq!(o0, o2, "{src}: -O0 and -O2 disagree");
    o0
}

/// The error `src` fails with, the same at both levels.
pub fn eval_error(src: &str) -> LuaError {
    let [o0, o2] = LEVELS.map(|level| match interp_at(level).exec(src) {
        Ok(_) => panic!("expected error for {src}"),
        Err(e) => e,
    });
    assert_eq!(
        o0.to_string(),
        o2.to_string(),
        "{src}: -O0 and -O2 disagree"
    );
    o0
}

pub fn eval_err(src: &str) -> String {
    eval_error(src).to_string()
}
