//! A host-side reference for Orion pipelines that shares nothing with
//! `orion.lua`: a minimal expression type that prints itself as a stage's
//! Lua source and evaluates itself on the host. The boundary condition
//! applies at the source images only, so every schedule must agree with it.

#![allow(dead_code)]

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};
use std::rc::Rc;

/// An image expression: source image `k` or stage `j` translated by
/// `(dx, dy)`, a constant, or a binary operation named by its Lua operator
/// (`+ - * /`) or method (`min`, `max`).
#[derive(Debug, Clone)]
pub enum E {
    In(usize, i32, i32),
    St(usize, i32, i32),
    K(f64),
    Bin(&'static str, Rc<E>, Rc<E>),
}

/// Source image `k`.
pub fn input(k: usize) -> E {
    E::In(k, 0, 0)
}

/// Stage `j`.
pub fn stage_ref(j: usize) -> E {
    E::St(j, 0, 0)
}

impl E {
    /// `self` translated by `(dx, dy)`.
    pub fn at(&self, dx: i32, dy: i32) -> E {
        match self {
            E::In(k, x, y) => E::In(*k, x + dx, y + dy),
            E::St(j, x, y) => E::St(*j, x + dx, y + dy),
            E::K(v) => E::K(*v),
            E::Bin(op, a, b) => E::Bin(op, Rc::new(a.at(dx, dy)), Rc::new(b.at(dx, dy))),
        }
    }

    pub fn min(self, other: E) -> E {
        E::Bin("min", Rc::new(self), Rc::new(other))
    }

    pub fn max(self, other: E) -> E {
        E::Bin("max", Rc::new(self), Rc::new(other))
    }

    pub fn clamp(self, lo: f64, hi: f64) -> E {
        self.max(E::K(lo)).min(E::K(hi))
    }

    /// The value at `(x, y)` of a `w`×`h` image, reading earlier stages
    /// from `stages` and source images (zero outside) from `inputs`.
    fn eval(&self, stages: &[E], inputs: &[Vec<f32>], x: i32, y: i32, w: i32, h: i32) -> f32 {
        match self {
            E::In(k, dx, dy) => {
                let (x, y) = (x + dx, y + dy);
                if x < 0 || y < 0 || x >= w || y >= h {
                    0.0
                } else {
                    inputs[*k][(y * w + x) as usize]
                }
            }
            E::St(j, dx, dy) => stages[*j].eval(stages, inputs, x + dx, y + dy, w, h),
            E::K(v) => *v as f32,
            E::Bin(op, a, b) => {
                let a = a.eval(stages, inputs, x, y, w, h);
                let b = b.eval(stages, inputs, x, y, w, h);
                match *op {
                    "+" => a + b,
                    "-" => a - b,
                    "*" => a * b,
                    "/" => a / b,
                    "min" => a.min(b),
                    _ => a.max(b),
                }
            }
        }
    }
}

/// The stage's Lua source, as `Pipeline::stage` takes it.
impl fmt::Display for E {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            E::In(k, dx, dy) => write!(f, "input({k})({dx}, {dy})"),
            E::St(j, dx, dy) => write!(f, "stage({j})({dx}, {dy})"),
            E::K(v) => write!(f, "({v:?})"),
            E::Bin(op @ ("min" | "max"), a, b) => write!(f, "({a}):{op}({b})"),
            E::Bin(op, a, b) => write!(f, "({a} {op} {b})"),
        }
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl $trait for E {
            type Output = E;
            fn $method(self, rhs: E) -> E {
                E::Bin($op, Rc::new(self), Rc::new(rhs))
            }
        }
        impl $trait<f64> for E {
            type Output = E;
            fn $method(self, rhs: f64) -> E {
                E::Bin($op, Rc::new(self), Rc::new(E::K(rhs)))
            }
        }
        impl $trait<E> for f64 {
            type Output = E;
            fn $method(self, rhs: E) -> E {
                E::Bin($op, Rc::new(E::K(self)), Rc::new(rhs))
            }
        }
    };
}

binop!(Add, add, "+");
binop!(Sub, sub, "-");
binop!(Mul, mul, "*");
binop!(Div, div, "/");

/// The output (the last stage) of the pipeline `stages` over `inputs`.
pub fn reference(stages: &[E], inputs: &[Vec<f32>], w: usize, h: usize) -> Vec<f32> {
    let out = stages.last().expect("a pipeline has stages");
    let mut buf = vec![0.0f32; w * h];
    for y in 0..h {
        for x in 0..w {
            buf[y * w + x] = out.eval(stages, inputs, x as i32, y as i32, w as i32, h as i32);
        }
    }
    buf
}

/// The §6.2 area filter: a 1-D average in y, then in x.
pub fn area_filter() -> Vec<E> {
    let f = input(0);
    let g = stage_ref(0);
    vec![
        (f.at(0, -2) + f.at(0, -1) + f.at(0, 0) + f.at(0, 1) + f.at(0, 2)) * (1.0 / 5.0),
        (g.at(-2, 0) + g.at(-1, 0) + g.at(0, 0) + g.at(1, 0) + g.at(2, 0)) * (1.0 / 5.0),
    ]
}

/// The §6.2 point-wise chain: blacklevel, brightness, clamp, invert.
pub fn pointwise(blacklevel: f64, brightness: f64) -> Vec<E> {
    vec![
        input(0) - blacklevel,
        stage_ref(0) * brightness,
        stage_ref(1).clamp(0.0, 1.0),
        1.0 - stage_ref(2),
    ]
}

/// Four chained vertical blurs: multi-stage halos.
pub fn chain4() -> Vec<E> {
    let mut stages = vec![(input(0).at(0, -1) + input(0).at(0, 1)) * 0.5];
    for j in 0..3 {
        stages.push((stage_ref(j).at(0, -1) + stage_ref(j).at(0, 1)) * 0.5);
    }
    stages
}
