//! The real-time fluid simulation of §6.2, ported from Stam's *Real-Time
//! Fluid Dynamics for Games* exactly as the paper did: the Gauss-Seidel
//! solver becomes Gauss-Jacobi (so images are not modified in place), the
//! boundary condition is zero, and the semi-Lagrangian advection step —
//! which is *not* a stencil — is supplied as a raw Terra function that
//! composes with the DSL-generated kernels (the interoperability point the
//! paper highlights). `orion.fluid` in `orion.lua` stages the kernels and
//! the time step that sequences them as Terra functions; this module
//! allocates the fields, passes them in and reads them back.
//!
//! The diffusion and pressure solves run Jacobi iterations **in fused
//! pairs**: each pipeline contains two chained Jacobi stages, so the
//! line-buffer schedule interleaves them — "line buffering pairs of the
//! iterations of the diffuse and project kernels" (§6.2).

use crate::{lua_num, stage_kernels, ImageBuf, Schedule};
use terra_core::{LuaError, Terra, TerraFn, Value};

/// A complete fluid simulation state for an `n`×`n` grid.
pub struct FluidSim {
    terra: Terra,
    n: usize,
    /// Velocity fields.
    pub u: ImageBuf,
    /// Velocity fields.
    pub v: ImageBuf,
    /// Density field.
    pub dens: ImageBuf,
    /// Two scratch fields, the pressure and the divergence.
    scratch: [ImageBuf; 4],
    /// The staged `step`, `diffuse` and `project`.
    entries: Vec<TerraFn>,
    /// Jacobi iterations per solve (must be even; run as fused pairs).
    pub solver_iters: usize,
}

impl FluidSim {
    /// Builds a simulation: stages the solver under `schedule`.
    ///
    /// # Errors
    ///
    /// Propagates staging errors, and the library's error for a vectorized
    /// schedule with `n` not a multiple of 8.
    pub fn new(n: usize, dt: f64, diff: f64, schedule: Schedule) -> Result<FluidSim, LuaError> {
        let mut terra = Terra::new();
        let chunk = format!(
            "local k = orion.fluid({n}, {}, {}, {})\n\
             return k.padding, k.step, k.diffuse, k.project",
            lua_num(dt),
            lua_num(diff),
            schedule.lua()
        );
        let (padding, entries) = stage_kernels(&mut terra, &chunk)?;
        let mut alloc = || ImageBuf::alloc_raw(&mut terra, n, n, padding);
        Ok(FluidSim {
            u: alloc(),
            v: alloc(),
            dens: alloc(),
            scratch: [alloc(), alloc(), alloc(), alloc()],
            terra,
            n,
            entries,
            solver_iters: 16,
        })
    }

    /// The grid size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reads a field's interior.
    pub fn read(&self, field: &ImageBuf) -> Vec<f32> {
        field.read(&self.terra)
    }

    /// Writes a field's interior.
    pub fn write(&mut self, field: ImageBuf, data: &[f32]) {
        field.write(&mut self.terra, data);
    }

    /// Calls staged entry `entry` on `fields` and the iteration count.
    fn run(&mut self, entry: usize, fields: &[ImageBuf]) {
        let mut args: Vec<Value> = fields.iter().map(|f| Value::Ptr(f.addr)).collect();
        args.push(Value::Int(self.solver_iters as i64));
        self.terra
            .invoke(&self.entries[entry], &args)
            .expect("fluid solver trapped");
    }

    /// One full Stam step: diffuse velocity, project, self-advect velocity,
    /// project, then diffuse + advect density.
    pub fn step(&mut self) {
        let [a, b, p, div] = self.scratch;
        self.run(0, &[self.u, self.v, self.dens, a, b, p, div]);
    }

    /// Only the diffusion solve on the density field (the `diffuse` kernel
    /// of Figure 7, which Figure 8 benchmarks).
    pub fn diffuse_only(&mut self) {
        let [a, b, ..] = self.scratch;
        self.run(1, &[self.dens, b, a]);
    }

    /// Total kinetic-ish energy, as a sanity diagnostic.
    pub fn energy(&self) -> f64 {
        let u = self.read(&self.u);
        let v = self.read(&self.v);
        u.iter()
            .zip(&v)
            .map(|(a, b)| (*a as f64) * (*a as f64) + (*b as f64) * (*b as f64))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Strategy;

    fn blob(n: usize) -> Vec<f32> {
        (0..n * n)
            .map(|i| {
                let (x, y) = ((i % n) as f64, (i / n) as f64);
                let c = n as f64 / 2.0;
                let d2 = (x - c) * (x - c) + (y - c) * (y - c);
                (-d2 / (n as f64)).exp() as f32
            })
            .collect()
    }

    fn swirl(n: usize) -> (Vec<f32>, Vec<f32>) {
        let mut u = vec![0.0f32; n * n];
        let mut v = vec![0.0f32; n * n];
        let c = n as f32 / 2.0;
        for y in 0..n {
            for x in 0..n {
                let dx = x as f32 - c;
                let dy = y as f32 - c;
                u[y * n + x] = -dy * 0.02;
                v[y * n + x] = dx * 0.02;
            }
        }
        (u, v)
    }

    fn total_mass(d: &[f32]) -> f64 {
        d.iter().map(|v| *v as f64).sum()
    }

    fn run_sim(schedule: Schedule, steps: usize) -> Vec<f32> {
        let n = 16;
        let mut sim = FluidSim::new(n, 0.05, 0.0002, schedule).unwrap();
        sim.solver_iters = 8;
        let d0 = blob(n);
        let (u0, v0) = swirl(n);
        let (dens, u, v) = (sim.dens, sim.u, sim.v);
        sim.write(dens, &d0);
        sim.write(u, &u0);
        sim.write(v, &v0);
        for _ in 0..steps {
            sim.step();
        }
        sim.read(&sim.dens)
    }

    #[test]
    fn simulation_runs_and_stays_finite() {
        let d = run_sim(Schedule::match_c(), 3);
        assert!(d.iter().all(|v| v.is_finite()));
        assert!(total_mass(&d) > 0.0);
    }

    #[test]
    fn schedules_agree_on_the_physics() {
        let reference = run_sim(Schedule::match_c(), 2);
        for strategy in [Strategy::Inline, Strategy::LineBuffer] {
            for vectorize in [false, true] {
                let got = run_sim(
                    Schedule {
                        strategy,
                        vectorize,
                    },
                    2,
                );
                for (i, (a, b)) in reference.iter().zip(&got).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-4,
                        "{strategy:?}/{vectorize}: cell {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn diffusion_spreads_and_conserves_roughly() {
        let n = 16;
        let mut sim = FluidSim::new(n, 0.05, 0.001, Schedule::match_c()).unwrap();
        sim.solver_iters = 8;
        let mut d0 = vec![0.0f32; n * n];
        d0[(n / 2) * n + n / 2] = 1.0;
        let dens = sim.dens;
        sim.write(dens, &d0);
        sim.diffuse_only();
        let d = sim.read(&sim.dens);
        let center = d[(n / 2) * n + n / 2];
        let neighbor = d[(n / 2) * n + n / 2 + 1];
        assert!(center < 1.0, "diffusion must lower the peak");
        assert!(neighbor > 0.0, "diffusion must spread to neighbors");
        // Zero-boundary Jacobi loses a little mass but not much for a
        // centered blob.
        let mass = total_mass(&d);
        assert!(mass > 0.5 && mass <= 1.01, "mass = {mass}");
    }

    #[test]
    fn projection_reduces_divergence() {
        let n = 16;
        let mut sim = FluidSim::new(n, 0.05, 0.0002, Schedule::match_c()).unwrap();
        sim.solver_iters = 64;
        // A strongly divergent field: radial outflow.
        let mut u = vec![0.0f32; n * n];
        let mut v = vec![0.0f32; n * n];
        let c = n as f32 / 2.0;
        for y in 0..n {
            for x in 0..n {
                u[y * n + x] = (x as f32 - c) * 0.1;
                v[y * n + x] = (y as f32 - c) * 0.1;
            }
        }
        let (bu, bv) = (sim.u, sim.v);
        sim.write(bu, &u);
        sim.write(bv, &v);
        // Measure away from the zero boundary, where Jacobi converges fast.
        let div_before = host_divergence(&u, &v, n);
        let [a, b, p, div] = sim.scratch;
        sim.run(2, &[sim.u, sim.v, p, div, a, b]);
        let u2 = sim.read(&sim.u);
        let v2 = sim.read(&sim.v);
        let div_after = host_divergence(&u2, &v2, n);
        assert!(
            div_after < div_before * 0.35,
            "projection: interior divergence {div_before} -> {div_after}"
        );
    }

    /// RMS divergence over the interior (boundary rows excluded — the zero
    /// boundary condition leaves irreducible divergence there).
    fn host_divergence(u: &[f32], v: &[f32], n: usize) -> f64 {
        let at = |b: &[f32], x: i32, y: i32| -> f32 {
            if x < 0 || y < 0 || x >= n as i32 || y >= n as i32 {
                0.0
            } else {
                b[y as usize * n + x as usize]
            }
        };
        let mut sum = 0.0;
        for y in 3..n as i32 - 3 {
            for x in 3..n as i32 - 3 {
                let d = (at(u, x + 1, y) - at(u, x - 1, y) + at(v, x, y + 1) - at(v, x, y - 1))
                    as f64
                    * 0.5;
                sum += d * d;
            }
        }
        sum.sqrt()
    }
}
