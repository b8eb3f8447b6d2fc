//! # terra-layout
//!
//! The data-layout experiment of §6.3.2 (Figure 9): a `DataTable` type
//! constructor — written in the staged language using type reflection —
//! that stores records as either **array-of-structs** or
//! **struct-of-arrays** behind one interface, plus the two mesh
//! micro-benchmarks the paper measures:
//!
//! 1. *Calculate vertex normals*: sparse gathers of vertex positions per
//!    triangle (AoS wins — a vertex's fields share a cache line);
//! 2. *Translate positions*: streaming updates of positions only (SoA wins
//!    — the normals stop wasting bandwidth).
//!
//! Deviation noted in DESIGN.md: the paper's `fd:row(i)` returns a row
//! object by value; this backend does not pass aggregates by value, so the
//! container exposes `get_<field>`/`set_<field>` accessors instead — the
//! interface is still layout-independent, which is the point.
//!
//! `DataTable` and the kernels ship with `terra-core` as `lib/datatable` and
//! `lib/mesh` (`examples/data_layout.t` runs them from a script); this crate
//! builds host meshes, uploads them and times the kernels.

#![warn(missing_docs)]

use std::time::Instant;
use terra_core::{LuaError, Terra, TerraFn, Value};

/// Record storage layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// All fields of a record contiguous.
    Aos,
    /// Each field stored in its own contiguous array.
    Soa,
}

impl Layout {
    /// The string the Lua-level constructor expects.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Aos => "AoS",
            Layout::Soa => "SoA",
        }
    }
}

/// A host-side triangle mesh used to drive the benchmarks.
#[derive(Debug, Clone)]
pub struct HostMesh {
    /// xyz positions, length `3 * n_verts`.
    pub positions: Vec<f32>,
    /// Vertex indices, 3 per triangle.
    pub indices: Vec<i32>,
}

impl HostMesh {
    /// A `side`×`side` grid mesh with a deterministic height field. When
    /// `shuffle` is set, triangles are visited in pseudo-random order so
    /// vertex gathers are sparse, as in the paper's normals benchmark.
    pub fn grid(side: usize, shuffle: bool) -> HostMesh {
        let n = side * side;
        let mut positions = Vec::with_capacity(3 * n);
        for y in 0..side {
            for x in 0..side {
                positions.push(x as f32);
                positions.push(y as f32);
                positions.push((((x * 31 + y * 17) % 13) as f32) * 0.1);
            }
        }
        let mut tri_list: Vec<[i32; 3]> = Vec::new();
        for y in 0..side - 1 {
            for x in 0..side - 1 {
                let a = (y * side + x) as i32;
                let b = a + 1;
                let c = a + side as i32;
                let d = c + 1;
                tri_list.push([a, b, c]);
                tri_list.push([b, d, c]);
            }
        }
        if shuffle {
            // Deterministic Fisher-Yates over an xorshift stream.
            let mut state = 0x2545F491u64;
            for i in (1..tri_list.len()).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let j = (state % (i as u64 + 1)) as usize;
                tri_list.swap(i, j);
            }
        }
        let indices = tri_list.into_iter().flatten().collect();
        HostMesh { positions, indices }
    }

    /// Vertex count.
    pub fn n_verts(&self) -> usize {
        self.positions.len() / 3
    }

    /// Triangle count.
    pub fn n_tris(&self) -> usize {
        self.indices.len() / 3
    }

    /// Host reference for the normals kernel.
    pub fn reference_normals(&self) -> Vec<f32> {
        let n = self.n_verts();
        let mut acc = vec![0.0f32; 3 * n];
        for t in self.indices.chunks_exact(3) {
            let (i0, i1, i2) = (t[0] as usize, t[1] as usize, t[2] as usize);
            let p = |i: usize| {
                (
                    self.positions[3 * i],
                    self.positions[3 * i + 1],
                    self.positions[3 * i + 2],
                )
            };
            let (x0, y0, z0) = p(i0);
            let (x1, y1, z1) = p(i1);
            let (x2, y2, z2) = p(i2);
            let (ax, ay, az) = (x1 - x0, y1 - y0, z1 - z0);
            let (bx, by, bz) = (x2 - x0, y2 - y0, z2 - z0);
            let fx = ay * bz - az * by;
            let fy = az * bx - ax * bz;
            let fz = ax * by - ay * bx;
            for i in [i0, i1, i2] {
                acc[3 * i] += fx;
                acc[3 * i + 1] += fy;
                acc[3 * i + 2] += fz;
            }
        }
        for i in 0..n {
            let (x, y, z) = (acc[3 * i], acc[3 * i + 1], acc[3 * i + 2]);
            let len = (x * x + y * y + z * z).sqrt();
            if len > 0.0 {
                acc[3 * i] /= len;
                acc[3 * i + 1] /= len;
                acc[3 * i + 2] /= len;
            }
        }
        acc
    }
}

/// A staged mesh-processing kit for one layout: the vertex container plus
/// compiled kernels, with the mesh uploaded.
pub struct MeshKit {
    terra: Terra,
    translate: TerraFn,
    normals: TerraFn,
    readnormals: TerraFn,
    readpositions: TerraFn,
    /// Address of the vertex container (`&V`).
    pub verts: u64,
    /// Address of the triangle index buffer.
    pub tris: u64,
    /// Scratch buffer for host readback (3·n floats).
    io: u64,
    /// Vertex count.
    pub n_verts: usize,
    /// Triangle count.
    pub n_tris: usize,
    /// The layout this kit was staged for.
    pub layout: Layout,
}

impl MeshKit {
    /// Stages `DataTable` + kernels for `layout` and uploads `mesh`.
    ///
    /// # Errors
    ///
    /// Propagates staging errors from the libraries.
    pub fn new(mesh: &HostMesh, layout: Layout) -> Result<MeshKit, LuaError> {
        let mut terra = Terra::new();
        terra.exec(&format!(
            "terralib.require(\"lib/mesh\")\n\
             local kit = genmesh(\"{}\")\n\
             __mk, __translate, __normals = kit.mk, kit.translate, kit.normals\n\
             __upload, __readnormals, __readpositions = kit.upload, kit.readnormals, kit.readpositions",
            layout.name()
        ))?;
        let n_verts = mesh.n_verts();
        let n_tris = mesh.n_tris();
        let verts = terra.call_f64("__mk", &[n_verts as f64])? as u64;
        let translate = terra.function("__translate")?;
        let normals = terra.function("__normals")?;
        let upload = terra.function("__upload")?;
        let readnormals = terra.function("__readnormals")?;
        let readpositions = terra.function("__readpositions")?;
        // Index + IO buffers.
        let tris = terra.malloc((mesh.indices.len() * 4) as u64);
        {
            let mem = &mut terra.interp().ctx.exec.memory;
            for (i, ix) in mesh.indices.iter().enumerate() {
                mem.store_i32(tris + 4 * i as u64, *ix)
                    .expect("index buffer allocated");
            }
        }
        let io = terra.malloc((3 * n_verts * 4) as u64);
        terra.write_f32s(io, &mesh.positions);
        terra
            .invoke(&upload, &[Value::Ptr(verts), Value::Ptr(io)])
            .expect("upload kernel trapped");
        Ok(MeshKit {
            terra,
            translate,
            normals,
            readnormals,
            readpositions,
            verts,
            tris,
            io,
            n_verts,
            n_tris,
            layout,
        })
    }

    /// Runs the translate kernel once.
    pub fn run_translate(&mut self, dx: f32, dy: f32, dz: f32) {
        let f = self.translate.clone();
        self.terra
            .invoke(
                &f,
                &[
                    Value::Ptr(self.verts),
                    Value::Float(dx as f64),
                    Value::Float(dy as f64),
                    Value::Float(dz as f64),
                ],
            )
            .expect("translate kernel trapped");
    }

    /// Runs the normals kernel once.
    pub fn run_normals(&mut self) {
        let f = self.normals.clone();
        self.terra
            .invoke(
                &f,
                &[
                    Value::Ptr(self.verts),
                    Value::Ptr(self.tris),
                    Value::Int(self.n_tris as i64),
                ],
            )
            .expect("normals kernel trapped");
    }

    /// Reads back the vertex normals (xyz interleaved).
    pub fn normals_vec(&mut self) -> Vec<f32> {
        let f = self.readnormals.clone();
        self.terra
            .invoke(&f, &[Value::Ptr(self.verts), Value::Ptr(self.io)])
            .expect("readback trapped");
        self.terra.read_f32s(self.io, 3 * self.n_verts)
    }

    /// Reads back the vertex positions (xyz interleaved).
    pub fn positions_vec(&mut self) -> Vec<f32> {
        let f = self.readpositions.clone();
        self.terra
            .invoke(&f, &[Value::Ptr(self.verts), Value::Ptr(self.io)])
            .expect("readback trapped");
        self.terra.read_f32s(self.io, 3 * self.n_verts)
    }

    /// Times the translate kernel, returning effective GB/s over the bytes
    /// the kernel logically moves (Figure 9's metric).
    pub fn measure_translate(&mut self, reps: usize) -> f64 {
        self.run_translate(0.0, 0.0, 0.0); // warm
        let start = Instant::now();
        for _ in 0..reps {
            self.run_translate(0.1, 0.0, 0.0);
        }
        let dt = start.elapsed().as_secs_f64() / reps as f64;
        let bytes = (self.n_verts * 6 * 4) as f64; // 3 floats read + 3 written
        bytes / dt / 1e9
    }

    /// Times the normals kernel, returning effective GB/s.
    pub fn measure_normals(&mut self, reps: usize) -> f64 {
        self.run_normals(); // warm
        let start = Instant::now();
        for _ in 0..reps {
            self.run_normals();
        }
        let dt = start.elapsed().as_secs_f64() / reps as f64;
        // init pass + per-triangle gathers (9 reads) and scatters
        // (9 read-modify-writes) + normalize pass.
        let bytes = (self.n_verts * 6 * 4 + self.n_tris * 27 * 4) as f64;
        bytes / dt / 1e9
    }

    /// Underlying session.
    pub fn terra(&mut self) -> &mut Terra {
        &mut self.terra
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f32], b: &[f32], tol: f32, what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "{what}: index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn upload_roundtrip_both_layouts() {
        let mesh = HostMesh::grid(8, false);
        for layout in [Layout::Aos, Layout::Soa] {
            let mut kit = MeshKit::new(&mesh, layout).unwrap();
            close(
                &kit.positions_vec(),
                &mesh.positions,
                0.0,
                &format!("{layout:?} upload"),
            );
        }
    }

    #[test]
    fn translate_matches_host_both_layouts() {
        let mesh = HostMesh::grid(8, false);
        let expect: Vec<f32> = mesh
            .positions
            .iter()
            .enumerate()
            .map(|(i, v)| match i % 3 {
                0 => v + 1.5,
                1 => v - 0.5,
                _ => v + 0.25,
            })
            .collect();
        for layout in [Layout::Aos, Layout::Soa] {
            let mut kit = MeshKit::new(&mesh, layout).unwrap();
            kit.run_translate(1.5, -0.5, 0.25);
            close(
                &kit.positions_vec(),
                &expect,
                1e-5,
                &format!("{layout:?} translate"),
            );
        }
    }

    #[test]
    fn normals_match_host_both_layouts() {
        let mesh = HostMesh::grid(8, true);
        let expect = mesh.reference_normals();
        for layout in [Layout::Aos, Layout::Soa] {
            let mut kit = MeshKit::new(&mesh, layout).unwrap();
            kit.run_normals();
            close(
                &kit.normals_vec(),
                &expect,
                2e-4,
                &format!("{layout:?} normals"),
            );
        }
    }

    #[test]
    fn layouts_have_different_storage_but_same_interface() {
        // Same script, one string changed — the paper's claim.
        let mesh = HostMesh::grid(4, false);
        let mut a = MeshKit::new(&mesh, Layout::Aos).unwrap();
        let mut b = MeshKit::new(&mesh, Layout::Soa).unwrap();
        a.run_normals();
        b.run_normals();
        close(&a.normals_vec(), &b.normals_vec(), 1e-6, "cross-layout");
    }

    #[test]
    fn grid_mesh_shapes() {
        let m = HostMesh::grid(5, false);
        assert_eq!(m.n_verts(), 25);
        assert_eq!(m.n_tris(), 32);
        let shuffled = HostMesh::grid(5, true);
        assert_eq!(shuffled.n_tris(), 32);
        assert_ne!(m.indices, shuffled.indices);
        let sorted_a = m.indices.clone();
        let sorted_b = shuffled.indices.clone();
        // Same triangles as sets of 3.
        let tri = |v: &Vec<i32>| {
            let mut t: Vec<[i32; 3]> = v.chunks_exact(3).map(|c| [c[0], c[1], c[2]]).collect();
            t.sort();
            t
        };
        assert_eq!(tri(&mut sorted_a.to_vec()), tri(&mut sorted_b.to_vec()));
    }
}
