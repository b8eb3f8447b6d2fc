//! The §6.3.2 DataTable: one mesh-processing program, two memory layouts —
//! change a string, keep the interface, move the performance.
//!
//! Run with: `cargo run --release -p terra-core --example data_layout`

use terra_layout::{HostMesh, Layout, MeshKit};

fn main() {
    let mesh = HostMesh::grid(256, true);
    println!(
        "mesh: {} vertices, {} triangles (shuffled access)",
        mesh.n_verts(),
        mesh.n_tris()
    );
    let expect = mesh.reference_normals();
    for layout in [Layout::Aos, Layout::Soa] {
        let mut kit = MeshKit::new(&mesh, layout).expect("stage mesh kit");
        kit.run_normals();
        let got = kit.normals_vec();
        for (i, (a, b)) in expect.iter().zip(&got).enumerate() {
            assert!((a - b).abs() < 2e-4, "{layout:?}: normal {i} mismatch");
        }
        let gn = kit.measure_normals(1);
        let gt = kit.measure_translate(3);
        println!(
            "{:>3}: gather-heavy normals {gn:.3} GB/s | streaming translate {gt:.3} GB/s",
            layout.name()
        );
    }
    println!("AoS should win the gather benchmark; SoA the streaming one.");
}
