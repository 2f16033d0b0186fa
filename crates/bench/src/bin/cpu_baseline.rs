//! Section VII-C's baseline comparison: the GPU-less "9q" cluster sustains
//! 255 Gflops (single precision, SSE) on 16 nodes / 128 Nehalem cores; the
//! same node count with 32 GTX 285s sustains over 3 Tflops — "over a
//! factor of 10 faster".

use quda_dirac::cpu_opt::CpuDslash;
use quda_fields::gauge_gen::weak_field;
use quda_gpusim::cluster::CpuClusterModel;
use quda_lattice::geometry::LatticeDims;
use quda_lattice::partition::DecompPlan;
use quda_multigpu::perf::{evaluate, PerfInput};
use quda_multigpu::rank_op::CommStrategy;
use quda_multigpu::PrecisionMode;

fn main() {
    let cpu = CpuClusterModel::jlab_9q(16);
    let cpu_gflops = cpu.sustained_gflops_sp();
    let global = LatticeDims::spatial_cube(32, 256);
    let plan = DecompPlan::new(global, [1, 1, 1, 32]);
    let gpu = evaluate(&PerfInput::paper(plan, PrecisionMode::SingleHalf, CommStrategy::Overlap));
    println!(
        "CPU baseline (9q): {} nodes, {} cores -> {:.0} Gflops (single, SSE)",
        cpu.nodes,
        cpu.cores(),
        cpu_gflops
    );
    println!(
        "GPU cluster (9g):  16 nodes, 32x GTX 285 -> {:.0} Gflops (mixed single-half, 32^3x256)",
        gpu.sustained_gflops
    );
    println!(
        "speedup: {:.1}x (paper: 'over a factor of 10 faster', 255 Gflops vs >3 Tflops)",
        gpu.sustained_gflops / cpu_gflops
    );
    assert!(gpu.sustained_gflops / cpu_gflops > 10.0);

    // Grounding the model: measure *this machine's* sustained effective
    // Gflops with the optimized flat-array CPU dslash (the paper's SSE
    // analog) on an 8^3x16 working set.
    let dims = LatticeDims::new(8, 8, 8, 16);
    let cfg = weak_field(dims, 0.1, 1);
    let op = CpuDslash::new(&cfg);
    let measured = op.measure_gflops(10);
    println!(
        "\nthis machine, optimized CPU dslash ({dims}): {measured:.2} sustained effective Gflops"
    );
    println!("(paper's 2010 Nehalem + hand SSE: ~2 Gflops/core; the model uses that figure)");
}
