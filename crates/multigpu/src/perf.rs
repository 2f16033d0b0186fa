//! Analytic performance model of the parallel solver on the simulated "9g"
//! cluster — the engine behind the Fig. 4/5/6 reproductions and the
//! multi-dimensional grid choice.
//!
//! The model evaluates one run shape, a [`DecompPlan`] process grid, and
//! composes per solver iteration:
//!
//! * two even-odd operator applications, each = face exchange + hopping
//!   kernel + two clover kernels, assembled on a [`Timeline`] with a single
//!   GT200 copy engine (bidirectional PCI-E transfers arrive only with
//!   Fermi — Section VI-D2's footnote);
//! * the fused blas kernels of one BiCGstab iteration;
//! * the MPI allreduces behind every reduction (Section VI-E);
//! * for mixed modes, the amortized cost of reliable updates in the outer
//!   precision.
//!
//! Face transfers follow the paper's copy structure exactly: one
//! `cudaMemcpy` per face *block* on the gather (12/N_vec blocks, plus one
//! for the normalization array in half precision), a single message per
//! direction, and a single copy per received face on the scatter
//! (Section VI-D1). Under the overlapped strategy copies become
//! `cudaMemcpyAsync` with its much higher latency (Fig. 7) — which is the
//! entire mechanism behind the mixed-precision plateau of Fig. 5(b).
//!
//! Every cut dimension of the plan runs that same exchange with its own
//! face area: "only 12 numbers need be transferred" in all directions
//! (footnote 3). The paper's `[1, 1, 1, N]` slicing runs out at `T/2`
//! GPUs and keeps a constant face while the local volume shrinks; Section
//! VI-A's multi-dimensional grids ([`best_grid`]) trade more messages for
//! a smaller surface.

use crate::driver::PrecisionMode;
use crate::rank_op::CommStrategy;
use quda_fields::precision::PrecisionTag;
use quda_gpusim::calib::Calibration;
use quda_gpusim::cards::GpuSpec;
use quda_gpusim::kernel::{kernel_time, KernelWork};
use quda_gpusim::memory::DeviceMemory;
use quda_gpusim::stream::{EventId, Timeline};
use quda_gpusim::transfer::{
    allreduce_time, network_time, pcie_time, CopyKind, Direction, NumaPlacement,
};
use quda_lattice::geometry::{LatticeDims, DIR_T};
use quda_lattice::layout::{species, NVec};
use quda_lattice::partition::DecompPlan;

/// Sloppy iterations per reliable update (mixed modes).
const RELIABLE_INTERVAL: f64 = 25.0;

/// Inputs of one performance evaluation.
#[derive(Copy, Clone, Debug)]
pub struct PerfInput {
    /// The global lattice and its process grid (one GPU per rank).
    pub plan: DecompPlan,
    /// Solver precision mode.
    pub mode: PrecisionMode,
    /// Face-exchange strategy.
    pub strategy: CommStrategy,
    /// Process-to-socket binding.
    pub numa: NumaPlacement,
    /// The card model.
    pub gpu: GpuSpec,
    /// Model constants.
    pub calib: Calibration,
}

impl PerfInput {
    /// The paper's testbed defaults for a given run shape.
    pub fn paper(plan: DecompPlan, mode: PrecisionMode, strategy: CommStrategy) -> Self {
        PerfInput {
            plan,
            mode,
            strategy,
            numa: NumaPlacement::Good,
            gpu: quda_gpusim::cards::gtx285(),
            calib: Calibration::default(),
        }
    }

    /// Half the local volume: the sites one parity kernel covers.
    fn sites(&self) -> u64 {
        self.plan.local_dims().half_volume() as u64
    }
}

/// Model outputs.
#[derive(Copy, Clone, Debug)]
pub struct PerfReport {
    /// Modeled wall time of one solver iteration (s).
    pub iteration_time_s: f64,
    /// Aggregate sustained effective Gflops over all GPUs.
    pub sustained_gflops: f64,
    /// Per-GPU share.
    pub per_gpu_gflops: f64,
    /// Device bytes the solve needs per GPU.
    pub memory_per_gpu: usize,
    /// Whether it fits the card (with the runtime reserve).
    pub fits_memory: bool,
    /// Fraction of iteration time not spent in local kernels.
    pub comm_fraction: f64,
}

/// (outer, sloppy) storage precisions of a mode.
pub fn mode_tags(mode: PrecisionMode) -> (PrecisionTag, PrecisionTag) {
    match mode {
        PrecisionMode::Double => (PrecisionTag::Double, PrecisionTag::Double),
        PrecisionMode::Single => (PrecisionTag::Single, PrecisionTag::Single),
        PrecisionMode::Half => (PrecisionTag::Half, PrecisionTag::Half),
        PrecisionMode::SingleHalf => (PrecisionTag::Single, PrecisionTag::Half),
        PrecisionMode::DoubleHalf => (PrecisionTag::Double, PrecisionTag::Half),
        PrecisionMode::DoubleSingle => (PrecisionTag::Double, PrecisionTag::Single),
        PrecisionMode::DoubleQuarter => (PrecisionTag::Double, PrecisionTag::Quarter),
    }
}

/// Bytes of one spinor face message (Section VI-C: 12 reals per site plus a
/// normalization per site in half precision).
pub fn face_bytes(tag: PrecisionTag, face_sites: usize) -> usize {
    crate::ghost::face_wire_bytes_dyn(tag.storage_bytes(), tag.needs_norm(), face_sites, 1)
}

/// `cudaMemcpy` calls needed to gather one face to the host: one per face
/// block (12 / N_vec) plus one for the norms in half precision.
pub fn d2h_copies(tag: PrecisionTag) -> usize {
    let nvec = NVec::optimal_for_bytes(tag.storage_bytes()).width();
    12 / nvec + usize::from(tag.needs_norm())
}

/// Copies to scatter one received (host-contiguous) face to the device.
pub fn h2d_copies(tag: PrecisionTag) -> usize {
    1 + usize::from(tag.needs_norm())
}

fn half_extra(tag: PrecisionTag, per_site: u64) -> u64 {
    if tag.needs_norm() {
        per_site
    } else {
        0
    }
}

/// Kernel time of a hopping-term launch over `sites` sites.
fn dslash_kernel(inp: &PerfInput, tag: PrecisionTag, sites: u64) -> f64 {
    if sites == 0 {
        return 0.0;
    }
    let b = tag.storage_bytes() as u64;
    // 288 reals/site plus the half-precision normalization traffic
    // (8 neighbor norms + 1 store ≈ 36 B/site).
    let bytes = sites * quda_dirac::flops::DSLASH_REALS_PER_SITE * b + half_extra(tag, 36) * sites;
    // Executed flops include third-row reconstruction (~25% extra).
    let flops = sites * 1650;
    kernel_time(
        &inp.calib.kernel,
        &inp.gpu,
        &KernelWork { bytes, flops, storage_bytes: tag.storage_bytes() },
    )
}

/// Kernel time of one clover multiply (optionally fused with the final
/// axpy combine) over `sites` sites.
fn clover_kernel(inp: &PerfInput, tag: PrecisionTag, sites: u64, axpy: bool) -> f64 {
    let b = tag.storage_bytes() as u64;
    let reals = quda_dirac::flops::CLOVER_REALS_PER_SITE + if axpy { 24 } else { 0 };
    let bytes = sites * reals * b + half_extra(tag, 12) * sites;
    let flops = sites * (quda_dirac::flops::CLOVER_FLOPS_PER_SITE + if axpy { 48 } else { 0 });
    kernel_time(
        &inp.calib.kernel,
        &inp.gpu,
        &KernelWork { bytes, flops, storage_bytes: tag.storage_bytes() },
    )
}

/// Time of one hopping-term application *including* its face exchange:
/// one gather → wire → scatter chain per cut dimension of the plan.
pub fn dslash_time(inp: &PerfInput, tag: PrecisionTag) -> f64 {
    let (plan, t, n) = (&inp.plan, &inp.calib.transfer, &inp.calib.network);
    let sites = inp.sites();
    // Overlapping needs `cudaMemcpyAsync`, with its higher latency.
    let latency = match inp.strategy {
        CommStrategy::NoOverlap => t.sync_latency_s,
        CommStrategy::Overlap => t.async_latency_s,
    };
    // One face of `msg` bytes over PCI-E in `copies` copies.
    let copy = |copies: usize, msg: usize, dir: Direction| {
        copies as f64 * latency + msg as f64 / effective_bw(t, dir, inp.numa)
    };
    let mut tl = Timeline::new(5); // 0 = GPU, 1/4 = copy engines, 2/3 = network
    match inp.strategy {
        CommStrategy::NoOverlap => {
            // Per cut dimension: gather both faces (one copy per block), one
            // message each way, scatter both faces. Then one kernel over
            // everything. Nothing overlaps.
            for dim in plan.active_dims() {
                let msg = face_bytes(tag, plan.face_sites_cb(dim));
                let exchange = 2.0 * copy(d2h_copies(tag), msg, Direction::D2H)
                    + network_time(n, msg)
                    + 2.0 * copy(h2d_copies(tag), msg, Direction::H2D);
                tl.enqueue(0, "exchange", exchange, &[]);
            }
            tl.enqueue(0, "dslash", dslash_kernel(inp, tag, sites), &[]);
        }
        CommStrategy::Overlap => {
            // Three CUDA streams (Section VI-D2). On GT200 a single copy
            // engine serializes every PCI-E transfer; Fermi parts have two
            // engines and "allow for bidirectional transfers over the PCI-E
            // bus" (footnote 4), so D2H and H2D get separate lanes. Like the
            // rank operator, every dimension's faces go out before any
            // arrive.
            let h2d_engine = if inp.gpu.copy_engines >= 2 { 4 } else { 1 };
            let mut wires = Vec::with_capacity(8); // two per cut dimension
            for dim in plan.active_dims() {
                let msg = face_bytes(tag, plan.face_sites_cb(dim));
                let back = tl.enqueue(1, "d2h", copy(d2h_copies(tag), msg, Direction::D2H), &[]);
                let fwd = tl.enqueue(1, "d2h", copy(d2h_copies(tag), msg, Direction::D2H), &[]);
                wires.push((msg, tl.enqueue(2, "net-back", network_time(n, msg), &[back])));
                wires.push((msg, tl.enqueue(3, "net-fwd", network_time(n, msg), &[fwd])));
            }
            let scattered: Vec<EventId> = wires
                .into_iter()
                .map(|(msg, wire)| {
                    let cost = copy(h2d_copies(tag), msg, Direction::H2D);
                    tl.enqueue(h2d_engine, "h2d", cost, &[wire])
                })
                .collect();
            // Both faces of every cut dimension run in the face kernel.
            let interior = interior_sites(plan);
            tl.enqueue(0, "interior", dslash_kernel(inp, tag, interior), &[]);
            tl.enqueue(0, "faces", dslash_kernel(inp, tag, sites - interior), &scattered);
        }
    }
    tl.makespan()
}

/// Sites per parity on no face of a cut dimension: the local box shrunk by
/// one slice at each end of every cut dimension, so a corner site is taken
/// off once however many faces it lies on.
fn interior_sites(plan: &DecompPlan) -> u64 {
    let ld = plan.local_dims();
    let mut volume = 1;
    for dim in 0..4 {
        let cut = if plan.open(dim) { 2 } else { 0 };
        volume *= ld.extent(dim).saturating_sub(cut);
    }
    volume as u64 / 2
}

fn effective_bw(t: &quda_gpusim::calib::TransferCalib, dir: Direction, numa: NumaPlacement) -> f64 {
    // pcie_time = latency + bytes/bw; reuse its bandwidth handling by
    // measuring the marginal cost of one extra byte.
    let base = pcie_time(t, CopyKind::Sync, dir, numa, 0);
    let one = pcie_time(t, CopyKind::Sync, dir, numa, 1_000_000);
    1_000_000.0 / (one - base)
}

/// Time of one even-odd operator application at precision `tag`.
pub fn matpc_time(inp: &PerfInput, tag: PrecisionTag) -> f64 {
    let sites = inp.sites();
    2.0 * dslash_time(inp, tag)
        + clover_kernel(inp, tag, sites, false)
        + clover_kernel(inp, tag, sites, true)
}

/// Blas + reduction time of one BiCGstab iteration at precision `tag`.
pub fn blas_iteration_time(inp: &PerfInput, tag: PrecisionTag) -> f64 {
    let sites = inp.sites();
    let b = tag.storage_bytes() as u64;
    // One BiCGstab iteration: cdot, caxpyNorm, cDotProductNormB, caxpbypz,
    // caxpyNorm, cdot, cxpaypbz — 528 reals/site total, 7 launches.
    let bytes = sites * 528 * b + half_extra(tag, 66) * sites;
    let stream = kernel_time(
        &inp.calib.kernel,
        &inp.gpu,
        &KernelWork { bytes, flops: sites * 1032, storage_bytes: tag.storage_bytes() },
    );
    let launches = 6.0 * inp.calib.kernel.launch_overhead_s;
    // 4 of those kernels end in reductions: device→host result readback +
    // allreduce.
    let reductions = 4.0
        * (inp.calib.transfer.sync_latency_s
            + allreduce_time(&inp.calib.network, inp.plan.n_ranks()));
    stream + launches + reductions
}

/// Effective flops of one solver iteration (2 matvecs + blas), per rank.
pub fn iteration_flops(inp: &PerfInput) -> u64 {
    let sites = inp.sites();
    2 * sites * quda_dirac::flops::MATPC_FLOPS_PER_SITE + sites * 1032
}

/// Full per-iteration model.
pub fn evaluate(inp: &PerfInput) -> PerfReport {
    let (outer, sloppy) = mode_tags(inp.mode);
    let mut t_iter = 2.0 * matpc_time(inp, sloppy) + blas_iteration_time(inp, sloppy);
    let mut flops = iteration_flops(inp) as f64;
    if inp.mode.is_mixed() {
        // Amortized reliable update: one outer matvec, the residual combine,
        // and two full-field precision conversions (copy-like kernels).
        let sites = inp.sites();
        let conv_bytes = sites * 24 * (outer.storage_bytes() + sloppy.storage_bytes()) as u64;
        let conv = kernel_time(
            &inp.calib.kernel,
            &inp.gpu,
            &KernelWork { bytes: 2 * conv_bytes, flops: 0, storage_bytes: outer.storage_bytes() },
        );
        let update = matpc_time(inp, outer) + blas_iteration_time(inp, outer) * 0.5 + conv;
        t_iter += update / RELIABLE_INTERVAL;
        flops += (sites * quda_dirac::flops::MATPC_FLOPS_PER_SITE) as f64 / RELIABLE_INTERVAL;
    }
    let per_gpu = flops / t_iter / 1e9;
    let mem = solver_memory_per_gpu(&inp.plan, inp.mode);
    let mut device = DeviceMemory::new(inp.gpu.ram_bytes());
    let fits = device.alloc("solver working set", mem).is_ok();
    // Kernel-only time: what the same iteration would cost with free,
    // instant communication.
    let kernels = {
        let one = PerfInput { plan: DecompPlan::new(inp.plan.local_dims(), [1, 1, 1, 1]), ..*inp };
        2.0 * matpc_time(&one, sloppy) + blas_iteration_time(&one, sloppy)
    };
    PerfReport {
        iteration_time_s: t_iter,
        sustained_gflops: per_gpu * inp.plan.n_ranks() as f64,
        per_gpu_gflops: per_gpu,
        memory_per_gpu: mem,
        fits_memory: fits,
        comm_fraction: (1.0 - kernels / t_iter).max(0.0),
    }
}

/// Device bytes of one spinor field on a rank of `plan`: the padded body
/// and its site norms, plus both faces' ghosts of every open dimension with
/// their norms, laid out as on the wire — what `SpinorFieldCb::new_open`
/// allocates on the host, plus the Eq. 5 pad the host does not store.
fn spinor_bytes(plan: &DecompPlan, tag: PrecisionTag) -> usize {
    let b = tag.storage_bytes();
    let layout = species::spinor_cb(&plan.local_dims(), NVec::optimal_for_bytes(b));
    let norm = if tag.needs_norm() { layout.sites * 4 } else { 0 };
    let mut ghosts = 0;
    for dim in plan.active_dims() {
        ghosts += 2 * face_bytes(tag, plan.face_sites_cb(dim));
    }
    layout.device_bytes(b) + norm + ghosts
}

/// Device bytes of the compressed gauge field on a rank of `plan`: eight
/// padded blocks, whose T pads hold the T ghost links, plus both parities'
/// X/Y/Z ghost links of every open dimension. The host's `GaugeFieldCb`
/// holds the same links with no pad, its T ghost links in a store of their
/// own.
fn gauge_bytes(plan: &DecompPlan, tag: PrecisionTag) -> usize {
    let b = tag.storage_bytes();
    let layout = species::gauge_cb(&plan.local_dims(), NVec::optimal_for_bytes(b));
    let mut side_links = 0;
    for dim in plan.active_dims().filter(|&d| d != DIR_T) {
        side_links += 2 * plan.face_sites_cb(dim);
    }
    8 * layout.device_bytes(b) + side_links * layout.n_int * b
}

/// Device bytes one GPU needs to run the solver in `mode` on its share of
/// `plan`.
pub fn solver_memory_per_gpu(plan: &DecompPlan, mode: PrecisionMode) -> usize {
    let ld = plan.local_dims();
    let (outer, sloppy) = mode_tags(mode);
    let fields = |tag: PrecisionTag, spinors: usize| -> usize {
        let b = tag.storage_bytes();
        let clover_layout = species::clover_cb(&ld, NVec::optimal_for_bytes(b));
        let clover_norm = if tag.needs_norm() { clover_layout.sites * 4 } else { 0 };
        // T_oo and T_ee⁻¹.
        let clover_bytes = 2 * (clover_layout.device_bytes(b) + clover_norm);
        spinors * spinor_bytes(plan, tag) + gauge_bytes(plan, tag) + clover_bytes
    };
    if mode.is_mixed() {
        // Outer: x, b̂ (doubling as the allocation r0 was taken from),
        // r_hi, conversion scratch = 4 spinors + the outer gauge/clover.
        // Sloppy: r, r0, p, v, t, x_sloppy + 2 operator workspaces = 8
        // spinors + the sloppy gauge/clover ("the mixed precision solver
        // must store data for both the single and half precision solves",
        // Section VII-C). The unpreconditioned source parities live in host
        // memory outside the solve.
        fields(outer, 4) + fields(sloppy, 8)
    } else {
        // x, b̂ (aliasing r0 — the shadow residual IS the initial residual
        // for a zero guess), r, p, v, t + one operator workspace = 7
        // spinors.
        fields(outer, 7)
    }
}

/// Smallest power-of-two GPU count (≥1) whose temporal slice of `global`
/// fits the card in `mode`. `None` if even the largest sensible partition
/// does not fit.
pub fn min_gpus(global: LatticeDims, mode: PrecisionMode, gpu: &GpuSpec) -> Option<usize> {
    (0..=8).map(|k| 1usize << k).find(|&n| {
        DecompPlan::try_new(global, [1, 1, 1, n]).is_ok_and(|plan| {
            let mut device = DeviceMemory::new(gpu.ram_bytes());
            device.alloc("solver", solver_memory_per_gpu(&plan, mode)).is_ok()
        })
    })
}

/// Every process grid of `ranks` GPUs on `global` with power-of-two
/// extents, the paper's `[1, 1, 1, ranks]` slice included, X extent
/// outermost.
pub fn candidate_plans(global: LatticeDims, ranks: usize) -> Vec<DecompPlan> {
    let pow2_divisors = |n: usize| {
        (0..usize::BITS)
            .map(|k| 1usize << k)
            .take_while(move |&p| p <= n)
            .filter(move |p| n % p == 0)
    };
    let mut out = Vec::new();
    for nx in pow2_divisors(ranks) {
        for ny in pow2_divisors(ranks / nx) {
            for nz in pow2_divisors(ranks / nx / ny) {
                out.extend(DecompPlan::try_new(global, [nx, ny, nz, ranks / nx / ny / nz]).ok());
            }
        }
    }
    out
}

/// The fastest process grid of `ranks` GPUs for `inp`'s global lattice,
/// with its modeled aggregate Gflops; every other input is held fixed.
pub fn best_grid(inp: &PerfInput, ranks: usize) -> Option<(DecompPlan, f64)> {
    candidate_plans(inp.plan.global(), ranks)
        .into_iter()
        .map(|plan| (plan, evaluate(&PerfInput { plan, ..*inp }).sustained_gflops))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghost::face_wire_bytes_dyn;
    use quda_dirac::dslash::{dslash_site_count, DslashRegion};
    use quda_fields::precision::{Double, Half, Precision, Quarter, Single};
    use quda_fields::{GaugeFieldCb, SpinorFieldCb};
    use quda_gpusim::cards::gtx285;
    use quda_lattice::geometry::Parity;
    use quda_lattice::stencil::Stencil;
    use quda_math::su3::Su3;

    fn inp(
        global: LatticeDims,
        ranks: usize,
        mode: PrecisionMode,
        strategy: CommStrategy,
    ) -> PerfInput {
        PerfInput::paper(DecompPlan::new(global, [1, 1, 1, ranks]), mode, strategy)
    }

    #[test]
    fn single_gpu_solver_rate_near_100_gflops() {
        // Fig. 4(a): the single-precision solver sustains ≈100 Gflops/GPU.
        let r = evaluate(&inp(
            LatticeDims::hypercubic(32),
            1,
            PrecisionMode::Single,
            CommStrategy::NoOverlap,
        ));
        assert!(
            r.per_gpu_gflops > 85.0 && r.per_gpu_gflops < 125.0,
            "single-precision solver rate {} Gflops",
            r.per_gpu_gflops
        );
    }

    #[test]
    fn half_roughly_one_and_a_half_times_single() {
        let s = evaluate(&inp(
            LatticeDims::hypercubic(32),
            1,
            PrecisionMode::Single,
            CommStrategy::NoOverlap,
        ));
        let h = evaluate(&inp(
            LatticeDims::hypercubic(32),
            1,
            PrecisionMode::Half,
            CommStrategy::NoOverlap,
        ));
        let ratio = h.per_gpu_gflops / s.per_gpu_gflops;
        assert!(ratio > 1.4 && ratio < 2.0, "half/single ratio {ratio}");
    }

    #[test]
    fn double_far_slower_than_single() {
        let s = evaluate(&inp(
            LatticeDims::spatial_cube(24, 32),
            1,
            PrecisionMode::Single,
            CommStrategy::NoOverlap,
        ));
        let d = evaluate(&inp(
            LatticeDims::spatial_cube(24, 32),
            1,
            PrecisionMode::Double,
            CommStrategy::NoOverlap,
        ));
        let ratio = s.per_gpu_gflops / d.per_gpu_gflops;
        assert!(
            ratio > 2.0 && ratio < 4.5,
            "single/double ratio {ratio} (double is additionally flop bound on GTX 285)"
        );
    }

    #[test]
    fn weak_scaling_is_near_linear() {
        // Fig. 4: fixed local volume 32⁴ per GPU.
        let per1 = evaluate(&inp(
            LatticeDims::hypercubic(32),
            1,
            PrecisionMode::SingleHalf,
            CommStrategy::Overlap,
        ));
        let g32 = LatticeDims::new(32, 32, 32, 32 * 32);
        let per32 = evaluate(&inp(g32, 32, PrecisionMode::SingleHalf, CommStrategy::Overlap));
        let efficiency = per32.sustained_gflops / (32.0 * per1.per_gpu_gflops);
        assert!(efficiency > 0.8, "weak-scaling efficiency {efficiency}");
        assert!(
            per32.sustained_gflops > 3500.0,
            "expected multi-Tflops at 32 GPUs, got {}",
            per32.sustained_gflops
        );
    }

    #[test]
    fn strong_scaling_efficiency_decays() {
        // Fig. 5(a): 32³×256, per-GPU rate decays as local volume shrinks.
        let g = LatticeDims::spatial_cube(32, 256);
        let at8 = evaluate(&inp(g, 8, PrecisionMode::Single, CommStrategy::Overlap));
        let at32 = evaluate(&inp(g, 32, PrecisionMode::Single, CommStrategy::Overlap));
        assert!(at32.per_gpu_gflops < at8.per_gpu_gflops);
        assert!(at32.sustained_gflops > at8.sustained_gflops, "still gaining in aggregate");
        assert!(at32.comm_fraction > at8.comm_fraction);
    }

    #[test]
    fn overlap_helps_large_volume_strong_scaling() {
        // Fig. 5(a): overlapped beats non-overlapped at scale.
        let g = LatticeDims::spatial_cube(32, 256);
        let ov = evaluate(&inp(g, 32, PrecisionMode::Single, CommStrategy::Overlap));
        let no = evaluate(&inp(g, 32, PrecisionMode::Single, CommStrategy::NoOverlap));
        assert!(
            ov.sustained_gflops > no.sustained_gflops,
            "overlap {} vs no-overlap {}",
            ov.sustained_gflops,
            no.sustained_gflops
        );
    }

    #[test]
    fn overlap_hurts_small_volume_mixed_precision() {
        // Fig. 5(b): on 24³×128 in single-half, the async-copy latency makes
        // the overlapped solver *slower* at large GPU counts.
        let g = LatticeDims::spatial_cube(24, 128);
        let ov = evaluate(&inp(g, 32, PrecisionMode::SingleHalf, CommStrategy::Overlap));
        let no = evaluate(&inp(g, 32, PrecisionMode::SingleHalf, CommStrategy::NoOverlap));
        assert!(
            no.sustained_gflops > ov.sustained_gflops,
            "no-overlap {} should beat overlap {} here",
            no.sustained_gflops,
            ov.sustained_gflops
        );
    }

    #[test]
    fn bad_numa_placement_costs_performance() {
        // Fig. 5(a)'s maroon curve.
        let g = LatticeDims::spatial_cube(32, 256);
        let mut bad = inp(g, 32, PrecisionMode::SingleHalf, CommStrategy::Overlap);
        bad.numa = NumaPlacement::Bad;
        let good = evaluate(&inp(g, 32, PrecisionMode::SingleHalf, CommStrategy::Overlap));
        let worse = evaluate(&bad);
        assert!(worse.sustained_gflops < good.sustained_gflops * 0.97);
    }

    #[test]
    fn mixed_needs_8_gpus_on_big_lattice_single_fits_4() {
        // Section VII-C: "this increase in memory footprint means that at
        // least 8 GPUs are needed ... The uniform single precision solver
        // ... can be solved (at a performance cost) already on 4 GPUs."
        let g = LatticeDims::spatial_cube(32, 256);
        let gpu = gtx285();
        assert_eq!(min_gpus(g, PrecisionMode::Single, &gpu), Some(4));
        assert_eq!(min_gpus(g, PrecisionMode::SingleHalf, &gpu), Some(8));
    }

    #[test]
    fn double_half_memory_exceeds_single_half() {
        let g = LatticeDims::spatial_cube(24, 128);
        let plan = DecompPlan::new(g, [1, 1, 1, 4]);
        let dh = solver_memory_per_gpu(&plan, PrecisionMode::DoubleHalf);
        let sh = solver_memory_per_gpu(&plan, PrecisionMode::SingleHalf);
        assert!(dh > sh);
    }

    #[test]
    fn copy_counts_match_paper_structure() {
        assert_eq!(d2h_copies(PrecisionTag::Single), 3); // 12 / float4
        assert_eq!(d2h_copies(PrecisionTag::Double), 6); // 12 / double2
        assert_eq!(d2h_copies(PrecisionTag::Half), 4); // 3 blocks + norms
        assert_eq!(h2d_copies(PrecisionTag::Single), 1); // contiguous on host
        assert_eq!(h2d_copies(PrecisionTag::Half), 2);
    }

    #[test]
    fn face_bytes_match_ghost_module() {
        let f = 1000;
        assert_eq!(face_bytes(PrecisionTag::Double, f), crate::ghost::face_wire_bytes::<Double>(f));
        assert_eq!(face_bytes(PrecisionTag::Single, f), crate::ghost::face_wire_bytes::<Single>(f));
        assert_eq!(face_bytes(PrecisionTag::Half, f), crate::ghost::face_wire_bytes::<Half>(f));
    }

    const TAGS: [PrecisionTag; 4] =
        [PrecisionTag::Double, PrecisionTag::Single, PrecisionTag::Half, PrecisionTag::Quarter];

    /// The 32³×256 single-precision no-overlap input of the grid scans.
    fn grid_inp() -> PerfInput {
        inp(LatticeDims::spatial_cube(32, 256), 1, PrecisionMode::Single, CommStrategy::NoOverlap)
    }

    fn t_only(ranks: usize) -> f64 {
        let plan = DecompPlan::new(LatticeDims::spatial_cube(32, 256), [1, 1, 1, ranks]);
        evaluate(&PerfInput { plan, ..grid_inp() }).sustained_gflops
    }

    #[test]
    fn one_d_runs_out_of_time_extent() {
        // 32^3x256 with local T >= 2 even: the pure-T slice stops at 128
        // ranks; at 256 ranks only multi-dimensional grids remain.
        let plans = candidate_plans(LatticeDims::spatial_cube(32, 256), 256);
        assert!(!plans.is_empty());
        assert!(plans.iter().all(|p| p.grid()[3] < 256), "pure 1-d cannot reach 256: {plans:?}");
    }

    #[test]
    fn candidates_include_four_d_grids() {
        // X- and Y-cut grids are enumerated too, including a fully 4-d one.
        let dims = LatticeDims::spatial_cube(32, 256);
        let grids: Vec<[usize; 4]> = candidate_plans(dims, 16).iter().map(|p| p.grid()).collect();
        for grid in [[2, 2, 2, 2], [16, 1, 1, 1], [1, 1, 1, 16]] {
            assert!(grids.contains(&grid), "{grid:?} missing from {grids:?}");
        }
        assert!(candidate_plans(dims, 16).iter().all(|p| p.n_ranks() == 16));
        // X extent 32 with even local extents >= 2 caps nx at 16.
        assert!(candidate_plans(dims, 32).iter().all(|p| p.grid()[0] <= 16));
    }

    #[test]
    fn two_d_wins_at_large_gpu_counts() {
        // The paper's motivation: surface/volume control. At 128 GPUs the
        // T-only slice has local T = 2 (face sites = interior sites); a
        // grid that also cuts X does better.
        let (best, best_gflops) = best_grid(&grid_inp(), 128).unwrap();
        assert!(best.grid()[3] < 128, "expected a multi-d grid to win, got {best}");
        assert!(best_gflops > t_only(128), "multi-d {best_gflops} vs 1-d {}", t_only(128));
    }

    #[test]
    fn small_counts_prefer_one_d() {
        // At modest GPU counts the 1-d slice minimizes the number of cut
        // directions — the reason the paper chose it.
        let (best, gflops) = best_grid(&grid_inp(), 8).unwrap();
        assert_eq!(best.grid(), [1, 1, 1, 8]);
        assert_eq!(gflops, t_only(8));
    }

    #[test]
    fn model_face_bytes_match_driver_wire_bytes() {
        // For every candidate grid the model's per-direction message equals
        // the byte count the exchange driver puts on the wire.
        let dims = LatticeDims::new(8, 8, 8, 16);
        for ranks in [2usize, 4, 8, 16] {
            let plans = candidate_plans(dims, ranks);
            assert!(!plans.is_empty(), "no candidate grids for {ranks} ranks");
            for plan in plans {
                for dim in plan.active_dims() {
                    let sites = plan.face_sites_cb(dim);
                    for tag in TAGS {
                        assert_eq!(
                            face_bytes(tag, sites),
                            face_wire_bytes_dyn(tag.storage_bytes(), tag.needs_norm(), sites, 1),
                            "grid {plan} dim {dim} tag {tag:?}"
                        );
                    }
                }
            }
        }
    }

    /// Bytes of the storage `SpinorFieldCb::new_open` allocates for one
    /// local field of `plan`.
    fn allocated_spinor_bytes<P: Precision>(plan: &DecompPlan) -> usize {
        let f = SpinorFieldCb::<P>::new_open(plan.local_dims(), plan.open_dims());
        let elems = f.data.len() + f.ghost.iter().map(Vec::len).sum::<usize>();
        let norms = f.norm.len() + f.ghost_norm.iter().map(Vec::len).sum::<usize>();
        elems * std::mem::size_of::<P::Elem>() + norms * std::mem::size_of::<f32>()
    }

    /// Bytes of the Eq. 5 pad of one field species on a rank of `plan` at
    /// `tag`: the device model stores it, the host does not.
    fn pad_bytes(plan: &DecompPlan, tag: PrecisionTag, n_int: usize) -> usize {
        plan.local_dims().half_spatial_volume() * n_int * tag.storage_bytes()
    }

    #[test]
    fn spinor_bytes_match_allocated_fields() {
        let plans = candidate_plans(LatticeDims::new(8, 8, 8, 16), 4);
        assert!(plans.iter().any(|p| p.active_dims().count() > 1));
        for plan in &plans {
            let allocated = [
                allocated_spinor_bytes::<Double>(plan),
                allocated_spinor_bytes::<Single>(plan),
                allocated_spinor_bytes::<Half>(plan),
                allocated_spinor_bytes::<Quarter>(plan),
            ];
            for (tag, bytes) in TAGS.into_iter().zip(allocated) {
                let pad = pad_bytes(plan, tag, 24);
                assert_eq!(spinor_bytes(plan, tag), bytes + pad, "grid {plan} tag {tag:?}");
            }
        }
    }

    #[test]
    fn interior_sites_match_the_stencil_on_every_candidate_grid() {
        let dims = LatticeDims::new(8, 8, 8, 16);
        let plans: Vec<_> = [4, 16].into_iter().flat_map(|r| candidate_plans(dims, r)).collect();
        assert!(plans.iter().any(|p| p.active_dims().count() > 2));
        for plan in plans {
            let stencil = Stencil::with_open(plan.local_dims(), plan.open_dims());
            let exact = dslash_site_count(&stencil, DslashRegion::Interior) as u64;
            assert_eq!(interior_sites(&plan), exact, "grid {plan}");
        }
    }

    /// Bytes `GaugeFieldCb` holds for one local field of `plan` once every
    /// open dimension's ghost links are written, as the exchange does.
    fn allocated_gauge_bytes<P: Precision>(plan: &DecompPlan) -> usize {
        let mut g = GaugeFieldCb::<P>::new(plan.local_dims(), true);
        for dim in plan.active_dims() {
            for parity in [Parity::Even, Parity::Odd] {
                g.set_ghost_link(parity, dim, 0, &Su3::identity());
            }
        }
        let elems = g.data.iter().chain(&g.ghost).flatten().map(Vec::len).sum::<usize>();
        elems * std::mem::size_of::<P::Elem>()
    }

    #[test]
    fn gauge_bytes_match_allocated_fields() {
        let plans = candidate_plans(LatticeDims::new(8, 8, 8, 16), 4);
        assert!(plans.iter().any(|p| p.active_dims().any(|d| d != DIR_T)));
        assert!(plans.iter().any(|p| p.active_dims().any(|d| d == DIR_T)));
        assert!(plans.iter().any(|p| p.active_dims().all(|d| d != DIR_T)));
        for plan in &plans {
            let allocated = [
                allocated_gauge_bytes::<Double>(plan),
                allocated_gauge_bytes::<Single>(plan),
                allocated_gauge_bytes::<Half>(plan),
                allocated_gauge_bytes::<Quarter>(plan),
            ];
            for (tag, bytes) in TAGS.into_iter().zip(allocated) {
                // The model's eight pads, less the two the T ghost links
                // occupy when T is open: the host stores those links in
                // its ghost store, counted in `bytes`.
                let t_open = plan.active_dims().any(|d| d == DIR_T);
                let pads = 8 - 2 * usize::from(t_open);
                let pad = pads * pad_bytes(plan, tag, 12);
                assert_eq!(gauge_bytes(plan, tag), bytes + pad, "grid {plan} tag {tag:?}");
            }
        }
    }
}
