//! Analytic performance model of the parallel solver on the simulated "9g"
//! cluster — the engine behind the Fig. 4/5/6 reproductions.
//!
//! The model composes, per solver iteration:
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

use crate::driver::PrecisionMode;
use crate::rank_op::CommStrategy;
use quda_fields::precision::PrecisionTag;
use quda_gpusim::calib::Calibration;
use quda_gpusim::cards::GpuSpec;
use quda_gpusim::kernel::{kernel_time, KernelWork};
use quda_gpusim::memory::DeviceMemory;
use quda_gpusim::stream::Timeline;
use quda_gpusim::transfer::{
    allreduce_time, network_time, pcie_time, CopyKind, Direction, NumaPlacement,
};
use quda_lattice::geometry::LatticeDims;
use quda_lattice::layout::{species, NVec};
use quda_lattice::partition::DecompPlan;

/// Inputs of one performance evaluation.
#[derive(Copy, Clone, Debug)]
pub struct PerfInput {
    /// Global lattice.
    pub global: LatticeDims,
    /// GPU count (1-d temporal decomposition).
    pub ranks: usize,
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
    /// Sloppy iterations per reliable update (mixed modes).
    pub reliable_interval: f64,
}

impl PerfInput {
    /// The paper's testbed defaults for a given run shape.
    pub fn paper(
        global: LatticeDims,
        ranks: usize,
        mode: PrecisionMode,
        strategy: CommStrategy,
    ) -> Self {
        PerfInput {
            global,
            ranks,
            mode,
            strategy,
            numa: NumaPlacement::Good,
            gpu: quda_gpusim::cards::gtx285(),
            calib: Calibration::default(),
            reliable_interval: 25.0,
        }
    }

    /// The paper's decomposition of this run shape: `ranks` temporal slices.
    fn plan(&self) -> DecompPlan {
        DecompPlan::new(self.global, [1, 1, 1, self.ranks])
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
    let nvec = NVec::optimal_for_bytes(tag.storage_bytes()).value();
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
    let reals = if axpy { 144 } else { 120 };
    let bytes = sites * reals * b + half_extra(tag, 12) * sites;
    let flops = sites * (quda_dirac::flops::CLOVER_FLOPS_PER_SITE + if axpy { 48 } else { 0 });
    kernel_time(
        &inp.calib.kernel,
        &inp.gpu,
        &KernelWork { bytes, flops, storage_bytes: tag.storage_bytes() },
    )
}

/// Time of one hopping-term application *including* its face exchange.
pub fn dslash_time(inp: &PerfInput, tag: PrecisionTag) -> f64 {
    let plan = inp.plan();
    let ld = plan.local_dims();
    let sites = ld.half_volume() as u64;
    if !plan.is_partitioned() {
        return dslash_kernel(inp, tag, sites);
    }
    let faces = ld.half_spatial_volume();
    let msg = face_bytes(tag, faces);
    let t = &inp.calib.transfer;
    let n = &inp.calib.network;
    match inp.strategy {
        CommStrategy::NoOverlap => {
            // Gather both faces (sync copies, one per block), one message
            // each way, scatter both faces, then one kernel over everything.
            let gather_one = d2h_copies(tag) as f64 * t.sync_latency_s
                + msg as f64 / effective_bw(t, Direction::D2H, inp.numa);
            let scatter_one = h2d_copies(tag) as f64 * t.sync_latency_s
                + msg as f64 / effective_bw(t, Direction::H2D, inp.numa);
            let net = network_time(n, msg);
            2.0 * gather_one + net + 2.0 * scatter_one + dslash_kernel(inp, tag, sites)
        }
        CommStrategy::Overlap => {
            // Three CUDA streams (Section VI-D2). On GT200 a single copy
            // engine serializes every PCI-E transfer; Fermi parts have two
            // engines and "allow for bidirectional transfers over the PCI-E
            // bus" (footnote 4), so D2H and H2D get separate lanes.
            let mut tl = Timeline::new(5); // 0 = GPU, 1/4 = copy engines, 2/3 = network
            let h2d_engine = if inp.gpu.copy_engines >= 2 { 4 } else { 1 };
            let d2h = |tlx: &mut Timeline, deps: &[quda_gpusim::stream::EventId]| {
                let cost = d2h_copies(tag) as f64 * t.async_latency_s
                    + msg as f64 / effective_bw(t, Direction::D2H, inp.numa);
                tlx.enqueue(1, "d2h", cost, deps)
            };
            let h2d_cost = h2d_copies(tag) as f64 * t.async_latency_s
                + msg as f64 / effective_bw(t, Direction::H2D, inp.numa);
            let e_back = d2h(&mut tl, &[]);
            let e_fwd = d2h(&mut tl, &[]);
            let m_back = tl.enqueue(2, "net-back", network_time(n, msg), &[e_back]);
            let m_fwd = tl.enqueue(3, "net-fwd", network_time(n, msg), &[e_fwd]);
            let h_back = tl.enqueue(h2d_engine, "h2d", h2d_cost, &[m_back]);
            let h_fwd = tl.enqueue(h2d_engine, "h2d", h2d_cost, &[m_fwd]);
            let interior_sites = sites.saturating_sub(2 * faces as u64);
            let _k_int = tl.enqueue(0, "interior", dslash_kernel(inp, tag, interior_sites), &[]);
            let face_sites = (2 * faces as u64).min(sites);
            tl.enqueue(0, "faces", dslash_kernel(inp, tag, face_sites), &[h_back, h_fwd]);
            tl.makespan()
        }
    }
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
    let sites = inp.plan().local_dims().half_volume() as u64;
    2.0 * dslash_time(inp, tag)
        + clover_kernel(inp, tag, sites, false)
        + clover_kernel(inp, tag, sites, true)
}

/// Blas + reduction time of one BiCGstab iteration at precision `tag`.
pub fn blas_iteration_time(inp: &PerfInput, tag: PrecisionTag) -> f64 {
    let sites = inp.plan().local_dims().half_volume() as u64;
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
    let reductions =
        4.0 * (inp.calib.transfer.sync_latency_s + allreduce_time(&inp.calib.network, inp.ranks));
    stream + launches + reductions
}

/// Effective flops of one solver iteration (2 matvecs + blas), per rank.
pub fn iteration_flops(inp: &PerfInput) -> u64 {
    let sites = inp.plan().local_dims().half_volume() as u64;
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
        let sites = inp.plan().local_dims().half_volume() as u64;
        let conv_bytes = sites * 24 * (outer.storage_bytes() + sloppy.storage_bytes()) as u64;
        let conv = kernel_time(
            &inp.calib.kernel,
            &inp.gpu,
            &KernelWork { bytes: 2 * conv_bytes, flops: 0, storage_bytes: outer.storage_bytes() },
        );
        let update = matpc_time(inp, outer) + blas_iteration_time(inp, outer) * 0.5 + conv;
        t_iter += update / inp.reliable_interval;
        flops += (sites * quda_dirac::flops::MATPC_FLOPS_PER_SITE) as f64 / inp.reliable_interval;
    }
    let per_gpu = flops / t_iter / 1e9;
    let mem = solver_memory_per_gpu(inp.global, inp.ranks, inp.mode);
    let mut device = DeviceMemory::new(inp.gpu.ram_bytes());
    let fits = device.alloc("solver working set", mem).is_ok();
    // Kernel-only time: what the same iteration would cost with free,
    // instant communication.
    let kernels = {
        let mut one = *inp;
        one.ranks = 1;
        one.global = inp.plan().local_dims();
        2.0 * matpc_time(&one, sloppy) + blas_iteration_time(&one, sloppy)
    };
    PerfReport {
        iteration_time_s: t_iter,
        sustained_gflops: per_gpu * inp.ranks as f64,
        per_gpu_gflops: per_gpu,
        memory_per_gpu: mem,
        fits_memory: fits,
        comm_fraction: (1.0 - kernels / t_iter).max(0.0),
    }
}

/// Device bytes one GPU needs to run the solver in `mode` on its share of
/// `global` split over `ranks`.
pub fn solver_memory_per_gpu(global: LatticeDims, ranks: usize, mode: PrecisionMode) -> usize {
    let plan = DecompPlan::new(global, [1, 1, 1, ranks]);
    let ld = plan.local_dims();
    let (outer, sloppy) = mode_tags(mode);
    let fields = |tag: PrecisionTag, spinors: usize, with_gauge: bool| -> usize {
        let b = tag.storage_bytes();
        let nvec = NVec::optimal_for_bytes(b);
        let spinor_layout = species::spinor_cb(&ld, nvec, plan.is_partitioned());
        let spinor_norm = if tag.needs_norm() {
            (spinor_layout.sites + spinor_layout.ghost_sites) * 4
        } else {
            0
        };
        let spinor_bytes = spinor_layout.device_bytes(b) + spinor_norm;
        let gauge_layout = species::gauge_cb(&ld, nvec, true);
        let gauge_bytes = 8 * gauge_layout.device_bytes(b);
        let clover_layout = species::clover_cb(&ld, nvec);
        let clover_norm = if tag.needs_norm() { clover_layout.sites * 4 } else { 0 };
        // T_oo and T_ee⁻¹.
        let clover_bytes = 2 * (clover_layout.device_bytes(b) + clover_norm);
        spinors * spinor_bytes + if with_gauge { gauge_bytes + clover_bytes } else { 0 }
    };
    if mode.is_mixed() {
        // Outer: x, b̂ (doubling as the allocation r0 was taken from),
        // r_hi, conversion scratch = 4 spinors + the outer gauge/clover.
        // Sloppy: r, r0, p, v, t, x_sloppy + 2 operator workspaces = 8
        // spinors + the sloppy gauge/clover ("the mixed precision solver
        // must store data for both the single and half precision solves",
        // Section VII-C). The unpreconditioned source parities live in host
        // memory outside the solve.
        fields(outer, 4, true) + fields(sloppy, 8, true)
    } else {
        // x, b̂ (aliasing r0 — the shadow residual IS the initial residual
        // for a zero guess), r, p, v, t + one operator workspace = 7
        // spinors.
        fields(outer, 7, true)
    }
}

/// Smallest power-of-two GPU count (≥1) whose share of `global` fits the
/// card in `mode`, respecting T divisibility. `None` if even the largest
/// sensible partition does not fit.
pub fn min_gpus(global: LatticeDims, mode: PrecisionMode, gpu: &GpuSpec) -> Option<usize> {
    let mut n = 1usize;
    while n <= 256 {
        if global.t % n == 0 && (global.t / n) >= 2 && (global.t / n) % 2 == 0 {
            let mem = solver_memory_per_gpu(global, n, mode);
            let mut device = DeviceMemory::new(gpu.ram_bytes());
            if device.alloc("solver", mem).is_ok() {
                return Some(n);
            }
        }
        n *= 2;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_gpusim::cards::gtx285;

    fn inp(
        global: LatticeDims,
        ranks: usize,
        mode: PrecisionMode,
        strategy: CommStrategy,
    ) -> PerfInput {
        PerfInput::paper(global, ranks, mode, strategy)
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
        let dh = solver_memory_per_gpu(g, 4, PrecisionMode::DoubleHalf);
        let sh = solver_memory_per_gpu(g, 4, PrecisionMode::SingleHalf);
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
        use quda_fields::precision::{Double, Half, Single};
        let f = 1000;
        assert_eq!(face_bytes(PrecisionTag::Double, f), crate::ghost::face_wire_bytes::<Double>(f));
        assert_eq!(face_bytes(PrecisionTag::Single, f), crate::ghost::face_wire_bytes::<Single>(f));
        assert_eq!(face_bytes(PrecisionTag::Half, f), crate::ghost::face_wire_bytes::<Half>(f));
    }
}
