//! Steady-state allocation audit for the Krylov solvers.
//!
//! A counting global allocator proves what `cargo xtask hotpath` checks
//! statically: after warmup (operator + workspace construction and the
//! first iterations that touch every code path), a solver iteration
//! performs **zero** heap allocations — the BLAS kernels stream the
//! blocked storage with stack scratch, the dslash writes through without
//! an intermediate buffer, and `residual_history` is pre-sized to
//! `max_iter`.
//!
//! Method: run the same solve twice from identical state with different
//! iteration budgets and compare allocation counts. Setup costs are
//! identical on both runs, so any difference is per-iteration allocation
//! multiplied by the extra iterations — which must be zero.
//!
//! The same allocator also sums bytes, which bounds a Dslash launch large
//! enough to split its sweep across every core (8×8×8×16, batch 8): each
//! worker stores its site range in place, so after a warm-up launch the
//! whole launch allocates less than one output field's `data`.
//!
//! This file is its own test binary with exactly one `#[test]`, so no
//! concurrent test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use quda_dirac::{dslash_cb_multi, DslashRegion, WilsonCloverOp, WilsonParams, MAX_RHS_BATCH};
use quda_fields::gauge_gen::{random_spinor_field, weak_field};
use quda_fields::precision::{Double, Single};
use quda_fields::{GaugeFieldCb, SpinorFieldCb};
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_lattice::stencil::Stencil;
use quda_math::gamma::{GammaBasis, SpinBasis};
use quda_math::spinor::SPINOR_REALS;
use quda_solvers::blas;
use quda_solvers::cg::cgnr;
use quda_solvers::mixed::bicgstab_reliable;
use quda_solvers::operator::{LinearOperator, MatPcOp};
use quda_solvers::params::SolverParams;
use std::slice::{from_mut, from_ref};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Count one allocation (or reallocation) of `size` bytes.
fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method delegates verbatim to `System`, adding only
// relaxed counter bumps, so the allocator contract (layout validity,
// uniqueness of returned pointers) is exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the GlobalAlloc contract; forwarded as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: caller upholds the GlobalAlloc contract; forwarded as-is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc_zeroed(layout) }
    }
    // SAFETY: caller upholds the GlobalAlloc contract; forwarded as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: ptr/layout/new_size come straight from the caller, who
        // guarantees ptr was allocated here with that layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    // SAFETY: caller upholds the GlobalAlloc contract; forwarded as-is.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout come straight from the caller, who guarantees
        // ptr was allocated here with that layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::SeqCst);
    f();
    ALLOCS.load(Ordering::SeqCst) - before
}

fn bytes_during(f: impl FnOnce()) -> u64 {
    let before = BYTES.load(Ordering::SeqCst);
    f();
    BYTES.load(Ordering::SeqCst) - before
}

/// Bytes allocated by one batch-8 double `dslash_cb_multi` launch at
/// 8×8×8×16, whose 4,096 checkerboard sites split the sweep across every
/// core, measured after a warm-up launch; returns it with the bytes of one
/// output field's `data`.
fn parallel_dslash_bytes() -> (u64, u64) {
    let d = LatticeDims::new(8, 8, 8, 16);
    let mut gauge = GaugeFieldCb::<Double>::new(d, true);
    gauge.upload(&weak_field(d, 0.15, 3));
    let inputs: Vec<SpinorFieldCb<Double>> = (0..MAX_RHS_BATCH)
        .map(|r| {
            let mut f = SpinorFieldCb::new(d, false);
            f.upload(&random_spinor_field(d, 30 + r as u64), Parity::Odd);
            f
        })
        .collect();
    let mut outs: Vec<_> = (0..MAX_RHS_BATCH).map(|_| SpinorFieldCb::new(d, false)).collect();
    let (stencil, basis) = (Stencil::new(d, false), SpinBasis::new(GammaBasis::NonRelativistic));
    let mut launch = || {
        let (parity, region, active) = (Parity::Even, DslashRegion::All, [true; MAX_RHS_BATCH]);
        dslash_cb_multi(
            &mut outs, &gauge, &inputs, parity, &stencil, &basis, false, region, &active,
        );
    };
    launch();
    let bytes = bytes_during(launch);
    (bytes, (d.half_volume() * SPINOR_REALS * std::mem::size_of::<f64>()) as u64)
}

fn setup(seed: u64) -> (MatPcOp<Double>, MatPcOp<Single>, SpinorFieldCb<Double>) {
    let d = LatticeDims::new(4, 4, 4, 4);
    let cfg = weak_field(d, 0.15, seed);
    let wp = WilsonParams { mass: 0.2, c_sw: 1.0 };
    let op_hi = MatPcOp::new(WilsonCloverOp::<Double>::from_config(&cfg, wp));
    let op_lo = MatPcOp::new(WilsonCloverOp::<Single>::from_config(&cfg, wp));
    let host = random_spinor_field(d, seed + 50);
    let mut b = op_hi.alloc();
    b.upload(&host, Parity::Odd);
    (op_hi, op_lo, b)
}

/// Allocation count of a fresh `cgnr` solve capped at `max_iter`
/// iterations (tol = 0 so the cap, not convergence, ends the loop).
fn cg_allocs(op: &mut MatPcOp<Double>, b: &SpinorFieldCb<Double>, max_iter: usize) -> u64 {
    let mut x = op.alloc();
    blas::zero(&mut x);
    let params = SolverParams { tol: 0.0, max_iter, delta: 0.0 };
    let mut iterations = 0;
    let n = allocs_during(|| {
        let res = cgnr(op, from_mut(&mut x), from_ref(b), &params, &mut []).remove(0);
        iterations = res.iterations;
    });
    assert_eq!(iterations, max_iter, "solve must be iteration-capped, not converged");
    n
}

/// Allocation count of a fresh `bicgstab_reliable` solve capped at
/// `max_iter` sloppy iterations, with `delta` chosen so reliable updates
/// fire along the way (their accumulate/re-residual path must also be
/// allocation-free).
fn bicgstab_allocs(
    op_hi: &mut MatPcOp<Double>,
    op_lo: &mut MatPcOp<Single>,
    b: &SpinorFieldCb<Double>,
    max_iter: usize,
) -> u64 {
    let mut x = op_hi.alloc();
    blas::zero(&mut x);
    let params = SolverParams { tol: 0.0, max_iter, delta: 0.3 };
    let mut iterations = 0;
    let mut updates = 0;
    let n = allocs_during(|| {
        let res = bicgstab_reliable(op_hi, op_lo, from_mut(&mut x), from_ref(b), &params, &mut [])
            .remove(0);
        iterations = res.iterations;
        updates = res.reliable_updates;
    });
    assert_eq!(iterations, max_iter, "solve must be iteration-capped, not converged");
    assert!(updates > 0, "delta = 0.3 should trigger reliable updates");
    n
}

#[test]
fn solver_iterations_are_allocation_free_after_warmup() {
    let (mut op_hi, mut op_lo, b) = setup(7);

    // Warmup: fault in lazy one-time allocations (thread-local buffers,
    // runtime init) so the measured runs see only steady-state behavior.
    cg_allocs(&mut op_hi, &b, 4);
    bicgstab_allocs(&mut op_hi, &mut op_lo, &b, 4);

    // CGNR: identical setup, different iteration budgets. The entire
    // difference is per-iteration allocation — it must be zero.
    let short = cg_allocs(&mut op_hi, &b, 10);
    let long = cg_allocs(&mut op_hi, &b, 40);
    assert_eq!(
        long,
        short,
        "cgnr allocated {} time(s) across 30 extra iterations",
        long.saturating_sub(short)
    );

    // Mixed-precision BiCGstab with reliable updates enabled.
    let short = bicgstab_allocs(&mut op_hi, &mut op_lo, &b, 10);
    let long = bicgstab_allocs(&mut op_hi, &mut op_lo, &b, 40);
    assert_eq!(
        long,
        short,
        "bicgstab_reliable allocated {} time(s) across 30 extra iterations",
        long.saturating_sub(short)
    );

    // A launch split across every core stores in place: it may allocate
    // its per-worker bookkeeping, never a staging copy of its results.
    let (bytes, field) = parallel_dslash_bytes();
    assert!(bytes < field, "a batch-8 parallel Dslash allocated {bytes} B, one field is {field} B");
}
