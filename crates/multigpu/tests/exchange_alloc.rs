//! Allocation bound for one blocking face exchange.
//!
//! Each face message is one owned frame: `send_faces` encodes every
//! gathered half spinor straight into the frame it sends, and `recv_faces`
//! copies the received payload into the ghost zone where it lands. So once
//! warmed up, a blocking exchange of one dimension allocates the two frames
//! it sends and nothing else: no gather vector, no packed copy, no decode
//! buffer.
//!
//! Method: a counting global allocator sums the bytes allocated by one
//! `send_faces` + `recv_faces` of T on a one-rank periodic world (plan
//! `[1, 1, 1, 1]`, so each face loops back to the sender) after a warm-up
//! exchange, at double and at half precision. `exchange_spinor_ghosts`
//! runs exactly this pair per cut dimension; a one-rank plan cuts none, so
//! the pair is called directly.
//!
//! This file is its own test binary with exactly one `#[test]`, so no
//! concurrent test can pollute the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use quda_comm::FRAME_OVERHEAD;
use quda_fields::gauge_gen::random_spinor_field;
use quda_fields::precision::{Double, Half, Precision};
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::{LatticeDims, Parity, DIR_T};
use quda_lattice::partition::DecompPlan;
use quda_lattice::stencil::Stencil;
use quda_math::gamma::{GammaBasis, SpinBasis};
use quda_multigpu::face_wire_bytes;
use quda_multigpu::ghost::{recv_faces, send_faces};
use std::slice::{from_mut, from_ref};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates verbatim to `System`, adding only a
// relaxed counter bump, so the allocator contract (layout validity,
// uniqueness of returned pointers) is exactly `System`'s.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the GlobalAlloc contract; forwarded as-is.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: caller upholds the GlobalAlloc contract; forwarded as-is.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout the caller guaranteed valid.
        unsafe { System.alloc_zeroed(layout) }
    }
    // SAFETY: caller upholds the GlobalAlloc contract; forwarded as-is.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
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

/// Bytes one warmed-up blocking T exchange of an 8³×8 field allocates at
/// precision `P`, with the bytes of the two frames it sends.
fn exchange_bytes<P: Precision>() -> (u64, u64) {
    let d = LatticeDims::new(8, 8, 8, 8);
    let plan = DecompPlan::new(d, [1, 1, 1, 1]);
    let (basis, stencil) = (SpinBasis::new(GammaBasis::NonRelativistic), Stencil::new(d, true));
    let mut world = quda_comm::comm_world(1);
    let mut comm = world.pop().unwrap();
    let mut f = SpinorFieldCb::<P>::new(d, true);
    f.upload(&random_spinor_field(d, 7), Parity::Odd);
    let mut exchange = || {
        let (one, odd) = (&[true], Parity::Odd);
        send_faces(&mut comm, from_ref(&f), one, &basis, &stencil, &plan, DIR_T, odd, false)
            .unwrap();
        recv_faces(&mut comm, from_mut(&mut f), one, &plan, DIR_T).unwrap();
    };
    exchange();
    let before = BYTES.load(Ordering::SeqCst);
    exchange();
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    let frames = 2 * (FRAME_OVERHEAD + face_wire_bytes::<P>(d.half_spatial_volume()));
    (bytes, frames as u64)
}

/// Bytes an exchange may allocate beyond its two frames.
const SLACK_BYTES: u64 = 256;

#[test]
fn blocking_exchange_allocates_only_its_frames() {
    for (name, (bytes, frames)) in
        [("double", exchange_bytes::<Double>()), ("half", exchange_bytes::<Half>())]
    {
        assert!(
            bytes <= frames + SLACK_BYTES,
            "{name}: one exchange allocated {bytes} B, its two frames are {frames} B"
        );
    }
}
