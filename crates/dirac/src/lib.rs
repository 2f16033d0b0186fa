//! # quda-dirac
//!
//! The Wilson-clover lattice Dirac operator (Eq. 2 of the paper):
//!
//! * [`reference`](mod@reference) — a dense, natural-ordering host implementation used as
//!   ground truth;
//! * [`dslash`] — the optimized checkerboard hopping kernel with rank-2
//!   projectors, compressed links, ghost zones, and interior/face splitting
//!   for communication overlap: one site body over a block of right-hand
//!   sides, monomorphised on the active-lane count, of which a single field
//!   ([`dslash_cb`]) is batch 1;
//! * [`clover_apply`] — packed clover-term application over a block of
//!   right-hand sides (a single field is the one-element slice);
//! * [`op`] — the operator's device fields and the one even-odd (Schur)
//!   composition: `M̂` and its dagger, source preparation and solution
//!   reconstruction, batched over right-hand sides ([`MatPcOp`]) and
//!   generic over the [`Halo`] that fills each hop's ghost zones
//!   ([`NoHalo`] on a single device, the face exchange on a rank);
//! * [`flops`] — the effective operation/byte counts (3696 flops and 2976
//!   single-precision bytes per site, as quoted in Section V-A);
//! * [`cpu_opt`] — a cache-friendly, Rayon-parallel CPU hopping kernel,
//!   the functional stand-in for the "9q" cluster's SSE baseline
//!   (Section VII-C).

#![warn(missing_docs)]

pub mod clover_apply;
pub mod cpu_opt;
pub mod dslash;
pub mod flops;
pub mod op;
pub mod reference;

pub use cpu_opt::{CpuDslash, FlatSpinor};
pub use dslash::{dslash_cb, dslash_cb_multi, gather_face_site, DslashRegion, MAX_RHS_BATCH};
pub use op::{Halo, MatPcOp, NoHalo, WilsonCloverOp, INNER_PARITY, SOLVE_PARITY};
pub use reference::WilsonParams;
