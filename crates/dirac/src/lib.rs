//! # quda-dirac
//!
//! The Wilson-clover lattice Dirac operator (Eq. 2 of the paper):
//!
//! * [`reference`](mod@reference) — a dense, natural-ordering host implementation used as
//!   ground truth;
//! * [`dslash`] — the optimized checkerboard hopping kernel with rank-2
//!   projectors, compressed links, ghost zones, and interior/face splitting
//!   for communication overlap;
//! * [`clover_apply`] — packed clover-term application;
//! * [`op`] — the single-device operator: full matrix, even-odd (Schur)
//!   preconditioned `M̂`, its dagger and normal form, source preparation
//!   and solution reconstruction;
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
pub use dslash::{dslash_cb, dslash_cb_multi, gather_face_site_dim, DslashRegion, MAX_RHS_BATCH};
pub use op::{WilsonCloverOp, INNER_PARITY, SOLVE_PARITY};
pub use reference::WilsonParams;
