//! # quda-math
//!
//! Scalar, color, and spin linear algebra for `quda-rs` — a Rust
//! reproduction of *"Parallelizing the QUDA Library for Multi-GPU
//! Calculations in Lattice Quantum Chromodynamics"* (Babich, Clark, Joó,
//! SC10 2010).
//!
//! This crate is deliberately free of any lattice/geometry knowledge: it
//! provides the per-site mathematical objects —
//!
//! * [`complex::Complex`] numbers over [`real::Real`] scalars,
//! * [`colorvec::ColorVec`] color vectors and [`su3::Su3`] link matrices
//!   with 2-row compression ([`su3::Su3Compressed`]),
//! * [`spinor::Spinor`] / [`spinor::HalfSpinor`] color-spinors,
//! * [`gamma::SpinBasis`] gamma matrices in the DeGrand-Rossi and
//!   non-relativistic bases, with compiled rank-2 projectors
//!   ([`gamma::HalfProj`]) and the non-relativistic ones fixed per
//!   direction and sign ([`nr`]),
//! * the packed 72-real [`clover::CloverSite`] clover term, and
//! * the 16-bit fixed-point storage format ([`half::Fixed16`]).

#![warn(missing_docs)]

pub mod clover;
pub mod colorvec;
pub mod complex;
pub mod gamma;
pub mod half;
pub mod nr;
pub mod real;
pub mod spinor;
pub mod su3;

pub use clover::{CloverBasisMap, CloverBlock, CloverSite, CLOVER_REALS};
pub use colorvec::ColorVec;
pub use complex::{Complex, C32, C64};
pub use gamma::{GammaBasis, HalfProj, PermPhase, SpinBasis, NDIM};
pub use half::{Fixed16, FIXED16_SCALE};
pub use real::Real;
pub use spinor::{HalfSpinor, Spinor, HALF_SPINOR_REALS, SPINOR_REALS};
pub use su3::{Su3, Su3Compressed};
