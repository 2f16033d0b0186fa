//! # quda-lattice
//!
//! Lattice geometry and memory layout for `quda-rs`:
//!
//! * [`geometry`] — 4-d extents, lexicographic and even-odd (checkerboard)
//!   site indexing, periodic neighbors (paper Fig. 1);
//! * [`layout`] — the QUDA device field layout of Eqs. 3–5 and Fig. 2 that
//!   the device cost model charges: `Nvec` short-vector blocking, the
//!   partition-camping pad, the gauge ghost slice in the pad (the host
//!   fields store sites only);
//! * [`stencil`] — precomputed neighbor tables that classify each hop
//!   across an open dimension's boundary as a ghost reference;
//! * [`partition`] — the process-grid decomposition; the 1-d temporal
//!   slicing of Section VI-A is its `1×1×1×N` plan.

#![warn(missing_docs)]

pub mod geometry;
pub mod layout;
pub mod partition;
pub mod stencil;

pub use geometry::{Coord, LatticeDims, Parity, DIR_T, DIR_X, DIR_Y, DIR_Z};
pub use layout::{species, FieldLayout, NVec};
pub use stencil::{BoundaryKind, NeighborRef, ParityStencil, Stencil};
