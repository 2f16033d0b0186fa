//! # quda-comm
//!
//! The message-passing substrate (the QMP/MPI substitute — see DESIGN.md
//! §2): thread-ranks exchanging byte messages over channels with `(from,
//! tag)` matching, deterministic allreduce collectives, and one owned
//! [`Frame`] per message, which the face exchange encodes into in place.
//! Traffic is counted per rank so the performance model can price every
//! face exchange with the InfiniBand model from `quda-gpusim`.
//!
//! The layer is failure-aware (DESIGN.md §7): every hot API returns a typed
//! [`CommError`], messages travel as checksummed frames with sequence
//! numbers, and a deterministic seed-driven [`FaultPlan`] can inject drops,
//! delays, duplicates, truncations, bit-flips, and dead or slow ranks for
//! chaos testing. The `chaos` cargo feature enables the heavier soak tests.

#![warn(missing_docs)]
// The no-panic invariant (xtask lint rule `no-panic`), also machine-checked
// at compile time: a panicking rank hangs its peers mid-allreduce.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod error;
pub mod fault;
pub mod lockstep;
pub mod tags;
pub mod world;

pub use codec::{checksum, le_bytes, pack_f64, unpack_f64, Frame, FRAME_OVERHEAD};
pub use error::{CommError, DecodeError};
pub use fault::{CollectiveFault, FaultAction, FaultPlan};
pub use lockstep::{CollectiveKind, LockstepConfig, LockstepRecord};
pub use world::{comm_world, comm_world_with, CommConfig, CommStats, Communicator};
