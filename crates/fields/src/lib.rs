//! # quda-fields
//!
//! Field containers for `quda-rs`:
//!
//! * [`precision`] — the double / single / half storage precisions;
//! * [`host`] — host-side (application) fields in natural ordering;
//! * [`spinor_cb`], [`gauge_cb`], [`clover_cb`] — device fields in the QUDA
//!   layout of Fig. 2, with ghost zones and half-precision normalization;
//! * [`gauge_gen`] — weak-field / random configuration generators
//!   (Section VII-A);
//! * [`clover_build`] — the Sheikholeslami-Wohlert term from clover leaves,
//!   packed into the 72-real chiral-block format;
//! * [`io`] — checksummed binary gauge-configuration files;
//! * [`gauge_mc`] — pure-gauge heatbath/overrelaxation Monte Carlo (the
//!   gauge-generation future work of Section VIII).

#![warn(missing_docs)]

pub mod clover_build;
pub mod clover_cb;
pub mod gauge_cb;
pub mod gauge_gen;
pub mod gauge_mc;
pub mod host;
pub mod io;
pub mod precision;
pub mod spinor_cb;

pub use clover_cb::CloverFieldCb;
pub use gauge_cb::GaugeFieldCb;
pub use gauge_mc::GaugeMonteCarlo;
pub use host::{GaugeConfig, HostSpinorField};
pub use io::{load_gauge_file, read_gauge, save_gauge_file, write_gauge, GaugeIoError};
pub use precision::{Double, Half, Precision, PrecisionTag, Single};
pub use spinor_cb::{SitesMut, SpinorFieldCb};
