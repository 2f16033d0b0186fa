//! Per-layer probes: each crate's public functions, called and timed from
//! outside, one file per crate. Nothing here runs inside an end-to-end
//! timed region.
//!
//! API-surface rule (README.md): probes prefer the grid and `_multi` forms
//! ROADMAP item 2 keeps. They never call `send_faces`/`recv_faces`, the
//! `TimePartition` exchange, `solve_full_parallel*` or
//! `bicgstab_defect_correction`; the one legacy-only call is `dslash_cb`
//! (`dirac.dslash_single_double_us`), kept because batch 1 of
//! `dslash_cb_multi` is judged against it.

pub mod comm;
pub mod core;
pub mod dirac;
pub mod fields;
pub mod lattice;
pub mod math;
pub mod multigpu;
pub mod service;
pub mod solvers;

use std::collections::BTreeMap;

use quda_fields::gauge_gen::weak_field;
use quda_fields::host::GaugeConfig;
use quda_lattice::geometry::LatticeDims;
use quda_lattice::partition::DecompPlan;

use crate::host;
use crate::inputs::Inputs;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{dims, RANKS, SERVICE_DIMS, SOLVE_DIMS};

/// Calls per kernel sample; the median is reported.
pub const CALLS: usize = 15;
/// Calls per whole-solve sample (each is ~1 s).
pub const SOLVE_CALLS: usize = 3;

/// Kernel probes run here, so every field exceeds the 2 MiB per-core L2 (a
/// double checkerboard spinor is 12 MiB, the gauge field 48 MiB); all of
/// it still fits the 260 MiB L3, which the README states beside the
/// figures.
pub const KERNEL_DIMS: (usize, usize, usize, usize) = (16, 16, 16, 32);

/// Named results, in seconds or the unit the name says.
pub type Values = BTreeMap<&'static str, f64>;

/// What every probe file draws on: the span recorder and inputs generated
/// once from the seed.
pub struct Bench<'a> {
    pub spans: &'a mut Spans,
    /// 16×16×16×32 gauge field for the kernel probes.
    pub kernel_gauge: GaugeConfig,
    /// The `solve_volume_*` problem (8×8×8×16, one source).
    pub solve: Inputs,
    /// The `service_*` gauge field (4×4×4×8) and one rank's block of it:
    /// what a `service_split` solve sets up from scratch.
    pub service_gauge: GaugeConfig,
    pub service_local: GaugeConfig,
    pub seed: u64,
}

impl<'a> Bench<'a> {
    pub fn new(seed: u64, spans: &'a mut Spans) -> Bench<'a> {
        let span = spans.enter("probe_inputs", None);
        let service = dims(SERVICE_DIMS);
        let bench = Bench {
            kernel_gauge: weak_field(dims(KERNEL_DIMS), 0.1, seed),
            solve: Inputs::generate(dims(SOLVE_DIMS), seed, 1),
            service_gauge: weak_field(service, 0.1, seed),
            service_local: weak_field(rank_dims(service), 0.1, seed),
            seed,
            spans,
        };
        bench.spans.exit(span);
        bench
    }

    /// Median seconds of `calls` calls of `f`, each its own span.
    pub fn sample(&mut self, name: &'static str, calls: usize, mut f: impl FnMut()) -> f64 {
        let span = self.spans.enter(name, None);
        let times: Vec<f64> =
            (0..calls).map(|_| self.spans.timed("call", None, &mut f).1).collect();
        self.spans.exit(span);
        median(&times)
    }
}

/// The two-rank temporal split every workload solves on.
pub fn plan(global: LatticeDims) -> DecompPlan {
    DecompPlan::new(global, [1, 1, 1, RANKS])
}

/// One rank's block under [`plan`].
pub fn rank_dims(global: LatticeDims) -> LatticeDims {
    plan(global).local_dims()
}

/// Run every probe file; the union of their values, plus the host's own
/// figures. Peak memory is read first, before the kernel-lattice probes
/// allocate, so it describes the workload rounds that ran before.
pub fn run_all(seed: u64, spans: &mut Spans) -> Values {
    let mut values = Values::from([("host.peak_rss_mb", host::peak_rss_mb())]);
    let mut bench = Bench::new(seed, spans);
    values.extend(math::run(&mut bench));
    values.extend(lattice::run(&mut bench));
    values.extend(fields::run(&mut bench));
    values.extend(dirac::run(&mut bench));
    values.extend(solvers::run(&mut bench));
    values.extend(comm::run(&mut bench));
    values.extend(multigpu::run(&mut bench));
    let solve_grid_s = values["multigpu.solve_grid_s"];
    values.extend(core::run(&mut bench, solve_grid_s));
    values.insert("host.stream_triad_gbs", host::stream_triad_gbs(CALLS));
    values
}
