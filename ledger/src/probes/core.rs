//! `quda-core`: what the interface adds around the grid driver — gauge
//! loading (unitarity check), the host-reference verification of every
//! solution, and the remainder.

use quda_core::{PrecisionMode, Quda};
use quda_dirac::WilsonParams;
use quda_multigpu::driver::verify_full_solution;

use super::{Bench, Values, SOLVE_CALLS};
use crate::workloads::{solve_param, RANKS};

/// Calls per sample of the ~30 ms interface steps.
const STEP_CALLS: usize = 5;

/// `solve_grid_s` is `multigpu.solve_grid_s` from the same run.
pub fn run(bench: &mut Bench, solve_grid_s: f64) -> Values {
    let cfg = bench.solve.gauge.clone();
    let b = bench.solve.sources[0].clone();
    let param = solve_param(PrecisionMode::Double);

    let load_gauge = bench.sample("core.load_gauge", STEP_CALLS, || {
        let mut quda = Quda::new(RANKS).expect("context");
        quda.load_gauge(cfg.clone()).expect("unitary");
    });
    let mut quda = Quda::new(RANKS).expect("context");
    quda.load_gauge(cfg.clone()).expect("unitary");
    let mut solution = None;
    let invert = bench.sample("core.invert", SOLVE_CALLS, || {
        solution = Some(quda.invert(&b, &param).expect("fault-free solve").0);
    });
    let x = solution.expect("at least one call");
    let wilson = WilsonParams { mass: param.mass, c_sw: param.c_sw };
    let verify = bench.sample("core.verify", STEP_CALLS, || {
        std::hint::black_box(verify_full_solution(&cfg, &wilson, &x, &b));
    });

    Values::from([
        ("core.verify_s", verify),
        ("core.load_gauge_s", load_gauge),
        ("core.overhead_s", invert - solve_grid_s),
    ])
}
