//! `quda-lattice`: the neighbour tables a rank builds per solve.

use quda_lattice::stencil::Stencil;

use super::{plan, Bench, Values, CALLS};
use crate::workloads::{dims, SERVICE_DIMS};

pub fn run(bench: &mut Bench) -> Values {
    let plan = plan(dims(SERVICE_DIMS));
    let t = bench.sample("lattice.stencil_build", CALLS, || {
        std::hint::black_box(Stencil::with_open(plan.local_dims(), plan.open_dims()));
    });
    Values::from([("lattice.stencil_build_us", t * 1e6)])
}
