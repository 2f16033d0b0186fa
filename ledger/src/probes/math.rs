//! `quda-math`: the half-precision site codec.

use quda_math::half::{dequantize_sites16, quantize_sites16};
use quda_math::spinor::SPINOR_REALS;

use super::{Bench, Values, CALLS, KERNEL_DIMS};
use crate::workloads::dims;

pub fn run(bench: &mut Bench) -> Values {
    // One checkerboard of the kernel lattice, one shared norm per spinor.
    let sites = dims(KERNEL_DIMS).half_volume();
    let values: Vec<f64> =
        (0..sites * SPINOR_REALS).map(|i| ((i * 37 % 101) as f64 - 50.0) * 0.01).collect();
    let mut ints = Vec::with_capacity(values.len());
    let mut norms = Vec::with_capacity(sites);
    let mut back = Vec::with_capacity(values.len());
    let t = bench.sample("math.half_codec", CALLS, || {
        ints.clear();
        norms.clear();
        back.clear();
        quantize_sites16(&values, SPINOR_REALS, &mut ints, &mut norms);
        dequantize_sites16(&ints, &norms, SPINOR_REALS, &mut back);
        std::hint::black_box(&back);
    });
    Values::from([("math.half_codec_ns_per_site", t * 1e9 / sites as f64)])
}
