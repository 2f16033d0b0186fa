//! `quda-fields`: per-solve set-up (gauge upload, clover build) on the
//! `service_*` lattice, and the host↔device spinor round trip on the
//! kernel lattice.

use quda_fields::clover_build::clover_both_parities;
use quda_fields::gauge_gen::random_spinor_field;
use quda_fields::precision::{Double, Half, Precision};
use quda_fields::{GaugeFieldCb, HostSpinorField, SpinorFieldCb};
use quda_lattice::geometry::Parity;

use super::{Bench, Values, CALLS, KERNEL_DIMS};
use crate::workloads::dims;

fn roundtrip<P: Precision>(bench: &mut Bench, name: &'static str, host: &HostSpinorField) -> f64 {
    let mut dev = SpinorFieldCb::<P>::new(host.dims, true);
    let mut back = HostSpinorField::zero(host.dims);
    bench.sample(name, CALLS, || {
        dev.upload(host, Parity::Odd);
        dev.download(&mut back, Parity::Odd);
    })
}

pub fn run(bench: &mut Bench) -> Values {
    let local = bench.service_local.clone();
    let upload = bench.sample("fields.gauge_upload", CALLS, || {
        let mut g = GaugeFieldCb::<Double>::new(local.dims, true);
        g.upload(&local);
        std::hint::black_box(&g);
    });
    let global = bench.service_gauge.clone();
    let clover = bench.sample("fields.clover_build", CALLS, || {
        std::hint::black_box(clover_both_parities(&global, 1.0));
    });
    let host = random_spinor_field(dims(KERNEL_DIMS), bench.seed + 1);
    let double = roundtrip::<Double>(bench, "fields.spinor_roundtrip_double", &host);
    let half = roundtrip::<Half>(bench, "fields.spinor_roundtrip_half", &host);
    Values::from([
        ("fields.gauge_upload_us", upload * 1e6),
        ("fields.clover_build_us", clover * 1e6),
        ("fields.spinor_roundtrip_double_us", double * 1e6),
        ("fields.spinor_roundtrip_half_us", half * 1e6),
    ])
}
