//! `quda-dirac`: the site kernels on the 16×16×16×32 kernel lattice —
//! single-RHS and batched Dslash in double and half, clover apply, the
//! even-odd operator, and the site-major `cpu_opt` kernel as the practical
//! ceiling. Flop and byte figures come from `flops.rs` and the storage
//! width, so they are *computed*, not counted by hardware.

use quda_dirac::clover_apply::clover_apply_cb_multi;
use quda_dirac::flops::{DSLASH_FLOPS_PER_SITE, DSLASH_REALS_PER_SITE};
use quda_dirac::{
    dslash_cb, dslash_cb_multi, CpuDslash, DslashRegion, FlatSpinor, WilsonCloverOp, WilsonParams,
    INNER_PARITY, MAX_RHS_BATCH,
};
use quda_fields::gauge_gen::random_spinor_field;
use quda_fields::precision::{Double, Half, Precision};
use quda_fields::{GaugeFieldCb, HostSpinorField, SpinorFieldCb};
use quda_lattice::geometry::Parity;

use super::{Bench, Values, CALLS};
use crate::workloads::SOLVE_MASS;

/// Per-RHS seconds of `dslash_cb_multi` at batch 1 and at the full batch.
fn batched<P: Precision>(
    bench: &mut Bench,
    names: [&'static str; 2],
    gauge: &GaugeFieldCb<P>,
    op: &WilsonCloverOp<Double>,
    hosts: &[HostSpinorField],
) -> [f64; 2] {
    let field = || SpinorFieldCb::<P>::new_open(op.dims, op.stencil.open);
    let ins: Vec<_> = hosts
        .iter()
        .map(|h| {
            let mut x = field();
            x.upload(h, Parity::Odd);
            x
        })
        .collect();
    let mut outs: Vec<_> = hosts.iter().map(|_| field()).collect();
    let active = [true; MAX_RHS_BATCH];
    let mut per_rhs = |bench: &mut Bench, name, n: usize| {
        let t = bench.sample(name, CALLS, || {
            dslash_cb_multi(
                &mut outs[..n],
                gauge,
                &ins[..n],
                Parity::Even,
                &op.stencil,
                &op.basis,
                false,
                DslashRegion::All,
                &active[..n],
            );
        });
        t / n as f64
    };
    [per_rhs(bench, names[0], 1), per_rhs(bench, names[1], MAX_RHS_BATCH)]
}

pub fn run(bench: &mut Bench) -> Values {
    let cfg = bench.kernel_gauge.clone();
    let sites = cfg.dims.half_volume() as f64;
    let hosts: Vec<_> = (0..MAX_RHS_BATCH as u64)
        .map(|r| random_spinor_field(cfg.dims, bench.seed + 1 + r))
        .collect();
    let op =
        WilsonCloverOp::<Double>::from_config(&cfg, WilsonParams { mass: SOLVE_MASS, c_sw: 1.0 });
    let mut x = op.alloc_spinor();
    x.upload(&hosts[0], Parity::Odd);
    let (mut out, mut tmp, mut tmp2) = (op.alloc_spinor(), op.alloc_spinor(), op.alloc_spinor());

    let single = bench.sample("dirac.dslash_single_double", CALLS, || {
        dslash_cb(
            &mut out,
            &op.gauge,
            &x,
            Parity::Even,
            &op.stencil,
            &op.basis,
            false,
            DslashRegion::All,
        );
    });
    let clover = bench.sample("dirac.clover_apply_double", CALLS, || {
        clover_apply_cb_multi(
            std::slice::from_mut(&mut out),
            &op.clover_inv[INNER_PARITY.as_usize()],
            std::slice::from_ref(&x),
            &op.map,
            &[true],
        );
    });
    let matpc = bench.sample("dirac.matpc_double", CALLS, || {
        op.apply_matpc(&mut out, &x, &mut tmp, &mut tmp2, false);
    });
    let [b1_double, b8_double] = batched::<Double>(
        bench,
        ["dirac.dslash_b1_double", "dirac.dslash_b8_double"],
        &op.gauge,
        &op,
        &hosts,
    );
    let mut gauge_half = GaugeFieldCb::<Half>::new(cfg.dims, true);
    gauge_half.upload(&cfg);
    let [b1_half, b8_half] = batched::<Half>(
        bench,
        ["dirac.dslash_b1_half", "dirac.dslash_b8_half"],
        &gauge_half,
        &op,
        &hosts,
    );

    let cpu = CpuDslash::new(&cfg);
    let flat_in = FlatSpinor::from_host(&hosts[0], Parity::Odd);
    let mut flat_out = FlatSpinor::new(cfg.dims);
    let cpu_opt = bench.sample("dirac.cpu_opt", CALLS, || {
        cpu.apply(&mut flat_out, &flat_in, Parity::Even);
    });

    let flops = DSLASH_FLOPS_PER_SITE as f64 * sites;
    let bytes = DSLASH_REALS_PER_SITE as f64 * Double::STORAGE_BYTES as f64 * sites;
    let gflops = flops / single / 1e9;
    let cpu_opt_gflops = cpu.flops_per_apply() as f64 / cpu_opt / 1e9;
    Values::from([
        ("dirac.dslash_single_double_us", single * 1e6),
        ("dirac.clover_apply_double_us", clover * 1e6),
        ("dirac.matpc_double_us", matpc * 1e6),
        ("dirac.dslash_b1_double_us", b1_double * 1e6),
        ("dirac.dslash_b1_half_us", b1_half * 1e6),
        ("dirac.dslash_b8_double_us", b8_double * 1e6),
        ("dirac.dslash_b8_half_us", b8_half * 1e6),
        ("dirac.dslash_double_gflops", gflops),
        ("dirac.dslash_double_gbs_computed", bytes / single / 1e9),
        ("dirac.dslash_flops_per_byte", flops / bytes),
        ("dirac.cpu_opt_gflops", cpu_opt_gflops),
        ("dirac.dslash_vs_cpu_opt", gflops / cpu_opt_gflops),
    ])
}
