//! The per-rank parallel Wilson-clover operator (Section VI).
//!
//! Each rank owns one domain of a [`DecompPlan`] process grid (the paper's
//! `T/N` time-slice being the `1×1×1×N` special case), a [`WilsonCloverOp`]
//! built on the local volume with an *open* boundary in every partitioned
//! dimension, and a [`Communicator`]. Every hopping-term application
//! exchanges the spinor faces of each open dimension first — either
//! blocking ([`CommStrategy::NoOverlap`]) or split around the interior
//! kernel ([`CommStrategy::Overlap`], the three-stream scheme of Section
//! VI-D2, with each direction's receive and exterior update progressing
//! independently). Reductions are globalized through the communicator
//! (Section VI-E).

use crate::ghost::{exchange_gauge_ghosts, exchange_spinor_ghosts, recv_faces, send_faces};
use crate::slice::{local_clover_grid, slice_config_grid};
use quda_comm::{CommError, CommStats, Communicator};
use quda_dirac::clover_apply::{clover_apply_cb, clover_apply_cb_multi, clover_axpy_cb_multi};
use quda_dirac::dslash::{dslash_cb_multi, DslashRegion, MAX_RHS_BATCH};
use quda_dirac::{WilsonCloverOp, WilsonParams, INNER_PARITY, SOLVE_PARITY};
use quda_fields::host::GaugeConfig;
use quda_fields::precision::Precision;
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_lattice::partition::DecompPlan;
use quda_math::complex::C64;
use quda_math::real::Real;
use quda_obs::{Phase, Tracer};
use quda_solvers::operator::{LinearOperator, OpFault};
use std::slice::from_mut;

/// Communication strategy for the face exchange (Section VI-D).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CommStrategy {
    /// Communicate up front, then run one kernel over the whole volume.
    NoOverlap,
    /// Start sends, compute the interior, receive, finish the faces.
    Overlap,
}

/// The mask of a one-element block: a single right-hand side is batch 1 of
/// the block path.
const ONE: &[bool] = &[true];

/// A rank's share of the parallelized even-odd Wilson-clover operator.
pub struct ParallelWilsonCloverOp<P: Precision> {
    /// The local single-device operator (open temporal boundary).
    pub op: WilsonCloverOp<P>,
    /// This rank's communicator endpoint.
    pub comm: Communicator,
    /// Face-exchange strategy.
    pub strategy: CommStrategy,
    /// Whether the lattice is actually split (more than one rank).
    pub partitioned: bool,
    /// The process-grid plan this rank belongs to.
    pub plan: DecompPlan,
    // Per-RHS scratch (never empty), grown on demand to the largest block
    // seen so steady-state sweeps never allocate.
    tmp1s: Vec<SpinorFieldCb<P>>,
    tmp2s: Vec<SpinorFieldCb<P>>,
    /// Face exchanges performed (2 per operator application).
    pub exchange_count: u64,
    // First communication error seen; once set the operator is *poisoned*:
    // applies no-op, reductions return NaN, and the solver's fault poll
    // surfaces the error (DESIGN.md §7).
    fault: Option<CommError>,
}

/// Apply the hopping term to a block of right-hand sides with the face
/// exchange appropriate to the strategy, iterating the plan's partitioned
/// dimensions: one fused face message per `(dimension, direction)` for the
/// whole block, and one gauge-link decode per `(site, μ)` shared across it.
/// Per active RHS the result is bit-identical to applying it alone. Free
/// function so callers can split borrows across the operator's fields.
#[allow(clippy::too_many_arguments)]
fn dslash_exchanged<P: Precision>(
    comm: &mut Communicator,
    op: &WilsonCloverOp<P>,
    plan: &DecompPlan,
    strategy: CommStrategy,
    partitioned: bool,
    outs: &mut [SpinorFieldCb<P>],
    inputs: &mut [SpinorFieldCb<P>],
    active: &[bool],
    out_parity: Parity,
    dagger: bool,
) -> Result<u64, CommError> {
    let tracer = comm.tracer().clone();
    let (gauge, stencil, basis) = (&op.gauge, &op.stencil, &op.basis);
    if !partitioned {
        let _kernel = tracer.span(Phase::Kernel);
        let all = DslashRegion::All;
        dslash_cb_multi(outs, gauge, inputs, out_parity, stencil, basis, dagger, all, active);
        return Ok(0);
    }
    // The exchanged operand is the *input* spinor: the opposite parity of
    // the slice being produced (the X/Y/Z face enumerations need it).
    let in_parity = out_parity.other();
    match strategy {
        CommStrategy::NoOverlap => {
            exchange_spinor_ghosts(comm, inputs, active, basis, stencil, plan, in_parity, dagger)?;
            let _kernel = tracer.span(Phase::Kernel);
            let all = DslashRegion::All;
            dslash_cb_multi(outs, gauge, inputs, out_parity, stencil, basis, dagger, all, active);
        }
        CommStrategy::Overlap => {
            for dim in plan.active_dims() {
                send_faces(comm, inputs, active, basis, stencil, plan, dim, in_parity, dagger)?;
            }
            {
                // Compute running while all faces are in flight — the
                // hidden-communication window the breakdown's overlap
                // efficiency measures.
                let _interior = tracer.span(Phase::Interior);
                let region = DslashRegion::Interior;
                dslash_cb_multi(
                    outs, gauge, inputs, out_parity, stencil, basis, dagger, region, active,
                );
            }
            // Each direction progresses independently: as soon as one
            // dimension's ghosts land, its boundary sites are updated,
            // while the remaining directions are still in flight
            // (ascending-dim order updates every boundary site exactly
            // once — corner sites run with their last-arriving face).
            for dim in plan.active_dims() {
                recv_faces(comm, inputs, active, plan, dim)?;
                let _exterior = tracer.span(Phase::exterior_dim(dim));
                let region = DslashRegion::FacesDim(dim);
                dslash_cb_multi(
                    outs, gauge, inputs, out_parity, stencil, basis, dagger, region, active,
                );
            }
        }
    }
    Ok(1)
}

impl<P: Precision> ParallelWilsonCloverOp<P> {
    /// Build a rank's operator for a [`DecompPlan`] process grid (the
    /// paper's temporal slicing is the `1×1×1×N` plan): slices the gauge
    /// field to the rank's sub-block, computes the globally correct clover
    /// term, uploads at precision `P`, opens every partitioned dimension of
    /// the local stencil, and performs the one-time gauge ghost exchange on
    /// each open dimension's ring.
    ///
    /// Fails with a [`CommError`] when the gauge ghost exchange cannot be
    /// completed (dead peer, timeout, unrecoverable corruption).
    pub fn new_grid(
        global: &GaugeConfig,
        plan: DecompPlan,
        rank: usize,
        mut comm: Communicator,
        wilson: WilsonParams,
        strategy: CommStrategy,
    ) -> Result<Self, CommError> {
        assert_eq!(comm.rank(), rank);
        assert_eq!(comm.size(), plan.n_ranks());
        let local_cfg = slice_config_grid(global, &plan, rank);
        let clover = local_clover_grid(global, &plan, rank, wilson.c_sw);
        let mut op = WilsonCloverOp::<P>::from_config_open(
            &local_cfg,
            wilson,
            plan.open_dims(),
            Some(clover),
        );
        // No-op on an unpartitioned plan (no active dimensions).
        exchange_gauge_ghosts(&mut comm, &mut op.gauge, &plan)?;
        let tmp1s = vec![op.alloc_spinor()];
        let tmp2s = vec![op.alloc_spinor()];
        Ok(ParallelWilsonCloverOp {
            op,
            comm,
            strategy,
            partitioned: plan.is_partitioned(),
            plan,
            tmp1s,
            tmp2s,
            exchange_count: 0,
            fault: None,
        })
    }

    /// Take the communication error that poisoned this operator, if any,
    /// clearing the poisoned state. The parallel driver uses this to turn a
    /// solver abort back into the original typed [`CommError`].
    pub fn take_comm_fault(&mut self) -> Option<CommError> {
        self.fault.take()
    }

    /// The communication error that poisoned this operator, if any.
    pub fn comm_fault(&self) -> Option<&CommError> {
        self.fault.as_ref()
    }

    /// This rank's communication recovery counters.
    pub fn comm_stats(&self) -> CommStats {
        self.comm.stats()
    }

    /// The parallel even-odd preconditioned application
    /// `outs[r] = T_oo ins[r] − ¼ D_oe T_ee⁻¹ D_eo ins[r]` for every active
    /// RHS of the block, with one fused face exchange before each hopping
    /// term. A single right-hand side is the one-element block.
    ///
    /// Per active RHS the result is bit-identical to applying it alone;
    /// inactive slots are left untouched. A communication failure does not
    /// panic: it poisons the operator (see
    /// [`ParallelWilsonCloverOp::take_comm_fault`]) and the application
    /// becomes a no-op, which the calling solver notices via NaN reductions
    /// and its fault poll.
    pub fn apply_matpc_par(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
        dagger: bool,
    ) {
        if self.fault.is_some() {
            return;
        }
        if let Err(e) = self.try_apply_matpc_par(outs, ins, active, dagger) {
            self.fault = Some(e);
        }
    }

    fn try_apply_matpc_par(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
        dagger: bool,
    ) -> Result<(), CommError> {
        let n = ins.len();
        assert_eq!(outs.len(), n);
        assert_eq!(active.len(), n);
        assert!(n <= MAX_RHS_BATCH, "batch exceeds MAX_RHS_BATCH");
        let n_active = active.iter().filter(|&&a| a).count();
        if n_active == 0 {
            return Ok(());
        }
        while self.tmp1s.len() < n {
            self.tmp1s.push(self.op.alloc_spinor());
            self.tmp2s.push(self.op.alloc_spinor());
        }
        self.exchange_count += dslash_exchanged(
            &mut self.comm,
            &self.op,
            &self.plan,
            self.strategy,
            self.partitioned,
            &mut self.tmp1s[..n],
            ins,
            active,
            INNER_PARITY,
            dagger,
        )?;
        clover_apply_cb_multi(
            &mut self.tmp2s[..n],
            &self.op.clover_inv[INNER_PARITY.as_usize()],
            &self.tmp1s[..n],
            &self.op.map,
            active,
        );
        self.exchange_count += dslash_exchanged(
            &mut self.comm,
            &self.op,
            &self.plan,
            self.strategy,
            self.partitioned,
            &mut self.tmp1s[..n],
            &mut self.tmp2s[..n],
            active,
            SOLVE_PARITY,
            dagger,
        )?;
        clover_axpy_cb_multi(
            outs,
            &self.op.clover[SOLVE_PARITY.as_usize()],
            ins,
            P::Arith::from_f64(-0.25),
            &self.tmp1s[..n],
            &self.op.map,
            active,
        );
        self.op.matpc_count.set(self.op.matpc_count.get() + n_active as u64);
        Ok(())
    }

    /// Source preparation `b̂_o = b_o + ½ D_oe T_ee⁻¹ b_e` with exchanges.
    pub fn prepare_source_par(
        &mut self,
        out: &mut SpinorFieldCb<P>,
        b_even: &SpinorFieldCb<P>,
        b_odd: &SpinorFieldCb<P>,
    ) -> Result<(), CommError> {
        if let Some(e) = &self.fault {
            return Err(e.clone());
        }
        let _span = self.comm.tracer().span(Phase::Prepare);
        clover_apply_cb(
            &mut self.tmp1s[0],
            &self.op.clover_inv[INNER_PARITY.as_usize()],
            b_even,
            &self.op.map,
        );
        self.exchange_count += dslash_exchanged(
            &mut self.comm,
            &self.op,
            &self.plan,
            self.strategy,
            self.partitioned,
            &mut self.tmp2s[..1],
            &mut self.tmp1s[..1],
            ONE,
            SOLVE_PARITY,
            false,
        )
        .inspect_err(|e| {
            self.fault = Some(e.clone());
        })?;
        let half_d = &self.tmp2s[0];
        for cb in 0..out.sites() {
            let v = b_odd.get(cb) + half_d.get(cb).scale_re(P::Arith::from_f64(0.5));
            out.set(cb, &v);
        }
        Ok(())
    }

    /// Even-parity reconstruction `x_e = T_ee⁻¹ (b_e + ½ D_eo x_o)`.
    pub fn reconstruct_even_par(
        &mut self,
        x_even: &mut SpinorFieldCb<P>,
        b_even: &SpinorFieldCb<P>,
        x_odd: &mut SpinorFieldCb<P>,
    ) -> Result<(), CommError> {
        if let Some(e) = &self.fault {
            return Err(e.clone());
        }
        let _span = self.comm.tracer().span(Phase::Reconstruct);
        self.exchange_count += dslash_exchanged(
            &mut self.comm,
            &self.op,
            &self.plan,
            self.strategy,
            self.partitioned,
            &mut self.tmp1s[..1],
            from_mut(x_odd),
            ONE,
            INNER_PARITY,
            false,
        )
        .inspect_err(|e| {
            self.fault = Some(e.clone());
        })?;
        let tmp = &mut self.tmp1s[0];
        for cb in 0..tmp.sites() {
            let v = b_even.get(cb) + tmp.get(cb).scale_re(P::Arith::from_f64(0.5));
            tmp.set(cb, &v);
        }
        clover_apply_cb(x_even, &self.op.clover_inv[INNER_PARITY.as_usize()], tmp, &self.op.map);
        Ok(())
    }
}

impl<P: Precision> LinearOperator<P> for ParallelWilsonCloverOp<P> {
    fn dims(&self) -> LatticeDims {
        self.op.dims
    }

    fn alloc(&self) -> SpinorFieldCb<P> {
        self.op.alloc_spinor()
    }

    fn apply(&mut self, out: &mut SpinorFieldCb<P>, input: &mut SpinorFieldCb<P>) {
        self.apply_matpc_par(from_mut(out), from_mut(input), ONE, false);
    }

    fn apply_dagger(&mut self, out: &mut SpinorFieldCb<P>, input: &mut SpinorFieldCb<P>) {
        self.apply_matpc_par(from_mut(out), from_mut(input), ONE, true);
    }

    fn apply_multi(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
    ) {
        self.apply_matpc_par(outs, ins, active, false);
    }

    fn apply_dagger_multi(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
    ) {
        self.apply_matpc_par(outs, ins, active, true);
    }

    fn flops_per_apply(&self) -> u64 {
        self.op.dims.half_volume() as u64 * quda_dirac::flops::MATPC_FLOPS_PER_SITE
    }

    fn reduce(&mut self, local: f64) -> f64 {
        if self.fault.is_some() {
            return f64::NAN;
        }
        match self.comm.allreduce_sum_f64(local) {
            Ok(v) => v,
            Err(e) => {
                self.fault = Some(e);
                f64::NAN
            }
        }
    }

    fn reduce_c(&mut self, local: C64) -> C64 {
        if self.fault.is_some() {
            return C64::new(f64::NAN, f64::NAN);
        }
        match self.comm.allreduce_vec(&[local.re, local.im]) {
            Ok(v) => C64::new(v[0], v[1]),
            Err(e) => {
                self.fault = Some(e);
                C64::new(f64::NAN, f64::NAN)
            }
        }
    }

    fn reduce_vec(&mut self, locals: &mut [f64]) {
        if self.fault.is_some() {
            locals.fill(f64::NAN);
            return;
        }
        match self.comm.allreduce_vec(locals) {
            Ok(v) => locals.copy_from_slice(&v),
            Err(e) => {
                self.fault = Some(e);
                locals.fill(f64::NAN);
            }
        }
    }

    fn fault(&self) -> Option<OpFault> {
        self.fault.as_ref().map(|e| OpFault { message: e.to_string() })
    }

    fn tracer(&self) -> Tracer {
        self.comm.tracer().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::{gather_spinor_grid, slice_spinor_grid};
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_fields::host::HostSpinorField;
    use quda_fields::precision::Double;

    type RankOp = ParallelWilsonCloverOp<Double>;

    /// The paper's decomposition: 4×4×2×8 over two temporal ranks.
    fn global_setup() -> (GaugeConfig, DecompPlan, WilsonParams) {
        let d = LatticeDims::new(4, 4, 2, 8);
        let plan = DecompPlan::new(d, [1, 1, 1, 2]);
        (weak_field(d, 0.15, 11), plan, WilsonParams { mass: 0.2, c_sw: 1.0 })
    }

    /// Build every rank's operator on its own thread and run `body` on it;
    /// results come back in rank order.
    fn on_ranks<T: Send + 'static>(
        cfg: &GaugeConfig,
        plan: DecompPlan,
        wp: WilsonParams,
        strategy: CommStrategy,
        body: impl Fn(usize, &mut RankOp) -> T + Clone + Send + 'static,
    ) -> Vec<T> {
        let handles: Vec<_> = quda_comm::comm_world(plan.n_ranks())
            .into_iter()
            .enumerate()
            .map(|(rank, comm)| {
                let (cfg, body) = (cfg.clone(), body.clone());
                std::thread::spawn(move || {
                    let mut op = RankOp::new_grid(&cfg, plan, rank, comm, wp, strategy).unwrap();
                    body(rank, &mut op)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn upload(op: &RankOp, host: &HostSpinorField) -> SpinorFieldCb<Double> {
        let mut x = op.alloc();
        x.upload(host, Parity::Odd);
        x
    }

    fn download(op: &RankOp, x: &SpinorFieldCb<Double>) -> HostSpinorField {
        let mut host = HostSpinorField::zero(op.plan.local_dims());
        x.download(&mut host, Parity::Odd);
        host
    }

    /// `M̂^powers x` on the single-device operator over the full lattice.
    fn reference_matpc(
        cfg: &GaugeConfig,
        wp: WilsonParams,
        input: &HostSpinorField,
        dagger: bool,
        powers: usize,
    ) -> HostSpinorField {
        let ref_op = WilsonCloverOp::<Double>::from_config(cfg, wp);
        let mut x = ref_op.alloc_spinor();
        x.upload(input, Parity::Odd);
        let mut out = ref_op.alloc_spinor();
        let (mut t1, mut t2) = (ref_op.alloc_spinor(), ref_op.alloc_spinor());
        for _ in 0..powers {
            ref_op.apply_matpc(&mut out, &x, &mut t1, &mut t2, dagger);
            std::mem::swap(&mut x, &mut out);
        }
        let mut expect = HostSpinorField::zero(cfg.dims);
        x.download(&mut expect, Parity::Odd);
        expect
    }

    /// Single-device reference vs. one thread per grid domain.
    fn grid_matpc(
        cfg: &GaugeConfig,
        plan: DecompPlan,
        wp: WilsonParams,
        strategy: CommStrategy,
        dagger: bool,
    ) -> (HostSpinorField, HostSpinorField) {
        let input = random_spinor_field(plan.global(), 5);
        let expect = reference_matpc(cfg, wp, &input, dagger, 1);
        let locals = on_ranks(cfg, plan, wp, strategy, move |rank, op| {
            let mut x = upload(op, &slice_spinor_grid(&input, &plan, rank));
            let mut out = op.alloc();
            op.apply_matpc_par(from_mut(&mut out), from_mut(&mut x), ONE, dagger);
            download(op, &out)
        });
        (expect, gather_spinor_grid(&locals, &plan))
    }

    fn parallel_matpc(strategy: CommStrategy, dagger: bool) -> (HostSpinorField, HostSpinorField) {
        let (cfg, plan, wp) = global_setup();
        grid_matpc(&cfg, plan, wp, strategy, dagger)
    }

    #[test]
    fn no_overlap_matches_single_device() {
        let (expect, got) = parallel_matpc(CommStrategy::NoOverlap, false);
        let dist = expect.max_site_dist(&got);
        assert!(dist < 1e-12, "max site distance {dist}");
    }

    #[test]
    fn overlap_matches_single_device() {
        let (expect, got) = parallel_matpc(CommStrategy::Overlap, false);
        let dist = expect.max_site_dist(&got);
        assert!(dist < 1e-12, "max site distance {dist}");
    }

    #[test]
    fn dagger_matches_single_device() {
        let (expect, got) = parallel_matpc(CommStrategy::Overlap, true);
        let dist = expect.max_site_dist(&got);
        assert!(dist < 1e-12, "max site distance {dist}");
    }

    fn four_cubed_by_eight(
        grid: [usize; 4],
        strategy: CommStrategy,
        dagger: bool,
    ) -> (HostSpinorField, HostSpinorField) {
        let d = LatticeDims::new(4, 4, 4, 8);
        let wp = WilsonParams { mass: 0.2, c_sw: 1.0 };
        grid_matpc(&weak_field(d, 0.15, 11), DecompPlan::new(d, grid), wp, strategy, dagger)
    }

    #[test]
    fn two_d_grid_matches_single_device() {
        for strategy in [CommStrategy::NoOverlap, CommStrategy::Overlap] {
            let (expect, got) = four_cubed_by_eight([1, 1, 2, 2], strategy, false);
            let dist = expect.max_site_dist(&got);
            assert!(dist < 1e-12, "{strategy:?}: max site distance {dist}");
        }
    }

    #[test]
    fn three_d_grid_matches_single_device() {
        let (expect, got) = four_cubed_by_eight([2, 1, 2, 2], CommStrategy::Overlap, false);
        let dist = expect.max_site_dist(&got);
        assert!(dist < 1e-12, "max site distance {dist}");
    }

    #[test]
    fn four_d_grid_matches_single_device() {
        for dagger in [false, true] {
            let (expect, got) = four_cubed_by_eight([2, 2, 2, 2], CommStrategy::Overlap, dagger);
            let dist = expect.max_site_dist(&got);
            assert!(dist < 1e-12, "dagger={dagger}: max site distance {dist}");
        }
    }

    #[test]
    fn batched_matpc_bit_identical_to_sequential_across_ranks() {
        // A 2-rank batched application must be bit-identical, per RHS, to
        // applying each RHS alone — for both strategies, with a masked slot.
        for strategy in [CommStrategy::NoOverlap, CommStrategy::Overlap] {
            let (cfg, plan, wp) = global_setup();
            let d = plan.local_dims();
            let n = 3;
            let hosts: Vec<HostSpinorField> =
                (0..n).map(|r| random_spinor_field(d, 90 + r as u64)).collect();
            let active = [true, false, true];
            let run = |batched: bool| -> Vec<Vec<HostSpinorField>> {
                let hosts = hosts.clone();
                on_ranks(&cfg, plan, wp, strategy, move |_, op| {
                    let mut ins: Vec<_> = hosts.iter().map(|h| upload(op, h)).collect();
                    let mut outs: Vec<_> = (0..ins.len()).map(|_| op.alloc()).collect();
                    if batched {
                        op.apply_matpc_par(&mut outs, &mut ins, &active, false);
                    } else {
                        for r in (0..ins.len()).filter(|&r| active[r]) {
                            let (out, x) = (from_mut(&mut outs[r]), from_mut(&mut ins[r]));
                            op.apply_matpc_par(out, x, ONE, false);
                        }
                    }
                    outs.iter().map(|o| download(op, o)).collect()
                })
            };
            let batched = run(true);
            let sequential = run(false);
            for rank in 0..plan.n_ranks() {
                for r in 0..n {
                    let dist = batched[rank][r].max_site_dist(&sequential[rank][r]);
                    assert_eq!(
                        dist, 0.0,
                        "{strategy:?} rank={rank} rhs={r}: batched differs from sequential"
                    );
                }
            }
        }
    }

    #[test]
    fn batch_dropping_to_one_lane_mid_sequence_matches_single_device() {
        // A block of 3 whose lanes 0 and 2 converge after the first sweep:
        // the second sweep runs with one active lane (the scalar kernels
        // below the mask) and must still be M̂² of that lane, while the
        // retired lanes keep their first-sweep values.
        let (cfg, plan, wp) = global_setup();
        let hosts: Vec<HostSpinorField> =
            (0..3).map(|r| random_spinor_field(plan.global(), 70 + r)).collect();
        for strategy in [CommStrategy::NoOverlap, CommStrategy::Overlap] {
            let inputs = hosts.clone();
            let per_rank = on_ranks(&cfg, plan, wp, strategy, move |rank, op| {
                let mut xs: Vec<_> =
                    inputs.iter().map(|h| upload(op, &slice_spinor_grid(h, &plan, rank))).collect();
                let mut ys: Vec<_> = (0..3).map(|_| op.alloc()).collect();
                op.apply_matpc_par(&mut ys, &mut xs, &[true; 3], false);
                op.apply_matpc_par(&mut xs, &mut ys, &[false, true, false], false);
                // Lane 1 finished in `xs`; lanes 0 and 2 stopped in `ys`.
                [download(op, &ys[0]), download(op, &xs[1]), download(op, &ys[2])]
            });
            for (lane, powers) in [(0, 1), (1, 2), (2, 1)] {
                let locals: Vec<_> = per_rank.iter().map(|r| r[lane].clone()).collect();
                let got = gather_spinor_grid(&locals, &plan);
                let expect = reference_matpc(&cfg, wp, &hosts[lane], false, powers);
                let dist = expect.max_site_dist(&got);
                assert!(dist < 1e-12, "{strategy:?} lane {lane}: max site distance {dist}");
            }
        }
    }

    #[test]
    fn batched_matpc_sends_one_message_set_per_sweep() {
        // The whole point of the fused path: the wire message count of a
        // batch-N application equals that of a batch-1 application.
        let (cfg, plan, wp) = global_setup();
        let d = plan.local_dims();
        let count_msgs = |n: usize| -> u64 {
            let sent = on_ranks(&cfg, plan, wp, CommStrategy::NoOverlap, move |_, op| {
                let before = op.comm.sent_messages();
                let mut ins: Vec<_> =
                    (0..n).map(|r| upload(op, &random_spinor_field(d, r as u64))).collect();
                let mut outs: Vec<_> = (0..n).map(|_| op.alloc()).collect();
                op.apply_matpc_par(&mut outs, &mut ins, &vec![true; n], false);
                op.comm.sent_messages() - before
            });
            sent.into_iter().max().unwrap()
        };
        assert_eq!(count_msgs(1), count_msgs(4), "message count must not scale with batch size");
    }

    #[test]
    fn reductions_are_global() {
        let (cfg, plan, wp) = global_setup();
        let sums = on_ranks(&cfg, plan, wp, CommStrategy::NoOverlap, |rank, op| {
            op.reduce(1.0 + rank as f64)
        });
        assert_eq!(sums, vec![3.0, 3.0]); // 1 + 2
    }

    #[test]
    fn exchange_counter_tracks_dslashes() {
        let (cfg, plan, wp) = global_setup();
        let counts = on_ranks(&cfg, plan, wp, CommStrategy::NoOverlap, |_, op| {
            let mut x = op.alloc();
            let mut out = op.alloc();
            op.apply(&mut out, &mut x);
            op.apply(&mut out, &mut x);
            op.exchange_count
        });
        assert_eq!(counts, vec![4, 4]); // 2 dslashes per application
    }
}
