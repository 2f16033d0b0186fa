//! The per-rank parallel Wilson-clover operator (Section VI).
//!
//! Each rank owns one domain of a [`DecompPlan`] process grid (the paper's
//! `T/N` time-slice being the `1×1×1×N` special case), a [`MatPcOp`] — the
//! single-device even-odd composition — built on the local volume with an
//! *open* boundary in every partitioned dimension, and a [`Communicator`].
//! The composition runs unchanged; only its [`Halo`] differs: before every
//! hopping term the rank exchanges the spinor faces of each open dimension —
//! either blocking ([`CommStrategy::NoOverlap`]) or split around the
//! interior kernel ([`CommStrategy::Overlap`], the three-stream scheme of
//! Section VI-D2, with each direction's receive and exterior update
//! progressing independently). Reductions are globalized through the
//! communicator (Section VI-E).

use crate::ghost::{exchange_gauge_ghosts, exchange_spinor_ghosts, recv_faces, send_faces};
use crate::slice::{local_clover, slice_config};
use quda_comm::{CommError, CommStats, Communicator};
use quda_dirac::dslash::{dslash_cb_multi, DslashRegion};
use quda_dirac::{Halo, MatPcOp, NoHalo, WilsonCloverOp, WilsonParams};
use quda_fields::host::GaugeConfig;
use quda_fields::precision::Precision;
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::{LatticeDims, Parity};
use quda_lattice::partition::DecompPlan;
use quda_obs::{Phase, Tracer};
use quda_solvers::operator::{LinearOperator, OpFault};

/// Communication strategy for the face exchange (Section VI-D).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CommStrategy {
    /// Communicate up front, then run one kernel over the whole volume.
    NoOverlap,
    /// Start sends, compute the interior, receive, finish the faces.
    Overlap,
}

/// A rank's share of the parallelized even-odd Wilson-clover operator.
pub struct ParallelWilsonCloverOp<P: Precision> {
    /// The local even-odd operator (open in every partitioned dimension)
    /// and its per-lane scratch.
    matpc: MatPcOp<P>,
    /// This rank's communicator endpoint.
    pub comm: Communicator,
    /// Face-exchange strategy.
    pub strategy: CommStrategy,
    /// The process-grid plan this rank belongs to.
    pub plan: DecompPlan,
    /// Face exchanges performed (2 per operator application).
    pub exchange_count: u64,
    // First communication error seen; once set the operator is *poisoned*:
    // applies no-op, reductions return NaN, and the solver's fault poll
    // surfaces the error (DESIGN.md §7).
    fault: Option<CommError>,
}

/// The rank's [`Halo`]: before each hop, exchange the faces of every
/// partitioned dimension — one fused face message per `(dimension,
/// direction)` for the whole block — blocking or split around the interior
/// kernel as the strategy says. Per active RHS the result is bit-identical
/// to applying it alone.
struct GridHalo<'a> {
    comm: &'a mut Communicator,
    plan: &'a DecompPlan,
    strategy: CommStrategy,
    exchanges: &'a mut u64,
}

impl<P: Precision> Halo<P> for GridHalo<'_> {
    type Error = CommError;

    fn hop(
        &mut self,
        op: &WilsonCloverOp<P>,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
        out_parity: Parity,
        dagger: bool,
    ) -> Result<(), CommError> {
        let (comm, plan) = (&mut *self.comm, self.plan);
        let tracer = comm.tracer().clone();
        let (gauge, stencil, basis) = (&op.gauge, &op.stencil, &op.basis);
        // The exchanged operand is the *input* spinor: the opposite parity of
        // the slice being produced (the X/Y/Z face enumerations need it).
        let in_parity = out_parity.other();
        match self.strategy {
            CommStrategy::Overlap if plan.is_partitioned() => {
                for dim in plan.active_dims() {
                    send_faces(comm, ins, active, basis, stencil, plan, dim, in_parity, dagger)?;
                }
                {
                    // Compute running while all faces are in flight — the
                    // hidden-communication window the breakdown's overlap
                    // efficiency measures.
                    let _interior = tracer.span(Phase::Interior);
                    let region = DslashRegion::Interior;
                    dslash_cb_multi(
                        outs, gauge, ins, out_parity, stencil, basis, dagger, region, active,
                    );
                }
                // Each direction progresses independently: as soon as one
                // dimension's ghosts land, its boundary sites are updated,
                // while the remaining directions are still in flight
                // (ascending-dim order updates every boundary site exactly
                // once — corner sites run with their last-arriving face).
                for dim in plan.active_dims() {
                    recv_faces(comm, ins, active, plan, dim)?;
                    let _exterior = tracer.span(Phase::exterior_dim(dim));
                    let region = DslashRegion::FacesDim(dim);
                    dslash_cb_multi(
                        outs, gauge, ins, out_parity, stencil, basis, dagger, region, active,
                    );
                }
            }
            _ => {
                // Communicate up front (nothing to send on an unpartitioned
                // plan), then one kernel over the whole volume.
                exchange_spinor_ghosts(comm, ins, active, basis, stencil, plan, in_parity, dagger)?;
                let _kernel = tracer.span(Phase::Kernel);
                NoHalo::dslash(op, outs, ins, active, out_parity, dagger);
            }
        }
        *self.exchanges += u64::from(plan.is_partitioned());
        Ok(())
    }
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
    pub fn new(
        global: &GaugeConfig,
        plan: DecompPlan,
        rank: usize,
        mut comm: Communicator,
        wilson: WilsonParams,
        strategy: CommStrategy,
    ) -> Result<Self, CommError> {
        assert_eq!(comm.rank(), rank);
        assert_eq!(comm.size(), plan.n_ranks());
        let local_cfg = slice_config(global, &plan, rank);
        let clover = local_clover(global, &plan, rank, wilson.c_sw);
        let mut op = WilsonCloverOp::<P>::from_config_open(
            &local_cfg,
            wilson,
            plan.open_dims(),
            Some(clover),
        );
        // No-op on an unpartitioned plan (no active dimensions).
        exchange_gauge_ghosts(&mut comm, &mut op.gauge, &plan)?;
        Ok(ParallelWilsonCloverOp {
            matpc: MatPcOp::new(op),
            comm,
            strategy,
            plan,
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

    /// Run one step of the even-odd composition through this rank's face
    /// exchange. A poisoned operator refuses with its original error; a new
    /// communication failure does not panic but poisons the operator.
    fn exchanged(
        &mut self,
        step: impl FnOnce(&mut MatPcOp<P>, &mut GridHalo<'_>) -> Result<(), CommError>,
    ) -> Result<(), CommError> {
        if let Some(e) = &self.fault {
            return Err(e.clone());
        }
        let mut halo = GridHalo {
            comm: &mut self.comm,
            plan: &self.plan,
            strategy: self.strategy,
            exchanges: &mut self.exchange_count,
        };
        step(&mut self.matpc, &mut halo).inspect_err(|e| self.fault = Some(e.clone()))
    }

    /// The parallel even-odd application `outs[r] = M̂ ins[r]` (`M̂†` with
    /// `dagger`) for every active RHS, with one fused face exchange before
    /// each hopping term. On a poisoned operator it is a no-op, which the
    /// calling solver notices via NaN reductions and its fault poll.
    fn apply_matpc(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
        dagger: bool,
    ) {
        // The error is parked in `fault` for the solver's poll.
        let _ = self.exchanged(|mat, halo| mat.matpc(halo, outs, ins, active, dagger));
    }

    /// Source preparation `b̂_o = b_o + ½ D_oe T_ee⁻¹ b_e` for every active
    /// RHS, with one fused face exchange for the whole batch.
    pub fn prepare_source(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        b_evens: &[SpinorFieldCb<P>],
        b_odds: &[SpinorFieldCb<P>],
        active: &[bool],
    ) -> Result<(), CommError> {
        let _span = self.comm.tracer().span(Phase::Prepare);
        self.exchanged(|mat, halo| mat.prepare_source(halo, outs, b_evens, b_odds, active))
    }

    /// Even-parity reconstruction `x_e = T_ee⁻¹ (b_e + ½ D_eo x_o)` for
    /// every active RHS, with one fused face exchange for the whole batch.
    pub fn reconstruct_even(
        &mut self,
        x_evens: &mut [SpinorFieldCb<P>],
        b_evens: &[SpinorFieldCb<P>],
        x_odds: &mut [SpinorFieldCb<P>],
        active: &[bool],
    ) -> Result<(), CommError> {
        let _span = self.comm.tracer().span(Phase::Reconstruct);
        self.exchanged(|mat, halo| mat.reconstruct_even(halo, x_evens, b_evens, x_odds, active))
    }
}

impl<P: Precision> LinearOperator<P> for ParallelWilsonCloverOp<P> {
    fn dims(&self) -> LatticeDims {
        self.matpc.op.dims
    }

    fn alloc(&self) -> SpinorFieldCb<P> {
        self.matpc.op.alloc_spinor()
    }

    fn apply(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
    ) {
        self.apply_matpc(outs, ins, active, false);
    }

    fn apply_dagger(
        &mut self,
        outs: &mut [SpinorFieldCb<P>],
        ins: &mut [SpinorFieldCb<P>],
        active: &[bool],
    ) {
        self.apply_matpc(outs, ins, active, true);
    }

    fn flops_per_apply(&self) -> u64 {
        self.matpc.op.dims.half_volume() as u64 * quda_dirac::flops::MATPC_FLOPS_PER_SITE
    }

    fn reduce(&mut self, locals: &mut [f64]) {
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
    use crate::slice::{gather_spinor, slice_spinor};
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_fields::host::HostSpinorField;
    use quda_fields::precision::Double;
    use quda_math::spinor::Spinor;
    use std::slice::from_mut;

    type RankOp = ParallelWilsonCloverOp<Double>;

    const ONE: &[bool] = &[true];

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
                    let mut op = RankOp::new(&cfg, plan, rank, comm, wp, strategy).unwrap();
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
            let mut x = upload(op, &slice_spinor(&input, &plan, rank));
            let mut out = op.alloc();
            op.apply_matpc(from_mut(&mut out), from_mut(&mut x), ONE, dagger);
            download(op, &out)
        });
        (expect, gather_spinor(&locals, &plan))
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

    /// `M̂ x_o`, `M̂† x_o`, `b̂_o` and `x_e` of every lane through `halo`,
    /// each host field serving as both `x` and `b`; per lane the sites of
    /// the four results, one after another.
    fn eo_steps<H: Halo<Double>>(
        mat: &mut MatPcOp<Double>,
        halo: &mut H,
        hosts: &[HostSpinorField],
        active: &[bool],
    ) -> Vec<Vec<Spinor<f64>>>
    where
        H::Error: std::fmt::Debug,
    {
        let field = |h: &HostSpinorField, parity| {
            let mut f = mat.op.alloc_spinor();
            f.upload(h, parity);
            f
        };
        let evens: Vec<_> = hosts.iter().map(|h| field(h, Parity::Even)).collect();
        let mut odds: Vec<_> = hosts.iter().map(|h| field(h, Parity::Odd)).collect();
        let zeros = || -> Vec<_> { hosts.iter().map(|_| mat.op.alloc_spinor()).collect() };
        let (mut m, mut md, mut bhat, mut xe) = (zeros(), zeros(), zeros(), zeros());
        mat.matpc(halo, &mut m, &mut odds, active, false).unwrap();
        mat.matpc(halo, &mut md, &mut odds, active, true).unwrap();
        mat.prepare_source(halo, &mut bhat, &evens, &odds, active).unwrap();
        mat.reconstruct_even(halo, &mut xe, &evens, &mut odds, active).unwrap();
        let sites = |r: usize| {
            let fields = [&m[r], &md[r], &bhat[r], &xe[r]];
            fields.into_iter().flat_map(|f| (0..f.sites()).map(|cb| f.get(cb))).collect()
        };
        (0..hosts.len()).map(sites).collect()
    }

    /// [`eo_steps`] through the rank's own face exchange.
    fn grid_steps(
        op: &mut RankOp,
        hosts: &[HostSpinorField],
        active: &[bool],
    ) -> Vec<Vec<Spinor<f64>>> {
        let mut halo = GridHalo {
            comm: &mut op.comm,
            plan: &op.plan,
            strategy: op.strategy,
            exchanges: &mut op.exchange_count,
        };
        eo_steps(&mut op.matpc, &mut halo, hosts, active)
    }

    #[test]
    fn grid_halo_on_one_rank_is_bit_identical_to_no_halo() {
        // The halo is the only difference between the rank operator and the
        // single device: on an unpartitioned plan the two agree bit for bit.
        let d = LatticeDims::new(4, 4, 2, 8);
        let (cfg, wp) = (weak_field(d, 0.15, 12), WilsonParams { mass: 0.2, c_sw: 1.0 });
        let plan = DecompPlan::new(d, [1, 1, 1, 1]);
        let hosts: Vec<_> = (0..2).map(|r| random_spinor_field(d, 60 + r)).collect();
        let active = [true, true];
        let mut single = MatPcOp::new(WilsonCloverOp::<Double>::from_config(&cfg, wp));
        let expect = eo_steps(&mut single, &mut NoHalo, &hosts, &active);
        for strategy in [CommStrategy::NoOverlap, CommStrategy::Overlap] {
            let hosts = hosts.clone();
            let got =
                on_ranks(&cfg, plan, wp, strategy, move |_, op| grid_steps(op, &hosts, &active));
            assert!(got[0] == expect, "{strategy:?}: grid halo differs from NoHalo");
        }
    }

    #[test]
    fn batched_matpc_bit_identical_to_sequential_across_ranks() {
        // A 2-rank batched M̂, M̂†, prepare and reconstruct must be
        // bit-identical, per RHS, to running each RHS alone — for both
        // strategies, with a masked slot left untouched.
        for strategy in [CommStrategy::NoOverlap, CommStrategy::Overlap] {
            let (cfg, plan, wp) = global_setup();
            let d = plan.local_dims();
            let hosts: Vec<HostSpinorField> =
                (0..3).map(|r| random_spinor_field(d, 90 + r)).collect();
            let active = [true, false, true];
            let per_rank = on_ranks(&cfg, plan, wp, strategy, move |_, op| {
                let batched = grid_steps(op, &hosts, &active);
                let alone: Vec<_> = (0..hosts.len())
                    .filter(|&r| active[r])
                    .map(|r| (r, grid_steps(op, &hosts[r..=r], ONE).remove(0)))
                    .collect();
                (batched, alone)
            });
            for (rank, (batched, alone)) in per_rank.into_iter().enumerate() {
                for (r, lane) in alone {
                    assert!(
                        batched[r] == lane,
                        "{strategy:?} rank={rank} rhs={r}: batched differs"
                    );
                }
                let masked = &batched[1];
                assert!(masked.iter().all(|s| *s == Spinor::zero()), "masked slot touched");
            }
        }
    }

    #[test]
    fn batch_dropping_to_one_lane_mid_sequence_matches_single_device() {
        // A block of 3 whose lanes 0 and 2 converge after the first sweep:
        // the second sweep runs with one active lane (the width-1 sweep
        // below the mask) and must still be M̂² of that lane, while the
        // retired lanes keep their first-sweep values.
        let (cfg, plan, wp) = global_setup();
        let hosts: Vec<HostSpinorField> =
            (0..3).map(|r| random_spinor_field(plan.global(), 70 + r)).collect();
        for strategy in [CommStrategy::NoOverlap, CommStrategy::Overlap] {
            let inputs = hosts.clone();
            let per_rank = on_ranks(&cfg, plan, wp, strategy, move |rank, op| {
                let mut xs: Vec<_> =
                    inputs.iter().map(|h| upload(op, &slice_spinor(h, &plan, rank))).collect();
                let mut ys: Vec<_> = (0..3).map(|_| op.alloc()).collect();
                op.apply_matpc(&mut ys, &mut xs, &[true; 3], false);
                op.apply_matpc(&mut xs, &mut ys, &[false, true, false], false);
                // Lane 1 finished in `xs`; lanes 0 and 2 stopped in `ys`.
                [download(op, &ys[0]), download(op, &xs[1]), download(op, &ys[2])]
            });
            for (lane, powers) in [(0, 1), (1, 2), (2, 1)] {
                let locals: Vec<_> = per_rank.iter().map(|r| r[lane].clone()).collect();
                let got = gather_spinor(&locals, &plan);
                let expect = reference_matpc(&cfg, wp, &hosts[lane], false, powers);
                let dist = expect.max_site_dist(&got);
                assert!(dist < 1e-12, "{strategy:?} lane {lane}: max site distance {dist}");
            }
        }
    }

    #[test]
    fn batched_matpc_sends_one_message_set_per_sweep() {
        // The whole point of the fused path: the wire message count of a
        // batch-N M̂, M̂†, prepare and reconstruct equals that of batch 1.
        let (cfg, plan, wp) = global_setup();
        let d = plan.local_dims();
        let count_msgs = |n: usize| -> u64 {
            let sent = on_ranks(&cfg, plan, wp, CommStrategy::NoOverlap, move |_, op| {
                let before = op.comm.sent_messages();
                let hosts: Vec<_> = (0..n).map(|r| random_spinor_field(d, r as u64)).collect();
                grid_steps(op, &hosts, &vec![true; n]);
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
            let mut local = [1.0 + rank as f64];
            op.reduce(&mut local);
            local[0]
        });
        assert_eq!(sums, vec![3.0, 3.0]); // 1 + 2
    }

    #[test]
    fn exchange_counter_tracks_dslashes() {
        let (cfg, plan, wp) = global_setup();
        let counts = on_ranks(&cfg, plan, wp, CommStrategy::NoOverlap, |_, op| {
            let mut x = op.alloc();
            let mut out = op.alloc();
            op.apply(from_mut(&mut out), from_mut(&mut x), ONE);
            op.apply(from_mut(&mut out), from_mut(&mut x), ONE);
            op.exchange_count
        });
        assert_eq!(counts, vec![4, 4]); // 2 dslashes per application
    }
}
