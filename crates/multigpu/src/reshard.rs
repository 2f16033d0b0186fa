//! Checkpoint collection and re-sharding for elastic recovery (DESIGN.md
//! §12).
//!
//! Every rank of an elastic solve deposits one serialized
//! [`SolverCheckpoint`] per right-hand-side lane into a world-shared
//! [`CheckpointStore`] — the stand-in for node-local NVRAM or a burst buffer
//! on a real cluster. When a rank dies, the supervisor asks the store for
//! each lane's newest *globally consistent* snapshot
//! ([`CheckpointStore::take_global`]): checkpoints are taken at collectively
//! decided boundaries, so rank epochs can skew by at most one, and keeping
//! the last two per rank and lane guarantees the epoch `min(max epoch per
//! rank)` exists everywhere. The per-rank pieces are validated (checksum
//! first — a corrupt buffer is a typed error, never a panic), gathered to a
//! global field pair, and handed back as a [`GlobalCheckpoint`] that can be
//! re-sharded onto *any* [`DecompPlan`]-compatible replacement world via
//! [`GlobalCheckpoint::reshard`].

use crate::slice::{gather_spinor, slice_spinor};
use quda_fields::host::HostSpinorField;
use quda_fields::precision::Precision;
use quda_fields::SpinorFieldCb;
use quda_lattice::geometry::Parity;
use quda_lattice::partition::DecompPlan;
use quda_solvers::checkpoint::{CheckpointCounters, CheckpointError, SolverCheckpoint};
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Why a globally consistent checkpoint could not be assembled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReshardError {
    /// A rank never deposited any checkpoint.
    MissingRank(usize),
    /// The consistent epoch has been evicted from a rank's ring — only
    /// possible if the skew-≤-1 invariant was violated.
    EpochUnavailable {
        /// Rank whose ring no longer holds the epoch.
        rank: usize,
        /// The globally consistent epoch that was requested.
        epoch: u64,
    },
    /// A deposited buffer failed validation (checksum, format, geometry).
    Corrupt {
        /// Rank whose buffer was rejected.
        rank: usize,
        /// The typed validation failure.
        error: CheckpointError,
    },
    /// A rank's counters disagree with rank 0's at the same epoch —
    /// checkpoints were not taken at a collective boundary.
    Inconsistent {
        /// First disagreeing rank.
        rank: usize,
    },
}

impl fmt::Display for ReshardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReshardError::MissingRank(r) => write!(f, "rank {r} never deposited a checkpoint"),
            ReshardError::EpochUnavailable { rank, epoch } => {
                write!(f, "rank {rank} no longer holds checkpoint epoch {epoch}")
            }
            ReshardError::Corrupt { rank, error } => {
                write!(f, "rank {rank} checkpoint rejected: {error}")
            }
            ReshardError::Inconsistent { rank } => {
                write!(f, "rank {rank} counters disagree at the consistent epoch")
            }
        }
    }
}

impl std::error::Error for ReshardError {}

/// One deposited checkpoint: its epoch plus the serialized wire bytes.
#[derive(Clone, Debug)]
struct Deposit {
    epoch: u64,
    bytes: Vec<u8>,
}

/// Per-rank ring of the last [`CheckpointStore::RING`] deposits.
#[derive(Clone, Debug, Default)]
struct RankRing {
    slots: Vec<Deposit>,
}

impl RankRing {
    fn push(&mut self, d: Deposit, ring: usize) {
        self.slots.push(d);
        if self.slots.len() > ring {
            self.slots.remove(0);
        }
    }

    fn latest_epoch(&self) -> Option<u64> {
        self.slots.iter().map(|d| d.epoch).max()
    }

    /// The newest deposit at `epoch`: a replacement incarnation that
    /// re-deposits an epoch supersedes the dead one's copy.
    fn at_epoch(&self, epoch: u64) -> Option<&Deposit> {
        self.slots.iter().rev().find(|d| d.epoch == epoch)
    }
}

/// Aggregate checkpoint-activity counters of one lane of a
/// [`CheckpointStore`] (telemetry for [`InvertReport`](quda_obs) surfacing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Checkpoints deposited across all ranks and incarnations.
    pub checkpoints_taken: u64,
    /// Serialized bytes written across all deposits.
    pub bytes_written: u64,
}

/// One right-hand side's share of the store: a ring per rank.
#[derive(Clone, Debug)]
struct Lane {
    rings: Vec<RankRing>,
    stats: StoreStats,
}

/// World-shared, thread-safe checkpoint storage: one ring of recent
/// serialized snapshots per rank and right-hand-side lane. Lanes are
/// independent — each is taken, validated and pruned on its own, so the
/// lanes of a batch may sit at different epochs.
#[derive(Debug)]
pub struct CheckpointStore {
    lanes: Mutex<Vec<Lane>>,
}

impl CheckpointStore {
    /// Snapshots retained per rank and lane. Two suffices: collective
    /// checkpoint boundaries bound the epoch skew between any two live ranks
    /// to one.
    pub const RING: usize = 2;

    /// An empty store for an `n_ranks`-rank world solving `n_lanes`
    /// right-hand sides.
    pub fn new(n_ranks: usize, n_lanes: usize) -> CheckpointStore {
        let lane = Lane { rings: vec![RankRing::default(); n_ranks], stats: StoreStats::default() };
        CheckpointStore { lanes: Mutex::new(vec![lane; n_lanes]) }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Lane>> {
        // A poisoned store mutex means a peer rank panicked mid-deposit;
        // the snapshot rings are append-only so the data is still sound.
        self.lanes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Deposit one rank's serialized checkpoint of `lane` at `epoch`,
    /// evicting the oldest retained snapshot beyond
    /// [`CheckpointStore::RING`].
    pub fn deposit(&self, rank: usize, lane: usize, epoch: u64, bytes: Vec<u8>) {
        let mut lanes = self.lock();
        if let Some(lane) = lanes.get_mut(lane) {
            lane.stats.checkpoints_taken += 1;
            lane.stats.bytes_written += bytes.len() as u64;
            if let Some(ring) = lane.rings.get_mut(rank) {
                ring.push(Deposit { epoch, bytes }, Self::RING);
            }
        }
    }

    /// Deposit counters of `lane` (zero for a lane the store does not have).
    pub fn stats(&self, lane: usize) -> StoreStats {
        self.lock().get(lane).map(|l| l.stats).unwrap_or_default()
    }

    /// Assemble the newest globally consistent snapshot of `lane`: the
    /// largest epoch every rank has deposited, validated rank by rank and
    /// gathered to global fields over `plan`.
    ///
    /// On success the lane's rings are pruned to the consistent epoch; on
    /// failure they are cleared, because the lane then restarts from
    /// scratch. Either way deposits from the dead incarnation can never
    /// alias a replacement world's (re-numbered) epochs at a later recovery.
    pub fn take_global<H: Precision>(
        &self,
        plan: &DecompPlan,
        lane: usize,
    ) -> Result<GlobalCheckpoint, ReshardError> {
        let mut lanes = self.lock();
        // A lane the store was not sized for has no deposits on any rank.
        let Some(lane) = lanes.get_mut(lane) else {
            return Err(ReshardError::MissingRank(0));
        };
        let taken = assemble::<H>(&lane.rings, plan);
        match &taken {
            Ok(g) => lane.rings.iter_mut().for_each(|r| r.slots.retain(|d| d.epoch == g.epoch)),
            Err(_) => lane.rings.iter_mut().for_each(|r| r.slots.clear()),
        }
        taken
    }
}

/// The newest epoch every ring holds, validated and gathered over `plan`.
fn assemble<H: Precision>(
    rings: &[RankRing],
    plan: &DecompPlan,
) -> Result<GlobalCheckpoint, ReshardError> {
    // Consistent epoch: min over ranks of each rank's newest epoch.
    let mut epoch = u64::MAX;
    for (rank, ring) in rings.iter().enumerate() {
        let latest = ring.latest_epoch().ok_or(ReshardError::MissingRank(rank))?;
        epoch = epoch.min(latest);
    }
    let mut counters: Option<CheckpointCounters> = None;
    let mut locals_x = Vec::with_capacity(rings.len());
    let mut locals_r = Vec::with_capacity(rings.len());
    let mut all_have_r = true;
    for (rank, ring) in rings.iter().enumerate() {
        let dep = ring.at_epoch(epoch).ok_or(ReshardError::EpochUnavailable { rank, epoch })?;
        let ck = SolverCheckpoint::from_bytes(&dep.bytes)
            .map_err(|error| ReshardError::Corrupt { rank, error })?;
        match counters {
            None => counters = Some(ck.counters),
            // Checkpoints are cut at collectively decided boundaries,
            // so every rank's scalar state must agree bit-for-bit.
            Some(c) if c != ck.counters => {
                return Err(ReshardError::Inconsistent { rank });
            }
            Some(_) => {}
        }
        let mut x = SpinorFieldCb::<H>::new(ck.dims(), false);
        ck.restore_x(&mut x).map_err(|error| ReshardError::Corrupt { rank, error })?;
        let mut x_host = HostSpinorField::zero(ck.dims());
        x.download(&mut x_host, Parity::Odd);
        locals_x.push(x_host);
        if ck.has_residual() {
            let mut r = SpinorFieldCb::<H>::new(ck.dims(), false);
            ck.restore_r(&mut r).map_err(|error| ReshardError::Corrupt { rank, error })?;
            let mut r_host = HostSpinorField::zero(ck.dims());
            r.download(&mut r_host, Parity::Odd);
            locals_r.push(r_host);
        } else {
            all_have_r = false;
        }
    }
    Ok(GlobalCheckpoint {
        epoch,
        counters: counters.unwrap_or_default(),
        x: gather_spinor(&locals_x, plan),
        r: if all_have_r && locals_r.len() == rings.len() {
            Some(gather_spinor(&locals_r, plan))
        } else {
            None
        },
    })
}

/// A decomposition-independent solver snapshot: global (odd-parity) fields
/// plus the rank-identical counters, ready to be sliced onto any compatible
/// replacement world.
#[derive(Clone, Debug)]
pub struct GlobalCheckpoint {
    /// The globally consistent checkpoint epoch this was assembled from.
    pub epoch: u64,
    /// Rank-identical scalar solver state at that epoch.
    pub counters: CheckpointCounters,
    /// Global iterate (odd-parity sites populated).
    pub x: HostSpinorField,
    /// Global true residual, when the checkpointing solver carries one.
    pub r: Option<HostSpinorField>,
}

impl GlobalCheckpoint {
    /// Slice this rank's share out of the global snapshot and repackage it
    /// as a [`SolverCheckpoint`] for the replacement world's solver.
    pub fn reshard<H: Precision>(&self, plan: &DecompPlan, rank: usize) -> SolverCheckpoint {
        let local_x = slice_spinor(&self.x, plan, rank);
        let mut x = SpinorFieldCb::<H>::new(plan.local_dims(), false);
        x.upload(&local_x, Parity::Odd);
        let r = self.r.as_ref().map(|r_global| {
            let local_r = slice_spinor(r_global, plan, rank);
            let mut r = SpinorFieldCb::<H>::new(plan.local_dims(), false);
            r.upload(&local_r, Parity::Odd);
            r
        });
        SolverCheckpoint::capture(self.counters, &x, r.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_fields::gauge_gen::random_spinor_field;
    use quda_fields::precision::Double;
    use quda_lattice::geometry::LatticeDims;

    fn plan2() -> DecompPlan {
        DecompPlan::new(LatticeDims::new(4, 4, 2, 8), [1, 1, 1, 2])
    }

    fn local_ck(plan: &DecompPlan, global: &HostSpinorField, rank: usize, epoch: u64) -> Vec<u8> {
        let local = slice_spinor(global, plan, rank);
        let mut x = SpinorFieldCb::<Double>::new_open(plan.local_dims(), plan.open_dims());
        x.upload(&local, Parity::Odd);
        let counters = CheckpointCounters { epoch, iterations: epoch * 10, ..Default::default() };
        SolverCheckpoint::capture(counters, &x, Some(&x)).to_bytes()
    }

    /// The `.re` of spin 0, colour 0 at odd checkerboard site `cb`.
    fn odd_re(field: &HostSpinorField, cb: usize) -> f64 {
        field.get_cb(Parity::Odd, cb).s[0].c[0].re
    }

    #[test]
    fn take_global_round_trips_through_reshard() {
        let plan = plan2();
        let global = random_spinor_field(plan.global(), 7);
        let store = CheckpointStore::new(2, 1);
        for rank in 0..2 {
            store.deposit(rank, 0, 1, local_ck(&plan, &global, rank, 1));
        }
        let ck = store.take_global::<Double>(&plan, 0).expect("consistent checkpoint");
        assert_eq!(ck.epoch, 1);
        assert!(ck.r.is_some());
        // Odd sites of the gathered iterate match the original global field.
        let d = plan.global();
        for cb in 0..d.half_volume() {
            assert_eq!(odd_re(&ck.x, cb), odd_re(&global, cb));
        }
        // Re-shard onto a different compatible decomposition.
        let fine = DecompPlan::new(plan.global(), [1, 1, 1, 2]);
        let piece = ck.reshard::<Double>(&fine, 1);
        assert_eq!(piece.counters.epoch, 1);
        assert!(piece.has_residual());
        let mut back = SpinorFieldCb::<Double>::new_open(fine.local_dims(), fine.open_dims());
        piece.restore_x(&mut back).expect("restore re-sharded piece");
    }

    #[test]
    fn consistent_epoch_is_min_of_latest_with_skew() {
        let plan = plan2();
        let global = random_spinor_field(plan.global(), 9);
        let store = CheckpointStore::new(2, 1);
        // Rank 0 is one epoch ahead (the maximum legal skew).
        store.deposit(0, 0, 1, local_ck(&plan, &global, 0, 1));
        store.deposit(0, 0, 2, local_ck(&plan, &global, 0, 2));
        store.deposit(1, 0, 1, local_ck(&plan, &global, 1, 1));
        let ck = store.take_global::<Double>(&plan, 0).expect("epoch 1 everywhere");
        assert_eq!(ck.epoch, 1);
        assert_eq!(ck.counters.iterations, 10);
    }

    #[test]
    fn ring_evicts_beyond_two_and_missing_rank_is_typed() {
        let plan = plan2();
        let global = random_spinor_field(plan.global(), 11);
        let store = CheckpointStore::new(2, 1);
        for epoch in 1..=4 {
            store.deposit(0, 0, epoch, local_ck(&plan, &global, 0, epoch));
        }
        // Rank 1 far behind: epoch 1 evicted from rank 0's ring.
        store.deposit(1, 0, 1, local_ck(&plan, &global, 1, 1));
        assert!(matches!(
            store.take_global::<Double>(&plan, 0),
            Err(ReshardError::EpochUnavailable { rank: 0, epoch: 1 })
        ));
        assert_eq!(store.stats(0).checkpoints_taken, 5);
        assert!(store.stats(0).bytes_written > 0);
        // The failed take cleared the lane; rank 1 never deposits again.
        store.deposit(0, 0, 5, local_ck(&plan, &global, 0, 5));
        assert!(matches!(store.take_global::<Double>(&plan, 0), Err(ReshardError::MissingRank(1))));
    }

    #[test]
    fn corrupt_deposit_is_typed_not_a_panic() {
        let plan = plan2();
        let global = random_spinor_field(plan.global(), 13);
        let store = CheckpointStore::new(2, 1);
        let mut bad = local_ck(&plan, &global, 0, 1);
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        store.deposit(0, 0, 1, bad);
        store.deposit(1, 0, 1, local_ck(&plan, &global, 1, 1));
        match store.take_global::<Double>(&plan, 0) {
            Err(ReshardError::Corrupt { rank: 0, error: CheckpointError::BadChecksum { .. } }) => {}
            other => panic!("expected a typed checksum rejection, got {other:?}"),
        }
    }

    #[test]
    fn failed_take_forgets_the_dead_incarnations_deposits() {
        // The dead incarnation got epoch 1 onto rank 0 only; the lane
        // restarts from scratch and its replacement deposits a different
        // epoch-1 state on both ranks. The next recovery must read the
        // replacement's deposit, not the stale one.
        let plan = plan2();
        let (stale, fresh) =
            (random_spinor_field(plan.global(), 15), random_spinor_field(plan.global(), 16));
        let store = CheckpointStore::new(2, 1);
        store.deposit(0, 0, 1, local_ck(&plan, &stale, 0, 1));
        assert!(matches!(store.take_global::<Double>(&plan, 0), Err(ReshardError::MissingRank(1))));
        for rank in 0..2 {
            store.deposit(rank, 0, 1, local_ck(&plan, &fresh, rank, 1));
        }
        let ck = store.take_global::<Double>(&plan, 0).expect("the replacement's epoch 1");
        for cb in 0..plan.global().half_volume() {
            assert_eq!(odd_re(&ck.x, cb), odd_re(&fresh, cb));
        }
    }

    #[test]
    fn lanes_are_taken_independently() {
        let plan = plan2();
        let (a, b) =
            (random_spinor_field(plan.global(), 17), random_spinor_field(plan.global(), 18));
        let store = CheckpointStore::new(2, 3);
        // Lane 0 reached epoch 2, lane 1 only epoch 1, lane 2 never deposited.
        for rank in 0..2 {
            store.deposit(rank, 0, 1, local_ck(&plan, &a, rank, 1));
            store.deposit(rank, 1, 1, local_ck(&plan, &b, rank, 1));
            store.deposit(rank, 0, 2, local_ck(&plan, &a, rank, 2));
        }
        assert!(matches!(store.take_global::<Double>(&plan, 2), Err(ReshardError::MissingRank(0))));
        let lane0 = store.take_global::<Double>(&plan, 0).expect("lane 0");
        let lane1 = store.take_global::<Double>(&plan, 1).expect("lane 1");
        assert_eq!((lane0.epoch, lane1.epoch), (2, 1));
        for cb in 0..plan.global().half_volume() {
            assert_eq!(odd_re(&lane0.x, cb), odd_re(&a, cb));
            assert_eq!(odd_re(&lane1.x, cb), odd_re(&b, cb));
        }
        assert_eq!(store.stats(0).checkpoints_taken, 4);
        assert_eq!(store.stats(1).checkpoints_taken, 2);
        assert_eq!(store.stats(2), StoreStats::default());
    }
}
