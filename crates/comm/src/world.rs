//! A QMP-like message-passing world over OS threads.
//!
//! The paper uses QMP — "an API built on top of MPI that provides convenient
//! functionality for LQCD computations" (Section VI-A) — with one MPI
//! process bound to each GPU. Here each *rank* is a thread holding a
//! [`Communicator`]; point-to-point messages travel over crossbeam channels
//! with `(from, tag)` matching, and reductions are performed
//! deterministically (fixed summation order by rank), which keeps multi-rank
//! solves bit-reproducible run to run.
//!
//! ## Resilience
//!
//! Every hot API returns a typed [`CommError`] instead of panicking or
//! blocking forever. Each message is one owned [`Frame`]: the sender seals
//! the header (length plus a word-parallel FNV-1a checksum of the payload,
//! see [`codec`](crate::codec)) into the buffer the payload was written in
//! and moves that buffer through the channel; the receiver verifies it
//! before use and hands the same buffer to the caller. A per-`(peer, tag)`
//! sequence number lets the receiver detect corruption, discard
//! duplicates, and notice gaps. A world-shared liveness board turns a
//! dropped, panicked or fault-killed peer into [`CommError::RankDead`]
//! within one timeout tick, and a link-level *pristine store* — the moral
//! equivalent of NIC retransmit buffers on the paper's InfiniBand fabric,
//! holding a sealed frame only when a [`FaultPlan`] drops or perturbs its
//! wire copy — masks injected drops, truncations and bit-flips with
//! bit-identical payloads, so a faulted run converges to exactly the
//! fault-free result (DESIGN.md §7).

use crate::codec::{Frame, FRAME_OVERHEAD};
use crate::error::CommError;
use crate::fault::{CollectiveFault, FaultAction, FaultPlan};
use crate::lockstep::{self, CollectiveKind, LockstepConfig, LockstepState};
use crate::tags;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use quda_obs::{clock, Phase, Tracer};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Longest single wait on the channel; backoff ticks cap here so liveness
/// changes are observed promptly even under long total timeouts.
const MAX_TICK: Duration = Duration::from_millis(50);

#[derive(Clone, Debug)]
struct Message {
    from: usize,
    tag: u32,
    seq: u64,
    frame: Frame,
}

/// Timeout and retry policy for one communicator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommConfig {
    /// Total time a `recv` may wait for its message before failing with
    /// [`CommError::Timeout`].
    pub timeout: Duration,
    /// Initial backoff tick; doubles per wait up to an internal cap.
    pub retry_backoff: Duration,
    /// Retry budget once a sequence gap proves the expected message went
    /// missing; exceeding it fails with [`CommError::RetriesExhausted`].
    pub max_retries: u32,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            timeout: Duration::from_secs(10),
            retry_backoff: Duration::from_micros(500),
            max_retries: 16,
        }
    }
}

/// Recovery counters kept per rank.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Timeout ticks spent waiting or backing off in `recv`.
    pub retries: u64,
    /// Messages recovered from the link-level pristine store (after a
    /// drop, truncation or bit-flip on the wire).
    pub recovered: u64,
    /// Stale duplicate frames discarded by sequence-number dedup.
    pub duplicates_dropped: u64,
    /// Frames whose checksum or length check failed on arrival.
    pub checksum_failures: u64,
}

impl CommStats {
    /// Sum counters with another rank's (or another world's) stats, e.g.
    /// to merge the high- and low-precision communicators of a mixed
    /// solve into one per-rank health record.
    pub fn merged(self, other: CommStats) -> CommStats {
        CommStats {
            retries: self.retries + other.retries,
            recovered: self.recovered + other.recovered,
            duplicates_dropped: self.duplicates_dropped + other.duplicates_dropped,
            checksum_failures: self.checksum_failures + other.checksum_failures,
        }
    }
}

/// State shared by every rank of one world.
struct WorldShared {
    /// Liveness board: `alive[r]` is cleared when rank `r`'s communicator
    /// is dropped (clean exit or panic) or a fault plan kills it.
    alive: Vec<AtomicBool>,
    /// Link-level retransmit store: pristine sealed frames keyed by
    /// `(from, to, tag, seq)`, populated only when a fault perturbs the
    /// wire copy of a message.
    pristine: Mutex<HashMap<(usize, usize, u32, u64), Frame>>,
    /// The installed fault schedule, if any.
    plan: Option<FaultPlan>,
}

/// One rank's endpoint in the communicator world.
pub struct Communicator {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
    // Messages received but not yet matched by a recv call.
    stash: VecDeque<Message>,
    shared: Arc<WorldShared>,
    config: CommConfig,
    // Next sequence number per (to, tag) / next expected per (from, tag).
    send_seq: HashMap<(usize, u32), u64>,
    recv_seq: HashMap<(usize, u32), u64>,
    // Bytes sent, for traffic accounting (payloads only — frame headers
    // are link-level overhead the performance model does not price).
    sent_bytes: u64,
    sent_messages: u64,
    total_sends: u64,
    stats: CommStats,
    // Phase recorder handle for this rank; disabled (free) by default.
    tracer: Tracer,
    // Lockstep sanitizer state; disabled (free) by default.
    lockstep: Option<LockstepState>,
    // Logical collective calls issued by this rank (allreduce/barrier).
    collective_calls: u64,
}

/// Create a world of `size` ranks with default config and no faults.
/// Returns one [`Communicator`] per rank; move each into its rank's thread.
pub fn comm_world(size: usize) -> Vec<Communicator> {
    comm_world_with(size, CommConfig::default(), None)
}

/// Create a world with an explicit timeout/retry policy and an optional
/// deterministic [`FaultPlan`] injected into every link.
pub fn comm_world_with(
    size: usize,
    config: CommConfig,
    plan: Option<FaultPlan>,
) -> Vec<Communicator> {
    assert!(size >= 1);
    let mut senders = Vec::with_capacity(size);
    let mut receivers = Vec::with_capacity(size);
    for _ in 0..size {
        let (s, r) = unbounded();
        senders.push(s);
        receivers.push(r);
    }
    let shared = Arc::new(WorldShared {
        alive: (0..size).map(|_| AtomicBool::new(true)).collect(),
        pristine: Mutex::new(HashMap::new()),
        plan,
    });
    receivers
        .into_iter()
        .enumerate()
        .map(|(rank, receiver)| Communicator {
            rank,
            size,
            senders: senders.clone(),
            receiver,
            stash: VecDeque::new(),
            shared: shared.clone(),
            config,
            send_seq: HashMap::new(),
            recv_seq: HashMap::new(),
            sent_bytes: 0,
            sent_messages: 0,
            total_sends: 0,
            stats: CommStats::default(),
            tracer: Tracer::disabled(),
            lockstep: None,
            collective_calls: 0,
        })
        .collect()
}

impl Communicator {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The timeout/retry policy this communicator runs under.
    pub fn config(&self) -> &CommConfig {
        &self.config
    }

    /// Whether `rank` is still alive on the world's liveness board.
    pub fn is_alive(&self, rank: usize) -> bool {
        self.shared.alive[rank].load(Ordering::SeqCst)
    }

    /// Install the phase recorder handle for this rank. Until this is
    /// called (or when handed [`Tracer::disabled`]) tracing has no cost.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The phase recorder handle, for layers above that want to record
    /// their own spans (ghost exchange, operator kernels).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Turn on the lockstep sanitizer (see [`crate::lockstep`]). Must be
    /// enabled on *every* rank of the world or none: the collective wire
    /// format grows a fingerprint block when it is on.
    pub fn enable_lockstep(&mut self, config: LockstepConfig) {
        self.lockstep = Some(LockstepState::new(config));
    }

    /// Non-blocking send (channel buffered, like an eager-protocol MPI
    /// send of a face-sized message): seals `frame`'s header in place and
    /// moves the frame to `to`. Fails with [`CommError::RankDead`] if this
    /// rank was fault-killed or the destination endpoint is gone.
    pub fn send(&mut self, to: usize, tag: u32, mut frame: Frame) -> Result<(), CommError> {
        let mut span = self.tracer.span(Phase::CommSend);
        let payload_len = frame.len();
        span.set_bytes(payload_len as u64);
        let mut action = FaultAction::Deliver;
        if let Some(plan) = &self.shared.plan {
            if plan.is_dead(self.rank, self.total_sends) {
                self.shared.alive[self.rank].store(false, Ordering::SeqCst);
                return Err(CommError::RankDead { rank: self.rank });
            }
            if plan.should_panic(self.rank, self.total_sends) {
                // Deliberate fault injection: simulate a *bug* in the rank
                // worker (not a scheduled death) so the driver's panic
                // classification path is exercised. The unwinding drop of
                // this communicator marks the liveness board dead, exactly
                // like a real crash would.
                // quda-lint: allow(no-panic)
                panic!("injected panic after {} sends", self.total_sends);
            }
            if let Some(penalty) = plan.slow_penalty(self.rank) {
                thread::sleep(penalty);
            }
        }
        let seq = {
            let s = self.send_seq.entry((to, tag)).or_insert(0);
            let seq = *s;
            *s += 1;
            seq
        };
        if !tags::is_internal(tag) {
            if let Some(ls) = &mut self.lockstep {
                ls.record(CollectiveKind::Send, tag, payload_len as u64, seq);
            }
        }
        if let Some(plan) = &self.shared.plan {
            action = plan.decide(self.rank, to, tag, seq);
        }
        self.total_sends += 1;
        self.sent_bytes += payload_len as u64;
        self.sent_messages += 1;
        frame.seal();
        match action {
            FaultAction::Deliver => self.put(to, tag, seq, frame)?,
            FaultAction::Drop => {
                // The wire copy vanishes; the link keeps the pristine frame
                // for the receiver-driven retransmit path.
                self.store_pristine(to, tag, seq, frame);
            }
            FaultAction::Delay => {
                let latency =
                    self.shared.plan.as_ref().map(|p| p.delay_latency()).unwrap_or_default();
                thread::sleep(latency);
                self.put(to, tag, seq, frame)?;
            }
            FaultAction::Duplicate => {
                self.put(to, tag, seq, frame.clone())?;
                self.put_duplicate(to, tag, seq, frame);
            }
            FaultAction::Truncate => {
                self.store_pristine(to, tag, seq, frame.clone());
                let cut = frame.buf.len().saturating_sub(7);
                frame.buf.truncate(cut);
                self.put(to, tag, seq, frame)?;
            }
            FaultAction::BitFlip => {
                self.store_pristine(to, tag, seq, frame.clone());
                let idx = if payload_len == 0 {
                    4 // no payload bytes: corrupt the checksum field itself
                } else {
                    FRAME_OVERHEAD + (seq as usize).wrapping_mul(7919) % payload_len
                };
                frame.buf[idx] ^= 0x20;
                self.put(to, tag, seq, frame)?;
            }
        }
        Ok(())
    }

    fn put(&mut self, to: usize, tag: u32, seq: u64, frame: Frame) -> Result<(), CommError> {
        self.senders[to].send(Message { from: self.rank, tag, seq, frame }).map_err(|_| {
            self.shared.alive[to].store(false, Ordering::SeqCst);
            CommError::RankDead { rank: to }
        })
    }

    /// The injected second copy of a duplicated frame. It is the wire's
    /// artefact, not a message the application sent: a receiver that
    /// consumed the first copy, finished and hung up is healthy, so a copy
    /// the channel cannot deliver is a lost duplicate — no error, and the
    /// liveness board is left alone.
    fn put_duplicate(&mut self, to: usize, tag: u32, seq: u64, frame: Frame) {
        let _ = self.senders[to].send(Message { from: self.rank, tag, seq, frame });
    }

    fn store_pristine(&self, to: usize, tag: u32, seq: u64, frame: Frame) {
        // A peer that panicked while holding the lock leaves the map intact
        // (insert/remove are single operations), so poison is stripped
        // rather than cascading the panic across surviving ranks.
        self.shared
            .pristine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert((self.rank, to, tag, seq), frame);
    }

    fn take_pristine(&self, from: usize, tag: u32, seq: u64) -> Option<Frame> {
        self.shared
            .pristine
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(&(from, self.rank, tag, seq))
    }

    /// Try to produce the next-in-sequence frame for `(from, tag)` from
    /// the stash, the channel backlog, or the link-level pristine store —
    /// without blocking. Stale duplicates are purged along the way.
    fn try_take(&mut self, from: usize, tag: u32) -> Result<Option<Frame>, CommError> {
        let expected = *self.recv_seq.entry((from, tag)).or_insert(0);
        for drained in [false, true] {
            if drained {
                // Pull everything already buffered in the channel so a
                // finished-and-dropped peer's messages are never missed.
                while let Ok(m) = self.receiver.try_recv() {
                    self.stash.push_back(m);
                }
            }
            // Purge stale duplicates of this stream.
            let before = self.stash.len();
            self.stash.retain(|m| !(m.from == from && m.tag == tag && m.seq < expected));
            self.stats.duplicates_dropped += (before - self.stash.len()) as u64;
            if let Some(m) = self
                .stash
                .iter()
                .position(|m| m.from == from && m.tag == tag && m.seq == expected)
                .and_then(|pos| self.stash.remove(pos))
            {
                match m.frame.verify() {
                    Ok(()) => {
                        self.recv_seq.insert((from, tag), expected + 1);
                        return Ok(Some(m.frame));
                    }
                    Err(error) => {
                        self.stats.checksum_failures += 1;
                        return match self.take_pristine(from, tag, expected) {
                            Some(frame) => {
                                self.stats.recovered += 1;
                                self.recv_seq.insert((from, tag), expected + 1);
                                Ok(Some(frame))
                            }
                            None => Err(CommError::Decode { from, tag, error }),
                        };
                    }
                }
            }
        }
        // Not on the wire at all — maybe the link dropped it and kept a
        // pristine copy (receiver-driven retransmit).
        if let Some(frame) = self.take_pristine(from, tag, expected) {
            self.stats.recovered += 1;
            self.recv_seq.insert((from, tag), expected + 1);
            return Ok(Some(frame));
        }
        Ok(None)
    }

    fn has_gap(&self, from: usize, tag: u32) -> bool {
        let expected = self.recv_seq.get(&(from, tag)).copied().unwrap_or(0);
        self.stash.iter().any(|m| m.from == from && m.tag == tag && m.seq > expected)
    }

    /// Blocking receive matching `(from, tag)`: the verified frame, whose
    /// payload the caller reads in place (or seals and sends on).
    /// Out-of-order messages are stashed until asked for. Never hangs: a dead peer surfaces as
    /// [`CommError::RankDead`], a missing message as
    /// [`CommError::Timeout`] (or [`CommError::RetriesExhausted`] once a
    /// sequence gap proves it went missing), and unrecoverable corruption
    /// as [`CommError::Decode`].
    pub fn recv(&mut self, from: usize, tag: u32) -> Result<Frame, CommError> {
        let mut span = self.tracer.span(Phase::CommRecv);
        let result = self.recv_inner(from, tag);
        if let Ok(frame) = &result {
            span.set_bytes(frame.len() as u64);
            if !tags::is_internal(tag) {
                if let Some(ls) = &mut self.lockstep {
                    // recv_inner advanced the stream; the consumed seq is
                    // one behind the next-expected counter.
                    let seq = self.recv_seq.get(&(from, tag)).map_or(0, |s| s.saturating_sub(1));
                    ls.record(CollectiveKind::Recv, tag, frame.len() as u64, seq);
                }
            }
        }
        result
    }

    fn recv_inner(&mut self, from: usize, tag: u32) -> Result<Frame, CommError> {
        if let Some(frame) = self.try_take(from, tag)? {
            return Ok(frame);
        }
        // All waiting is timed on the shared monotonic epoch so expired
        // ticks can be attributed as retry spans (lint: no-raw-instant).
        let start = clock::monotonic();
        let mut tick = self.config.retry_backoff.max(Duration::from_micros(1));
        let mut gap_retries: u32 = 0;
        loop {
            let tick_start = self.tracer.enabled().then(clock::monotonic);
            match self.receiver.recv_timeout(tick) {
                Ok(m) => {
                    self.stash.push_back(m);
                    if let Some(frame) = self.try_take(from, tag)? {
                        return Ok(frame);
                    }
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    if let Some(t0) = tick_start {
                        self.tracer.record_since(Phase::Retry, t0, 0);
                    }
                    if let Some(frame) = self.try_take(from, tag)? {
                        return Ok(frame);
                    }
                    self.stats.retries += 1;
                    if !self.is_alive(from) {
                        // try_take already drained the channel backlog; the
                        // message can no longer arrive.
                        return Err(CommError::RankDead { rank: from });
                    }
                    if self.has_gap(from, tag) {
                        gap_retries += 1;
                        if gap_retries > self.config.max_retries {
                            return Err(CommError::RetriesExhausted {
                                from,
                                tag,
                                attempts: self.config.max_retries,
                            });
                        }
                    }
                    let waited = clock::monotonic().saturating_sub(start);
                    if waited >= self.config.timeout {
                        return Err(CommError::Timeout {
                            from,
                            tag,
                            waited_ms: waited.as_millis() as u64,
                        });
                    }
                    tick = (tick * 2).min(MAX_TICK);
                }
            }
        }
    }

    /// Total bytes sent by this rank.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Total messages sent by this rank.
    pub fn sent_messages(&self) -> u64 {
        self.sent_messages
    }

    /// Recovery counters accumulated by this rank.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Deterministic allreduce-sum over f64: gather to rank 0 (summed in
    /// rank order), broadcast back. This is the "insertion of MPI
    /// reductions for each of the linear algebra reduction kernels"
    /// (Section VI-E).
    pub fn allreduce_sum_f64(&mut self, local: f64) -> Result<f64, CommError> {
        Ok(self.allreduce_vec(&[local])?[0])
    }

    /// Allreduce-sum over a small vector of f64 (e.g. complex re/im pairs).
    pub fn allreduce_vec(&mut self, local: &[f64]) -> Result<Vec<f64>, CommError> {
        let _span = self.tracer.span(Phase::AllReduce);
        self.collective(ReduceOp::Sum, local)
    }

    /// Allreduce-max over f64.
    pub fn allreduce_max_f64(&mut self, local: f64) -> Result<f64, CommError> {
        let _span = self.tracer.span(Phase::AllReduce);
        let v = self.collective(ReduceOp::Max, &[local])?;
        if v.len() != 1 {
            return Err(CommError::SizeMismatch { expected: 1, got: v.len() });
        }
        Ok(v[0])
    }

    /// Synchronize all ranks.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        self.allreduce_sum_f64(0.0).map(|_| ())
    }

    /// One logical collective call: count it, apply any scheduled
    /// collective fault, fingerprint it, and run the gather/broadcast
    /// exchange.
    fn collective(&mut self, op: ReduceOp, local: &[f64]) -> Result<Vec<f64>, CommError> {
        if self.size == 1 {
            return Ok(local.to_vec());
        }
        let call_no = self.collective_calls;
        self.collective_calls += 1;
        let fault = self.shared.plan.as_ref().and_then(|p| p.collective_fault(self.rank, call_no));
        match fault {
            // The injected SPMD violation: this rank silently sits the
            // collective out — exactly what a rank-divergent branch does.
            Some(CollectiveFault::Skip) => Ok(local.to_vec()),
            Some(CollectiveFault::Duplicate) => {
                self.record_collective(op, local, call_no);
                self.collective_exchange(op, local, call_no)?;
                // Replay the wire exchange for the *same* logical call:
                // this rank's exchange stream runs one ahead of its
                // fingerprint, which the next cross-check flags as drift.
                self.collective_exchange(op, local, call_no)
            }
            None => {
                self.record_collective(op, local, call_no);
                self.collective_exchange(op, local, call_no)
            }
        }
    }

    fn record_collective(&mut self, op: ReduceOp, local: &[f64], call_no: u64) {
        if let Some(ls) = &mut self.lockstep {
            let bytes = (local.len() * 8) as u64;
            ls.record(CollectiveKind::AllReduce, op.tags().0, bytes, call_no);
        }
    }

    /// Gather-to-root / broadcast-back exchange shared by every reduction
    /// kind. With the lockstep sanitizer on, each contribution carries the
    /// sender's fingerprint block and each reply carries rank 0's verdict,
    /// so a cross-rank divergence surfaces as
    /// [`CommError::LockstepDivergence`] on every rank instead of a hang.
    fn collective_exchange(
        &mut self,
        op: ReduceOp,
        local: &[f64],
        call_no: u64,
    ) -> Result<Vec<f64>, CommError> {
        let (tag, reply_tag) = op.tags();
        let meta_len = if self.lockstep.is_some() { lockstep::META_F64S } else { 0 };
        if self.rank == 0 {
            let mut acc = local.to_vec();
            let mut peer_fps = Vec::new();
            for from in 1..self.size {
                let bytes = self.recv(from, tag)?;
                let v = crate::codec::unpack_f64(&bytes).map_err(|error| CommError::Decode {
                    from,
                    tag,
                    error,
                })?;
                if v.len() != acc.len() + meta_len {
                    return Err(CommError::SizeMismatch {
                        expected: acc.len() + meta_len,
                        got: v.len(),
                    });
                }
                let (contrib, meta) = v.split_at(acc.len());
                if meta_len > 0 {
                    if let Some(fp) = lockstep::parse_contribution_meta(meta) {
                        peer_fps.push((from, fp));
                    }
                }
                op.combine(&mut acc, contrib);
            }
            let mut divergence = None;
            if let Some(ls) = &self.lockstep {
                if ls.check_due(call_no) {
                    let _span = self.tracer.span(Phase::Lockstep);
                    let mine = ls.fingerprint();
                    for (from, fp) in &peer_fps {
                        if let Some(div) = lockstep::first_divergence(&mine, fp) {
                            divergence = Some((*from, mine.count, fp.count, div));
                            break;
                        }
                    }
                }
            }
            let mut reply = acc.clone();
            if meta_len > 0 {
                reply.extend_from_slice(&lockstep::encode_verdict(divergence));
            }
            let packed = crate::codec::pack_f64(&reply);
            // Replies (with the verdict) go out *before* the root errors,
            // so every leaf unblocks and reports the same divergence.
            for to in 1..self.size {
                self.send(to, reply_tag, packed.clone())?;
            }
            if let Some((rank, _, _, div)) = divergence {
                return Err(CommError::LockstepDivergence {
                    rank,
                    index: div.index,
                    expected: div.expected,
                    got: div.got,
                });
            }
            Ok(acc)
        } else {
            let mut contrib = local.to_vec();
            if let Some(ls) = &self.lockstep {
                let _span = self.tracer.span(Phase::Lockstep);
                contrib.extend_from_slice(&ls.contribution_meta());
            }
            self.send(0, tag, crate::codec::pack_f64(&contrib))?;
            let bytes = self.recv(0, reply_tag)?;
            let mut v = crate::codec::unpack_f64(&bytes).map_err(|error| CommError::Decode {
                from: 0,
                tag: reply_tag,
                error,
            })?;
            if meta_len > 0 {
                let verdict_len = lockstep::VERDICT_F64S;
                if v.len() < verdict_len {
                    return Err(CommError::SizeMismatch {
                        expected: local.len() + verdict_len,
                        got: v.len(),
                    });
                }
                let verdict = v.split_off(v.len() - verdict_len);
                if let Some(vd) = lockstep::parse_verdict(&verdict) {
                    let _span = self.tracer.span(Phase::Lockstep);
                    return Err(CommError::LockstepDivergence {
                        rank: vd.rank,
                        index: vd.index,
                        expected: vd.expected,
                        got: vd.got,
                    });
                }
            }
            Ok(v)
        }
    }
}

/// The reduction kinds [`Communicator::collective`] implements. Each maps
/// to its registered contribution/reply tag pair and an elementwise
/// combiner; rank 0 applies contributions in rank order, which is what
/// keeps multi-rank reductions bit-reproducible.
#[derive(Clone, Copy, Debug)]
enum ReduceOp {
    Sum,
    Max,
}

impl ReduceOp {
    fn tags(self) -> (u32, u32) {
        match self {
            ReduceOp::Sum => (tags::COLLECTIVE_SUM, tags::COLLECTIVE_SUM_REPLY),
            ReduceOp::Max => (tags::COLLECTIVE_MAX, tags::COLLECTIVE_MAX_REPLY),
        }
    }

    fn combine(self, acc: &mut [f64], contrib: &[f64]) {
        match self {
            ReduceOp::Sum => {
                for (a, c) in acc.iter_mut().zip(contrib) {
                    *a += c;
                }
            }
            ReduceOp::Max => {
                for (a, c) in acc.iter_mut().zip(contrib) {
                    *a = a.max(*c);
                }
            }
        }
    }
}

impl Drop for Communicator {
    fn drop(&mut self) {
        // Whether this rank finished cleanly or its thread panicked, the
        // rest of the world must see it as gone — this is what turns a
        // dead peer into `RankDead` instead of a hang.
        self.shared.alive[self.rank].store(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{pack_f64, unpack_f64};
    use std::thread;
    use std::time::Instant;

    fn fast_config() -> CommConfig {
        CommConfig {
            timeout: Duration::from_millis(500),
            retry_backoff: Duration::from_micros(200),
            max_retries: 16,
        }
    }

    /// `rank`'s forward and backward neighbours on a periodic ring of
    /// `size` ranks (the topology the ring tests below exercise).
    fn ring(rank: usize, size: usize) -> (usize, usize) {
        ((rank + 1) % size, (rank + size - 1) % size)
    }

    #[test]
    fn ring_topology() {
        let world = comm_world(4);
        for (i, c) in world.iter().enumerate() {
            assert_eq!((c.rank(), c.size()), (i, 4));
        }
        assert_eq!(ring(0, 4), (1, 3));
        assert_eq!(ring(3, 4), (0, 2));
    }

    #[test]
    fn point_to_point_roundtrip() {
        let mut world = comm_world(2);
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        let t = thread::spawn(move || {
            c1.send(0, 7, pack_f64(&[1.0, 2.0])).unwrap();
            let back = unpack_f64(&c1.recv(0, 8).unwrap()).unwrap();
            assert_eq!(back, vec![3.0]);
        });
        let data = unpack_f64(&c0.recv(1, 7).unwrap()).unwrap();
        assert_eq!(data, vec![1.0, 2.0]);
        c0.send(1, 8, pack_f64(&[3.0])).unwrap();
        t.join().unwrap();
        assert_eq!(c0.sent_messages(), 1);
        // Traffic accounting counts payload bytes only, not frame headers.
        assert_eq!(c0.sent_bytes(), 8);
    }

    #[test]
    fn out_of_order_messages_are_matched_by_tag() {
        let mut world = comm_world(2);
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        let t = thread::spawn(move || {
            // Send tag 2 first, then tag 1.
            c1.send(0, 2, pack_f64(&[2.0])).unwrap();
            c1.send(0, 1, pack_f64(&[1.0])).unwrap();
        });
        // Receive in the opposite order.
        assert_eq!(unpack_f64(&c0.recv(1, 1).unwrap()).unwrap(), vec![1.0]);
        assert_eq!(unpack_f64(&c0.recv(1, 2).unwrap()).unwrap(), vec![2.0]);
        t.join().unwrap();
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let world = comm_world(4);
        let handles: Vec<_> = world
            .into_iter()
            .map(|mut c| {
                thread::spawn(move || {
                    let r = c.rank() as f64;
                    let total = c.allreduce_sum_f64(r + 1.0).unwrap();
                    assert_eq!(total, 10.0); // 1+2+3+4
                    let m = c.allreduce_max_f64(r).unwrap();
                    assert_eq!(m, 3.0);
                    c.barrier().unwrap();
                    total
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 10.0);
        }
    }

    #[test]
    fn allreduce_is_deterministic_summation() {
        // Fixed rank-order summation: repeated runs give bit-identical
        // results even with non-associative f64 addition.
        for _ in 0..3 {
            let world = comm_world(3);
            let vals = [1e16, 1.0, -1e16];
            let handles: Vec<_> = world
                .into_iter()
                .map(|mut c| {
                    let v = vals[c.rank()];
                    thread::spawn(move || c.allreduce_sum_f64(v).unwrap())
                })
                .collect();
            let results: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            // All ranks agree...
            assert!(results.windows(2).all(|w| w[0] == w[1]));
            // ...on the rank-ordered sum (1e16 + 1.0 loses the 1.0 first).
            assert_eq!(results[0], 0.0);
        }
    }

    #[test]
    fn vector_allreduce() {
        let world = comm_world(2);
        let handles: Vec<_> = world
            .into_iter()
            .map(|mut c| thread::spawn(move || c.allreduce_vec(&[1.0, -2.0]).unwrap()))
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![2.0, -4.0]);
        }
    }

    #[test]
    fn single_rank_world_shortcuts() {
        let mut world = comm_world(1);
        let c = &mut world[0];
        assert_eq!(c.allreduce_sum_f64(5.0).unwrap(), 5.0);
        assert_eq!(c.allreduce_max_f64(-1.0).unwrap(), -1.0);
        c.barrier().unwrap();
    }

    #[test]
    fn dropped_peer_surfaces_as_rank_dead_not_hang() {
        let mut world = comm_world_with(2, fast_config(), None);
        let c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        drop(c1); // peer exits (or panics) without ever sending
        let start = Instant::now();
        assert_eq!(c0.recv(1, 5), Err(CommError::RankDead { rank: 1 }));
        assert!(start.elapsed() < Duration::from_millis(400), "death detection too slow");
    }

    #[test]
    fn messages_sent_before_death_still_arrive() {
        let mut world = comm_world_with(2, fast_config(), None);
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c1.send(0, 3, pack_f64(&[9.0])).unwrap();
        drop(c1);
        // The buffered message must be drained before death is reported.
        assert_eq!(unpack_f64(&c0.recv(1, 3).unwrap()).unwrap(), vec![9.0]);
        assert_eq!(c0.recv(1, 3), Err(CommError::RankDead { rank: 1 }));
    }

    #[test]
    fn fault_plan_kills_rank_at_scheduled_send() {
        let plan = FaultPlan::new(1).kill_rank(1, 1);
        let mut world = comm_world_with(2, fast_config(), Some(plan));
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c1.send(0, 3, pack_f64(&[1.0])).unwrap();
        assert_eq!(c1.send(0, 3, pack_f64(&[2.0])), Err(CommError::RankDead { rank: 1 }));
        // Rank 0 sees the first message, then the death.
        assert_eq!(unpack_f64(&c0.recv(1, 3).unwrap()).unwrap(), vec![1.0]);
        assert_eq!(c0.recv(1, 3), Err(CommError::RankDead { rank: 1 }));
    }

    #[test]
    fn timeout_when_message_never_sent() {
        let config = CommConfig { timeout: Duration::from_millis(80), ..fast_config() };
        let mut world = comm_world_with(2, config, None);
        let _c1 = world.pop().unwrap(); // alive but silent
        let mut c0 = world.pop().unwrap();
        match c0.recv(1, 9) {
            Err(CommError::Timeout { from: 1, tag: 9, waited_ms }) => assert!(waited_ms >= 80),
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    fn dropped_messages_recover_from_pristine_store() {
        let plan = FaultPlan::new(11).drop(1.0); // every wire copy vanishes
        let mut world = comm_world_with(2, fast_config(), Some(plan));
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        for i in 0..3 {
            c1.send(0, 4, pack_f64(&[i as f64])).unwrap();
        }
        for i in 0..3 {
            assert_eq!(unpack_f64(&c0.recv(1, 4).unwrap()).unwrap(), vec![i as f64]);
        }
        assert_eq!(c0.stats().recovered, 3);
    }

    #[test]
    fn bit_flips_are_detected_and_recovered() {
        let plan = FaultPlan::new(12).bit_flip(1.0);
        let mut world = comm_world_with(2, fast_config(), Some(plan));
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        let data = vec![1.25, -3.5, 1e300];
        c1.send(0, 6, pack_f64(&data)).unwrap();
        assert_eq!(unpack_f64(&c0.recv(1, 6).unwrap()).unwrap(), data);
        assert_eq!(c0.stats().recovered, 1);
    }

    #[test]
    fn truncated_frames_are_detected_and_recovered() {
        let plan = FaultPlan::new(13).truncate(1.0);
        let mut world = comm_world_with(2, fast_config(), Some(plan));
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c1.send(0, 2, pack_f64(&[7.0, 8.0])).unwrap();
        assert_eq!(unpack_f64(&c0.recv(1, 2).unwrap()).unwrap(), vec![7.0, 8.0]);
        assert_eq!(c0.stats().recovered, 1);
    }

    #[test]
    fn duplicates_are_deduplicated() {
        let plan = FaultPlan::new(14).duplicate(1.0);
        let mut world = comm_world_with(2, fast_config(), Some(plan));
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        c1.send(0, 5, pack_f64(&[1.0])).unwrap();
        c1.send(0, 5, pack_f64(&[2.0])).unwrap();
        assert_eq!(unpack_f64(&c0.recv(1, 5).unwrap()).unwrap(), vec![1.0]);
        assert_eq!(unpack_f64(&c0.recv(1, 5).unwrap()).unwrap(), vec![2.0]);
        assert!(c0.stats().duplicates_dropped >= 1);
    }

    #[test]
    fn duplicate_lost_to_a_finished_receiver_is_not_a_death() {
        // The interleaving behind the `duplicated_faces_are_deduplicated`
        // flake, forced: the receiver consumes the first copy, finishes and
        // drops its endpoint *before* the injected second copy is put.
        let mut world = comm_world_with(2, fast_config(), None);
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        let mut framed = pack_f64(&[1.0]);
        framed.seal();
        c1.put(0, 5, 0, framed.clone()).unwrap();
        assert_eq!(unpack_f64(&c0.recv(1, 5).unwrap()).unwrap(), vec![1.0]);
        drop(c0);
        // Re-arm the board entry the receiver's own `Drop` cleared, so the
        // assertion sees only what the duplicate path itself writes.
        c1.shared.alive[0].store(true, Ordering::SeqCst);
        c1.put_duplicate(0, 5, 0, framed.clone());
        assert!(c1.shared.alive[0].load(Ordering::SeqCst), "lost duplicate marked the peer dead");
        // A real message to the hung-up endpoint is still a located death.
        assert_eq!(c1.put(0, 5, 1, framed), Err(CommError::RankDead { rank: 0 }));
    }

    #[test]
    fn delayed_messages_still_arrive() {
        let plan = FaultPlan::new(15).delay(1.0, Duration::from_millis(2));
        let mut world = comm_world_with(2, fast_config(), Some(plan));
        let mut c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        let t = thread::spawn(move || c1.send(0, 1, pack_f64(&[4.0])).unwrap());
        assert_eq!(unpack_f64(&c0.recv(1, 1).unwrap()).unwrap(), vec![4.0]);
        t.join().unwrap();
    }

    #[test]
    fn sequence_gap_exhausts_retries() {
        let config = CommConfig {
            timeout: Duration::from_secs(5),
            retry_backoff: Duration::from_micros(100),
            max_retries: 3,
        };
        let mut world = comm_world_with(2, config, None);
        let c1 = world.pop().unwrap();
        let mut c0 = world.pop().unwrap();
        // A message from the future (seq 5) with seq 0 lost without a
        // pristine copy: evidence of a hole the link cannot repair.
        let mut frame = pack_f64(&[0.0]);
        frame.seal();
        c1.senders[0].send(Message { from: 1, tag: 3, seq: 5, frame }).unwrap();
        assert_eq!(
            c0.recv(1, 3),
            Err(CommError::RetriesExhausted { from: 1, tag: 3, attempts: 3 })
        );
    }

    #[test]
    fn faulted_allreduce_matches_fault_free() {
        let run = |plan: Option<FaultPlan>| -> (Vec<f64>, u64) {
            let world = comm_world_with(4, fast_config(), plan);
            let handles: Vec<_> = world
                .into_iter()
                .map(|mut c| {
                    thread::spawn(move || {
                        let mut acc = Vec::new();
                        for round in 0..16 {
                            let v = (c.rank() * 31 + round) as f64 * 0.37 + 1e-3;
                            acc.push(c.allreduce_sum_f64(v).unwrap());
                        }
                        (acc, c.stats().recovered)
                    })
                })
                .collect();
            let mut results = Vec::new();
            let mut recovered = 0;
            for h in handles {
                let (acc, rec) = h.join().unwrap();
                results.push(acc);
                recovered += rec;
            }
            assert!(results.windows(2).all(|w| w[0] == w[1]));
            (results.pop().unwrap(), recovered)
        };
        let clean = run(None);
        let chaotic = run(Some(FaultPlan::new(77).drop(0.10).bit_flip(0.05).duplicate(0.05)));
        // Recovery is bit-exact: the faulted world reduces to the exact
        // fault-free values, and at least one recovery actually happened.
        assert_eq!(clean.0, chaotic.0);
        assert!(chaotic.1 > 0, "fault plan injected nothing");
    }

    #[test]
    fn fault_recovery_is_deterministic_across_runs() {
        let run = || {
            let plan = FaultPlan::new(42).drop(0.3).truncate(0.1);
            let mut world = comm_world_with(2, fast_config(), Some(plan));
            let mut c1 = world.pop().unwrap();
            let mut c0 = world.pop().unwrap();
            let mut got = Vec::new();
            for i in 0..20 {
                c1.send(0, 9, pack_f64(&[i as f64 * 1.5])).unwrap();
                got.push(unpack_f64(&c0.recv(1, 9).unwrap()).unwrap()[0]);
            }
            (got, c0.stats().recovered)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.1 > 0, "expected some recoveries at 30% drop over 20 messages");
    }

    #[test]
    fn lockstep_clean_run_matches_unsanitized_results() {
        let run = |sanitize: bool| -> Vec<f64> {
            let world = comm_world_with(3, fast_config(), None);
            let handles: Vec<_> = world
                .into_iter()
                .map(|mut c| {
                    if sanitize {
                        c.enable_lockstep(LockstepConfig { check_every: 1 });
                    }
                    thread::spawn(move || {
                        let mut acc = Vec::new();
                        // Mix point-to-point ring traffic with reductions so
                        // all three collective kinds enter the fingerprint.
                        for round in 0..6 {
                            let (fwd, bwd) = ring(c.rank(), c.size());
                            c.send(fwd, 17, pack_f64(&[round as f64])).unwrap();
                            let _ = c.recv(bwd, 17).unwrap();
                            let v = (c.rank() + 1) as f64 * (round + 1) as f64;
                            acc.push(c.allreduce_sum_f64(v).unwrap());
                            acc.push(c.allreduce_max_f64(v).unwrap());
                        }
                        c.barrier().unwrap();
                        acc
                    })
                })
                .collect();
            let results: Vec<Vec<f64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(results.windows(2).all(|w| w[0] == w[1]));
            results.into_iter().next().unwrap()
        };
        // The sanitizer must be invisible to the numerics.
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn lockstep_locates_skipped_collective_instead_of_hanging() {
        // Rank 1 silently skips its 3rd allreduce: without the sanitizer
        // every later reduction silently pairs off-by-one. With it, every
        // rank fails fast with the exact divergent stream index.
        let plan = FaultPlan::new(0).skip_collective(1, 2);
        let world = comm_world_with(2, fast_config(), Some(plan));
        let start = Instant::now();
        let handles: Vec<_> = world
            .into_iter()
            .map(|mut c| {
                c.enable_lockstep(LockstepConfig { check_every: 1 });
                thread::spawn(move || {
                    for round in 0..6 {
                        if let Err(e) = c.allreduce_sum_f64(round as f64) {
                            return e;
                        }
                    }
                    panic!("rank {} never saw the divergence", c.rank());
                })
            })
            .collect();
        for h in handles {
            match h.join().unwrap() {
                CommError::LockstepDivergence { rank, index, expected, got } => {
                    assert_eq!(rank, 1);
                    assert_eq!(index, 2);
                    // Rank 0's 3rd collective vs rank 1's 4th, streamed
                    // into the same slot by the skip.
                    assert_eq!(expected.map(|r| r.seq), Some(2));
                    assert_eq!(got.map(|r| r.seq), Some(3));
                }
                other => panic!("expected LockstepDivergence, got {other:?}"),
            }
        }
        assert!(start.elapsed() < Duration::from_secs(2), "divergence detection too slow");
    }

    #[test]
    fn lockstep_detects_duplicated_collective_as_count_drift() {
        let plan = FaultPlan::new(0).duplicate_collective(1, 1);
        let world = comm_world_with(2, fast_config(), Some(plan));
        let handles: Vec<_> = world
            .into_iter()
            .map(|mut c| {
                c.enable_lockstep(LockstepConfig { check_every: 1 });
                thread::spawn(move || {
                    for round in 0..6 {
                        if let Err(e) = c.allreduce_sum_f64(round as f64) {
                            return e;
                        }
                    }
                    panic!("rank {} never saw the divergence", c.rank());
                })
            })
            .collect();
        for h in handles {
            match h.join().unwrap() {
                CommError::LockstepDivergence { rank, index, .. } => {
                    assert_eq!(rank, 1);
                    // Rank 1's replayed exchange runs one ahead of its
                    // fingerprint: count drift located at stream index 2.
                    assert_eq!(index, 2);
                }
                other => panic!("expected LockstepDivergence, got {other:?}"),
            }
        }
    }
}

/// Heavier soak tests, run via `cargo test -p quda-comm --features chaos`.
#[cfg(all(test, feature = "chaos"))]
mod chaos_tests {
    use super::*;
    use crate::codec::{pack_f64, unpack_f64};
    use std::thread;

    #[test]
    fn soak_mixed_faults_heavy_traffic() {
        let plan = FaultPlan::new(1234)
            .drop(0.05)
            .bit_flip(0.02)
            .truncate(0.02)
            .duplicate(0.05)
            .delay(0.02, Duration::from_micros(200));
        let world = comm_world_with(4, CommConfig::default(), Some(plan));
        let handles: Vec<_> = world
            .into_iter()
            .map(|mut c| {
                thread::spawn(move || {
                    let (rank, size) = (c.rank(), c.size());
                    let (fwd, bwd) = ((rank + 1) % size, (rank + size - 1) % size);
                    let mut sum = 0.0;
                    for i in 0..200u64 {
                        c.send(fwd, 17, pack_f64(&[i as f64 + c.rank() as f64 * 0.5])).unwrap();
                        sum += unpack_f64(&c.recv(bwd, 17).unwrap()).unwrap()[0];
                    }
                    let world_sum = c.allreduce_sum_f64(sum).unwrap();
                    (world_sum, c.stats())
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results.windows(2).all(|w| w[0].0 == w[1].0));
        let recovered: u64 = results.iter().map(|r| r.1.recovered).sum();
        assert!(recovered > 0, "soak injected no recoverable faults");
    }

    #[test]
    fn soak_slow_rank_does_not_fail() {
        let plan = FaultPlan::new(5).slow_rank(1, Duration::from_micros(300));
        let world = comm_world_with(3, CommConfig::default(), Some(plan));
        let handles: Vec<_> = world
            .into_iter()
            .map(|mut c| {
                thread::spawn(move || {
                    let mut total = 0.0;
                    for _ in 0..50 {
                        total = c.allreduce_sum_f64(1.0).unwrap();
                    }
                    total
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 3.0);
        }
    }
}
