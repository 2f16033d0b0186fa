//! The lockstep sanitizer: a debug-mode validator that turns a silent
//! cross-rank collective divergence into a located, typed error.
//!
//! The whole multi-GPU inverter rests on an unstated SPMD contract: every
//! rank executes the *same sequence* of collectives (ghost sends/recvs,
//! global reductions) in the same order. The sequel paper ("Scaling
//! Lattice QCD beyond 100 GPUs") notes that at scale a single
//! rank-divergent collective is an undebuggable hang. This module checks
//! the contract at runtime:
//!
//! * every logical collective is fingerprinted as `(kind, tag,
//!   payload_len, seq)` and folded into a per-rank rolling hash, with the
//!   last [`RING_LEN`] records kept in a ring;
//! * each allreduce contribution carries the sender's fingerprint as a
//!   fixed-size metadata block (u64s transported losslessly as `f64`
//!   bits), piggybacked in-band so the check can never itself deadlock
//!   when ranks disagree on how many collectives they have issued;
//! * every `check_every` allreduces, rank 0 compares each peer's
//!   fingerprint against its own and broadcasts a verdict block in the
//!   reply; on a mismatch every rank fails with
//!   [`CommError::LockstepDivergence`](crate::CommError), reporting the
//!   first mismatched collective index and the two records that disagree.

use std::collections::VecDeque;

/// Records kept per rank for divergence localization. Fixed so the
/// metadata block has a constant wire size.
pub const RING_LEN: usize = 8;

/// `f64` slots a contribution metadata block occupies on the wire:
/// `[count, hash]` plus [`RING_LEN`] encoded records.
pub const META_F64S: usize = 2 + RING_LEN * 4;

/// `f64` slots of the root's verdict block: `[flag, rank, index,
/// root_count, peer_count]` plus the two records that disagree.
pub const VERDICT_F64S: usize = 5 + 2 * 4;

/// Sentinel index marking an absent record slot.
const NO_RECORD: u64 = u64::MAX;

/// What kind of collective operation a fingerprint entry describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectiveKind {
    /// A point-to-point send on an application tag.
    Send,
    /// A point-to-point receive on an application tag.
    Recv,
    /// One logical allreduce (sum, max, or barrier).
    AllReduce,
}

impl CollectiveKind {
    fn code(self) -> u64 {
        match self {
            CollectiveKind::Send => 0,
            CollectiveKind::Recv => 1,
            CollectiveKind::AllReduce => 2,
        }
    }

    fn from_code(code: u64) -> CollectiveKind {
        match code {
            0 => CollectiveKind::Send,
            1 => CollectiveKind::Recv,
            _ => CollectiveKind::AllReduce,
        }
    }
}

/// One fingerprinted collective: position `index` in this rank's logical
/// collective stream, plus the `(kind, tag, payload_len, seq)` signature
/// that must agree across ranks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockstepRecord {
    /// 0-based position in the rank's collective stream.
    pub index: u64,
    /// Operation kind.
    pub kind: CollectiveKind,
    /// Wire tag (for allreduces, the contribution tag).
    pub tag: u32,
    /// Logical payload bytes (excluding sanitizer metadata).
    pub len: u64,
    /// Stream sequence number (per `(peer, tag)` for point-to-point,
    /// the allreduce call number for collectives).
    pub seq: u64,
}

/// Sanitizer policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LockstepConfig {
    /// Compare fingerprints on every `check_every`-th allreduce call
    /// (1 = every call). The fingerprint metadata itself rides on every
    /// contribution regardless — this only sets how often rank 0 diffs it.
    pub check_every: u64,
}

impl Default for LockstepConfig {
    fn default() -> Self {
        LockstepConfig { check_every: 16 }
    }
}

impl LockstepConfig {
    /// Read the `QUDA_LOCKSTEP` environment variable: unset, `0`, `off` or
    /// `false` disable the sanitizer (`None`); a positive integer enables
    /// it with that `check_every`; any other non-empty value enables the
    /// default policy.
    pub fn from_env() -> Option<LockstepConfig> {
        let raw = std::env::var("QUDA_LOCKSTEP").ok()?;
        let v = raw.trim();
        if v.is_empty()
            || v == "0"
            || v.eq_ignore_ascii_case("off")
            || v.eq_ignore_ascii_case("false")
        {
            return None;
        }
        match v.parse::<u64>() {
            Ok(n) if n >= 1 => Some(LockstepConfig { check_every: n }),
            _ => Some(LockstepConfig::default()),
        }
    }
}

/// A rank's fingerprint at one instant: how many collectives it has
/// issued, the rolling hash over all of them, and the newest
/// [`RING_LEN`] records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Collectives recorded so far.
    pub count: u64,
    /// Rolling hash over every recorded signature.
    pub hash: u64,
    /// Newest records, oldest first.
    pub ring: Vec<LockstepRecord>,
}

/// A located cross-rank mismatch: the first stream index where two ranks'
/// collective signatures disagree, with the records on each side when the
/// divergence is still inside the ring window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// First mismatched collective index (for divergences older than the
    /// ring window, the oldest index still available).
    pub index: u64,
    /// Rank 0's record at `index`, if still in its ring.
    pub expected: Option<LockstepRecord>,
    /// The divergent rank's record at `index`, if still in its ring.
    pub got: Option<LockstepRecord>,
}

/// Per-communicator sanitizer state.
#[derive(Clone, Debug)]
pub struct LockstepState {
    config: LockstepConfig,
    count: u64,
    hash: u64,
    ring: VecDeque<LockstepRecord>,
}

/// splitmix64 — the same mixer the fault plan uses; good enough to make
/// any single-field change flip the rolling hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn signature(kind: CollectiveKind, tag: u32, len: u64, seq: u64) -> u64 {
    splitmix64(kind.code() ^ (u64::from(tag) << 2))
        .wrapping_add(splitmix64(len ^ seq.rotate_left(32)))
}

impl LockstepState {
    /// Fresh state under `config`.
    pub fn new(config: LockstepConfig) -> LockstepState {
        LockstepState { config, count: 0, hash: 0, ring: VecDeque::with_capacity(RING_LEN) }
    }

    /// The policy this state runs under.
    pub fn config(&self) -> LockstepConfig {
        self.config
    }

    /// Collectives recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fold one collective into the fingerprint.
    pub fn record(&mut self, kind: CollectiveKind, tag: u32, len: u64, seq: u64) {
        let rec = LockstepRecord { index: self.count, kind, tag, len, seq };
        self.hash = splitmix64(self.hash ^ signature(kind, tag, len, seq));
        if self.ring.len() == RING_LEN {
            self.ring.pop_front();
        }
        self.ring.push_back(rec);
        self.count += 1;
    }

    /// Whether rank 0 should diff fingerprints after allreduce call
    /// number `call_no` (0-based).
    pub fn check_due(&self, call_no: u64) -> bool {
        let every = self.config.check_every.max(1);
        (call_no + 1) % every == 0
    }

    /// Snapshot this rank's fingerprint.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            count: self.count,
            hash: self.hash,
            ring: self.ring.iter().copied().collect(),
        }
    }

    /// Encode the contribution metadata block ([`META_F64S`] slots).
    pub fn contribution_meta(&self) -> Vec<f64> {
        let mut words = Vec::with_capacity(META_F64S);
        words.push(self.count);
        words.push(self.hash);
        for slot in 0..RING_LEN {
            match self.ring.get(slot) {
                Some(rec) => encode_record(Some(*rec), &mut words),
                None => encode_record(None, &mut words),
            }
        }
        to_f64_bits(&words)
    }
}

fn encode_record(rec: Option<LockstepRecord>, words: &mut Vec<u64>) {
    match rec {
        Some(r) => {
            words.push(r.index);
            words.push((r.kind.code() << 32) | u64::from(r.tag));
            words.push(r.len);
            words.push(r.seq);
        }
        None => {
            words.push(NO_RECORD);
            words.push(0);
            words.push(0);
            words.push(0);
        }
    }
}

fn decode_record(words: &[u64]) -> Option<LockstepRecord> {
    if words.len() < 4 || words[0] == NO_RECORD {
        return None;
    }
    Some(LockstepRecord {
        index: words[0],
        kind: CollectiveKind::from_code(words[1] >> 32),
        tag: (words[1] & 0xffff_ffff) as u32,
        len: words[2],
        seq: words[3],
    })
}

/// u64 → f64 bit transport. The values are never used arithmetically, so
/// NaN payloads and subnormals pass through the byte codec untouched.
fn to_f64_bits(words: &[u64]) -> Vec<f64> {
    words.iter().map(|&w| f64::from_bits(w)).collect()
}

fn from_f64_bits(slots: &[f64]) -> Vec<u64> {
    slots.iter().map(|s| s.to_bits()).collect()
}

/// Decode a peer's contribution metadata block. Returns `None` when the
/// block has the wrong size (a peer without the sanitizer enabled).
pub fn parse_contribution_meta(slots: &[f64]) -> Option<Fingerprint> {
    if slots.len() != META_F64S {
        return None;
    }
    let words = from_f64_bits(slots);
    let mut ring = Vec::with_capacity(RING_LEN);
    for slot in 0..RING_LEN {
        if let Some(rec) = decode_record(&words[2 + slot * 4..2 + slot * 4 + 4]) {
            ring.push(rec);
        }
    }
    Some(Fingerprint { count: words[0], hash: words[1], ring })
}

/// Diff two fingerprints; `None` when they agree. `mine` is rank 0's
/// view, `peer` the contributing rank's.
pub fn first_divergence(mine: &Fingerprint, peer: &Fingerprint) -> Option<Divergence> {
    if mine.count == peer.count && mine.hash == peer.hash {
        return None;
    }
    // Earliest stream index where both rings have a record and the
    // signatures disagree: that is the first *located* mismatch.
    for m in &mine.ring {
        if let Some(p) = peer.ring.iter().find(|p| p.index == m.index) {
            if (m.kind, m.tag, m.len, m.seq) != (p.kind, p.tag, p.len, p.seq) {
                return Some(Divergence { index: m.index, expected: Some(*m), got: Some(*p) });
            }
        }
    }
    // No overlapping record disagrees: the streams diverged either past
    // the shorter stream's end (count drift) or before the ring window.
    let index = if mine.count != peer.count {
        mine.count.min(peer.count)
    } else {
        // Same length, different history: oldest index still visible.
        mine.ring.first().map_or(0, |r| r.index)
    };
    let expected = mine.ring.iter().find(|r| r.index == index).copied();
    let got = peer.ring.iter().find(|r| r.index == index).copied();
    Some(Divergence { index, expected, got })
}

/// Encode the root's verdict block ([`VERDICT_F64S`] slots): all-clear,
/// or the first divergence found (in rank order).
pub fn encode_verdict(divergence: Option<(usize, u64, u64, Divergence)>) -> Vec<f64> {
    let mut words = Vec::with_capacity(VERDICT_F64S);
    match divergence {
        None => words.resize(VERDICT_F64S, 0),
        Some((rank, root_count, peer_count, div)) => {
            words.push(1);
            words.push(rank as u64);
            words.push(div.index);
            words.push(root_count);
            words.push(peer_count);
            encode_record(div.expected, &mut words);
            encode_record(div.got, &mut words);
        }
    }
    to_f64_bits(&words)
}

/// A decoded divergence verdict, as broadcast by rank 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// The first divergent rank (in rank order).
    pub rank: usize,
    /// First mismatched collective index.
    pub index: u64,
    /// Rank 0's collective count at the check.
    pub root_count: u64,
    /// The divergent rank's collective count at the check.
    pub peer_count: u64,
    /// Rank 0's record at `index`, if it was still in the ring.
    pub expected: Option<LockstepRecord>,
    /// The divergent rank's record at `index`, if still in its ring.
    pub got: Option<LockstepRecord>,
}

/// Decode a verdict block; `None` for all-clear or a malformed block.
pub fn parse_verdict(slots: &[f64]) -> Option<Verdict> {
    if slots.len() != VERDICT_F64S {
        return None;
    }
    let words = from_f64_bits(slots);
    if words[0] != 1 {
        return None;
    }
    Some(Verdict {
        rank: words[1] as usize,
        index: words[2],
        root_count: words[3],
        peer_count: words[4],
        expected: decode_record(&words[5..9]),
        got: decode_record(&words[9..13]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with(n: u64) -> LockstepState {
        let mut s = LockstepState::new(LockstepConfig::default());
        for i in 0..n {
            s.record(CollectiveKind::AllReduce, 0xffff_0000, 8, i);
        }
        s
    }

    #[test]
    fn identical_streams_have_no_divergence() {
        let a = state_with(20).fingerprint();
        let b = state_with(20).fingerprint();
        assert_eq!(a.hash, b.hash);
        assert!(first_divergence(&a, &b).is_none());
    }

    #[test]
    fn skipped_collective_is_located_at_its_index() {
        let mine = state_with(6);
        let mut peer = LockstepState::new(LockstepConfig::default());
        for i in 0..6u64 {
            if i == 3 {
                continue; // peer skips its 4th collective
            }
            peer.record(CollectiveKind::AllReduce, 0xffff_0000, 8, i);
        }
        let div = first_divergence(&mine.fingerprint(), &peer.fingerprint())
            .expect("divergence must be detected");
        // The peer's record *at stream index 3* carries seq 4 — the first
        // point where the streams disagree.
        assert_eq!(div.index, 3);
        assert_eq!(div.expected.map(|r| r.seq), Some(3));
        assert_eq!(div.got.map(|r| r.seq), Some(4));
    }

    #[test]
    fn count_drift_past_ring_reports_min_count() {
        let mine = state_with(40);
        let peer = state_with(39);
        // The last ring entries disagree (index 39 exists only on one
        // side), and records 32..39 share indices but different seqs? No —
        // identical prefix, one side one short: overlapping records agree.
        let div = first_divergence(&mine.fingerprint(), &peer.fingerprint())
            .expect("count drift must be detected");
        assert_eq!(div.index, 39);
    }

    #[test]
    fn meta_roundtrip_preserves_fingerprint() {
        let s = state_with(11);
        let meta = s.contribution_meta();
        assert_eq!(meta.len(), META_F64S);
        let fp = parse_contribution_meta(&meta).expect("meta parses");
        assert_eq!(fp, s.fingerprint());
    }

    #[test]
    fn verdict_roundtrip() {
        let rec = LockstepRecord { index: 7, kind: CollectiveKind::Send, tag: 1, len: 384, seq: 7 };
        let div = Divergence { index: 7, expected: Some(rec), got: None };
        let v = encode_verdict(Some((2, 9, 8, div)));
        assert_eq!(v.len(), VERDICT_F64S);
        let parsed = parse_verdict(&v).expect("divergent verdict parses");
        assert_eq!(parsed.rank, 2);
        assert_eq!(parsed.index, 7);
        assert_eq!(parsed.root_count, 9);
        assert_eq!(parsed.peer_count, 8);
        assert_eq!(parsed.expected, Some(rec));
        assert_eq!(parsed.got, None);
        assert!(parse_verdict(&encode_verdict(None)).is_none());
    }

    #[test]
    fn hash_is_sensitive_to_every_field() {
        let base = state_with(5).fingerprint().hash;
        for (kind, tag, len, seq) in [
            (CollectiveKind::Send, 0xffff_0000, 8, 4),
            (CollectiveKind::AllReduce, 0xffff_0002, 8, 4),
            (CollectiveKind::AllReduce, 0xffff_0000, 16, 4),
            (CollectiveKind::AllReduce, 0xffff_0000, 8, 5),
        ] {
            let mut s = state_with(4);
            s.record(kind, tag, len, seq);
            assert_ne!(s.fingerprint().hash, base, "{kind:?}/{tag:#x}/{len}/{seq}");
        }
    }

    #[test]
    fn check_due_respects_period() {
        let s = LockstepState::new(LockstepConfig { check_every: 4 });
        let due: Vec<u64> = (0..10).filter(|&n| s.check_due(n)).collect();
        assert_eq!(due, vec![3, 7]);
        let every = LockstepState::new(LockstepConfig { check_every: 1 });
        assert!((0..5).all(|n| every.check_due(n)));
    }

    #[test]
    fn env_config_parsing() {
        // Serialize against other env-reading tests by using a unique var
        // through the public API only when set by us.
        std::env::remove_var("QUDA_LOCKSTEP");
        assert_eq!(LockstepConfig::from_env(), None);
        std::env::set_var("QUDA_LOCKSTEP", "0");
        assert_eq!(LockstepConfig::from_env(), None);
        std::env::set_var("QUDA_LOCKSTEP", "8");
        assert_eq!(LockstepConfig::from_env(), Some(LockstepConfig { check_every: 8 }));
        std::env::set_var("QUDA_LOCKSTEP", "1");
        assert_eq!(LockstepConfig::from_env(), Some(LockstepConfig { check_every: 1 }));
        std::env::set_var("QUDA_LOCKSTEP", "on");
        assert_eq!(LockstepConfig::from_env(), Some(LockstepConfig::default()));
        std::env::remove_var("QUDA_LOCKSTEP");
    }
}
