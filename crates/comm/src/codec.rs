//! Wire frames, the frame checksum, and the f64 packing the collectives
//! use.
//!
//! Every message travels as one owned [`Frame`]: a single buffer holding a
//! 12-byte header — a 4-byte little-endian payload length and an 8-byte
//! [`checksum`] — followed by the payload, like an MPI buffer with a
//! link-level header in front. The writer fills the payload in place
//! (the face exchange encodes each gathered half spinor straight into it),
//! [`Frame::seal`] writes the header over the same buffer, and the receiver
//! runs [`Frame::verify`] and reads the payload where it landed: one buffer
//! from gather to ghost zone, with no copy in between.
//!
//! The header lets the receiver *detect* a truncated or bit-flipped
//! message instead of silently summing it into the solve ([`Frame::verify`]
//! reports a typed [`DecodeError`]). The checksum is a word-parallel FNV-1a
//! that reads the payload eight bytes per step. Any corruption confined to
//! one aligned 8-byte word of the payload, which includes every single-bit
//! and single-byte flip, is detected with certainty; a truncation is caught
//! by the length. The header is link-level bookkeeping and is not counted
//! in the traffic statistics the performance model prices.

use crate::error::DecodeError;
use std::ops::{Deref, DerefMut};

/// Bytes of framing added to each wire message (length + checksum).
pub const FRAME_OVERHEAD: usize = 12;

/// Infallible fixed-width copy out of a slice whose length the caller has
/// already established (constant-offset slicing or `chunks_exact`), keeping
/// the hot decode paths free of panicking conversions.
#[inline(always)]
pub fn le_bytes<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(bytes);
    a
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV-1a step. For a fixed `x` it is a bijection of `h`, and for a
/// fixed `h` a bijection of `x` (the prime is odd, so the multiply is
/// invertible mod 2^64).
#[inline(always)]
fn fnv_step(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Word-parallel FNV-1a-64 of a byte slice — the per-message checksum.
///
/// The payload is read as little-endian 8-byte words; word `i` is folded
/// into lane `i % 4` by one FNV-1a step (each lane starts at the FNV
/// offset basis), so the four lanes' multiply chains overlap. The bytes
/// after the last whole word are hashed one at a time, then the four lanes
/// and finally the payload length are folded into the result.
///
/// Detection guarantee: every step is a bijection of the state and of the
/// value folded in, so changing any one aligned 8-byte word, or any one
/// byte of the tail, always changes the checksum; every single-bit and
/// single-byte flip is one of these. A truncation is caught by the
/// frame's length prefix before the checksum is compared.
pub fn checksum(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let (blocks, rest) = words.as_chunks::<4>();
    let mut lanes = [FNV_OFFSET; 4];
    // Four named lane steps rather than an inner loop: unoptimised builds,
    // where the exhaustive bit-flip test runs, are about 4x faster so.
    for [w0, w1, w2, w3] in blocks {
        let [l0, l1, l2, l3] = lanes;
        lanes = [
            fnv_step(l0, u64::from_le_bytes(*w0)),
            fnv_step(l1, u64::from_le_bytes(*w1)),
            fnv_step(l2, u64::from_le_bytes(*w2)),
            fnv_step(l3, u64::from_le_bytes(*w3)),
        ];
    }
    for (lane, word) in lanes.iter_mut().zip(rest) {
        *lane = fnv_step(*lane, u64::from_le_bytes(*word));
    }
    let mut h = FNV_OFFSET;
    for &b in tail {
        h = fnv_step(h, b as u64);
    }
    for lane in lanes {
        h = fnv_step(h, lane);
    }
    fnv_step(h, bytes.len() as u64)
}

/// One wire message in one owned buffer: the `[len u32][checksum u64]`
/// header followed by the payload.
///
/// A frame derefs to its payload, so a writer fills it in place and a
/// reader decodes it where it landed. [`Frame::seal`] writes the header
/// for the current payload (the communicator seals every frame it sends);
/// [`Frame::verify`] checks a received one. Cloning copies the buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Header and payload. Shorter than a header only after a truncation
    /// on the wire, which [`Frame::verify`] reports.
    pub(crate) buf: Vec<u8>,
}

impl Frame {
    /// A frame with a zero-filled payload of `len` bytes, to be written in
    /// place.
    pub fn zeroed(len: usize) -> Frame {
        Frame { buf: vec![0; FRAME_OVERHEAD + len] }
    }

    /// Write the header for the current payload: its length and checksum.
    pub fn seal(&mut self) {
        let (header, payload) = self.buf.split_at_mut(FRAME_OVERHEAD);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&checksum(payload).to_le_bytes());
    }

    /// Check the header against the payload.
    ///
    /// Detects short frames ([`DecodeError::Truncated`]) and corrupted
    /// payloads ([`DecodeError::BadChecksum`]).
    pub fn verify(&self) -> Result<(), DecodeError> {
        let framed = &self.buf;
        if framed.len() < FRAME_OVERHEAD {
            return Err(DecodeError::Truncated { expected: FRAME_OVERHEAD, got: framed.len() });
        }
        let len = u32::from_le_bytes(le_bytes(&framed[0..4])) as usize;
        let want = u64::from_le_bytes(le_bytes(&framed[4..12]));
        if framed.len() != FRAME_OVERHEAD + len {
            return Err(DecodeError::Truncated {
                expected: FRAME_OVERHEAD + len,
                got: framed.len(),
            });
        }
        let got = checksum(&framed[FRAME_OVERHEAD..]);
        if got != want {
            return Err(DecodeError::BadChecksum { expected: want, got });
        }
        Ok(())
    }
}

impl Deref for Frame {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.buf.get(FRAME_OVERHEAD..).unwrap_or_default()
    }
}

impl DerefMut for Frame {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.buf.get_mut(FRAME_OVERHEAD..).unwrap_or_default()
    }
}

/// Pack a slice of f64 into a frame of little-endian bytes.
pub fn pack_f64(data: &[f64]) -> Frame {
    let mut frame = Frame::zeroed(data.len() * 8);
    for (dst, x) in frame.chunks_exact_mut(8).zip(data) {
        dst.copy_from_slice(&x.to_le_bytes());
    }
    frame
}

/// Unpack little-endian f64.
pub fn unpack_f64(bytes: &[u8]) -> Result<Vec<f64>, DecodeError> {
    if bytes.len() % 8 != 0 {
        return Err(DecodeError::LengthMismatch { element_size: 8, len: bytes.len() });
    }
    Ok(bytes.chunks_exact(8).map(|c| f64::from_le_bytes(le_bytes(c))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sealed frame of `data`.
    fn sealed(data: &[f64]) -> Frame {
        let mut frame = pack_f64(data);
        frame.seal();
        frame
    }

    /// A frame holding exactly the bytes `wire`, as a faulty link would
    /// deliver them.
    fn received(wire: &[u8]) -> Frame {
        Frame { buf: wire.to_vec() }
    }

    #[test]
    fn f64_roundtrip() {
        let data = vec![0.0, 1.5, -2.25e300, f64::MIN_POSITIVE];
        assert_eq!(unpack_f64(&pack_f64(&data)).unwrap(), data);
    }

    #[test]
    fn ragged_payload_rejected() {
        assert_eq!(
            unpack_f64(&[1, 2, 3]),
            Err(DecodeError::LengthMismatch { element_size: 8, len: 3 })
        );
        assert!(unpack_f64(&[0; 12]).is_err());
    }

    #[test]
    fn sizes_match_mpi_buffer_sizes() {
        // A double-precision 12-component face site is 96 bytes of payload;
        // the frame header rides in front of it in the same buffer.
        let frame = sealed(&[0.0; 12]);
        assert_eq!(frame.len(), 96);
        assert_eq!(frame.buf.len(), 96 + FRAME_OVERHEAD);
    }

    #[test]
    fn frame_roundtrip() {
        let data = [1.0, -2.5, 3.75];
        let framed = sealed(&data);
        assert_eq!(framed.buf.len(), framed.len() + FRAME_OVERHEAD);
        let got = received(&framed.buf);
        assert_eq!(got.verify(), Ok(()));
        assert_eq!(unpack_f64(&got).unwrap(), data);
    }

    #[test]
    fn frame_detects_bit_flip() {
        let mut bad = sealed(&[42.0]).buf;
        bad[FRAME_OVERHEAD + 3] ^= 0x10;
        match received(&bad).verify() {
            Err(DecodeError::BadChecksum { .. }) => {}
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    #[test]
    fn frame_detects_truncation() {
        let framed = sealed(&[1.0, 2.0]);
        let wire = &framed.buf;
        let cut = received(&wire[..wire.len() - 5]);
        match cut.verify() {
            Err(DecodeError::Truncated { expected, got }) => {
                assert_eq!(expected, wire.len());
                assert_eq!(got, wire.len() - 5);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Shorter than even a header, whose payload reads as empty:
        let stub = received(&[1u8, 2, 3]);
        assert!(stub.is_empty());
        assert!(matches!(
            stub.verify(),
            Err(DecodeError::Truncated { expected: FRAME_OVERHEAD, got: 3 })
        ));
    }

    #[test]
    fn checksum_known_answers() {
        // Empty, a sub-word tail only, one whole block, and a block plus
        // two tail words and a 3-byte tail.
        let seq: Vec<u8> = (0u8..51).collect();
        assert_eq!(checksum(&[]), 0x7f6e_4d21_b650_a5a3);
        assert_eq!(checksum(b"abc"), 0x2545_70c3_c445_7d5c);
        assert_eq!(checksum(&seq[..32]), 0x5cfe_d8c6_99ec_ecf3);
        assert_eq!(checksum(&seq), 0x47cc_f553_ddf9_3c55);
    }

    /// Flip every bit of `payload` in turn; each flip must change the
    /// checksum.
    fn assert_every_bit_flip_detected(payload: &mut [u8]) {
        let clean = checksum(payload);
        for i in 0..payload.len() * 8 {
            payload[i / 8] ^= 1 << (i % 8);
            assert_ne!(checksum(payload), clean, "flip of bit {i} of {} bytes", payload.len());
            payload[i / 8] ^= 1 << (i % 8);
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        for len in 0..=100usize {
            let mut payload: Vec<u8> = (0..len).map(|i| (i * 151 + len) as u8).collect();
            assert_every_bit_flip_detected(&mut payload);
        }
        // One solve_volume rank face: 256 sites of an 8^3 checkerboarded
        // slice x 12 reals x 8 B = 24,576 B.
        let face: Vec<f64> = (0..3072).map(|i| (i as f64 * 0.37).sin()).collect();
        assert_every_bit_flip_detected(&mut pack_f64(&face));
    }
}
