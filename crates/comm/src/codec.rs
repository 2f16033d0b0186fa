//! Byte-level packing of face payloads, plus message framing.
//!
//! Ghost faces travel between ranks as raw byte messages, exactly like MPI
//! buffers. These helpers pack and unpack the three storage element types
//! (f64, f32, i16-fixed-point) plus the f32 normalization arrays that ride
//! with half-precision faces. Packing writes every element into one
//! pre-sized buffer; the bytes are each element's `to_le_bytes`, in order.
//!
//! On the wire every payload is wrapped in a 12-byte frame — a 4-byte
//! little-endian length and an 8-byte [`checksum`] — so a truncated or
//! bit-flipped message is *detected* at the receiver instead of being
//! silently summed into the solve ([`unframe`] reports a typed
//! [`DecodeError`]). The checksum is a word-parallel FNV-1a that reads the
//! payload eight bytes per step. Any corruption confined to one aligned
//! 8-byte word of the payload, which includes every single-bit and
//! single-byte flip, is detected with certainty; a truncation is caught by
//! the length. The frame header is link-level bookkeeping and is not
//! counted in the traffic statistics the performance model prices.

use crate::error::DecodeError;
use bytes::{Bytes, BytesMut};

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

/// Wrap a payload in a `[len u32][checksum u64][payload]` frame.
pub fn frame(payload: &Bytes) -> Bytes {
    let mut buf = BytesMut::with_capacity(FRAME_OVERHEAD + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&checksum(payload).to_le_bytes());
    buf.extend_from_slice(payload);
    buf.freeze()
}

/// Validate a frame and return its payload.
///
/// Detects short frames ([`DecodeError::Truncated`]) and corrupted
/// payloads ([`DecodeError::BadChecksum`]).
pub fn unframe(framed: &Bytes) -> Result<Bytes, DecodeError> {
    if framed.len() < FRAME_OVERHEAD {
        return Err(DecodeError::Truncated { expected: FRAME_OVERHEAD, got: framed.len() });
    }
    let len = u32::from_le_bytes(le_bytes(&framed[0..4])) as usize;
    let want = u64::from_le_bytes(le_bytes(&framed[4..12]));
    if framed.len() != FRAME_OVERHEAD + len {
        return Err(DecodeError::Truncated { expected: FRAME_OVERHEAD + len, got: framed.len() });
    }
    let payload = framed.slice(FRAME_OVERHEAD..framed.len());
    let got = checksum(&payload);
    if got != want {
        return Err(DecodeError::BadChecksum { expected: want, got });
    }
    Ok(payload)
}

/// Append the little-endian bytes of every element of `data` to `buf` in
/// one pass over a region sized up front: the bytes are exactly the
/// concatenation of `to_le(x)` over `data`.
pub fn extend_le<T: Copy, const N: usize>(
    buf: &mut Vec<u8>,
    data: &[T],
    to_le: impl Fn(T) -> [u8; N],
) {
    let start = buf.len();
    buf.resize(start + data.len() * N, 0);
    for (dst, &x) in buf[start..].chunks_exact_mut(N).zip(data) {
        dst.copy_from_slice(&to_le(x));
    }
}

/// Pack `data` into a new buffer of little-endian bytes (see [`extend_le`]).
pub fn pack_le<T: Copy, const N: usize>(data: &[T], to_le: impl Fn(T) -> [u8; N]) -> Bytes {
    let mut buf = Vec::with_capacity(data.len() * N);
    extend_le(&mut buf, data, to_le);
    Bytes::from(buf)
}

/// Pack a slice of f64 into little-endian bytes.
pub fn pack_f64(data: &[f64]) -> Bytes {
    pack_le(data, f64::to_le_bytes)
}

/// Unpack little-endian f64.
pub fn unpack_f64(bytes: &[u8]) -> Result<Vec<f64>, DecodeError> {
    if bytes.len() % 8 != 0 {
        return Err(DecodeError::LengthMismatch { element_size: 8, len: bytes.len() });
    }
    Ok(bytes.chunks_exact(8).map(|c| f64::from_le_bytes(le_bytes(c))).collect())
}

/// Pack a slice of f32 into little-endian bytes.
pub fn pack_f32(data: &[f32]) -> Bytes {
    pack_le(data, f32::to_le_bytes)
}

/// Unpack little-endian f32.
pub fn unpack_f32(bytes: &[u8]) -> Result<Vec<f32>, DecodeError> {
    if bytes.len() % 4 != 0 {
        return Err(DecodeError::LengthMismatch { element_size: 4, len: bytes.len() });
    }
    Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(le_bytes(c))).collect())
}

/// Pack a slice of i16 (the half-precision storage integers).
pub fn pack_i16(data: &[i16]) -> Bytes {
    pack_le(data, i16::to_le_bytes)
}

/// Unpack little-endian i16.
pub fn unpack_i16(bytes: &[u8]) -> Result<Vec<i16>, DecodeError> {
    if bytes.len() % 2 != 0 {
        return Err(DecodeError::LengthMismatch { element_size: 2, len: bytes.len() });
    }
    Ok(bytes.chunks_exact(2).map(|c| i16::from_le_bytes(le_bytes(c))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let data = vec![0.0, 1.5, -2.25e300, f64::MIN_POSITIVE];
        assert_eq!(unpack_f64(&pack_f64(&data)).unwrap(), data);
    }

    #[test]
    fn f32_roundtrip() {
        let data = vec![0.0f32, -1.5, 3.25e30];
        assert_eq!(unpack_f32(&pack_f32(&data)).unwrap(), data);
    }

    #[test]
    fn i16_roundtrip() {
        let data = vec![0i16, 32767, -32768, 123];
        assert_eq!(unpack_i16(&pack_i16(&data)).unwrap(), data);
    }

    #[test]
    fn ragged_payload_rejected() {
        assert_eq!(
            unpack_f64(&[1, 2, 3]),
            Err(DecodeError::LengthMismatch { element_size: 8, len: 3 })
        );
        assert!(unpack_f32(&[0; 5]).is_err());
        assert!(unpack_i16(&[0; 3]).is_err());
    }

    #[test]
    fn sizes_match_mpi_buffer_sizes() {
        // A single-precision 12-component face site is 48 bytes on the wire.
        assert_eq!(pack_f32(&[0.0; 12]).len(), 48);
        // Half precision: 24 bytes + (separately) one 4-byte norm.
        assert_eq!(pack_i16(&[0; 12]).len(), 24);
    }

    #[test]
    fn frame_roundtrip() {
        let payload = pack_f64(&[1.0, -2.5, 3.75]);
        let framed = frame(&payload);
        assert_eq!(framed.len(), payload.len() + FRAME_OVERHEAD);
        assert_eq!(&unframe(&framed).unwrap()[..], &payload[..]);
    }

    #[test]
    fn frame_detects_bit_flip() {
        let framed = frame(&pack_f64(&[42.0]));
        let mut bad = framed.to_vec();
        bad[FRAME_OVERHEAD + 3] ^= 0x10;
        match unframe(&Bytes::from(bad)) {
            Err(DecodeError::BadChecksum { .. }) => {}
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    #[test]
    fn frame_detects_truncation() {
        let framed = frame(&pack_f64(&[1.0, 2.0]));
        let cut = Bytes::from(framed[..framed.len() - 5].to_vec());
        match unframe(&cut) {
            Err(DecodeError::Truncated { expected, got }) => {
                assert_eq!(expected, framed.len());
                assert_eq!(got, framed.len() - 5);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Shorter than even a header:
        assert!(matches!(
            unframe(&Bytes::from(vec![1u8, 2, 3])),
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
        assert_every_bit_flip_detected(&mut pack_f64(&face).to_vec());
    }
}
