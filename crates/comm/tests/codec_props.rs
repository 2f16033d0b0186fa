//! Property tests of the wire codec: `pack_f64` writes exactly the
//! per-element little-endian bytes, and the frame checksum detects any
//! change confined to one aligned 8-byte word of the payload.

use proptest::collection::vec;
use proptest::prelude::*;
use quda_comm::{checksum, le_bytes, pack_f64};

const MAX_LEN: usize = 40;

/// f64 values weighted toward the bit patterns a byte-order slip would
/// mangle: signed zeros, NaNs with payloads, subnormals, infinities.
fn f64_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0u64..=u64::MAX).prop_map(f64::from_bits),
        Just(-0.0),
        Just(f64::INFINITY),
        (1u64..1 << 51).prop_map(|m| f64::from_bits(0x7ff8_0000_0000_0000 | m)),
        (1u64..1 << 51).prop_map(|m| f64::from_bits(0xfff0_0000_0000_0000 | m)),
        (1u64..1 << 52).prop_map(f64::from_bits),
        (1u64..1 << 52).prop_map(|m| -f64::from_bits(m)),
    ]
}

/// Non-zero XOR masks for one 8-byte word: arbitrary, and confined to one
/// bit, one byte, or the high half, where a hash that drops part of a word
/// would miss them.
fn word_delta() -> impl Strategy<Value = u64> {
    prop_oneof![
        1u64..=u64::MAX,
        (0u32..64).prop_map(|k| 1u64 << k),
        (1u64..=255, 0u32..8).prop_map(|(b, k)| b << (8 * k)),
        (1u64..=u32::MAX as u64).prop_map(|h| h << 32),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pack_f64_is_per_element_le_bytes(len in 0..=MAX_LEN, v in vec(f64_value(), MAX_LEN)) {
        let v = &v[..len];
        let want: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        prop_assert_eq!(&pack_f64(v)[..], &want[..]);
    }

    #[test]
    fn replacing_one_aligned_word_changes_the_checksum(
        len in 8usize..=300,
        bytes in vec(0u8..=255, 300),
        word in 0usize..37,
        delta in word_delta(),
    ) {
        let mut payload = bytes[..len].to_vec();
        let clean = checksum(&payload);
        let at = 8 * (word % (len / 8));
        let old = u64::from_le_bytes(le_bytes(&payload[at..at + 8]));
        payload[at..at + 8].copy_from_slice(&(old ^ delta).to_le_bytes());
        prop_assert_ne!(checksum(&payload), clean);
    }
}
