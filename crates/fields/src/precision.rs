//! Storage precisions: double, single, and 16-bit fixed-point half.
//!
//! QUDA's solvers are parameterized by a *storage* precision per field; half
//! precision stores normalized `i16` and computes in `f32` (Section V-C3).
//! The [`Precision`] trait carries both the storage element and the
//! arithmetic type so field containers and kernels can be written once,
//! and one site codec ([`Precision::load_site`]/[`Precision::store_site`])
//! through which every spinor and clover site read, and every spinor site
//! and ghost write, converts between the two.

use quda_math::half::{decode_site, encode_site, Fixed16, Fixed8};
use quda_math::real::Real;

/// A storage precision for device fields.
pub trait Precision: Copy + Clone + Send + Sync + 'static {
    /// The arithmetic type kernels compute in.
    type Arith: Real;
    /// The element actually stored per real component.
    type Elem: Copy + Clone + Default + Send + Sync + 'static;
    /// Bytes per stored real.
    const STORAGE_BYTES: usize;
    /// Whether fields of this precision carry a normalization array.
    const NEEDS_NORM: bool;
    /// Name as the paper uses it ("double", "single", "half").
    const NAME: &'static str;

    /// Runtime tag for this precision.
    const TAG: PrecisionTag;

    /// Store a value already normalized to the representable range
    /// (for half: `[-1, 1]`; for float types: any value). Fields store
    /// whole sites through [`Precision::store_site`].
    fn store(x: Self::Arith) -> Self::Elem;
    /// Load a stored element back to the arithmetic type.
    fn load(e: Self::Elem) -> Self::Arith;

    /// Load site `i` of a store whose sites are runs of `N` elements
    /// (`norm` holds one entry per run, or nothing for the float
    /// precisions): the site codec every spinor and clover read goes
    /// through. For the float precisions it is a plain copy; for the
    /// fixed-point ones each real is expanded and multiplied by the site's
    /// norm ([`quda_math::half::decode_site`]).
    #[inline(always)]
    fn load_site<const N: usize>(data: &[Self::Elem], norm: &[f32], i: usize) -> [Self::Arith; N] {
        let run = &data.as_chunks::<N>().0[i];
        if Self::NEEDS_NORM {
            decode_site(run, norm[i], Self::load)
        } else {
            run.map(Self::load)
        }
    }

    /// Store `site` as run `i`, the inverse of [`Precision::load_site`]. For
    /// the fixed-point precisions the run gets a freshly computed norm
    /// ([`quda_math::half::encode_site`]), written to `norm[i]`.
    #[inline(always)]
    fn store_site<const N: usize>(
        data: &mut [Self::Elem],
        norm: &mut [f32],
        i: usize,
        site: &[Self::Arith; N],
    ) {
        let run = &mut data.as_chunks_mut::<N>().0[i];
        if Self::NEEDS_NORM {
            norm[i] = encode_site(site, run, Self::store);
        } else {
            for (e, &x) in run.iter_mut().zip(site) {
                *e = Self::store(x);
            }
        }
    }

    /// Append the *raw storage bytes* of `e` (little-endian) to `out`.
    ///
    /// This is a bit-exact serialization of the stored element — no
    /// quantization or dequantization happens, so a
    /// `elem_to_le_bytes`/`elem_from_le_bytes` round trip reproduces the
    /// element exactly for every precision (the checkpoint layer depends
    /// on this).
    fn elem_to_le_bytes(e: Self::Elem, out: &mut Vec<u8>);
    /// Decode one element from exactly [`Self::STORAGE_BYTES`]
    /// little-endian bytes. Returns `None` if `bytes` is too short.
    fn elem_from_le_bytes(bytes: &[u8]) -> Option<Self::Elem>;
}

/// IEEE double precision storage (`f64`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Double;

/// IEEE single precision storage (`f32`).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Single;

/// 16-bit fixed-point storage with shared normalization, computing in `f32`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Half;

/// 8-bit fixed-point storage with shared normalization — the "(or even
/// 8-bit)" texture mode of Section V-C3, provided as an extension.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Quarter;

impl Precision for Double {
    type Arith = f64;
    type Elem = f64;
    const STORAGE_BYTES: usize = 8;
    const NEEDS_NORM: bool = false;
    const NAME: &'static str = "double";
    const TAG: PrecisionTag = PrecisionTag::Double;

    #[inline(always)]
    fn store(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn load(e: f64) -> f64 {
        e
    }

    fn elem_to_le_bytes(e: f64, out: &mut Vec<u8>) {
        out.extend_from_slice(&e.to_le_bytes());
    }
    fn elem_from_le_bytes(bytes: &[u8]) -> Option<f64> {
        Some(f64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
    }
}

impl Precision for Single {
    type Arith = f32;
    type Elem = f32;
    const STORAGE_BYTES: usize = 4;
    const NEEDS_NORM: bool = false;
    const NAME: &'static str = "single";
    const TAG: PrecisionTag = PrecisionTag::Single;

    #[inline(always)]
    fn store(x: f32) -> f32 {
        x
    }
    #[inline(always)]
    fn load(e: f32) -> f32 {
        e
    }

    fn elem_to_le_bytes(e: f32, out: &mut Vec<u8>) {
        out.extend_from_slice(&e.to_le_bytes());
    }
    fn elem_from_le_bytes(bytes: &[u8]) -> Option<f32> {
        Some(f32::from_le_bytes(bytes.get(..4)?.try_into().ok()?))
    }
}

impl Precision for Half {
    type Arith = f32;
    type Elem = Fixed16;
    const STORAGE_BYTES: usize = 2;
    const NEEDS_NORM: bool = true;
    const NAME: &'static str = "half";
    const TAG: PrecisionTag = PrecisionTag::Half;

    #[inline(always)]
    fn store(x: f32) -> Fixed16 {
        // The field layer divides by the per-site norm before calling
        // `store` — this trait is the sanctioned raw-conversion boundary.
        // quda-lint: allow(half-normalization)
        Fixed16::quantize(x)
    }
    #[inline(always)]
    fn load(e: Fixed16) -> f32 {
        e.dequantize()
    }

    fn elem_to_le_bytes(e: Fixed16, out: &mut Vec<u8>) {
        out.extend_from_slice(&e.0.to_le_bytes());
    }
    fn elem_from_le_bytes(bytes: &[u8]) -> Option<Fixed16> {
        // Re-materializes an element already normalized when serialized.
        // quda-lint: allow(half-normalization)
        Some(Fixed16(i16::from_le_bytes(bytes.get(..2)?.try_into().ok()?)))
    }
}

impl Precision for Quarter {
    type Arith = f32;
    type Elem = Fixed8;
    const STORAGE_BYTES: usize = 1;
    const NEEDS_NORM: bool = true;
    const NAME: &'static str = "quarter";
    const TAG: PrecisionTag = PrecisionTag::Quarter;

    #[inline(always)]
    fn store(x: f32) -> Fixed8 {
        // Same sanctioned boundary as `Half::store` above.
        // quda-lint: allow(half-normalization)
        Fixed8::quantize(x)
    }
    #[inline(always)]
    fn load(e: Fixed8) -> f32 {
        e.dequantize()
    }

    fn elem_to_le_bytes(e: Fixed8, out: &mut Vec<u8>) {
        out.extend_from_slice(&e.0.to_le_bytes());
    }
    fn elem_from_le_bytes(bytes: &[u8]) -> Option<Fixed8> {
        // Re-materializes an element already normalized when serialized.
        // quda-lint: allow(half-normalization)
        Some(Fixed8(i8::from_le_bytes(bytes.get(..1)?.try_into().ok()?)))
    }
}

/// Runtime tag for a precision, used by solver parameters and the
/// performance model (which needs byte counts without generics).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum PrecisionTag {
    /// 8-byte storage.
    Double,
    /// 4-byte storage.
    Single,
    /// 2-byte storage + normalization array.
    Half,
    /// 1-byte storage + normalization array (extension).
    Quarter,
}

impl PrecisionTag {
    /// Bytes per stored real.
    pub fn storage_bytes(self) -> usize {
        match self {
            PrecisionTag::Double => 8,
            PrecisionTag::Single => 4,
            PrecisionTag::Half => 2,
            PrecisionTag::Quarter => 1,
        }
    }

    /// Paper-style name.
    pub fn name(self) -> &'static str {
        match self {
            PrecisionTag::Double => "double",
            PrecisionTag::Single => "single",
            PrecisionTag::Half => "half",
            PrecisionTag::Quarter => "quarter",
        }
    }

    /// Whether a normalization array accompanies the data.
    pub fn needs_norm(self) -> bool {
        matches!(self, PrecisionTag::Half | PrecisionTag::Quarter)
    }

    /// Stable one-byte encoding used by the checkpoint wire format.
    pub fn to_byte(self) -> u8 {
        match self {
            PrecisionTag::Double => 0,
            PrecisionTag::Single => 1,
            PrecisionTag::Half => 2,
            PrecisionTag::Quarter => 3,
        }
    }

    /// Inverse of [`PrecisionTag::to_byte`].
    pub fn from_byte(b: u8) -> Option<PrecisionTag> {
        match b {
            0 => Some(PrecisionTag::Double),
            1 => Some(PrecisionTag::Single),
            2 => Some(PrecisionTag::Half),
            3 => Some(PrecisionTag::Quarter),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_match_generics() {
        assert_eq!(PrecisionTag::Double.storage_bytes(), Double::STORAGE_BYTES);
        assert_eq!(PrecisionTag::Single.storage_bytes(), Single::STORAGE_BYTES);
        assert_eq!(PrecisionTag::Half.storage_bytes(), Half::STORAGE_BYTES);
        assert_eq!(PrecisionTag::Double.name(), Double::NAME);
        assert_eq!(PrecisionTag::Half.needs_norm(), Half::NEEDS_NORM);
        assert!(!PrecisionTag::Single.needs_norm());
    }

    #[test]
    fn tag_byte_encoding_round_trips() {
        for tag in
            [PrecisionTag::Double, PrecisionTag::Single, PrecisionTag::Half, PrecisionTag::Quarter]
        {
            assert_eq!(PrecisionTag::from_byte(tag.to_byte()), Some(tag));
        }
        assert_eq!(PrecisionTag::from_byte(4), None);
        assert_eq!(Double::TAG, PrecisionTag::Double);
        assert_eq!(Quarter::TAG, PrecisionTag::Quarter);
    }

    #[test]
    fn le_byte_round_trip_is_bit_exact() {
        let mut buf = Vec::new();
        Double::elem_to_le_bytes(-0.1, &mut buf);
        assert_eq!(buf.len(), Double::STORAGE_BYTES);
        assert_eq!(Double::elem_from_le_bytes(&buf), Some(-0.1));
        buf.clear();
        Single::elem_to_le_bytes(f32::NAN, &mut buf);
        let back = Single::elem_from_le_bytes(&buf).unwrap();
        assert_eq!(back.to_bits(), f32::NAN.to_bits());
        buf.clear();
        Half::elem_to_le_bytes(Fixed16(-12345), &mut buf);
        assert_eq!(Half::elem_from_le_bytes(&buf), Some(Fixed16(-12345)));
        buf.clear();
        Quarter::elem_to_le_bytes(Fixed8(-7), &mut buf);
        assert_eq!(Quarter::elem_from_le_bytes(&buf), Some(Fixed8(-7)));
        assert_eq!(Quarter::elem_from_le_bytes(&[]), None);
    }

    #[test]
    fn float_precisions_store_exactly() {
        assert_eq!(Double::load(Double::store(0.1)), 0.1);
        assert_eq!(Single::load(Single::store(0.25f32)), 0.25);
    }

    #[test]
    fn site_codec_copies_floats_and_normalizes_fixed_point() {
        // Float precisions: a plain copy of run 1, no norm.
        let site = [0.5f64, -2.0, 0.0, 1.25];
        let mut d = [9.0f64; 8];
        Double::store_site(&mut d, &mut [], 1, &site);
        assert_eq!(d, [9.0, 9.0, 9.0, 9.0, 0.5, -2.0, 0.0, 1.25]);
        assert_eq!(Double::load_site::<4>(&d, &[], 1), site);
        // Fixed point: run 1 gets the sup-norm, its largest real maps to
        // the full-scale integer, and run 0 is left alone.
        let site = [0.5f32, -2.0, 0.0, 1.25];
        let mut h = [Fixed16(3); 8];
        let mut norm = [7.0f32; 2];
        Half::store_site(&mut h, &mut norm, 1, &site);
        assert_eq!(norm, [7.0, 2.0]);
        assert_eq!((h[0], h[5], h[6]), (Fixed16(3), Fixed16(-i16::MAX), Fixed16(0)));
        for (x, y) in Half::load_site::<4>(&h, &norm, 1).iter().zip(&site) {
            assert!((x - y).abs() <= 2.0 * 0.5 / 32767.0 + f32::EPSILON);
        }
        // An all-zero run stores norm 1.
        let mut q = [Fixed8(5); 4];
        let mut qn = [0.0f32];
        Quarter::store_site(&mut q, &mut qn, 0, &[0.0f32; 4]);
        assert_eq!((q, qn), ([Fixed8(0); 4], [1.0]));
        assert_eq!(Quarter::load_site::<4>(&q, &qn, 0), [0.0; 4]);
    }

    #[test]
    fn quarter_stores_with_bounded_error() {
        for &x in &[0.0f32, 0.5, -0.99, 1.0] {
            let err = (Quarter::load(Quarter::store(x)) - x).abs();
            assert!(err <= 0.5 / 127.0 + f32::EPSILON);
        }
        assert_eq!(PrecisionTag::Quarter.storage_bytes(), Quarter::STORAGE_BYTES);
        assert!(PrecisionTag::Quarter.needs_norm());
    }

    #[test]
    fn half_stores_with_bounded_error() {
        for &x in &[0.0f32, 0.5, -0.999, 1.0] {
            let err = (Half::load(Half::store(x)) - x).abs();
            assert!(err <= 0.5 / 32767.0 + f32::EPSILON);
        }
    }
}
