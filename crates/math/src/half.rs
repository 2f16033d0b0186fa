//! 16-bit fixed-point ("half precision") storage.
//!
//! Section V-C3: QUDA stores gauge and spinor fields as signed 16-bit
//! integers that the texture unit expands to floats in `[-1, 1]`
//! (`cudaReadModeNormalizedFloat`). Gauge-link elements already lie in that
//! range by unitarity and are stored directly; spinors carry one shared
//! `f32` normalization per 24-component site spinor (or per transferred
//! 12-component half spinor).
//!
//! We reproduce the format exactly: a [`Fixed16`] is an `i16` whose value is
//! `v / 32767.0`, and quantization uses round-to-nearest. This makes the
//! precision loss of the half solver *real* rather than emulated — the mixed
//! precision experiments rely on it.

use crate::real::Real;

/// Scale factor of the normalized 16-bit format: `i16::MAX`.
pub const FIXED16_SCALE: f32 = i16::MAX as f32;

/// Bytes of device storage per half-precision real.
pub const FIXED16_BYTES: usize = 2;

/// One 16-bit fixed-point value representing a real in `[-1, 1]`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct Fixed16(pub i16);

impl Fixed16 {
    /// Quantize a float already normalized to `[-1, 1]`.
    ///
    /// Values outside the range clamp, matching GPU texture behaviour.
    #[inline(always)]
    pub fn quantize(x: f32) -> Self {
        let scaled = (x * FIXED16_SCALE).round();
        Fixed16(scaled.clamp(-FIXED16_SCALE, FIXED16_SCALE) as i16)
    }

    /// Expand back to a float in `[-1, 1]`.
    #[inline(always)]
    pub fn dequantize(self) -> f32 {
        self.0 as f32 / FIXED16_SCALE
    }
}

/// Quantize one site run sharing one normalization constant: the field
/// stores' codec (spinor sites and ghosts, through
/// `Precision::store_site`).
///
/// The norm is the sup-norm of the run taken in f64 (1.0 for an all-zero
/// run, so dequantization stays well-defined); every real is multiplied
/// by the norm's f64 reciprocal rounded to `T` and then quantized.
/// Returns the norm as stored (`f32`).
///
/// Kept out of line, like [`decode_site`], one copy per width `N`:
/// inlined into a kernel, the site's array is split into scalars before
/// LLVM's vectorizer runs, and the element loops stay scalar.
#[inline(never)]
pub fn encode_site<T: Real, Q, const N: usize>(
    site: &[T; N],
    run: &mut [Q; N],
    quantize: impl Fn(T) -> Q,
) -> f32 {
    // The max of runs of six (one color vector), then of those: the same
    // value as one running max, in chains short enough for LLVM to know
    // that no partial max is NaN.
    let norm = site
        .chunks(6)
        .map(|run| run.iter().map(|x| x.to_f64().abs()).fold(0.0, f64::max))
        .fold(0.0, f64::max);
    let norm = if norm == 0.0 { 1.0 } else { norm };
    let inv = T::from_f64(1.0 / norm);
    for (q, &x) in run.iter_mut().zip(site) {
        *q = quantize(x * inv);
    }
    norm as f32
}

/// Expand a site run with its shared normalization — the inverse of
/// [`encode_site`].
#[inline(never)]
pub fn decode_site<T: Real, Q: Copy, const N: usize>(
    run: &[Q; N],
    norm: f32,
    dequantize: impl Fn(Q) -> T,
) -> [T; N] {
    let norm = T::from_f64(norm as f64);
    let mut site = [T::ZERO; N];
    for (x, &q) in site.iter_mut().zip(run) {
        *x = dequantize(q) * norm;
    }
    site
}

/// Worst-case absolute error of the format for a block with norm `norm`:
/// half a quantization step.
pub fn max_quantization_error(norm: f32) -> f32 {
    norm * 0.5 / FIXED16_SCALE
}

/// Quantize one site block into 16-bit storage integers, one per real,
/// with the block's shared sup-norm, which is returned as stored (`f32`).
///
/// This is the face wire format's formula (Section VI-C: "the extra
/// normalization constant for each (12 component) spinor"): each real is
/// divided by the norm in f64 and rounded to f32 before quantization, and
/// an all-zero site gets norm 1.0 so dequantization stays well-defined.
/// The field stores' [`encode_site`] multiplies by the reciprocal instead,
/// which can round a real to the neighbouring integer.
pub fn quantize_site16(site: &[f64], ints: &mut [i16]) -> f32 {
    quantize_site(site, ints, |x| Fixed16::quantize(x).0)
}

/// 8-bit (quarter precision) variant of [`quantize_site16`].
pub fn quantize_site8(site: &[f64], ints: &mut [i8]) -> f32 {
    quantize_site(site, ints, |x| Fixed8::quantize(x).0)
}

fn quantize_site<T>(site: &[f64], ints: &mut [T], quantize: impl Fn(f32) -> T) -> f32 {
    assert_eq!(site.len(), ints.len(), "one integer per real");
    let norm = site_norm(site);
    for (q, &x) in ints.iter_mut().zip(site) {
        *q = quantize((x / norm) as f32);
    }
    norm as f32
}

/// Quantize `sites × block` f64 reals with [`quantize_site16`], appending
/// the integers to `ints` and one norm per `block`-real site to `norms`.
pub fn quantize_sites16(values: &[f64], block: usize, ints: &mut Vec<i16>, norms: &mut Vec<f32>) {
    assert_eq!(values.len() % block, 0, "values must be whole site blocks");
    let start = ints.len();
    ints.resize(start + values.len(), 0);
    for (site, q) in values.chunks_exact(block).zip(ints[start..].chunks_exact_mut(block)) {
        norms.push(quantize_site16(site, q));
    }
}

/// 8-bit (quarter precision) variant of [`quantize_sites16`].
pub fn quantize_sites8(values: &[f64], block: usize, ints: &mut Vec<i8>, norms: &mut Vec<f32>) {
    assert_eq!(values.len() % block, 0, "values must be whole site blocks");
    let start = ints.len();
    ints.resize(start + values.len(), 0);
    for (site, q) in values.chunks_exact(block).zip(ints[start..].chunks_exact_mut(block)) {
        norms.push(quantize_site8(site, q));
    }
}

/// Expand raw 16-bit storage integers back to f64, applying each site's
/// shared norm — the inverse of [`quantize_sites16`].
pub fn dequantize_sites16(ints: &[i16], norms: &[f32], block: usize, out: &mut Vec<f64>) {
    assert_eq!(ints.len(), norms.len() * block, "one norm per site block");
    for (site, &norm) in ints.chunks_exact(block).zip(norms) {
        for &q in site {
            out.push(Fixed16(q).dequantize() as f64 * norm as f64);
        }
    }
}

/// 8-bit variant of [`dequantize_sites16`].
pub fn dequantize_sites8(ints: &[i8], norms: &[f32], block: usize, out: &mut Vec<f64>) {
    assert_eq!(ints.len(), norms.len() * block, "one norm per site block");
    for (site, &norm) in ints.chunks_exact(block).zip(norms) {
        for &q in site {
            out.push(Fixed8(q).dequantize() as f64 * norm as f64);
        }
    }
}

/// Sup-norm of one site block, with the zero-block fallback.
fn site_norm(site: &[f64]) -> f64 {
    let norm = site.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    if norm == 0.0 {
        1.0
    } else {
        norm
    }
}

/// Scale factor of the normalized 8-bit format: `i8::MAX`.
pub const FIXED8_SCALE: f32 = i8::MAX as f32;

/// One 8-bit fixed-point value in `[-1, 1]` — the texture unit accepts
/// "a signed 16-bit (or even 8-bit) integer" (Section V-C3); this is the
/// 8-bit variant, provided as an extension beyond the paper's production
/// configuration.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct Fixed8(pub i8);

impl Fixed8 {
    /// Quantize a float already normalized to `[-1, 1]` (clamping).
    #[inline(always)]
    pub fn quantize(x: f32) -> Self {
        let scaled = (x * FIXED8_SCALE).round();
        Fixed8(scaled.clamp(-FIXED8_SCALE, FIXED8_SCALE) as i8)
    }

    /// Expand back to a float in `[-1, 1]`.
    #[inline(always)]
    pub fn dequantize(self) -> f32 {
        self.0 as f32 / FIXED8_SCALE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_values_roundtrip() {
        for x in [-1.0f32, 0.0, 1.0] {
            assert_eq!(Fixed16::quantize(x).dequantize(), x);
        }
    }

    #[test]
    fn clamps_out_of_range() {
        assert_eq!(Fixed16::quantize(2.0).dequantize(), 1.0);
        assert_eq!(Fixed16::quantize(-7.5).dequantize(), -1.0);
    }

    #[test]
    fn quantization_error_bounded() {
        let mut x = -1.0f32;
        while x <= 1.0 {
            let err = (Fixed16::quantize(x).dequantize() - x).abs();
            assert!(err <= 0.5 / FIXED16_SCALE + f32::EPSILON, "x={x} err={err}");
            x += 0.001_7;
        }
    }

    #[test]
    fn block_roundtrip_error_bounded_by_norm() {
        let data: [f32; 24] = std::array::from_fn(|i| ((i * 37 % 17) as f32 - 8.0) * 0.33);
        let mut q = [Fixed16::default(); 24];
        let norm = encode_site(&data, &mut q, Fixed16::quantize);
        let back = decode_site(&q, norm, Fixed16::dequantize);
        let bound = max_quantization_error(norm) * 1.001;
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn norm_is_sup_norm() {
        let data = [0.25f32, -3.0, 1.5];
        let mut q = [Fixed16::default(); 3];
        let norm = encode_site(&data, &mut q, Fixed16::quantize);
        assert_eq!(norm, 3.0);
        // The largest-magnitude element maps to exactly ±1.
        assert_eq!(q[1].dequantize(), -1.0);
    }

    #[test]
    fn zero_block_uses_unit_norm() {
        let data = [0.0f32; 8];
        let mut q = [Fixed16::default(); 8];
        let norm = encode_site(&data, &mut q, Fixed16::quantize);
        assert_eq!(norm, 1.0);
        let back: [f32; 8] = decode_site(&q, norm, Fixed16::dequantize);
        assert!(back.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn storage_is_two_bytes() {
        assert_eq!(std::mem::size_of::<Fixed16>(), FIXED16_BYTES);
    }

    #[test]
    fn fixed8_roundtrip_and_bounds() {
        for x in [-1.0f32, 0.0, 1.0] {
            assert_eq!(Fixed8::quantize(x).dequantize(), x);
        }
        assert_eq!(Fixed8::quantize(3.0).dequantize(), 1.0);
        let mut x = -1.0f32;
        while x <= 1.0 {
            let err = (Fixed8::quantize(x).dequantize() - x).abs();
            assert!(err <= 0.5 / FIXED8_SCALE + f32::EPSILON);
            x += 0.003;
        }
        assert_eq!(std::mem::size_of::<Fixed8>(), 1);
    }

    #[test]
    fn site_block_roundtrip_16() {
        // Two 12-real sites with very different scales: per-site norms keep
        // the small site's relative error bounded.
        let mut values: Vec<f64> = (0..12).map(|i| (i as f64 - 6.0) * 1e3).collect();
        values.extend((0..12).map(|i| (i as f64 - 5.0) * 1e-4));
        let mut ints = Vec::new();
        let mut norms = Vec::new();
        quantize_sites16(&values, 12, &mut ints, &mut norms);
        assert_eq!(ints.len(), 24);
        assert_eq!(norms.len(), 2);
        let mut back = Vec::new();
        dequantize_sites16(&ints, &norms, 12, &mut back);
        for (site, (a, b)) in values.iter().zip(&back).enumerate().map(|(i, p)| (i / 12, p)) {
            // Half a quantization step, plus the f32 rounding of `x / norm`.
            let bound =
                (max_quantization_error(norms[site]) + norms[site] * f32::EPSILON) as f64 * 1.001;
            assert!((a - b).abs() <= bound, "{a} vs {b} (site {site}, bound {bound})");
        }
    }

    #[test]
    fn site_block_roundtrip_8_and_zero_site() {
        let mut values = vec![0.0f64; 6]; // all-zero site → norm 1.0
        values.extend([0.5, -2.0, 1.0, 0.25, -0.125, 2.0]);
        let mut ints = Vec::new();
        let mut norms = Vec::new();
        quantize_sites8(&values, 6, &mut ints, &mut norms);
        assert_eq!(norms[0], 1.0);
        assert_eq!(norms[1], 2.0);
        let mut back = Vec::new();
        dequantize_sites8(&ints, &norms, 6, &mut back);
        assert!(back[..6].iter().all(|&x| x == 0.0));
        for (a, b) in values[6..].iter().zip(&back[6..]) {
            assert!((a - b).abs() <= 2.0 * 0.5 / FIXED8_SCALE as f64 * 1.001, "{a} vs {b}");
        }
    }

    #[test]
    fn monotone() {
        // Quantization preserves order — needed so max-norm reductions in
        // half precision are meaningful.
        let mut prev = Fixed16::quantize(-1.0);
        let mut x = -1.0f32;
        while x <= 1.0 {
            let q = Fixed16::quantize(x);
            assert!(q.0 >= prev.0);
            prev = q;
            x += 0.01;
        }
    }
}
