//! The spin projection of the non-relativistic basis, fixed per `(μ, sign)`.
//!
//! Every operator builds its spin basis in the non-relativistic basis. There
//! each spatial `γμ` is `[[0, Aμ], [−Aμ, 0]]` with `A1 = iσ1`, `A2 = −iσ2`,
//! `A3 = iσ3`, and `γ4 = diag(1, 1, −1, −1)`, so every entry of a projector
//! `P±μ = 1 ± γμ` is 0, ±1, ±i or 2. This module writes the eight projectors
//! out, as the paper's kernels and QUDA's do (Section V):
//!
//! * [`project`] keeps the two independent rows of `P±μ ψ`: for a spatial
//!   direction, spin 0 and spin 1 plus a sign-flipped or ±i-rotated lower
//!   component; for `P±4` a plain ×2 copy of two components (Eq. 6);
//! * [`accumulate`] adds a link-multiplied half spinor back into the rows
//!   `P±μ` keeps: the two computed rows as they are and, for a spatial
//!   direction, the two lower rows as a sign flip or a ±i rotation of them.
//!   `P±4` touches two rows only.
//!
//! The basis-generic tables of [`HalfProj`](crate::gamma::HalfProj) stay the
//! definition and the oracle. Every coefficient here is exact, and the sums
//! run in the tables' order, so [`project`] equals `HalfProj::project` and
//! [`accumulate`] adds what `HalfProj::reconstruct` returns bit for bit,
//! into any accumulator that holds no `−0.0` (one started at `+0.0` never
//! does: a round-to-nearest sum is `−0.0` only when both addends are). The
//! two differ only where the tables add an explicit `+0.0`, which moves no
//! bit of such an accumulator.

use crate::colorvec::ColorVec;
use crate::gamma::NDIM;
use crate::real::Real;
use crate::spinor::{HalfSpinor, Spinor};

/// `P±μ ψ` reduced to its two independent rows, `PLUS` selecting `1 + γμ`.
#[inline(always)]
pub fn project<const MU: usize, const PLUS: bool, T: Real>(psi: &Spinor<T>) -> HalfSpinor<T> {
    const { assert!(MU < NDIM, "MU is a direction in 0..4") };
    let s = &psi.s;
    if MU == 3 {
        // Eq. 6: P+4 = diag(2, 2, 0, 0), P−4 = diag(0, 0, 2, 2).
        let two = T::ONE + T::ONE;
        let k = if PLUS { 0 } else { 2 };
        return HalfSpinor { h: [s[k].scale_re(two), s[k + 1].scale_re(two)] };
    }
    // The upper rows of P±μ are [1, ±Aμ]: h = (ψ0, ψ1) ± Aμ (ψ2, ψ3).
    let (x, y): (ColorVec<T>, ColorVec<T>) = match (MU, PLUS) {
        (0, true) => (s[3].mul_i(), s[2].mul_i()),
        (0, false) => (s[3].mul_neg_i(), s[2].mul_neg_i()),
        (1, true) => (-s[3], s[2]),
        (1, false) => (s[3], -s[2]),
        (2, true) => (s[2].mul_i(), s[3].mul_neg_i()),
        _ => (s[2].mul_neg_i(), s[3].mul_i()),
    };
    HalfSpinor { h: [s[0] + x, s[1] + y] }
}

/// `acc += P±μ`-reconstruction of `t`, the link-multiplied output of
/// [`project`]: only the rows `P±μ` keeps are touched.
#[inline(always)]
pub fn accumulate<const MU: usize, const PLUS: bool, T: Real>(
    acc: &mut Spinor<T>,
    t: &HalfSpinor<T>,
) {
    const { assert!(MU < NDIM, "MU is a direction in 0..4") };
    let [t0, t1] = t.h;
    let a = &mut acc.s;
    if MU == 3 {
        let k = if PLUS { 0 } else { 2 };
        a[k] += t0;
        a[k + 1] += t1;
        return;
    }
    // The lower rows of P±μ are [∓Aμ, 1] = ∓Aμ [1, ±Aμ] (Aμ² = −1), so
    // they receive ∓Aμ (t0, t1).
    let (l2, l3): (ColorVec<T>, ColorVec<T>) = match (MU, PLUS) {
        (0, true) => (t1.mul_neg_i(), t0.mul_neg_i()),
        (0, false) => (t1.mul_i(), t0.mul_i()),
        (1, true) => (t1, -t0),
        (1, false) => (-t1, t0),
        (2, true) => (t0.mul_neg_i(), t1.mul_i()),
        _ => (t0.mul_i(), t1.mul_neg_i()),
    };
    a[0] += t0;
    a[1] += t1;
    a[2] += l2;
    a[3] += l3;
}
