//! The central message-tag namespace registry.
//!
//! Every wire tag used anywhere in the workspace is allocated here, in one
//! module, so two subsystems can never collide on a tag value and a
//! send/recv pair can never disagree on which tag names which stream. The
//! `cargo xtask collectives` analysis enforces this statically: its
//! `tag-namespace` rule flags tag constants defined outside this module and
//! raw integer literals passed as tags, and its `tag-pairing` rule checks
//! that every send tag has a matching recv somewhere in the workspace.
//!
//! Layout of the 32-bit tag space:
//!
//! * `0x0000_0000 ..= 0x0000_ffff` — application point-to-point streams
//!   (ghost faces, gauge ghosts, future 4-d decomposition directions).
//! * `0xffff_0000 ..` — [`INTERNAL_BASE`]: traffic generated *inside*
//!   [`Communicator`](crate::Communicator) collectives (allreduce
//!   contributions and replies). Internal streams are excluded from the
//!   lockstep sanitizer's fingerprint because their per-rank shape is
//!   root/leaf asymmetric by construction.

/// Spinor faces travelling forward along T (towards higher t). Keeps the
/// original 1-d `FACE_FWD` wire value so legacy streams are unchanged.
pub const FACE_T_FWD: u32 = 0x0000_0001;
/// Spinor faces travelling backward along T.
pub const FACE_T_BWD: u32 = 0x0000_0002;
/// One-time gauge ghost exchange along T, even parity.
pub const GAUGE_EVEN: u32 = 0x0000_0008;
/// One-time gauge ghost exchange along T, odd parity.
pub const GAUGE_ODD: u32 = 0x0000_0009;

/// Spinor faces travelling forward along X (4-d decomposition).
pub const FACE_X_FWD: u32 = 0x0000_0010;
/// Spinor faces travelling backward along X.
pub const FACE_X_BWD: u32 = 0x0000_0011;
/// Spinor faces travelling forward along Y.
pub const FACE_Y_FWD: u32 = 0x0000_0012;
/// Spinor faces travelling backward along Y.
pub const FACE_Y_BWD: u32 = 0x0000_0013;
/// Spinor faces travelling forward along Z.
pub const FACE_Z_FWD: u32 = 0x0000_0014;
/// Spinor faces travelling backward along Z.
pub const FACE_Z_BWD: u32 = 0x0000_0015;

/// One-time gauge ghost exchange along X, even parity.
pub const GAUGE_X_EVEN: u32 = 0x0000_0020;
/// One-time gauge ghost exchange along X, odd parity.
pub const GAUGE_X_ODD: u32 = 0x0000_0021;
/// One-time gauge ghost exchange along Y, even parity.
pub const GAUGE_Y_EVEN: u32 = 0x0000_0022;
/// One-time gauge ghost exchange along Y, odd parity.
pub const GAUGE_Y_ODD: u32 = 0x0000_0023;
/// One-time gauge ghost exchange along Z, even parity.
pub const GAUGE_Z_EVEN: u32 = 0x0000_0024;
/// One-time gauge ghost exchange along Z, odd parity.
pub const GAUGE_Z_ODD: u32 = 0x0000_0025;

/// First tag of the internal (collective) namespace.
pub const INTERNAL_BASE: u32 = 0xffff_0000;
/// Allreduce-sum contributions (leaf → root).
pub const COLLECTIVE_SUM: u32 = INTERNAL_BASE;
/// Allreduce-sum reply broadcast (root → leaf).
pub const COLLECTIVE_SUM_REPLY: u32 = INTERNAL_BASE + 1;
/// Allreduce-max contributions (leaf → root).
pub const COLLECTIVE_MAX: u32 = INTERNAL_BASE + 2;
/// Allreduce-max reply broadcast (root → leaf).
pub const COLLECTIVE_MAX_REPLY: u32 = INTERNAL_BASE + 3;

/// The spinor-face tag for lattice dimension `dim` (0..=3 = X,Y,Z,T) and
/// travel direction. The T axis maps onto the original 1-d tags so the
/// legacy wire streams keep their values.
pub fn face(dim: usize, forward: bool) -> u32 {
    match (dim, forward) {
        (0, true) => FACE_X_FWD,
        (0, false) => FACE_X_BWD,
        (1, true) => FACE_Y_FWD,
        (1, false) => FACE_Y_BWD,
        (2, true) => FACE_Z_FWD,
        (2, false) => FACE_Z_BWD,
        (_, true) => FACE_T_FWD,
        (_, false) => FACE_T_BWD,
    }
}

/// The gauge-ghost tag for lattice dimension `dim` (0..=3 = X,Y,Z,T) and
/// parity index (0 = even, 1 = odd). T maps onto the legacy pair.
pub fn gauge_dim(dim: usize, parity: usize) -> u32 {
    match (dim, parity == 0) {
        (0, true) => GAUGE_X_EVEN,
        (0, false) => GAUGE_X_ODD,
        (1, true) => GAUGE_Y_EVEN,
        (1, false) => GAUGE_Y_ODD,
        (2, true) => GAUGE_Z_EVEN,
        (2, false) => GAUGE_Z_ODD,
        (_, true) => GAUGE_EVEN,
        (_, false) => GAUGE_ODD,
    }
}

/// Whether `tag` belongs to the internal collective namespace. Internal
/// streams are not fingerprinted by the lockstep sanitizer: their
/// root/leaf send-recv pattern is rank-asymmetric by design, while the
/// sanitizer checks that the *logical* collective streams agree.
pub fn is_internal(tag: u32) -> bool {
    tag >= INTERNAL_BASE
}

/// Every named tag, for registry-level uniqueness checks.
pub const ALL_NAMED: &[(&str, u32)] = &[
    ("FACE_T_FWD", FACE_T_FWD),
    ("FACE_T_BWD", FACE_T_BWD),
    ("FACE_X_FWD", FACE_X_FWD),
    ("FACE_X_BWD", FACE_X_BWD),
    ("FACE_Y_FWD", FACE_Y_FWD),
    ("FACE_Y_BWD", FACE_Y_BWD),
    ("FACE_Z_FWD", FACE_Z_FWD),
    ("FACE_Z_BWD", FACE_Z_BWD),
    ("GAUGE_EVEN", GAUGE_EVEN),
    ("GAUGE_ODD", GAUGE_ODD),
    ("GAUGE_X_EVEN", GAUGE_X_EVEN),
    ("GAUGE_X_ODD", GAUGE_X_ODD),
    ("GAUGE_Y_EVEN", GAUGE_Y_EVEN),
    ("GAUGE_Y_ODD", GAUGE_Y_ODD),
    ("GAUGE_Z_EVEN", GAUGE_Z_EVEN),
    ("GAUGE_Z_ODD", GAUGE_Z_ODD),
    ("COLLECTIVE_SUM", COLLECTIVE_SUM),
    ("COLLECTIVE_SUM_REPLY", COLLECTIVE_SUM_REPLY),
    ("COLLECTIVE_MAX", COLLECTIVE_MAX),
    ("COLLECTIVE_MAX_REPLY", COLLECTIVE_MAX_REPLY),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_no_collisions() {
        for (i, (name_a, a)) in ALL_NAMED.iter().enumerate() {
            for (name_b, b) in &ALL_NAMED[i + 1..] {
                assert_ne!(a, b, "tag collision: {name_a} and {name_b} are both {a:#x}");
            }
        }
    }

    #[test]
    fn internal_namespace_is_disjoint_from_application_tags() {
        for (name, tag) in ALL_NAMED {
            let internal = name.starts_with("COLLECTIVE");
            assert_eq!(is_internal(*tag), internal, "{name} on the wrong side of INTERNAL_BASE");
        }
    }

    #[test]
    fn face_helper_covers_all_axes_and_maps_t_onto_legacy_values() {
        // The T axis must keep the original 1-d wire values so the legacy
        // exchange streams are unchanged bit for bit.
        assert_eq!(face(3, true), 0x1);
        assert_eq!(face(3, false), 0x2);
        let mut seen = Vec::new();
        for dim in 0..4 {
            for fwd in [true, false] {
                let t = face(dim, fwd);
                assert!(!is_internal(t));
                assert!(ALL_NAMED.iter().any(|(_, v)| *v == t), "face({dim},{fwd}) unregistered");
                seen.push(t);
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8, "face tags must be pairwise distinct");
    }

    #[test]
    fn gauge_dim_helper_covers_all_axes_and_maps_t_onto_legacy_values() {
        assert_eq!(gauge_dim(3, 0), GAUGE_EVEN);
        assert_eq!(gauge_dim(3, 1), GAUGE_ODD);
        let mut seen = Vec::new();
        for dim in 0..4 {
            for parity in 0..2 {
                let t = gauge_dim(dim, parity);
                assert!(!is_internal(t));
                assert!(ALL_NAMED.iter().any(|(_, v)| *v == t), "gauge_dim({dim},{parity})");
                seen.push(t);
            }
        }
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8, "gauge tags must be pairwise distinct");
    }
}
