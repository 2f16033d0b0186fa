//! Correctness gates. All of them run outside the timed regions; every
//! violation is one failed operation and fails the command.

use quda_core::InvertStats;
use quda_fields::host::HostSpinorField;
use quda_service::ServiceStats;

/// A solve may miss its requested relative residual by this factor (the
/// host reference check sees the full system, the solver the
/// preconditioned one).
pub const RESIDUAL_SLACK: f64 = 5.0;

/// Why a gate rejected something. Printed on stderr.
#[derive(Debug, PartialEq)]
pub enum Violation {
    NotConverged,
    Residual { got: f64, limit: f64 },
    IterationsChanged { source: usize, first: usize, now: usize },
    NotBitIdentical { max_site_dist: f64, iterations: (usize, usize) },
    Conservation(String),
    Refused(String),
    Errored(String),
}

/// Every solve must converge to a verified residual within
/// [`RESIDUAL_SLACK`]·tol.
pub fn solve_gate(stats: &InvertStats, tol: f64) -> Result<(), Violation> {
    if !stats.converged {
        return Err(Violation::NotConverged);
    }
    let limit = RESIDUAL_SLACK * tol;
    if stats.true_residual.is_nan() || stats.true_residual > limit {
        return Err(Violation::Residual { got: stats.true_residual, limit });
    }
    Ok(())
}

/// Iteration counts must be identical across repetitions of one source:
/// `seen[source]` remembers the first count.
pub fn iterations_gate(
    seen: &mut [Option<usize>],
    source: usize,
    iterations: usize,
) -> Result<(), Violation> {
    match seen[source] {
        None => {
            seen[source] = Some(iterations);
            Ok(())
        }
        Some(first) if first == iterations => Ok(()),
        Some(first) => Err(Violation::IterationsChanged { source, first, now: iterations }),
    }
}

/// A batched service member re-solved alone must match bit for bit.
pub fn bit_identity_gate(
    batched: (&HostSpinorField, usize),
    solo: (&HostSpinorField, usize),
) -> Result<(), Violation> {
    let dist = batched.0.max_site_dist(solo.0);
    if dist == 0.0 && batched.1 == solo.1 {
        Ok(())
    } else {
        Err(Violation::NotBitIdentical { max_site_dist: dist, iterations: (batched.1, solo.1) })
    }
}

/// Service conservation: what the client submitted is what the service
/// accepted and completed; nothing failed, was rejected, or expired.
pub fn conservation_gate(stats: &ServiceStats, client_submitted: u64) -> Result<(), Violation> {
    let ok = stats.submitted == client_submitted
        && stats.completed == stats.submitted
        && stats.failed == 0
        && stats.rejected == 0
        && stats.expired == 0;
    if ok {
        Ok(())
    } else {
        Err(Violation::Conservation(format!(
            "client submitted {client_submitted}; service submitted {} completed {} failed {} \
             rejected {} expired {}",
            stats.submitted, stats.completed, stats.failed, stats.rejected, stats.expired
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_lattice::geometry::LatticeDims;

    fn stats(converged: bool, true_residual: f64) -> InvertStats {
        InvertStats {
            converged,
            iterations: 40,
            matvecs: 82,
            reliable_updates: 0,
            solver_residual: 1e-11,
            true_residual,
            effective_flops: 1,
            modeled_seconds: 1.0,
            modeled_gflops: 1.0,
            memory_per_gpu: 1,
            recoveries: 0,
            comm_recoveries: 0,
        }
    }

    #[test]
    fn bad_reports_are_rejected() {
        assert_eq!(solve_gate(&stats(true, 4.9e-10), 1e-10), Ok(()));
        assert_eq!(solve_gate(&stats(false, 1e-12), 1e-10), Err(Violation::NotConverged));
        assert!(matches!(solve_gate(&stats(true, 6e-10), 1e-10), Err(Violation::Residual { .. })));
        assert!(matches!(
            solve_gate(&stats(true, f64::NAN), 1e-10),
            Err(Violation::Residual { .. })
        ));
    }

    #[test]
    fn iteration_drift_is_rejected() {
        let mut seen = vec![None; 2];
        assert_eq!(iterations_gate(&mut seen, 1, 41), Ok(()));
        assert_eq!(iterations_gate(&mut seen, 1, 41), Ok(()));
        assert_eq!(iterations_gate(&mut seen, 0, 44), Ok(()));
        assert_eq!(
            iterations_gate(&mut seen, 1, 42),
            Err(Violation::IterationsChanged { source: 1, first: 41, now: 42 })
        );
    }

    #[test]
    fn one_flipped_bit_breaks_bit_identity() {
        let dims = LatticeDims::new(2, 2, 2, 2);
        let a = quda_fields::gauge_gen::random_spinor_field(dims, 1);
        let mut b = a.clone();
        assert_eq!(bit_identity_gate((&a, 9), (&b, 9)), Ok(()));
        assert!(bit_identity_gate((&a, 9), (&b, 10)).is_err());
        let re = &mut b.data[3].s[1].c[2].re;
        *re = f64::from_bits(re.to_bits() ^ 1);
        assert!(bit_identity_gate((&a, 9), (&b, 9)).is_err());
    }

    #[test]
    fn lost_or_rejected_work_breaks_conservation() {
        let good = ServiceStats { submitted: 8, completed: 8, ..ServiceStats::default() };
        assert_eq!(conservation_gate(&good, 8), Ok(()));
        assert!(conservation_gate(&good, 9).is_err());
        for bad in [
            ServiceStats { completed: 7, ..good.clone() },
            ServiceStats { failed: 1, ..good.clone() },
            ServiceStats { rejected: 1, ..good.clone() },
            ServiceStats { expired: 1, ..good.clone() },
        ] {
            assert!(conservation_gate(&bad, 8).is_err());
        }
    }
}
