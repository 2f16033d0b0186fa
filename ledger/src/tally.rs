//! From rounds to metric values. End-to-end metrics rest on the untraced
//! rounds only; the traced rounds supply the per-layer shares, and the
//! difference between the two is the tracer's own cost.

use quda_core::Phase;

use crate::probes::Values;
use crate::spec;
use crate::stats::{median, percentile_or_highest, Summary};
use crate::workloads::{Finish, Round};

/// Everything one run learned about one workload.
pub struct Tally {
    pub workload: &'static str,
    pub input_hash: u64,
    /// One sample per set-up performed.
    pub setup_s: Vec<f64>,
    pub rounds: Vec<Round>,
    /// One calibrator sample per round (see `host::calibrator_seconds`).
    pub calibrator_s: Vec<f64>,
    pub finish: Finish,
}

fn sum(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    rounds.iter().map(|r| f(r)).sum()
}

impl Tally {
    fn rounds_where(&self, traced: bool) -> Vec<&Round> {
        self.rounds.iter().filter(|r| r.traced_run == traced && r.solves() > 0).collect()
    }

    pub fn attempted(&self) -> usize {
        self.rounds.iter().map(|r| r.attempted).sum::<usize>() + self.finish.attempted
    }

    pub fn failed(&self) -> usize {
        self.rounds.iter().map(|r| r.failed).sum::<usize>() + self.finish.failed
    }

    /// Slowest over fastest calibrator sample: how much the host itself
    /// moved during the run.
    pub fn calibrator_spread(&self) -> f64 {
        let max = self.calibrator_s.iter().copied().fold(f64::NAN, f64::max);
        let min = self.calibrator_s.iter().copied().fold(f64::NAN, f64::min);
        max / min
    }

    /// The end-to-end metrics in `spec::END_TO_END` order: the median over
    /// untraced rounds of the per-round value, with quartiles and count.
    pub fn end_to_end(&self) -> Vec<(&'static str, Summary)> {
        let rounds = self.rounds_where(false);
        let per_round = |f: &dyn Fn(&Round) -> f64| -> Summary {
            Summary::of(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        let values = [
            Summary::of(&self.setup_s),
            per_round(&|r| r.wall_s / r.solves() as f64),
            per_round(&|r| r.solves() as f64 / r.wall_s),
            per_round(&|r| median(&r.latency_s) * 1e3),
        ];
        spec::END_TO_END.iter().map(|m| m.name).zip(values).collect()
    }

    /// The per-layer metrics this workload's own rounds determine (the
    /// probes supply the rest). Service metrics are 0 on direct-solve
    /// workloads, where there is no service.
    pub fn layers(&self) -> Values {
        let untraced = self.rounds_where(false);
        let traced = self.rounds_where(true);
        let mut v = Values::new();

        // Exact counts: every round solves the same sources, and the
        // iterations gate has already held the rounds against each other.
        if let Some(first) = self.rounds.iter().find(|r| r.solves() > 0) {
            let n = first.solves() as f64;
            v.insert("solvers.iterations", first.iterations as f64 / n);
            v.insert("solvers.matvecs", first.matvecs as f64 / n);
            v.insert("solvers.reliable_updates", first.reliable_updates as f64 / n);
            let modeled = first.modeled_s / n;
            let measured =
                median(&untraced.iter().map(|r| r.wall_s / r.solves() as f64).collect::<Vec<_>>());
            v.insert("gpusim.modeled_solve_s", modeled);
            v.insert("gpusim.modeled_over_measured", modeled / measured);
        }
        let gflops: Vec<f64> =
            untraced.iter().map(|r| r.effective_flops as f64 / r.wall_s / 1e9).collect();
        v.insert("solvers.effective_gflops", median(&gflops));
        let solves = sum(&untraced, |r| r.solves() as f64);
        v.insert("host.cpu_s_per_solve", sum(&untraced, |r| r.cpu_s) / solves);
        v.insert("host.calibrator_spread", self.calibrator_spread());

        // Shares of the traced wall, over every traced round.
        let wall = sum(&traced, |r| r.traced.wall_s);
        let phase = |phases: &[Phase]| -> f64 {
            phases.iter().map(|p| sum(&traced, |r| r.traced.phase_s[p.index()])).sum::<f64>() / wall
        };
        v.insert("multigpu.interior_share", phase(&[Phase::Interior]));
        v.insert(
            "multigpu.exterior_share",
            phase(&[Phase::Exterior, Phase::ExteriorX, Phase::ExteriorY, Phase::ExteriorZ]),
        );
        v.insert("multigpu.matvec_self_share", phase(&[Phase::Matvec]));
        v.insert("multigpu.comm_share", phase(&[Phase::CommSend, Phase::CommRecv, Phase::Retry]));
        v.insert("multigpu.gather_scatter_share", phase(&[Phase::Gather, Phase::Scatter]));
        v.insert("solvers.blas_share", phase(&[Phase::Blas]));
        v.insert("solvers.reduce_share", phase(&[Phase::Reduce, Phase::AllReduce]));
        v.insert("obs.accounted_frac", phase(&Phase::ALL));
        v.insert("obs.dropped_events", sum(&traced, |r| r.traced.dropped_events as f64));
        let hidden = sum(&traced, |r| r.traced.hidden_s);
        let exposed = sum(&traced, |r| r.traced.exposed_s);
        v.insert("multigpu.overlap_efficiency", hidden / (hidden + exposed));
        let units = sum(&traced, |r| r.traced.units);
        v.insert("multigpu.rank_skew_ms", sum(&traced, |r| r.traced.rank_skew_s) / units * 1e3);
        v.insert("multigpu.untraced_share", 1.0 - wall / sum(&traced, |r| r.wall_s));
        let round_wall = |rs: &[&Round]| median(&rs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        v.insert("obs.trace_overhead_frac", round_wall(&traced) / round_wall(&untraced) - 1.0);
        // Exact wherever every batch has one member.
        if let Some(first) = traced.first() {
            v.insert("comm.msgs_per_solve", first.traced.messages / first.solves() as f64);
            v.insert("comm.bytes_per_solve", first.traced.bytes / first.solves() as f64);
        }

        let pooled = |f: &dyn Fn(&Round) -> &Vec<f64>| -> Vec<f64> {
            untraced.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        let service = spec::is_service(self.workload);
        let or_zero = |x: f64| if service { x } else { 0.0 };
        v.insert("service.submit_us", or_zero(median(&pooled(&|r| &r.submit_s)) * 1e6));
        v.insert("service.queue_wait_p50_ms", or_zero(median(&pooled(&|r| &r.queue_wait_s)) * 1e3));
        let p95 = percentile_or_highest(&pooled(&|r| &r.latency_s), 0.95);
        v.insert("service.latency_p95_ms", or_zero(p95 * 1e3));
        let batches: Vec<f64> = untraced.iter().map(|r| r.batches() as f64).collect();
        v.insert("service.mean_batch", or_zero(solves / batches.iter().sum::<f64>()));
        v.insert("service.batches", or_zero(median(&batches)));
        let depth = self.rounds.iter().map(|r| r.max_queue_depth).max().unwrap_or(0);
        v.insert("service.max_queue_depth", depth as f64);
        v.insert("service.rejected", self.rounds.iter().map(|r| r.rejected).sum::<usize>() as f64);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(traced_run: bool, wall_s: f64, latency_s: &[f64]) -> Round {
        Round {
            traced_run,
            wall_s,
            latency_s: latency_s.to_vec(),
            attempted: latency_s.len(),
            ..Round::default()
        }
    }

    #[test]
    fn end_to_end_uses_untraced_rounds_only_and_counts_failures() {
        let mut slow = round(true, 100.0, &[50.0, 50.0]);
        slow.failed = 1;
        let tally = Tally {
            workload: "solve_volume_double",
            input_hash: 0,
            setup_s: vec![1.0, 3.0, 2.0],
            rounds: vec![
                round(false, 2.0, &[0.9, 1.1]),
                slow,
                round(false, 4.0, &[2.0, 2.0]),
                round(false, 3.0, &[1.0, 2.0]),
            ],
            calibrator_s: vec![0.05, 0.06, 0.05],
            finish: Finish { attempted: 1, failed: 0 },
        };
        let e2e = tally.end_to_end();
        let names: Vec<_> = e2e.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["setup_s", "solve_s", "solves_per_s", "latency_p50_ms"]);
        assert_eq!(e2e[0].1.median, 2.0);
        assert_eq!((e2e[1].1.median, e2e[1].1.n), (1.5, 3));
        assert_eq!(e2e[2].1.median, 2.0 / 3.0);
        assert_eq!(e2e[3].1.median, 1500.0);
        assert_eq!((tally.attempted(), tally.failed()), (9, 1));
        assert!((tally.calibrator_spread() - 1.2).abs() < 1e-12);
    }
}
