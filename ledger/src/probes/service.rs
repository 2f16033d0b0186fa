//! `quda-service`: what fusing buys — the same request stream through
//! `service_fused` and `service_split`, a few interleaved rounds each.

use quda_core::TraceConfig;

use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{self, Round};

const ROUNDS: usize = 2;

pub fn throughput(round: &Round) -> f64 {
    round.solves() as f64 / round.wall_s
}

/// `service.batch_gain`: fused over split throughput. `None` if a gate
/// failed in either stream.
pub fn batch_gain(seed: u64, spans: &mut Spans) -> Option<f64> {
    let span = spans.enter("service.batch_gain", None);
    let (mut fused, _) = workloads::setup("service_fused", seed, spans)?;
    let (mut split, _) = workloads::setup("service_split", seed, spans)?;
    let (mut f, mut s, mut failed) = (Vec::new(), Vec::new(), 0);
    for _ in 0..ROUNDS {
        for (w, out) in [(&mut fused, &mut f), (&mut split, &mut s)] {
            let round = w.round(TraceConfig::Off, spans);
            failed += round.failed;
            out.push(throughput(&round));
        }
    }
    failed += fused.finish().failed + split.finish().failed;
    spans.exit(span);
    (failed == 0).then(|| median(&f) / median(&s))
}
