//! The four workloads. Each is set up once from the seed, then driven one
//! *round* at a time so a caller can interleave workloads and traced with
//! untraced rounds.
//!
//! API-surface rule (README.md): the timed regions below call only
//! `Quda::{new, load_gauge, invert}`, `Service::{new, load_gauge, start,
//! submit, shutdown}`, `Ticket::wait` and the field generators, so a
//! refactor underneath those entry points never has to touch this file.

use std::collections::VecDeque;

use quda_core::{InvertReport, Phase, PrecisionMode, Quda, QudaInvertParam, TraceConfig};
use quda_lattice::geometry::LatticeDims;
use quda_service::request::SolveOutcome;
use quda_service::{Service, ServiceConfig, ServiceGaugeId, SolveRequest, Ticket};

use crate::gates::{self, Violation};
use crate::host;
use crate::inputs::Inputs;
use crate::spans::Spans;

/// Lattice and solver settings of the two `solve_volume_*` workloads.
pub const SOLVE_DIMS: (usize, usize, usize, usize) = (8, 8, 8, 16);
pub const SOLVE_MASS: f64 = 0.2;
pub const SOLVE_TOL: f64 = 1e-10;
const SOLVE_SOURCES: usize = 4;

/// Lattice, solver and closed-loop settings of the two `service_*`
/// workloads.
pub const SERVICE_DIMS: (usize, usize, usize, usize) = (4, 4, 4, 8);
pub const SERVICE_MASS: f64 = 0.3;
pub const SERVICE_TOL: f64 = 1e-8;
const SERVICE_SOURCES: usize = 32;
const SERVICE_TENANTS: u32 = 4;
/// Requests the single submitter keeps outstanding (closed loop).
pub const WINDOW: usize = 16;
/// Distinct masses — hence distinct batch keys — in `service_split`;
/// equal to [`WINDOW`], so no two requests in flight can ever fuse.
const SPLIT_KEYS: usize = 16;
pub const FUSED_REQUESTS: usize = 160;
pub const SPLIT_REQUESTS: usize = 96;

/// Ranks every solve runs on: with the one submitter blocked in `invert`
/// or `wait`, two busy threads — `nproc` on the sizing host.
pub const RANKS: usize = 2;

pub fn dims((x, y, z, t): (usize, usize, usize, usize)) -> LatticeDims {
    LatticeDims::new(x, y, z, t)
}

/// The `solve_volume_*` inversion parameters — also the problem the
/// multigpu and core probes measure.
pub fn solve_param(mode: PrecisionMode) -> QudaInvertParam {
    QudaInvertParam::paper_mode(mode, RANKS).with_mass(SOLVE_MASS).with_tol(SOLVE_TOL)
}

/// Phase self-times (seconds, mean over ranks) and exact counts summed
/// over the solves — or, for fused requests, the batches — of one round.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    pub phase_s: [f64; quda_obs::PHASE_COUNT],
    /// Sum of the traced walls.
    pub wall_s: f64,
    /// Inclusive interior seconds (hidden communication) and inclusive
    /// wire-wait seconds (exposed communication).
    pub hidden_s: f64,
    pub exposed_s: f64,
    pub rank_skew_s: f64,
    /// Traced solves (direct) or batches (service) folded in.
    pub units: f64,
    pub dropped_events: u64,
    pub messages: f64,
    pub bytes: f64,
}

impl Traced {
    /// Fold in one report, weighted `1/batch` so the members of a fused
    /// batch — which all carry the batch's breakdown — count it once.
    fn add(&mut self, report: &InvertReport) {
        let w = 1.0 / report.queue.batch_size.max(1) as f64;
        let b = &report.phases;
        for s in &b.phases {
            self.phase_s[s.phase.index()] += w * s.seconds;
            match s.phase {
                Phase::Interior => self.hidden_s += w * s.inclusive_seconds,
                Phase::Wire | Phase::WireX | Phase::WireY | Phase::WireZ => {
                    self.exposed_s += w * s.inclusive_seconds;
                }
                Phase::CommSend => {
                    self.messages += w * s.count as f64;
                    self.bytes += w * s.bytes as f64;
                }
                _ => {}
            }
        }
        self.units += w;
        self.wall_s += w * b.total_wall_s;
        self.rank_skew_s += w * b.rank_skew_s;
        self.dropped_events += b.dropped_events;
    }
}

/// What one round produced.
#[derive(Clone, Debug, Default)]
pub struct Round {
    pub traced_run: bool,
    /// Wall of the whole round's timed region.
    pub wall_s: f64,
    /// Process CPU seconds spent over that region.
    pub cpu_s: f64,
    /// Client-observed seconds per solve: the `invert` call, or
    /// submit→resolve.
    pub latency_s: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Exact per-round sums over the round's solves.
    pub iterations: u64,
    pub matvecs: u64,
    pub reliable_updates: u64,
    pub effective_flops: u64,
    pub modeled_s: f64,
    /// Service telemetry, one entry per request (empty for direct solves).
    pub submit_s: Vec<f64>,
    pub queue_wait_s: Vec<f64>,
    /// `batch_members[k]`: requests that rode in a batch of `k`.
    pub batch_members: [usize; quda_dirac::MAX_RHS_BATCH + 1],
    pub max_queue_depth: usize,
    pub rejected: usize,
    pub traced: Traced,
}

impl Round {
    pub fn solves(&self) -> usize {
        self.latency_s.len()
    }

    /// Batches the round's requests were dispatched in. A round drains
    /// before it ends, so every batch is counted whole.
    pub fn batches(&self) -> usize {
        self.batch_members.iter().enumerate().skip(1).map(|(k, members)| members / k).sum()
    }

    fn fail(&mut self, what: &str, v: Violation) {
        eprintln!("ledger: GATE FAILED in {what}: {v:?}");
        self.failed += 1;
    }

    /// Apply the per-solve gates to one report and fold in its counts.
    fn absorb(
        &mut self,
        what: &str,
        report: &InvertReport,
        tol: f64,
        seen: &mut [Option<usize>],
        source: usize,
    ) {
        if let Err(v) = gates::solve_gate(&report.stats, tol) {
            self.fail(what, v);
        } else if let Err(v) = gates::iterations_gate(seen, source, report.iterations) {
            self.fail(what, v);
        }
        self.iterations += report.iterations as u64;
        self.matvecs += report.matvecs;
        self.reliable_updates += report.reliable_updates;
        self.effective_flops += report.effective_flops;
        self.modeled_s += report.modeled_seconds;
        if self.traced_run {
            self.traced.add(report);
        }
    }
}

/// What tearing a workload down found.
pub struct Finish {
    pub attempted: usize,
    pub failed: usize,
}

pub trait Workload {
    fn name(&self) -> &'static str;
    /// Hash of the generated inputs (see [`Inputs::hash`]).
    fn input_hash(&self) -> u64;
    /// One round of timed work under `trace`, every gate applied after the
    /// clock stops.
    fn round(&mut self, trace: TraceConfig, spans: &mut Spans) -> Round;
    /// Tear down and apply the end-of-run gates.
    fn finish(self: Box<Self>) -> Finish;
}

/// Set a workload up from `seed`: generate inputs, build the context or
/// service, load the gauge field (unitarity check) and run one discarded
/// warm-up solve or batch. Returns the workload and `setup_s`, or `None`
/// for an unknown name.
pub fn setup(name: &str, seed: u64, spans: &mut Spans) -> Option<(Box<dyn Workload>, f64)> {
    let span = spans.enter("setup", None);
    let w: Box<dyn Workload> = match name {
        "solve_volume_double" => {
            Box::new(SolveVolume::setup("solve_volume_double", PrecisionMode::Double, seed, spans))
        }
        "solve_volume_mixed" => Box::new(SolveVolume::setup(
            "solve_volume_mixed",
            PrecisionMode::DoubleHalf,
            seed,
            spans,
        )),
        "service_fused" => Box::new(ServiceLoop::setup("service_fused", false, seed, spans)),
        "service_split" => Box::new(ServiceLoop::setup("service_split", true, seed, spans)),
        _ => return None,
    };
    Some((w, spans.exit(span)))
}

/// `solve_volume_*`: direct `Quda::invert` calls, one after another.
struct SolveVolume {
    name: &'static str,
    inputs: Inputs,
    quda: Quda,
    param: QudaInvertParam,
    seen: Vec<Option<usize>>,
}

impl SolveVolume {
    fn setup(name: &'static str, mode: PrecisionMode, seed: u64, spans: &mut Spans) -> Self {
        let (inputs, _) = spans.timed("generate_inputs", None, || {
            Inputs::generate(dims(SOLVE_DIMS), seed, SOLVE_SOURCES)
        });
        let mut quda = Quda::new(RANKS).expect("context");
        spans
            .timed("load_gauge", None, || quda.load_gauge(inputs.gauge.clone()))
            .0
            .expect("generated gauge field is unitary");
        let param = solve_param(mode);
        spans.timed("warmup", None, || quda.invert(&inputs.warmup, &param)).0.expect("warm-up");
        SolveVolume { name, inputs, quda, param, seen: vec![None; SOLVE_SOURCES] }
    }
}

impl Workload for SolveVolume {
    fn name(&self) -> &'static str {
        self.name
    }

    fn input_hash(&self) -> u64 {
        self.inputs.hash()
    }

    fn round(&mut self, trace: TraceConfig, spans: &mut Spans) -> Round {
        let param = self.param.with_trace(trace);
        let mut round = Round { traced_run: !trace.is_off(), ..Round::default() };
        let mut outcomes = Vec::with_capacity(SOLVE_SOURCES);
        let cpu0 = host::cpu_seconds();
        let span = spans.enter("round", None);
        for (k, source) in self.inputs.sources.iter().enumerate() {
            let (outcome, dt) =
                spans.timed("invert", Some(k as u64), || self.quda.invert(source, &param));
            round.latency_s.push(dt);
            outcomes.push(outcome);
        }
        round.wall_s = spans.exit(span);
        round.cpu_s = host::cpu_seconds() - cpu0;
        for (k, outcome) in outcomes.into_iter().enumerate() {
            round.attempted += 1;
            match outcome {
                Ok((_, report)) => {
                    round.absorb(self.name, &report, self.param.tol, &mut self.seen, k);
                }
                Err(e) => round.fail(self.name, Violation::Errored(e.to_string())),
            }
        }
        round
    }

    fn finish(self: Box<Self>) -> Finish {
        Finish { attempted: 0, failed: 0 }
    }
}

/// `service_*`: one submitter thread keeping [`WINDOW`] requests
/// outstanding against a one-worker service, waiting tickets in
/// submission order.
struct ServiceLoop {
    name: &'static str,
    split: bool,
    inputs: Inputs,
    service: Service,
    gauge: ServiceGaugeId,
    param: QudaInvertParam,
    seen: Vec<Option<usize>>,
    rounds: usize,
    next_id: u64,
    submitted: u64,
}

impl ServiceLoop {
    fn setup(name: &'static str, split: bool, seed: u64, spans: &mut Spans) -> Self {
        let (inputs, _) = spans.timed("generate_inputs", None, || {
            Inputs::generate(dims(SERVICE_DIMS), seed, SERVICE_SOURCES)
        });
        let mut service = Service::new(ServiceConfig {
            workers: 1,
            max_batch: 8,
            queue_capacity: 64,
            ..ServiceConfig::default()
        });
        let gauge = spans
            .timed("load_gauge", None, || service.load_gauge(inputs.gauge.clone()))
            .0
            .expect("generated gauge field is unitary");
        service.start();
        let param = QudaInvertParam::paper_mode(PrecisionMode::Double, RANKS).with_tol(SERVICE_TOL);
        let mut this = ServiceLoop {
            name,
            split,
            inputs,
            service,
            gauge,
            param,
            seen: vec![None; SERVICE_SOURCES],
            rounds: 0,
            next_id: 0,
            submitted: 0,
        };
        // One discarded batch: eight requests of the workload's own shape,
        // on a source outside the measured stream.
        let warm = spans.enter("warmup", None);
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                let mut req = this.request(i);
                req.source = this.inputs.warmup.clone();
                this.submitted += 1;
                this.service.submit(req).expect("warm-up submit")
            })
            .collect();
        for t in tickets {
            t.wait().expect("warm-up solve");
        }
        spans.exit(warm);
        this
    }

    /// Parameters of request `i` of a round: tenants round-robin; in
    /// `service_split` the mass cycles through [`SPLIT_KEYS`] values.
    fn param_of(&self, i: usize) -> QudaInvertParam {
        let step = if self.split { 0.002 * (i % SPLIT_KEYS) as f64 } else { 0.0 };
        self.param.with_mass(SERVICE_MASS + step).with_tenant(i as u32 % SERVICE_TENANTS)
    }

    fn request(&self, i: usize) -> SolveRequest {
        SolveRequest {
            gauge: self.gauge,
            source: self.inputs.sources[i % SERVICE_SOURCES].clone(),
            param: self.param_of(i),
        }
    }
}

impl Workload for ServiceLoop {
    fn name(&self) -> &'static str {
        self.name
    }

    fn input_hash(&self) -> u64 {
        self.inputs.hash()
    }

    fn round(&mut self, trace: TraceConfig, spans: &mut Spans) -> Round {
        let n = if self.split { SPLIT_REQUESTS } else { FUSED_REQUESTS };
        let mut round = Round { traced_run: !trace.is_off(), ..Round::default() };
        // (request index, id, submit time, ticket), oldest first.
        let mut window: VecDeque<(usize, u64, f64, Ticket)> = VecDeque::with_capacity(WINDOW);
        let mut outcomes: Vec<(usize, SolveOutcome)> = Vec::with_capacity(n);
        let mut resolve = |window: &mut VecDeque<(usize, u64, f64, Ticket)>,
                           round: &mut Round,
                           spans: &mut Spans| {
            let Some((i, id, t0, ticket)) = window.pop_front() else { return };
            let (outcome, _) = spans.timed("wait", Some(id), || ticket.wait());
            let t1 = spans.now();
            spans.record("request", Some(id), t0, t1);
            round.latency_s.push(t1 - t0);
            outcomes.push((i, outcome));
        };

        let cpu0 = host::cpu_seconds();
        let span = spans.enter("round", None);
        for i in 0..n {
            if window.len() == WINDOW {
                resolve(&mut window, &mut round, spans);
            }
            let mut req = self.request(i);
            req.param = req.param.with_trace(trace);
            let id = self.next_id;
            self.next_id += 1;
            let t0 = spans.now();
            let (ticket, dt) = spans.timed("submit", Some(id), || self.service.submit(req));
            round.submit_s.push(dt);
            round.attempted += 1;
            match ticket {
                Ok(t) => {
                    self.submitted += 1;
                    window.push_back((i, id, t0, t));
                }
                Err(e) => {
                    round.rejected += 1;
                    round.fail(self.name, Violation::Refused(e.to_string()));
                }
            }
        }
        while !window.is_empty() {
            resolve(&mut window, &mut round, spans);
        }
        round.wall_s = spans.exit(span);
        round.cpu_s = host::cpu_seconds() - cpu0;

        // Once per round, one member is re-solved alone and must match
        // bit for bit. The member moves with the round.
        let probe = self.rounds % n;
        self.rounds += 1;
        for (i, outcome) in outcomes {
            let (x, report) = match outcome {
                Ok(ok) => ok,
                Err(e) => {
                    round.fail(self.name, Violation::Errored(e.to_string()));
                    continue;
                }
            };
            let tol = self.param.tol;
            round.absorb(self.name, &report, tol, &mut self.seen, i % SERVICE_SOURCES);
            round.queue_wait_s.push(report.queue.queue_wait.as_secs_f64());
            if let Some(members) = round.batch_members.get_mut(report.queue.batch_size) {
                *members += 1;
            }
            round.max_queue_depth = round.max_queue_depth.max(report.queue.queue_depth);
            if i == probe {
                round.attempted += 1;
                let source = &self.inputs.sources[i % SERVICE_SOURCES];
                let mut solo = Quda::new(RANKS).expect("context");
                solo.load_gauge(self.inputs.gauge.clone()).expect("unitary");
                match solo.invert(source, &self.param_of(i)) {
                    Ok((x_solo, solo)) => {
                        let gate = gates::bit_identity_gate(
                            (&x, report.iterations),
                            (&x_solo, solo.iterations),
                        );
                        if let Err(v) = gate {
                            round.fail(self.name, v);
                        }
                    }
                    Err(e) => round.fail(self.name, Violation::Errored(e.to_string())),
                }
            }
        }
        round
    }

    fn finish(self: Box<Self>) -> Finish {
        let stats = self.service.shutdown();
        let failed = match gates::conservation_gate(&stats, self.submitted) {
            Ok(()) => 0,
            Err(v) => {
                eprintln!("ledger: GATE FAILED in {}: {v:?}", self.name);
                1
            }
        };
        Finish { attempted: 1, failed }
    }
}
