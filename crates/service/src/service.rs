//! The service itself: gauge cache, admission control, scheduler, workers.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use quda_core::{GaugeId, Quda, QudaError, QueueTelemetry};
use quda_fields::host::GaugeConfig;

use crate::batch::BatchKey;
use crate::config::{ServiceConfig, TenantConfig};
use crate::request::{ServiceError, ServiceGaugeId, SolveRequest, Ticket, TicketShared};
use crate::tenant::{backlog_floor, Queued, TenantState};

/// Aggregate service telemetry, snapshot via [`Service::stats`] or
/// returned by [`Service::shutdown`].
#[derive(Clone, Debug, Default)]
pub struct ServiceStats {
    /// Requests accepted into a queue.
    pub submitted: u64,
    /// Requests solved and fulfilled.
    pub completed: u64,
    /// Requests whose solve returned an error.
    pub failed: u64,
    /// Requests rejected at admission (queue full).
    pub rejected: u64,
    /// Requests expired in the queue past their deadline.
    pub expired: u64,
    /// Blocked solves dispatched.
    pub batches: u64,
    /// Requests carried by those solves (mean batch size is
    /// `batched_requests / batches`).
    pub batched_requests: u64,
    /// Largest batch dispatched.
    pub max_batch: usize,
    /// Deepest any tenant queue got.
    pub max_queue_depth: usize,
    /// Per-tenant counters, ascending tenant id.
    pub per_tenant: Vec<(u32, TenantStats)>,
    /// Tenant of every dispatched request, in dispatch order — recorded
    /// only under [`ServiceConfig::log_dispatch_order`].
    pub dispatch_log: Vec<u32>,
}

/// Per-tenant slice of [`ServiceStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct TenantStats {
    /// Requests solved and fulfilled.
    pub completed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests expired past their deadline.
    pub expired: u64,
    /// Deepest this tenant's queue got.
    pub max_depth: usize,
}

/// Global counters that are not per-tenant.
#[derive(Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    failed: u64,
    batches: u64,
    batched_requests: u64,
    max_batch: usize,
    dispatch_log: Vec<u32>,
}

/// Everything behind the scheduler mutex.
struct SchedState {
    tenants: BTreeMap<u32, TenantState>,
    gauges: Vec<(ServiceGaugeId, Arc<GaugeConfig>)>,
    next_gauge: u64,
    started: bool,
    shutdown: bool,
    /// Requests sitting in queues.
    queued_total: usize,
    /// Requests popped for a batch whose tickets are not yet fulfilled.
    in_flight: usize,
    stats: Counters,
}

struct Inner {
    config: ServiceConfig,
    state: Mutex<SchedState>,
    /// Signalled on submission, start, and shutdown.
    work_ready: Condvar,
    /// Signalled whenever queued + in-flight work drains.
    idle: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One batch popped from the queues, ready to dispatch.
struct Batch {
    members: Vec<Queued>,
}

/// The multi-tenant batched inversion service (DESIGN.md §14). Created
/// paused by [`Service::new`] — submissions queue but nothing runs until
/// [`Service::start`] spawns the workers.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Create a paused service: gauges can be loaded and requests queued,
    /// but no solve runs until [`Service::start`].
    pub fn new(config: ServiceConfig) -> Service {
        Service {
            inner: Arc::new(Inner {
                config,
                state: Mutex::new(SchedState {
                    tenants: BTreeMap::new(),
                    gauges: Vec::new(),
                    next_gauge: 0,
                    started: false,
                    shutdown: false,
                    queued_total: 0,
                    in_flight: 0,
                    stats: Counters::default(),
                }),
                work_ready: Condvar::new(),
                idle: Condvar::new(),
            }),
            workers: Vec::new(),
        }
    }

    /// Spawn the worker threads and begin dispatching. Idempotent.
    pub fn start(&mut self) {
        {
            let mut state = self.inner.lock();
            if state.started {
                return;
            }
            state.started = true;
        }
        let n = self.inner.config.workers.max(1);
        self.workers.reserve(n);
        for _ in 0..n {
            let inner = Arc::clone(&self.inner);
            self.workers.push(std::thread::spawn(move || worker_loop(&inner)));
        }
        self.inner.work_ready.notify_all();
    }

    /// Set a tenant's scheduling weight and queue bound (before or after
    /// its first submission).
    pub fn configure_tenant(&self, tenant: u32, config: TenantConfig) {
        let mut state = self.inner.lock();
        let default_cap = self.inner.config.queue_capacity;
        let t = state.tenants.entry(tenant).or_insert_with(|| TenantState::new(1, default_cap));
        t.weight = config.weight.max(1);
        t.queue_capacity = config.queue_capacity;
    }

    /// Validate and cache a gauge configuration, shared by all workers.
    /// The returned handle stays valid until [`Service::free_gauge`];
    /// requests queued before a free keep the field alive by refcount.
    pub fn load_gauge(&self, cfg: GaugeConfig) -> Result<ServiceGaugeId, ServiceError> {
        if !cfg.is_unitary(1e-8) {
            return Err(ServiceError::Solve(QudaError::NotUnitary));
        }
        let mut state = self.inner.lock();
        let id = ServiceGaugeId(state.next_gauge);
        state.next_gauge += 1;
        state.gauges.push((id, Arc::new(cfg)));
        Ok(id)
    }

    /// Drop the service's reference to a cached gauge field. Queued and
    /// running solves against it finish normally (they hold their own
    /// reference); new submissions are rejected with
    /// [`ServiceError::UnknownGauge`].
    pub fn free_gauge(&self, id: ServiceGaugeId) -> Result<(), ServiceError> {
        let mut state = self.inner.lock();
        let i = state
            .gauges
            .iter()
            .position(|(g, _)| *g == id)
            .ok_or(ServiceError::UnknownGauge(id))?;
        state.gauges.remove(i);
        Ok(())
    }

    /// Admit one solve request into its tenant's queue.
    ///
    /// Fails fast — before any queueing — on an unknown gauge handle, a
    /// source/gauge shape mismatch, or a full tenant queue (backpressure:
    /// the caller decides whether to retry, shed, or slow down).
    pub fn submit(&self, req: SolveRequest) -> Result<Ticket, ServiceError> {
        let mut state = self.inner.lock();
        if state.shutdown {
            return Err(ServiceError::ShuttingDown);
        }
        let gauge = state
            .gauges
            .iter()
            .find(|(g, _)| *g == req.gauge)
            .map(|(_, cfg)| Arc::clone(cfg))
            .ok_or(ServiceError::UnknownGauge(req.gauge))?;
        if req.source.dims != gauge.dims {
            return Err(ServiceError::DimsMismatch);
        }
        let tenant_id = req.param.tenant;
        let floor = backlog_floor(state.tenants.values()).unwrap_or(0.0);
        let default_weight = self.inner.config.default_weight;
        let default_cap = self.inner.config.queue_capacity;
        let tenant = state
            .tenants
            .entry(tenant_id)
            .or_insert_with(|| TenantState::new(default_weight, default_cap));
        if tenant.queue.len() >= tenant.queue_capacity {
            tenant.rejected += 1;
            let capacity = tenant.queue_capacity;
            return Err(ServiceError::QueueFull { tenant: tenant_id, capacity });
        }
        if tenant.queue.is_empty() {
            tenant.rejoin(floor);
        }
        let key = BatchKey::of(req.gauge, &req.param);
        let shared = TicketShared::new();
        let depth = tenant.queue.len() + 1;
        tenant.queue.push_back(Queued {
            req,
            gauge,
            key,
            ticket: Arc::clone(&shared),
            enqueued_at: Instant::now(),
            depth_at_submit: depth,
        });
        tenant.max_depth = tenant.max_depth.max(depth);
        state.queued_total += 1;
        state.stats.submitted += 1;
        drop(state);
        self.inner.work_ready.notify_one();
        Ok(Ticket { shared })
    }

    /// Block until every queued and in-flight request has been resolved.
    /// Only meaningful after [`Service::start`] — a paused service with
    /// queued work never drains.
    pub fn wait_idle(&self) {
        let mut state = self.inner.lock();
        while state.queued_total > 0 || state.in_flight > 0 {
            state = self.inner.idle.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Snapshot the telemetry counters.
    pub fn stats(&self) -> ServiceStats {
        snapshot(&self.inner.lock())
    }

    /// Drain and stop: started workers finish everything queued, then
    /// exit; on a never-started service, queued tickets are resolved with
    /// [`ServiceError::ShuttingDown`]. Returns the final telemetry.
    pub fn shutdown(mut self) -> ServiceStats {
        {
            let mut state = self.inner.lock();
            state.shutdown = true;
        }
        self.inner.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let mut state = self.inner.lock();
        // Anything still queued (only possible if the service never
        // started) is resolved, never silently dropped.
        let tenant_ids: Vec<u32> = state.tenants.keys().copied().collect();
        let mut drained = 0;
        for id in tenant_ids {
            if let Some(t) = state.tenants.get_mut(&id) {
                while let Some(q) = t.queue.pop_front() {
                    q.ticket.fulfill(Err(ServiceError::ShuttingDown));
                    drained += 1;
                }
            }
        }
        state.queued_total -= drained;
        snapshot(&state)
    }
}

fn snapshot(state: &SchedState) -> ServiceStats {
    let mut per_tenant = Vec::with_capacity(state.tenants.len());
    let mut rejected = 0;
    let mut expired = 0;
    let mut max_queue_depth = 0;
    for (id, t) in &state.tenants {
        rejected += t.rejected;
        expired += t.expired;
        max_queue_depth = max_queue_depth.max(t.max_depth);
        per_tenant.push((
            *id,
            TenantStats {
                completed: t.completed,
                rejected: t.rejected,
                expired: t.expired,
                max_depth: t.max_depth,
            },
        ));
    }
    ServiceStats {
        submitted: state.stats.submitted,
        completed: state.stats.completed,
        failed: state.stats.failed,
        rejected,
        expired,
        batches: state.stats.batches,
        batched_requests: state.stats.batched_requests,
        max_batch: state.stats.max_batch,
        max_queue_depth,
        per_tenant,
        dispatch_log: state.stats.dispatch_log.clone(),
    }
}

/// Resolve and drop every queued request whose deadline has passed.
fn expire_overdue(state: &mut SchedState, now: Instant) {
    let tenant_ids: Vec<u32> = state.tenants.keys().copied().collect();
    let mut dropped = 0;
    for id in &tenant_ids {
        let Some(t) = state.tenants.get_mut(id) else { continue };
        let mut i = 0;
        while i < t.queue.len() {
            let overdue = t.queue[i]
                .req
                .param
                .deadline
                .is_some_and(|d| now.duration_since(t.queue[i].enqueued_at) > d);
            if overdue {
                if let Some(q) = t.queue.remove(i) {
                    let waited = now.duration_since(q.enqueued_at);
                    q.ticket.fulfill(Err(ServiceError::DeadlineExpired(waited)));
                    t.expired += 1;
                    dropped += 1;
                }
            } else {
                i += 1;
            }
        }
    }
    state.queued_total -= dropped;
}

/// Pop the next batch under weighted fairness: head from the backlogged
/// tenant with the least virtual time, filled with same-key requests
/// across all tenants in virtual-time order, up to the batch cap.
fn collect_batch(state: &mut SchedState, config: &ServiceConfig) -> Option<Batch> {
    expire_overdue(state, Instant::now());
    let lead = state
        .tenants
        .iter()
        .filter(|(_, t)| !t.queue.is_empty())
        .min_by(|(ia, a), (ib, b)| a.virtual_time.total_cmp(&b.virtual_time).then(ia.cmp(ib)))
        .map(|(id, _)| *id)?;
    let cap = config.batch_cap();
    let mut members: Vec<Queued> = Vec::with_capacity(cap);
    let head = state.tenants.get_mut(&lead)?.queue.pop_front()?;
    let key = head.key;
    members.push(head);
    // Fill from tenants in (virtual time, id) order, FIFO within each, so
    // batching never reorders a tenant's own same-key requests.
    let mut order: Vec<(f64, u32)> =
        state.tenants.iter().map(|(id, t)| (t.virtual_time, *id)).collect();
    order.sort_by(|(va, ia), (vb, ib)| va.total_cmp(vb).then(ia.cmp(ib)));
    for (_, id) in &order {
        if members.len() >= cap {
            break;
        }
        let Some(t) = state.tenants.get_mut(id) else { continue };
        let mut i = 0;
        while i < t.queue.len() && members.len() < cap {
            if t.queue[i].key == key {
                if let Some(q) = t.queue.remove(i) {
                    members.push(q);
                }
            } else {
                i += 1;
            }
        }
    }
    // Account the dispatch: charge each member's tenant, log, and move
    // the requests from queued to in-flight.
    for m in &members {
        if let Some(t) = state.tenants.get_mut(&m.req.param.tenant) {
            t.charge();
        }
        if config.log_dispatch_order {
            state.stats.dispatch_log.push(m.req.param.tenant);
        }
    }
    state.queued_total -= members.len();
    state.in_flight += members.len();
    state.stats.batches += 1;
    state.stats.batched_requests += members.len() as u64;
    state.stats.max_batch = state.stats.max_batch.max(members.len());
    Some(Batch { members })
}

/// One worker: owns a [`Quda`] context and a cache mapping service gauge
/// handles to locally adopted ones.
struct Worker {
    inner: Arc<Inner>,
    quda: Quda,
    adopted: HashMap<ServiceGaugeId, GaugeId>,
}

fn worker_loop(inner: &Arc<Inner>) {
    let Ok(quda) = Quda::new(1) else { return };
    let mut worker = Worker { inner: Arc::clone(inner), quda, adopted: HashMap::new() };
    while let Some(batch) = worker.next_batch() {
        worker.run_batch(batch);
    }
}

impl Worker {
    /// Block until a batch is available; `None` means drained shutdown.
    fn next_batch(&self) -> Option<Batch> {
        let mut state = self.inner.lock();
        loop {
            if state.shutdown && (!state.started || state.queued_total == 0) {
                return None;
            }
            if state.started && state.queued_total > 0 {
                let batch = collect_batch(&mut state, &self.inner.config);
                if batch.is_some() {
                    return batch;
                }
                // Everything queued expired; report the drain and re-wait.
                if state.queued_total == 0 && state.in_flight == 0 {
                    self.inner.idle.notify_all();
                }
                continue;
            }
            state = self.inner.work_ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Run one blocked solve and fulfill every member ticket.
    fn run_batch(&mut self, batch: Batch) {
        let n = batch.members.len();
        let dispatched_at = Instant::now();
        let param = batch.members[0].req.param.with_num_rhs(n);
        let gauge_id = batch.members[0].req.gauge;
        let gauge_arc = Arc::clone(&batch.members[0].gauge);

        // Split members into the solver input and the completion state.
        let mut sources = Vec::with_capacity(n);
        let mut completions = Vec::with_capacity(n);
        for m in batch.members {
            sources.push(m.req.source);
            completions.push((m.ticket, m.req.param.tenant, m.enqueued_at, m.depth_at_submit));
        }

        let outcome = self
            .select_local_gauge(gauge_id, &gauge_arc)
            .and_then(|()| self.quda.invert_multi(&sources, &param));
        match outcome {
            Ok(results) => {
                let mut fulfilled = Vec::with_capacity(n);
                for ((x, mut report), (ticket, tenant, enqueued_at, depth)) in
                    results.into_iter().zip(completions)
                {
                    report.queue = QueueTelemetry {
                        tenant,
                        queue_wait: dispatched_at.duration_since(enqueued_at),
                        batch_size: n,
                        queue_depth: depth,
                    };
                    fulfilled.push((ticket, tenant, Ok((x, report))));
                }
                self.finish(fulfilled, 0);
            }
            Err(e) => {
                let fulfilled: Vec<_> = completions
                    .into_iter()
                    .map(|(ticket, tenant, _, _)| {
                        (ticket, tenant, Err(ServiceError::Solve(e.clone())))
                    })
                    .collect();
                self.finish(fulfilled, n as u64);
            }
        }
    }

    /// Make sure this worker's context has the batch's gauge field
    /// selected, adopting (not copying) it on first use.
    fn select_local_gauge(
        &mut self,
        id: ServiceGaugeId,
        cfg: &Arc<GaugeConfig>,
    ) -> Result<(), QudaError> {
        let local = match self.adopted.get(&id) {
            Some(l) => *l,
            None => {
                let l = self.quda.adopt_gauge(Arc::clone(cfg));
                self.adopted.insert(id, l);
                l
            }
        };
        self.quda.select_gauge(local)
    }

    /// Update counters and fulfill tickets (outside the scheduler lock).
    fn finish(
        &self,
        fulfilled: Vec<(Arc<TicketShared>, u32, crate::request::SolveOutcome)>,
        failed: u64,
    ) {
        {
            let mut state = self.inner.lock();
            let n = fulfilled.len();
            state.in_flight -= n;
            state.stats.failed += failed;
            state.stats.completed += n as u64 - failed;
            for (_, tenant, outcome) in &fulfilled {
                if outcome.is_ok() {
                    if let Some(t) = state.tenants.get_mut(tenant) {
                        t.completed += 1;
                    }
                }
            }
            if state.queued_total == 0 && state.in_flight == 0 {
                self.inner.idle.notify_all();
            }
        }
        for (ticket, _, outcome) in fulfilled {
            ticket.fulfill(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quda_core::{PrecisionMode, QudaInvertParam};
    use quda_fields::gauge_gen::{random_spinor_field, weak_field};
    use quda_lattice::geometry::LatticeDims;

    fn dims() -> LatticeDims {
        LatticeDims::new(4, 4, 2, 4)
    }

    fn param() -> QudaInvertParam {
        QudaInvertParam::paper_mode(PrecisionMode::Double, 2).with_mass(0.3).with_tol(1e-8)
    }

    fn request(service: &Service, tenant: u32, seed: u64) -> (ServiceGaugeId, SolveRequest) {
        let gauge = service.load_gauge(weak_field(dims(), 0.15, 7)).unwrap();
        let source = random_spinor_field(dims(), seed);
        (gauge, SolveRequest { gauge, source, param: param().with_tenant(tenant) })
    }

    #[test]
    fn unknown_gauge_rejected_at_submit() {
        let service = Service::new(ServiceConfig::default());
        let source = random_spinor_field(dims(), 1);
        let req = SolveRequest { gauge: ServiceGaugeId(99), source, param: param() };
        assert!(matches!(service.submit(req), Err(ServiceError::UnknownGauge(_))));
    }

    #[test]
    fn dims_mismatch_rejected_at_submit() {
        let service = Service::new(ServiceConfig::default());
        let gauge = service.load_gauge(weak_field(dims(), 0.15, 7)).unwrap();
        let source = random_spinor_field(LatticeDims::new(4, 4, 4, 8), 1);
        let req = SolveRequest { gauge, source, param: param() };
        assert!(matches!(service.submit(req), Err(ServiceError::DimsMismatch)));
    }

    #[test]
    fn elastic_requests_are_admitted_and_do_not_fuse_with_fail_fast_ones() {
        let mut service = Service::new(ServiceConfig { max_batch: 4, ..ServiceConfig::default() });
        let gauge = service.load_gauge(weak_field(dims(), 0.15, 7)).unwrap();
        let submit = |seed, param: QudaInvertParam| {
            let source = random_spinor_field(dims(), seed);
            service.submit(SolveRequest { gauge, source, param }).unwrap()
        };
        let elastic = [1, 2].map(|seed| submit(seed, param().with_max_rank_deaths(1)));
        let plain = submit(3, param());
        service.start();
        for t in elastic {
            let (_, report) = t.wait().unwrap();
            assert!(report.converged);
            assert_eq!(report.queue.batch_size, 2);
            assert!(report.recovery.checkpoints_taken > 0, "an elastic lane never deposited");
        }
        let (_, report) = plain.wait().unwrap();
        assert!(report.converged);
        assert_eq!(report.queue.batch_size, 1);
        assert_eq!(report.recovery.checkpoints_taken, 0);
        let stats = service.shutdown();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn bounded_queue_rejects_with_queue_full() {
        let config = ServiceConfig { queue_capacity: 2, ..ServiceConfig::default() };
        let service = Service::new(config);
        let (_, req) = request(&service, 5, 1);
        assert!(service.submit(req.clone()).is_ok());
        assert!(service.submit(req.clone()).is_ok());
        assert!(matches!(
            service.submit(req),
            Err(ServiceError::QueueFull { tenant: 5, capacity: 2 })
        ));
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.max_queue_depth, 2);
    }

    #[test]
    fn shutdown_before_start_resolves_tickets() {
        let service = Service::new(ServiceConfig::default());
        let (_, req) = request(&service, 0, 1);
        let ticket = service.submit(req).unwrap();
        let stats = service.shutdown();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 0);
        assert_eq!(ticket.wait().unwrap_err(), ServiceError::ShuttingDown);
    }

    #[test]
    fn zero_deadline_expires_in_queue() {
        let mut service = Service::new(ServiceConfig::default());
        let (_, mut req) = request(&service, 0, 1);
        req.param = req.param.with_deadline(std::time::Duration::ZERO);
        let ticket = service.submit(req).unwrap();
        service.start();
        assert!(matches!(ticket.wait(), Err(ServiceError::DeadlineExpired(_))));
        let stats = service.shutdown();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn freed_gauge_rejects_new_but_queued_work_completes() {
        let mut service = Service::new(ServiceConfig::default());
        let (gauge, req) = request(&service, 0, 3);
        let ticket = service.submit(req.clone()).unwrap();
        service.free_gauge(gauge).unwrap();
        assert!(matches!(service.submit(req), Err(ServiceError::UnknownGauge(_))));
        service.start();
        let (_, report) = ticket.wait().unwrap();
        assert!(report.converged);
        service.shutdown();
    }

    #[test]
    fn compatible_requests_fuse_into_one_batch() {
        let mut service = Service::new(ServiceConfig { max_batch: 4, ..ServiceConfig::default() });
        let gauge = service.load_gauge(weak_field(dims(), 0.15, 7)).unwrap();
        let mut tickets = Vec::new();
        for seed in 0..3 {
            let source = random_spinor_field(dims(), 10 + seed);
            tickets.push(
                service
                    .submit(SolveRequest { gauge, source, param: param().with_tenant(seed as u32) })
                    .unwrap(),
            );
        }
        service.start();
        for t in tickets {
            let (_, report) = t.wait().unwrap();
            assert!(report.converged);
            assert_eq!(report.queue.batch_size, 3);
        }
        let stats = service.shutdown();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.max_batch, 3);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn incompatible_keys_stay_in_separate_batches() {
        let mut service = Service::new(ServiceConfig::default());
        let gauge = service.load_gauge(weak_field(dims(), 0.15, 7)).unwrap();
        let a = service
            .submit(SolveRequest { gauge, source: random_spinor_field(dims(), 1), param: param() })
            .unwrap();
        let b = service
            .submit(SolveRequest {
                gauge,
                source: random_spinor_field(dims(), 2),
                param: param().with_mass(0.25),
            })
            .unwrap();
        service.start();
        let (_, ra) = a.wait().unwrap();
        let (_, rb) = b.wait().unwrap();
        assert_eq!(ra.queue.batch_size, 1);
        assert_eq!(rb.queue.batch_size, 1);
        let stats = service.shutdown();
        assert_eq!(stats.batches, 2);
    }
}
