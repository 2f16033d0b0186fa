//! Requests, tickets, and the service error taxonomy.

use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use quda_core::{InvertReport, QudaError, QudaInvertParam};
use quda_fields::host::HostSpinorField;

/// Handle to a gauge configuration cached in the service — the
/// service-side counterpart of [`quda_core::GaugeId`]. Ids are unique for
/// the life of the service and never reused, so a stale handle fails
/// loudly instead of aliasing a newer field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceGaugeId(pub(crate) u64);

/// One inversion request: which cached gauge field, the source, and the
/// solve controls (tenant, deadline, and precision ride inside the
/// [`QudaInvertParam`]).
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// The cached gauge configuration to invert against.
    pub gauge: ServiceGaugeId,
    /// Right-hand side.
    pub source: HostSpinorField,
    /// Solve controls; [`QudaInvertParam::tenant`] selects the queue and
    /// [`QudaInvertParam::deadline`] bounds the queue wait.
    pub param: QudaInvertParam,
}

/// Everything a service interaction can fail with.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The tenant's bounded queue is full — backpressure; retry later.
    QueueFull {
        /// Tenant whose queue rejected the request.
        tenant: u32,
        /// The queue's capacity.
        capacity: usize,
    },
    /// The request's deadline passed while it was still queued; the solve
    /// was never started. Carries the time it waited.
    DeadlineExpired(Duration),
    /// The gauge handle was never loaded, or has been freed.
    UnknownGauge(ServiceGaugeId),
    /// The source dimensions do not match the gauge field's.
    DimsMismatch,
    /// The service is shutting down; queued work it will not run is
    /// resolved with this error.
    ShuttingDown,
    /// The underlying inversion failed.
    Solve(QudaError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueueFull { tenant, capacity } => {
                write!(f, "tenant {tenant} queue full (capacity {capacity})")
            }
            ServiceError::DeadlineExpired(waited) => {
                write!(f, "deadline expired after queueing {waited:?}")
            }
            ServiceError::UnknownGauge(id) => write!(f, "unknown or freed gauge handle {id:?}"),
            ServiceError::DimsMismatch => write!(f, "source dims do not match the gauge field"),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
            ServiceError::Solve(e) => write!(f, "inversion failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

/// What a fulfilled ticket yields.
pub type SolveOutcome = Result<(HostSpinorField, InvertReport), ServiceError>;

/// The waitable half of a completion slot: a mutex-guarded result plus a
/// condvar the fulfilling worker signals.
pub(crate) struct TicketShared {
    slot: Mutex<Option<SolveOutcome>>,
    done: Condvar,
}

impl TicketShared {
    pub(crate) fn new() -> Arc<TicketShared> {
        Arc::new(TicketShared { slot: Mutex::new(None), done: Condvar::new() })
    }

    /// Deposit the outcome and wake the waiter. Idempotent: the first
    /// outcome wins (a ticket is only ever fulfilled once, but shutdown
    /// drains defend against double completion).
    pub(crate) fn fulfill(&self, outcome: SolveOutcome) {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(outcome);
            self.done.notify_all();
        }
    }
}

/// A claim on one submitted solve. Obtained from
/// [`Service::submit`](crate::Service::submit); redeem with
/// [`Ticket::wait`].
pub struct Ticket {
    pub(crate) shared: Arc<TicketShared>,
}

impl Ticket {
    /// Block until the solve completes (or is rejected), consuming the
    /// ticket and returning the outcome.
    pub fn wait(self) -> SolveOutcome {
        let mut slot = self.shared.slot.lock().unwrap_or_else(PoisonError::into_inner);
        while slot.is_none() {
            slot = self.shared.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        match slot.take() {
            Some(outcome) => outcome,
            // Unreachable: the loop above only exits on `Some`.
            None => Err(ServiceError::ShuttingDown),
        }
    }

    /// Whether the outcome is already available (non-blocking).
    pub fn is_done(&self) -> bool {
        self.shared.slot.lock().unwrap_or_else(PoisonError::into_inner).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticket_roundtrip() {
        let shared = TicketShared::new();
        let t = Ticket { shared: Arc::clone(&shared) };
        assert!(!t.is_done());
        shared.fulfill(Err(ServiceError::DimsMismatch));
        // First fulfillment wins.
        shared.fulfill(Err(ServiceError::ShuttingDown));
        assert!(t.is_done());
        assert_eq!(t.wait().unwrap_err(), ServiceError::DimsMismatch);
    }
}
