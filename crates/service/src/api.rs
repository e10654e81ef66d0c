//! Request/response types of the spectral query service.

use desim::{Deadline, Priority};
use rrc_spectral::GridPoint;

/// Which ions of the database a request wants in its spectrum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElementSelection {
    /// Every ion of every element.
    All,
    /// Only ions whose element has one of these atomic numbers
    /// (duplicates and unknown elements are ignored).
    Elements(Vec<u8>),
}

impl ElementSelection {
    /// Whether an ion of element `z` is selected.
    #[must_use]
    pub fn selects(&self, z: u8) -> bool {
        match self {
            ElementSelection::All => true,
            ElementSelection::Elements(zs) => zs.contains(&z),
        }
    }
}

/// One spectral query: a plasma state, an element selection, and the
/// id of one of the service's registered energy grids — plus the SLO
/// metadata (priority class and optional deadline) that rides with the
/// request through every scheduling layer. Neither SLO field affects
/// the numerical answer; they only steer admission and ordering.
#[derive(Debug, Clone)]
pub struct SpectrumRequest {
    /// Plasma state to evaluate at (`index` is caller metadata and
    /// does not affect the result).
    pub point: GridPoint,
    /// Ions to include.
    pub elements: ElementSelection,
    /// Index into the grids the service was configured with.
    pub grid_id: usize,
    /// Priority class: interactive requests dequeue ahead of bulk
    /// under the weighted-fair policy.
    pub priority: Priority,
    /// Absolute completion deadline on the engine clock
    /// (`EngineConfig::clock`). `None`
    /// (the default) means no SLO: never shed at admission, dequeued
    /// after every deadlined peer of the same class.
    pub deadline: Option<Deadline>,
}

impl SpectrumRequest {
    /// A deadline-free interactive request — the common case; set
    /// [`priority`](Self::priority) / [`deadline`](Self::deadline) to
    /// attach an SLO.
    #[must_use]
    pub fn new(point: GridPoint, elements: ElementSelection, grid_id: usize) -> SpectrumRequest {
        SpectrumRequest {
            point,
            elements,
            grid_id,
            priority: Priority::default(),
            deadline: None,
        }
    }

    /// This request with `priority`.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> SpectrumRequest {
        self.priority = priority;
        self
    }

    /// This request with an absolute `deadline`.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Deadline) -> SpectrumRequest {
        self.deadline = Some(deadline);
        self
    }

    /// The EDF staging key: the absolute deadline in clock seconds,
    /// [`f64::INFINITY`] when the request carries none.
    #[must_use]
    pub fn deadline_secs(&self) -> f64 {
        self.deadline.map_or(f64::INFINITY, |d| d.at_s)
    }
}

/// The answer to one [`SpectrumRequest`].
#[derive(Debug, Clone)]
pub struct SpectrumResponse {
    /// Per-bin emissivity on the requested grid, summed over the
    /// selected ions in ascending ion order (a fixed order, so the
    /// same request always folds partials identically).
    pub bins: Vec<f64>,
    /// Echo of [`SpectrumRequest::grid_id`].
    pub grid_id: usize,
    /// Ion partials computed for this response (engine tasks or
    /// caller-runs fallbacks).
    pub ions_computed: u64,
    /// Ion partials served from the cache.
    pub ions_from_cache: u64,
    /// `true` when the request was answered on the submitting thread
    /// by the caller-runs overload policy instead of the batcher.
    pub caller_ran: bool,
}

/// Why the service refused or abandoned a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// Admission control: the request queue is at capacity and the
    /// shed policy is active. The caller may retry later.
    Overloaded,
    /// The request named a grid id the service was not configured with.
    UnknownGrid,
    /// The service is shutting down (or has shut down).
    Closed,
    /// The engine could not complete one of the request's ion partials
    /// within the service's fan-out retry budget — devices failed or
    /// their breakers were open and CPU fallback was disabled. Distinct from
    /// [`ServiceError::Overloaded`]: the request was admitted and
    /// computation was attempted.
    DeviceFailed,
    /// SLO-driven admission: the request's remaining deadline budget
    /// cannot cover the cost model's estimate of its compute time, so
    /// it was shed *before* any fan-out. Distinct from
    /// [`ServiceError::Overloaded`] (a capacity refusal — retrying
    /// later can succeed); an infeasible deadline needs a larger
    /// budget, not a retry.
    DeadlineInfeasible,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded => write!(f, "request queue full (load shed)"),
            ServiceError::UnknownGrid => write!(f, "unknown energy grid id"),
            ServiceError::Closed => write!(f, "service closed"),
            ServiceError::DeviceFailed => {
                write!(f, "device failure exhausted the fan-out retry budget")
            }
            ServiceError::DeadlineInfeasible => {
                write!(f, "remaining deadline budget below the cost estimate")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// What to do with a request that arrives while the request queue is
/// at its bound (paper Algorithm 1's full-queue CPU fallback, lifted
/// to the request tier).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Refuse with [`ServiceError::Overloaded`]; the queue bound is a
    /// hard backpressure signal to the caller.
    #[default]
    Shed,
    /// Compute the whole request synchronously on the submitting
    /// thread with the CPU integrator (the QAGS-fallback analogue);
    /// always answers, at the cost of the caller's own cycles.
    CallerRuns,
}

/// A pending answer. The batcher delivers exactly one result per
/// admitted request.
pub struct Ticket {
    pub(crate) rx: std::sync::mpsc::Receiver<Result<SpectrumResponse, ServiceError>>,
}

impl Ticket {
    /// Block until the response arrives.
    ///
    /// # Errors
    /// [`ServiceError::Closed`] if the service dropped the request
    /// during shutdown.
    pub fn wait(self) -> Result<SpectrumResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Closed))
    }

    /// Non-blocking poll: `None` while the answer is still pending.
    #[must_use]
    pub fn poll(&self) -> Option<Result<SpectrumResponse, ServiceError>> {
        self.rx.try_recv().ok()
    }

    /// A ticket that is already resolved (used by the caller-runs
    /// admission path, which computes before returning).
    pub(crate) fn resolved(result: Result<SpectrumResponse, ServiceError>) -> Ticket {
        let (tx, rx) = std::sync::mpsc::channel();
        let _ = tx.send(result);
        Ticket { rx }
    }
}
