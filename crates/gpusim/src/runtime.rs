//! Real-threaded device instances.
//!
//! A [`SimGpu`] is one simulated GPU as the hybrid runtime sees it: a
//! FIFO command queue drained by worker threads. On Fermi there is one
//! worker — queued tasks run strictly serially in submission order, the
//! paper's "application-level context switching". With Hyper-Q
//! (Kepler) several workers drain the same queue concurrently.
//!
//! Submitted closures run on the worker; the submitting rank blocks on
//! [`TaskHandle::wait`], which is the paper's synchronous mode ("when a
//! task is submitted to GPU, the CPU will be blocked until the result
//! is back"). A caller that *is* the device's only driver — one engine
//! pump per device — skips the queue hop and runs the task on its own
//! thread through [`SimGpu::run_inline`], with the same accounting.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::cost::{CostModel, MeasuredCost};
use crate::fault::{FaultInjector, FaultPlan};
use crate::memory::{DeviceMemory, DevicePtr, OutOfDeviceMemory};
use crate::props::DeviceProps;

/// Poison-tolerant lock: a panic on another thread (e.g. an injected
/// kernel panic) must degrade to a task failure, never to a poisoned
/// mutex cascading `unwrap` panics through every later submitter.
fn lock_clean<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

type Command = Box<dyn FnOnce() + Send>;

/// The shared FIFO command queue: a mutex-guarded deque plus a condvar,
/// giving the multi-consumer semantics the workers need (std's mpsc
/// channels are single-consumer).
struct CommandQueue {
    state: Mutex<QueueState>,
    signal: Condvar,
}

struct QueueState {
    commands: VecDeque<Command>,
    closed: bool,
}

impl CommandQueue {
    fn new() -> CommandQueue {
        CommandQueue {
            state: Mutex::new(QueueState {
                commands: VecDeque::new(),
                closed: false,
            }),
            signal: Condvar::new(),
        }
    }

    fn push(&self, cmd: Command) {
        let mut state = lock_clean(&self.state);
        assert!(!state.closed, "device is live until drop");
        state.commands.push_back(cmd);
        drop(state);
        self.signal.notify_one();
    }

    /// Blocking pop; `None` once the queue is closed *and* drained.
    fn pop(&self) -> Option<Command> {
        let mut state = lock_clean(&self.state);
        loop {
            if let Some(cmd) = state.commands.pop_front() {
                return Some(cmd);
            }
            if state.closed {
                return None;
            }
            state = self
                .signal
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        lock_clean(&self.state).closed = true;
        self.signal.notify_all();
    }
}

/// Monotonic counters of one device.
#[derive(Debug, Default)]
pub struct DeviceCounters {
    /// Tasks completed.
    pub tasks: AtomicU64,
    /// Wall-clock nanoseconds workers spent executing task bodies.
    pub busy_nanos: AtomicU64,
    /// Task bodies that panicked (caught on the worker; the submitter
    /// observes [`TaskError::Lost`]).
    pub panics: AtomicU64,
}

/// One simulated GPU: props + command queue + workers + on-board
/// memory arena + virtual-time cost accounting.
pub struct SimGpu {
    props: DeviceProps,
    queue: Arc<CommandQueue>,
    /// Spawned by the first [`SimGpu::submit`]: a device driven only
    /// through [`SimGpu::run_inline`] owns no thread.
    workers: OnceLock<Vec<std::thread::JoinHandle<()>>>,
    counters: Arc<DeviceCounters>,
    memory: Arc<Mutex<DeviceMemory>>,
    cost: CostModel,
    virtual_nanos: Arc<AtomicU64>,
    faults: FaultInjector,
}

/// Why a device task returned no result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskError {
    /// The task's result can never arrive: its body panicked (caught on
    /// the device worker) or the device was dropped with it queued.
    Lost,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Lost => write!(f, "task result lost"),
        }
    }
}

impl std::error::Error for TaskError {}

/// Completion handle of a submitted task.
#[must_use = "wait on the handle or the task result is lost"]
pub struct TaskHandle<R> {
    result: Receiver<R>,
}

impl<R> TaskHandle<R> {
    /// Block until the task finishes and return its result.
    ///
    /// # Panics
    /// Panics if the device was dropped with the task still queued or
    /// the task body panicked — fault-tolerant callers use
    /// [`TaskHandle::wait_result`] instead.
    pub fn wait(self) -> R {
        self.result.recv().expect("device dropped with task queued")
    }

    /// Block until the task finishes; [`TaskError::Lost`] if its result
    /// can never arrive (task panicked or device dropped).
    ///
    /// # Errors
    /// [`TaskError::Lost`] when the result channel disconnected.
    pub fn wait_result(self) -> Result<R, TaskError> {
        self.result.recv().map_err(|_| TaskError::Lost)
    }
}

impl SimGpu {
    /// Bring up a device: `props.concurrent_tasks` compute workers
    /// sharing one FIFO queue, started on first use of the queue.
    #[must_use]
    pub fn new(props: DeviceProps) -> SimGpu {
        SimGpu::with_faults(props, FaultPlan::default())
    }

    /// [`SimGpu::new`] with a fault-injection schedule attached: the
    /// device's [`FaultInjector`] executes `plan`, and the runtime
    /// above consults it at its launch/kernel/DMA fault points.
    #[must_use]
    pub fn with_faults(props: DeviceProps, plan: FaultPlan) -> SimGpu {
        let memory = Arc::new(Mutex::new(DeviceMemory::new(props.memory_bytes)));
        let cost = CostModel::from_props(&props);
        SimGpu {
            props,
            queue: Arc::new(CommandQueue::new()),
            workers: OnceLock::new(),
            counters: Arc::new(DeviceCounters::default()),
            memory,
            cost,
            virtual_nanos: Arc::new(AtomicU64::new(0)),
            faults: FaultInjector::new(plan),
        }
    }

    fn spawn_workers(&self) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.props.concurrent_tasks.max(1))
            .map(|w| {
                let queue = Arc::clone(&self.queue);
                std::thread::Builder::new()
                    .name(format!("{}-worker-{w}", self.props.name))
                    // Counters are charged inside the command itself (see
                    // `submit`) so they are visible by the time a
                    // submitter's `wait` returns.
                    .spawn(move || {
                        while let Some(cmd) = queue.pop() {
                            cmd();
                        }
                    })
                    .expect("spawn device worker")
            })
            .collect()
    }

    /// Device properties.
    #[must_use]
    pub fn props(&self) -> &DeviceProps {
        &self.props
    }

    /// The device's fault oracle (inert for fault-free devices). Clone
    /// it into kernel closures for in-body injection points.
    #[must_use]
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Completed-task count.
    #[must_use]
    pub fn tasks_completed(&self) -> u64 {
        self.counters.tasks.load(Ordering::Relaxed)
    }

    /// Task bodies that panicked (caught on the device worker).
    #[must_use]
    pub fn tasks_panicked(&self) -> u64 {
        self.counters.panics.load(Ordering::Relaxed)
    }

    /// Wall-clock seconds workers spent in task bodies.
    #[must_use]
    pub fn busy_seconds(&self) -> f64 {
        self.counters.busy_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Allocate `bytes` of on-board memory (like `cudaMalloc`).
    ///
    /// # Errors
    /// [`OutOfDeviceMemory`] when the arena cannot fit the request.
    pub fn malloc(&self, bytes: u64) -> Result<DevicePtr, OutOfDeviceMemory> {
        lock_clean(&self.memory).alloc(bytes)
    }

    /// Free an on-board allocation (like `cudaFree`).
    pub fn free(&self, ptr: DevicePtr) {
        lock_clean(&self.memory).free(ptr);
    }

    /// Bytes currently allocated on the device.
    #[must_use]
    pub fn memory_used(&self) -> u64 {
        lock_clean(&self.memory).used()
    }

    /// High-water mark of on-board allocation.
    #[must_use]
    pub fn memory_peak(&self) -> u64 {
        lock_clean(&self.memory).peak()
    }

    /// Charge the cost model for one task (launch + H2D + kernel + D2H)
    /// and return the charged virtual seconds. This is what the device
    /// *would* have taken on the modeled hardware, independent of host
    /// wall-clock.
    pub fn charge_task(&self, evals: u64, bytes_in: u64, bytes_out: u64) -> f64 {
        let t = self.cost.task_time(evals, bytes_in, bytes_out);
        self.virtual_nanos
            .fetch_add((t * 1e9) as u64, Ordering::Relaxed);
        t
    }

    /// [`SimGpu::charge_task`] with the per-component measurement kept:
    /// returns the kernel/DMA split plus how long the submission waited
    /// behind earlier charges on this device's virtual clock.
    /// `submitted_virtual_s` is the caller's read of
    /// [`SimGpu::virtual_busy_seconds`] at submission time; the wait is
    /// the virtual time other tasks charged between then and this
    /// settle, floored at zero.
    pub fn charge_task_measured(
        &self,
        evals: u64,
        bytes_in: u64,
        bytes_out: u64,
        submitted_virtual_s: f64,
    ) -> MeasuredCost {
        let mut m = self.cost.task_cost_measured(evals, bytes_in, bytes_out);
        let before_s = self.virtual_nanos.load(Ordering::Relaxed) as f64 * 1e-9;
        m.queue_wait_s = (before_s - submitted_virtual_s).max(0.0);
        self.virtual_nanos
            .fetch_add((m.device_s() * 1e9) as u64, Ordering::Relaxed);
        m
    }

    /// Total virtual seconds charged via [`SimGpu::charge_task`].
    #[must_use]
    pub fn virtual_busy_seconds(&self) -> f64 {
        self.virtual_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Enqueue `task`; returns a handle the caller can block on.
    pub fn submit<R, F>(&self, task: F) -> TaskHandle<R>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        self.workers.get_or_init(|| self.spawn_workers());
        let (tx, rx) = std::sync::mpsc::channel();
        self.queue.push(make_command(&self.counters, tx, task));
        TaskHandle { result: rx }
    }

    /// Run `task` as this device's work **on the calling thread**: the
    /// synchronous mode without the queue hop, for a caller that is the
    /// device's only driver and would block on the result anyway. The
    /// accounting is exactly a queued command's — busy time and task
    /// count charged, a panicking body caught and counted.
    ///
    /// # Errors
    /// [`TaskError::Lost`] when the task body panicked.
    pub fn run_inline<R>(&self, task: impl FnOnce() -> R) -> Result<R, TaskError> {
        run_accounted(&self.counters, task)
    }
}

/// Execute one task body as device work: charge counters, contain
/// panics. A panicking body must never kill the thread running it (a
/// dead device worker would silently stop the whole queue) — the panic
/// is caught, counted, and reported as [`TaskError::Lost`].
fn run_accounted<R>(counters: &DeviceCounters, task: impl FnOnce() -> R) -> Result<R, TaskError> {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(task));
    counters
        .busy_nanos
        .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    counters.tasks.fetch_add(1, Ordering::Relaxed);
    result.map_err(|_| {
        counters.panics.fetch_add(1, Ordering::Relaxed);
        TaskError::Lost
    })
}

/// Wrap a task into a queue command. The result travels back over `tx`;
/// a lost task drops `tx` unsent, so the submitter's wait observes the
/// disconnect as [`TaskError::Lost`].
fn make_command<R, F>(
    counters: &Arc<DeviceCounters>,
    tx: std::sync::mpsc::Sender<R>,
    task: F,
) -> Command
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    let counters = Arc::clone(counters);
    Box::new(move || {
        if let Ok(result) = run_accounted(&counters, task) {
            // The submitter may have given up waiting; that is fine.
            let _ = tx.send(result);
        }
    })
}

impl Drop for SimGpu {
    fn drop(&mut self) {
        // Close the queue, then join the workers (they drain what is
        // already queued first).
        self.queue.close();
        for w in self.workers.take().into_iter().flatten() {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fermi() -> DeviceProps {
        DeviceProps::tesla_c2075()
    }

    #[test]
    fn executes_submitted_work() {
        let gpu = SimGpu::new(fermi());
        let result = gpu.submit(|| 21 * 2).wait();
        assert_eq!(result, 42);
        assert_eq!(gpu.tasks_completed(), 1);
    }

    #[test]
    fn fermi_queue_is_fifo_and_serial() {
        let gpu = SimGpu::new(fermi());
        let log = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let log = Arc::clone(&log);
                gpu.submit(move || {
                    log.lock().unwrap().push(i);
                })
            })
            .collect();
        for h in handles {
            h.wait();
        }
        assert_eq!(*log.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn hyper_q_runs_tasks_concurrently() {
        let mut props = DeviceProps::tesla_k20();
        props.concurrent_tasks = 4;
        let gpu = SimGpu::new(props);
        let in_flight = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let in_flight = Arc::clone(&in_flight);
                let peak = Arc::clone(&peak);
                gpu.submit(move || {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.wait();
        }
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak >= 2, "expected concurrency, peak {peak}");
        assert!(peak <= 4, "bounded by worker count, peak {peak}");
    }

    #[test]
    fn counters_track_busy_time() {
        let gpu = SimGpu::new(fermi());
        gpu.submit(|| std::thread::sleep(std::time::Duration::from_millis(10)))
            .wait();
        assert!(gpu.busy_seconds() >= 0.009);
    }

    #[test]
    fn drop_drains_queued_tasks() {
        let flag = Arc::new(AtomicU64::new(0));
        {
            let gpu = SimGpu::new(fermi());
            for _ in 0..4 {
                let flag = Arc::clone(&flag);
                // Fire-and-forget handles: drop must still run the tasks.
                let _ = gpu.submit(move || {
                    flag.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop joins workers
        assert_eq!(flag.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn memory_and_cost_accounting() {
        let gpu = SimGpu::new(fermi());
        let a = gpu.malloc(1 << 20).unwrap();
        assert_eq!(gpu.memory_used(), 1 << 20);
        gpu.free(a);
        assert_eq!(gpu.memory_used(), 0);
        assert_eq!(gpu.memory_peak(), 1 << 20);

        let t = gpu.charge_task(1_000_000, 1024, 400_000);
        assert!(t > 0.0);
        assert!((gpu.virtual_busy_seconds() - t).abs() < 1e-6);
    }

    #[test]
    fn measured_charge_splits_components_and_tracks_queue_wait() {
        let gpu = SimGpu::new(fermi());
        let t0 = gpu.virtual_busy_seconds();
        let m1 = gpu.charge_task_measured(1_000_000, 1024, 4096, t0);
        assert!(m1.kernel_s > 0.0 && m1.dma_s > 0.0);
        assert_eq!(m1.queue_wait_s, 0.0, "idle device: no queue wait");
        // A second task submitted at the same timestamp waited behind
        // the first one's device seconds.
        let m2 = gpu.charge_task_measured(1_000_000, 1024, 4096, t0);
        assert!((m2.queue_wait_s - m1.device_s()).abs() < 1e-6);
        // The split sums to the plain cost model's end-to-end time.
        let whole = CostModel::from_props(gpu.props()).task_time(1_000_000, 1024, 4096);
        assert!((m1.device_s() - whole).abs() < 1e-12);
    }

    #[test]
    fn device_memory_exhaustion_surfaces() {
        let mut props = fermi();
        props.memory_bytes = 1024;
        let gpu = SimGpu::new(props);
        assert!(gpu.malloc(2048).is_err());
    }

    #[test]
    fn panicking_task_does_not_kill_the_worker() {
        let gpu = SimGpu::new(fermi());
        let h = gpu.submit(|| -> u32 { panic!("injected for test") });
        assert_eq!(h.wait_result(), Err(TaskError::Lost));
        assert_eq!(gpu.tasks_panicked(), 1);
        // The worker survived and serves later submissions.
        assert_eq!(gpu.submit(|| 7).wait(), 7);
    }

    #[test]
    fn run_inline_accounts_like_a_queued_command() {
        let gpu = SimGpu::new(fermi());
        let caller = std::thread::current().id();
        let ran_on = gpu.run_inline(|| std::thread::current().id());
        assert_eq!(ran_on, Ok(caller), "no thread hop");
        assert_eq!((gpu.tasks_completed(), gpu.tasks_panicked()), (1, 0));
        // A panicking body is contained on the caller, counted, and
        // reported exactly as a queued command's would be.
        let lost = gpu.run_inline(|| -> u32 { panic!("injected for test") });
        assert_eq!(lost, Err(TaskError::Lost));
        assert_eq!((gpu.tasks_completed(), gpu.tasks_panicked()), (2, 1));
        assert!(gpu.workers.get().is_none(), "inline work starts no worker");
        // The queued path still serves, sharing the same counters.
        assert_eq!(gpu.submit(|| 7).wait(), 7);
        assert_eq!(gpu.tasks_completed(), 3);
        assert_eq!(gpu.workers.get().map(Vec::len), Some(1));
    }

    #[test]
    fn faulted_device_exposes_its_injector() {
        use crate::fault::{FaultKind, FaultOp};
        let plan = FaultPlan::default().fire_at(FaultOp::Launch, 0, FaultKind::LaunchError);
        let gpu = SimGpu::with_faults(fermi(), plan);
        assert!(gpu.faults().check_launch().is_err());
        assert!(gpu.faults().check_launch().is_ok());
    }

    #[test]
    fn results_route_to_the_right_handle() {
        let gpu = SimGpu::new(fermi());
        let handles: Vec<_> = (0..10).map(|i| gpu.submit(move || i * i)).collect();
        let results: Vec<i32> = handles.into_iter().map(TaskHandle::wait).collect();
        assert_eq!(results, vec![0, 1, 4, 9, 16, 25, 36, 49, 64, 81]);
    }
}
