#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! A thin asynchronous job front-end over [`dv_core::PoolingEngine`].
//!
//! The simulator itself is a synchronous library: build an engine, call
//! `maxpool_forward`, get a tensor and counters back. This crate wraps
//! that in a std-only worker pool so a host process can *queue* pooling
//! jobs — each with its own shape, algorithm, core count, and execution
//! [`Backend`] — and collect results as they complete:
//!
//! ```
//! use dv_serve::{JobOp, JobSpec, Server};
//! use dv_core::ForwardImpl;
//! use dv_tensor::{Nc1hwc0, PoolParams};
//! use dv_fp16::F16;
//!
//! let input = Nc1hwc0::from_fn(1, 1, 8, 8, |_, _, h, w, c0| {
//!     F16::from_f32((h * 8 + w + c0) as f32)
//! });
//! let server = Server::new(2);
//! let handle = server.submit(JobSpec::new(
//!     input,
//!     PoolParams::K3S2,
//!     JobOp::MaxForward(ForwardImpl::Im2col),
//! ));
//! let result = handle.wait().unwrap();
//! assert_eq!(result.output.h, 3);
//! assert!(result.total.total_issues() > 0);
//! ```
//!
//! Two layers of parallelism compose here: the pool runs *queued jobs*
//! concurrently on separate worker threads, and each job's chip runs its
//! *cores* in parallel whenever the job selects [`Backend::Threaded`]
//! (the default). Because every backend is bit-identical, a job's
//! results do not depend on which backend or how many workers ran it —
//! only the wall-clock time does.
//!
//! The pool is deliberately plain `std`: a [`Mutex`]-guarded
//! [`VecDeque`] fed through a [`Condvar`], with one [`mpsc`] channel per
//! job carrying the result back to its [`JobHandle`]. No executor, no
//! futures — `wait` blocks, `poll` doesn't.

use dv_core::{ForwardImpl, MergeImpl, PoolingEngine, RunError};
use dv_sim::{Backend, Chip, HwCounters, Trace, TraceConfig};
use dv_tensor::{Nc1hwc0, PatchTensor, PoolParams};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Which pooling operator a job runs.
#[derive(Clone, Debug)]
pub enum JobOp {
    /// MaxPool forward with the given lowering.
    MaxForward(ForwardImpl),
    /// MaxPool forward that also returns the argmax mask (the input a
    /// later [`JobOp::MaxBackward`] needs).
    MaxForwardArgmax(ForwardImpl),
    /// AvgPool forward with the given lowering.
    AvgForward(ForwardImpl),
    /// MaxPool backward: scatter `gradients` through `mask` back to the
    /// input shape (the job's `input` supplies that shape; its values
    /// are not read).
    MaxBackward {
        /// Merge lowering (scattered `vadd` vs `Col2Im`).
        merge: MergeImpl,
        /// Argmax mask from the matching forward pass.
        mask: PatchTensor,
        /// Upstream gradients, one per pooled output element.
        gradients: Nc1hwc0,
    },
    /// AvgPool backward: spread `gradients` uniformly over each window.
    AvgBackward {
        /// Merge lowering (scattered `vadd` vs `Col2Im`).
        merge: MergeImpl,
        /// Upstream gradients, one per pooled output element.
        gradients: Nc1hwc0,
    },
}

/// A complete description of one queued job.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Input tensor (for backward ops only its shape is used).
    pub input: Nc1hwc0,
    /// Pooling window geometry.
    pub params: PoolParams,
    /// Operator and lowering.
    pub op: JobOp,
    /// Simulated cores on the job's chip: at least one ([`run_job`]
    /// refuses zero with [`ServeError::NoCores`]).
    pub cores: usize,
    /// Host execution backend for the job's chip.
    pub backend: Backend,
    /// Record per-instruction traces (costs host time and memory).
    pub trace: bool,
    /// Let the engine's cost-model partitioner shard the job across the
    /// chip's cores — including sub-plane backward shards merged through
    /// halo-aware GM declarations. Off by default: a sharded run is
    /// bit-identical, so this only changes the cycle numbers.
    pub sharding: bool,
}

impl JobSpec {
    /// A job with the default chip shape: 2 cores, the default
    /// (threaded) backend, no tracing.
    pub fn new(input: Nc1hwc0, params: PoolParams, op: JobOp) -> JobSpec {
        JobSpec {
            input,
            params,
            op,
            cores: 2,
            backend: Backend::default(),
            trace: false,
            sharding: false,
        }
    }

    /// Builder: set the simulated core count.
    pub fn with_cores(mut self, cores: usize) -> JobSpec {
        self.cores = cores;
        self
    }

    /// Builder: set the host execution backend.
    pub fn with_backend(mut self, backend: Backend) -> JobSpec {
        self.backend = backend;
        self
    }

    /// Builder: enable per-instruction tracing.
    pub fn with_trace(mut self, trace: bool) -> JobSpec {
        self.trace = trace;
        self
    }

    /// Builder: let the engine shard the job across its simulated cores
    /// (see [`JobSpec::sharding`]).
    pub fn with_sharding(mut self, sharding: bool) -> JobSpec {
        self.sharding = sharding;
        self
    }
}

/// What a finished job hands back.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The server-assigned job id (matches [`JobHandle::id`]).
    pub job_id: u64,
    /// The operator's output tensor (pooled map, or the scattered
    /// gradient for backward ops).
    pub output: Nc1hwc0,
    /// The argmax mask ([`JobOp::MaxForwardArgmax`] only).
    pub mask: Option<PatchTensor>,
    /// Hardware counters per simulated core.
    pub per_core: Vec<HwCounters>,
    /// Summed counters across cores.
    pub total: HwCounters,
    /// Chip-level simulated cycles (max over cores).
    pub cycles: u64,
    /// Per-core instruction traces (empty unless the spec set `trace`).
    pub traces: Vec<Trace>,
}

/// Why a job produced no result.
#[derive(Debug)]
pub enum ServeError {
    /// The job asks for a chip with zero simulated cores.
    NoCores,
    /// The engine rejected or failed the job.
    Run(RunError),
    /// The job panicked; carries the panic message. The worker that ran
    /// it survives and serves the next job.
    Panicked(String),
    /// The server shut down (or its worker died) before the job ran.
    Cancelled,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoCores => write!(f, "job asks for a chip with zero cores"),
            ServeError::Run(e) => write!(f, "job failed: {e}"),
            ServeError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            ServeError::Cancelled => write!(f, "job cancelled before completion"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<RunError> for ServeError {
    fn from(e: RunError) -> Self {
        ServeError::Run(e)
    }
}

/// A claim on one submitted job's eventual result.
pub struct JobHandle {
    id: u64,
    rx: mpsc::Receiver<Result<JobResult, ServeError>>,
}

impl JobHandle {
    /// The server-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the job completes.
    pub fn wait(self) -> Result<JobResult, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Cancelled))
    }

    /// Non-blocking check: `None` while the job is still queued or
    /// running, `Some` exactly once when it finishes.
    pub fn poll(&self) -> Option<Result<JobResult, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Cancelled)),
        }
    }
}

struct Job {
    id: u64,
    spec: JobSpec,
    tx: mpsc::Sender<Result<JobResult, ServeError>>,
}

/// How a worker runs one job: [`run_job`] outside tests.
type JobRunner = fn(u64, &JobSpec) -> Result<JobResult, ServeError>;

struct State {
    queue: VecDeque<Job>,
    open: bool,
    next_id: u64,
}

struct Inner {
    state: Mutex<State>,
    cond: Condvar,
}

/// A fixed pool of worker threads draining a shared job queue.
///
/// A job that panics resolves to [`ServeError::Panicked`] and its worker
/// lives on. Dropping the server closes the queue and joins the workers;
/// jobs already queued are still drained first (graceful shutdown), so
/// every issued [`JobHandle`] resolves with the job's own outcome.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Spawn a pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Server {
        Server::with_runner(workers, run_job)
    }

    fn with_runner(workers: usize, run: JobRunner) -> Server {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                open: true,
                next_id: 0,
            }),
            cond: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner, run))
            })
            .collect();
        Server {
            inner,
            workers: handles,
        }
    }

    /// Queue a job; returns immediately with a handle to its result.
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        let (tx, rx) = mpsc::channel();
        let mut state = self.inner.state.lock().expect("serve queue poisoned");
        let id = state.next_id;
        state.next_id += 1;
        state.queue.push_back(Job { id, spec, tx });
        drop(state);
        self.inner.cond.notify_one();
        JobHandle { id, rx }
    }

    /// Jobs queued but not yet claimed by a worker.
    pub fn pending(&self) -> usize {
        self.inner
            .state
            .lock()
            .expect("serve queue poisoned")
            .queue
            .len()
    }

    /// Close the queue and join the workers after they drain it.
    /// Equivalent to dropping the server, but explicit at call sites.
    pub fn shutdown(self) {}
}

impl Drop for Server {
    fn drop(&mut self) {
        {
            let mut state = self.inner.state.lock().expect("serve queue poisoned");
            state.open = false;
        }
        self.inner.cond.notify_all();
        for h in self.workers.drain(..) {
            // Jobs cannot kill a worker, but should one die anyway its
            // job senders are dropped and the matching handles resolve
            // to Cancelled.
            let _ = h.join();
        }
    }
}

fn worker_loop(inner: &Inner, run: JobRunner) {
    loop {
        let job = {
            let mut state = inner.state.lock().expect("serve queue poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if !state.open {
                    return;
                }
                state = inner.cond.wait(state).expect("serve queue poisoned");
            }
        };
        // A panic ends the job, not the worker: it travels back as a
        // typed error carrying the panic message.
        let result = match std::panic::catch_unwind(|| run(job.id, &job.spec)) {
            Ok(r) => r,
            Err(payload) => Err(ServeError::Panicked(panic_message(payload.as_ref()))),
        };
        // Send failures mean the handle was dropped — the job's result
        // is unwanted, not an error.
        let _ = job.tx.send(result);
    }
}

/// The message a panic was raised with.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|msg| msg.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a panic without a message".to_string())
}

/// Run one job synchronously on a fresh engine. Exposed so callers can
/// bypass the queue (and so tests can diff queued results against
/// direct ones). A job with `cores == 0` is refused with
/// [`ServeError::NoCores`].
pub fn run_job(job_id: u64, spec: &JobSpec) -> Result<JobResult, ServeError> {
    if spec.cores == 0 {
        return Err(ServeError::NoCores);
    }
    let chip =
        Chip::new(spec.cores, dv_sim::CostModel::ascend910_like()).with_backend(spec.backend);
    let mut engine = PoolingEngine::new(chip).with_sharding(spec.sharding);
    if spec.trace {
        engine = engine.with_trace(TraceConfig::ON);
    }
    let (output, mask, run) = match &spec.op {
        JobOp::MaxForward(impl_) => {
            let (out, run) = engine.maxpool_forward(&spec.input, spec.params, *impl_)?;
            (out, None, run)
        }
        JobOp::MaxForwardArgmax(impl_) => {
            let (out, mask, run) =
                engine.maxpool_forward_with_argmax(&spec.input, spec.params, *impl_)?;
            (out, Some(mask), run)
        }
        JobOp::AvgForward(impl_) => {
            let (out, run) = engine.avgpool_forward(&spec.input, spec.params, *impl_)?;
            (out, None, run)
        }
        JobOp::MaxBackward {
            merge,
            mask,
            gradients,
        } => {
            let (dx, run) = engine.maxpool_backward(
                mask,
                gradients,
                spec.params,
                spec.input.h,
                spec.input.w,
                *merge,
            )?;
            (dx, None, run)
        }
        JobOp::AvgBackward { merge, gradients } => {
            let (dx, run) = engine.avgpool_backward(
                gradients,
                spec.params,
                spec.input.h,
                spec.input.w,
                *merge,
            )?;
            (dx, None, run)
        }
    };
    Ok(JobResult {
        job_id,
        output,
        mask,
        per_core: run.per_core,
        total: run.total,
        cycles: run.cycles,
        traces: run.traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dv_fp16::F16;
    use std::time::{Duration, Instant};

    fn panics_on_job_0(job_id: u64, spec: &JobSpec) -> Result<JobResult, ServeError> {
        assert_ne!(job_id, 0, "job 0 always panics");
        run_job(job_id, spec)
    }

    /// Poll a handle until it resolves, failing after 30 s instead of
    /// hanging.
    fn resolve(handle: &JobHandle) -> Result<JobResult, ServeError> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(r) = handle.poll() {
                return r;
            }
            assert!(
                Instant::now() < deadline,
                "job {} never resolved",
                handle.id()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_panicking_job_fails_typed_and_keeps_its_worker() {
        let input = Nc1hwc0::from_fn(1, 1, 8, 8, |_, _, h, w, c0| {
            F16::from_f32((h * 8 + w + c0) as f32)
        });
        let spec = JobSpec::new(
            input,
            PoolParams::K3S2,
            JobOp::MaxForward(ForwardImpl::Im2col),
        );
        let server = Server::with_runner(1, panics_on_job_0);
        let first = server.submit(spec.clone());
        let second = server.submit(spec.clone());
        match resolve(&first) {
            Err(ServeError::Panicked(msg)) => assert!(msg.contains("job 0 always panics"), "{msg}"),
            other => panic!("expected a typed panic, got {other:?}"),
        }
        let got = resolve(&second).expect("the worker survived");
        let want = run_job(1, &spec).expect("runs");
        assert_eq!(got.job_id, 1);
        assert_eq!(got.output, want.output);
        assert_eq!(got.cycles, want.cycles);
        assert_eq!(got.per_core, want.per_core);
        assert_eq!(got.total, want.total);
    }
}
