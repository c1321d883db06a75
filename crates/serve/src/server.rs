//! The serving loop: listener, a capped handler pool, and a supervised
//! worker pool.
//!
//! One thread accepts connections and feeds them to a **fixed pool of
//! handler threads** through a bounded connection queue — when the pool
//! and its backlog are saturated, new connections get a quick `503` and
//! a close instead of an unbounded thread spawn. Connections are
//! HTTP/1.1 keep-alive with per-connection read/write timeouts: an idle
//! peer is closed cleanly, a peer that stalls mid-request is dropped.
//!
//! Handlers never execute simulations: a `POST /jobs` submission is
//! validated, checked against the result cache **and the in-flight
//! table** (single-flight: duplicate submissions of the same digest
//! join the running execution instead of re-running it), and — on a
//! miss — pushed into the bounded queue with a reply channel. When the
//! queue is full the submission is refused *immediately* with `429` and
//! `Retry-After`; nothing buffers without bound.
//!
//! Workers run under **supervisors**: a worker that panics outside the
//! per-job `catch_unwind` (the chaos plane injects exactly that) is
//! respawned, its orphaned job is recovered and re-executed by the
//! replacement (immune to further injected panics, so progress is
//! guaranteed), and the restart is counted in `/metrics`.
//!
//! With `--chaos`, a [`FaultPlan`] is consulted at the seams marked
//! `chaos seam` below. With `--cache-dir`, the result cache is
//! crash-safe (see [`crate::persist`]).

use std::fs;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use recon_isa::hash::FxHashMap;
use recon_sim::ckpt;

use crate::cache::{ResultCache, DEFAULT_CAPACITY};
use crate::chaos::{garbage_bytes, FaultPlan, FaultSite, ResponseFault};
use crate::http::{read_request, render_response, Request};
use crate::job::{self, CkptPlan, JobError, JobOutput, JobSpec};
use crate::json::{escape, parse, Json};
use crate::metrics::Metrics;
use crate::queue::{lock_ignore_poison, BoundedQueue, PushError};

/// Most specs accepted in one `POST /jobs/batch` submission.
pub const MAX_BATCH: usize = 64;

/// Server configuration (the `recon serve` flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7090`. Port 0 binds an ephemeral
    /// port (the bound address is reported by [`Server::addr`]).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded queue capacity (submissions beyond it get `429`).
    pub queue_cap: usize,
    /// Connection-handler threads (connections beyond the pool and its
    /// equal-sized backlog get a quick `503`).
    pub handler_cap: usize,
    /// Per-connection read timeout: idle keep-alive connections are
    /// closed cleanly after this long; a peer stalling mid-request is
    /// dropped.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Chaos spec (`<seed>[,<site>=<permil>]...`, see
    /// [`FaultPlan::parse`]). `None` serves faithfully.
    pub chaos: Option<String>,
    /// Directory for crash-safe cache persistence. `None` keeps the
    /// cache in memory only.
    ///
    /// With a directory, `run` jobs also write resumable simulation
    /// checkpoints there: a killed server re-enqueues orphaned jobs at
    /// startup and resumes them from their last checkpoint.
    pub cache_dir: Option<PathBuf>,
    /// Simulation-checkpoint cadence for `run` jobs, in simulated
    /// cycles (only effective with `cache_dir`).
    pub checkpoint_every_cycles: u64,
    /// Cluster node identity. When set, every `/metrics` sample line
    /// carries a `node="<id>"` label so a gateway dashboard can sum
    /// gauges across nodes.
    pub node_id: Option<String>,
}

/// Default checkpoint cadence for served `run` jobs.
pub const DEFAULT_CKPT_EVERY: u64 = 250_000;

/// Checkpoints retained per running job (keep-latest-N GC).
const CKPT_KEEP: usize = 2;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7090".to_string(),
            workers: std::thread::available_parallelism().map_or(2, |n| n.get().min(8)),
            queue_cap: 16,
            handler_cap: 32,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            chaos: None,
            cache_dir: None,
            checkpoint_every_cycles: DEFAULT_CKPT_EVERY,
            node_id: None,
        }
    }
}

/// How `POST /shutdown` winds the service down.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ShutdownMode {
    /// Stop accepting work, drain the queue, answer everything queued.
    Graceful,
    /// Also raise the cancel flag and fail queued/running jobs fast.
    Abort,
}

type JobResult = Result<JobOutput, JobError>;

/// One queued unit of work (opaque outside this module; exposed only
/// so [`Shared`] can name its queue's element type).
#[derive(Clone)]
pub struct QueuedJob {
    spec: JobSpec,
    digest: u64,
    enqueued: Instant,
    reply: mpsc::Sender<JobResult>,
}

/// State shared by the accept loop, handlers, and workers.
pub struct Shared {
    /// The bounded admission queue.
    pub queue: BoundedQueue<QueuedJob>,
    /// Live counters and histograms (`GET /metrics`).
    pub metrics: Metrics,
    /// The content-addressed result cache.
    pub cache: ResultCache,
    /// The chaos plane (a quiet plan when `--chaos` is not given).
    pub chaos: FaultPlan,
    /// Checkpoint plan for `run` jobs (`Some` when `cache_dir` is set).
    pub ckpt: Option<CkptPlan>,
    /// Digests currently executing, with the reply channels of
    /// duplicate submissions that joined them (single-flight).
    inflight: Mutex<FxHashMap<u64, Vec<mpsc::Sender<JobResult>>>>,
    /// Cluster node identity (labels `/metrics` output).
    node_id: Option<String>,
    shutting_down: AtomicBool,
    cancel: Arc<AtomicBool>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("queue", &self.queue)
            .field("cache", &self.cache)
            .field("chaos", &self.chaos)
            .field("shutting_down", &self.shutting_down.load(Ordering::Relaxed))
            .finish()
    }
}

impl std::fmt::Debug for QueuedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuedJob")
            .field("spec", &self.spec)
            .field("digest", &self.digest)
            .finish()
    }
}

/// A running `recon serve` instance.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    supervisors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the accept loop, the handler pool,
    /// and the supervised worker pool.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the address or opening the cache
    /// directory; `InvalidInput` for a malformed chaos spec.
    pub fn start(config: &ServeConfig) -> io::Result<Server> {
        job::set_scale(recon_workloads::Scale::from_env());
        let chaos = match &config.chaos {
            None => FaultPlan::quiet(0),
            Some(spec) => FaultPlan::parse(spec)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
        };
        let cache = match &config.cache_dir {
            None => ResultCache::new(DEFAULT_CAPACITY),
            Some(dir) => ResultCache::with_persistence(DEFAULT_CAPACITY, dir)?,
        };
        let recovery = cache.recovery();

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_cap),
            metrics: Metrics::default(),
            cache,
            chaos,
            ckpt: config.cache_dir.as_ref().map(|dir| CkptPlan {
                dir: Some(dir.clone()),
                cadence: config.checkpoint_every_cycles.max(1),
                keep: CKPT_KEEP,
            }),
            inflight: Mutex::new(FxHashMap::default()),
            node_id: config.node_id.clone(),
            shutting_down: AtomicBool::new(false),
            cancel: Arc::new(AtomicBool::new(false)),
        });
        shared.metrics.cache_recovered.add(recovery.recovered);
        shared.metrics.cache_dropped_records.add(recovery.dropped);
        if recovery.recovered > 0 || recovery.dropped > 0 {
            println!(
                "cache recovery: {} entries restored, {} corrupt tail records dropped ({} bytes truncated)",
                recovery.recovered, recovery.dropped, recovery.truncated_bytes
            );
        }
        if let Some(dir) = &config.cache_dir {
            recover_orphans(&shared, dir);
        }

        let supervisors = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("recon-supervisor-{i}"))
                    .spawn(move || supervise_worker(i, &shared))
                    .expect("spawn supervisor")
            })
            .collect();

        let conns = Arc::new(BoundedQueue::new(config.handler_cap.max(1)));
        let handlers = (0..config.handler_cap.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let conns = Arc::clone(&conns);
                let timeouts = (config.read_timeout, config.write_timeout);
                std::thread::Builder::new()
                    .name(format!("recon-conn-{i}"))
                    .spawn(move || {
                        while let Some(stream) = conns.pop() {
                            let _ = handle_connection(stream, &shared, Some(addr), timeouts);
                        }
                    })
                    .expect("spawn handler")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("recon-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &conns))
                .expect("spawn accept loop")
        };

        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            handlers,
            supervisors,
        })
    }

    /// The actual bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for in-process inspection in tests.
    #[must_use]
    pub fn shared(&self) -> &Shared {
        &self.shared
    }

    /// Blocks until a `POST /shutdown` stops the service, then joins
    /// the accept loop, the handler pool, and every worker supervisor.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.handlers.drain(..) {
            let _ = h.join();
        }
        for h in self.supervisors.drain(..) {
            let _ = h.join();
        }
    }
}

/// Startup orphan recovery: a killed server leaves checkpoints (but no
/// cached result) for every job that was mid-flight. Each one is
/// re-enqueued from the spec embedded in its checkpoint meta, so the
/// replacement workers resume it from its last checkpoint instead of
/// cycle zero. No job is running yet, so corrupt files are necessarily
/// torn leftovers — dropped and counted, never trusted.
fn recover_orphans(shared: &Arc<Shared>, dir: &Path) {
    let Ok(scan) = ckpt::scan(dir) else { return };
    for path in &scan.corrupt {
        if fs::remove_file(path).is_ok() {
            shared.metrics.checkpoints_dropped_corrupt.inc();
        }
    }
    // Stale atomic-write temps (a kill between write and rename) are
    // litter — no job is running yet, so all of them can go.
    if let Ok(rd) = fs::read_dir(dir) {
        for e in rd.filter_map(Result::ok) {
            let p = e.path();
            if p.extension().is_some_and(|x| x == "tmp") {
                let _ = fs::remove_file(&p);
            }
        }
    }
    // `scan.valid` is newest-first; the first checkpoint seen per digest
    // is the one a resume would pick.
    let mut seen = std::collections::HashSet::new();
    for (_, ck) in &scan.valid {
        if !seen.insert(ck.config_digest) || ck.meta("kind") != Some("serve-job") {
            continue;
        }
        if shared.cache.get(ck.config_digest).is_some() {
            // Completed job with stale checkpoints (e.g. killed between
            // the cache insert and the checkpoint cleanup).
            let _ = ckpt::delete_for_digest(dir, ck.config_digest);
            continue;
        }
        let Some(spec) = ck
            .meta("spec")
            .and_then(|s| parse(s).ok())
            .and_then(|v| JobSpec::from_json(&v).ok())
        else {
            continue;
        };
        // Re-enqueue with a dead reply channel: no client is waiting,
        // but the in-flight entry lets a resubmission join the resumed
        // execution, and completion lands in the (persistent) cache.
        let mut inflight = lock_ignore_poison(&shared.inflight);
        if inflight.contains_key(&ck.config_digest) {
            continue;
        }
        let (tx, _rx) = mpsc::channel();
        match shared.queue.try_push(QueuedJob {
            spec,
            digest: ck.config_digest,
            enqueued: Instant::now(),
            reply: tx,
        }) {
            Ok(()) => {
                inflight.insert(ck.config_digest, Vec::new());
                shared.metrics.jobs_queued.inc();
                shared.metrics.jobs_inflight.inc();
                println!(
                    "resuming orphaned job {:016x} from checkpoint at cycle {}",
                    ck.config_digest, ck.cycle
                );
            }
            // Queue full or closed: remaining orphans stay on disk and
            // resume when resubmitted (or at the next restart).
            Err(_) => break,
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, conns: &Arc<BoundedQueue<TcpStream>>) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        match conns.try_push_or_return(stream) {
            Ok(()) => {}
            Err((mut stream, PushError::Full)) => {
                // The handler pool and its backlog are saturated:
                // refuse fast instead of growing without bound.
                shared.metrics.conns_rejected.inc();
                let _ = stream.write_all(&render_response(
                    503,
                    &[("Retry-After", "1".to_string())],
                    "application/json",
                    error_body("overloaded", "connection backlog full; retry later").as_bytes(),
                    true,
                ));
            }
            Err((_, PushError::Closed)) => break,
        }
    }
    conns.close();
}

fn supervise_worker(index: usize, shared: &Arc<Shared>) {
    // The orphan slot: a worker that is about to take an injected panic
    // parks its job here; the replacement worker picks it up first.
    let orphan: Arc<Mutex<Option<QueuedJob>>> = Arc::new(Mutex::new(None));
    loop {
        let initial = lock_ignore_poison(&orphan).take();
        let worker = {
            let shared = Arc::clone(shared);
            let orphan = Arc::clone(&orphan);
            std::thread::Builder::new()
                .name(format!("recon-worker-{index}"))
                .spawn(move || worker_loop(&shared, &orphan, initial))
                .expect("spawn worker")
        };
        match worker.join() {
            // Clean exit: the queue closed. The supervisor's job is done.
            Ok(()) => return,
            // The worker died. Count the restart and respawn; the
            // orphaned job (if any) is recovered on the next iteration
            // and executed immune to further injected panics, so the
            // supervisor always makes progress.
            Err(_) => shared.metrics.worker_restarts.inc(),
        }
    }
}

fn worker_loop(
    shared: &Arc<Shared>,
    orphan: &Arc<Mutex<Option<QueuedJob>>>,
    initial: Option<QueuedJob>,
) {
    let mut recovered = initial;
    loop {
        let (job, immune) = match recovered.take() {
            Some(job) => (job, true),
            None => match shared.queue.pop() {
                Some(job) => (job, false),
                None => return,
            },
        };
        if !immune {
            // chaos seam: worker panic mid-job. The job is parked in
            // the orphan slot first, so the supervisor's replacement
            // worker recovers it — the client never observes the crash.
            if shared.chaos.decide(FaultSite::WorkerPanic, job.digest) {
                *lock_ignore_poison(orphan) = Some(job);
                panic!("chaos: injected worker panic");
            }
            // chaos seam: artificial job latency.
            let lat = shared.chaos.latency(job.digest);
            if !lat.is_zero() {
                std::thread::sleep(lat);
            }
        }
        run_one(shared, &job);
    }
}

/// Executes one job and notifies the submitter plus every single-flight
/// joiner. The cache insert happens **before** the in-flight entry is
/// removed, so a resubmission that finds no in-flight entry is
/// guaranteed to find the cached result instead — a retried job is
/// never double-executed.
fn run_one(shared: &Arc<Shared>, job: &QueuedJob) {
    shared.metrics.jobs_running.inc();
    let cancel = Arc::clone(&shared.cancel);
    let exec_started = Instant::now();
    let (result, ckpt_info) = catch_unwind(AssertUnwindSafe(|| {
        job::execute_ckpt(&job.spec, Some(&cancel), shared.ckpt.as_ref())
    }))
    .unwrap_or_else(|_| {
        (
            Err(JobError::Failed(
                "job panicked (worker pool intact)".to_string(),
            )),
            None,
        )
    });
    shared.metrics.jobs_running.dec();
    if let Some(info) = ckpt_info {
        shared
            .metrics
            .checkpoints_written
            .add(info.checkpoints_written);
        if info.resumed_from_cycle.is_some() {
            shared.metrics.checkpoints_resumed.inc();
        }
        shared
            .metrics
            .checkpoints_dropped_corrupt
            .add(info.dropped_corrupt);
        shared.metrics.checkpoints_gc_deleted.add(info.gc_deleted);
    }
    // chaos seam: the newest checkpoint this job left on disk is torn,
    // as if the process died mid-write — recovery (here at the next
    // resume, or at startup) must drop it without changing any response
    // byte.
    if let Some(dir) = shared.ckpt.as_ref().and_then(|p| p.dir.as_deref()) {
        if shared.chaos.decide(FaultSite::CkptTorn, job.digest) {
            tear_newest_checkpoint(dir, job.digest);
        }
    }
    shared
        .metrics
        .observe_latency(job.spec.kind, job.enqueued.elapsed().as_secs_f64());
    match &result {
        Ok(out) => {
            shared.metrics.jobs_completed.inc();
            shared.metrics.trace_ring_dropped.add(out.trace_dropped);
            shared.metrics.sim_instructions.add(out.instructions);
            shared
                .metrics
                .sim_exec_micros
                .add(exec_started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            shared
                .cache
                .insert(job.digest, Arc::new(out.payload.clone()));
        }
        Err(JobError::DeadlineExceeded { .. }) => shared.metrics.jobs_deadline.inc(),
        Err(JobError::Stalled { .. }) => shared.metrics.stalls_detected.inc(),
        Err(JobError::AuditViolated { .. }) => shared.metrics.audit_violations.inc(),
        Err(JobError::Cancelled) => shared.metrics.jobs_cancelled.inc(),
        Err(JobError::Invalid(_) | JobError::Failed(_)) => shared.metrics.jobs_failed.inc(),
    }
    notify(shared, job, &result);
}

/// Removes the job's in-flight entry and fans the result out to the
/// submitter and every joiner. A failed send means that client gave up
/// (disconnected) — not an error.
/// Truncates the newest on-disk checkpoint of `digest` to half its
/// bytes (the chaos plane's torn-checkpoint injection).
fn tear_newest_checkpoint(dir: &Path, digest: u64) {
    let Ok(scan) = ckpt::scan(dir) else { return };
    if let Some((path, _)) = scan.latest_for(digest) {
        if let Ok(bytes) = fs::read(path) {
            let _ = fs::write(path, &bytes[..bytes.len() / 2]);
        }
    }
}

fn notify(shared: &Arc<Shared>, job: &QueuedJob, result: &JobResult) {
    let waiters = lock_ignore_poison(&shared.inflight)
        .remove(&job.digest)
        .unwrap_or_default();
    shared.metrics.jobs_inflight.dec();
    let _ = job.reply.send(result.clone());
    for w in waiters {
        let _ = w.send(result.clone());
    }
}

fn error_body(kind: &str, message: &str) -> String {
    format!(
        "{{\"error\":\"{kind}\",\"message\":\"{}\"}}",
        escape(message)
    )
}

/// Whether the connection stays open after a response.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ConnOutcome {
    Keep,
    Close,
}

/// Writes a rendered response and flushes.
fn send(
    writer: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, String)],
    content_type: &str,
    body: &[u8],
    close: bool,
) -> io::Result<ConnOutcome> {
    writer.write_all(&render_response(
        status,
        extra_headers,
        content_type,
        body,
        close,
    ))?;
    writer.flush()?;
    Ok(if close {
        ConnOutcome::Close
    } else {
        ConnOutcome::Keep
    })
}

fn handle_connection(
    stream: TcpStream,
    shared: &Arc<Shared>,
    self_addr: Option<SocketAddr>,
    (read_timeout, write_timeout): (Duration, Duration),
) -> io::Result<()> {
    stream.set_read_timeout(Some(read_timeout.max(Duration::from_millis(1))))?;
    stream.set_write_timeout(Some(write_timeout.max(Duration::from_millis(1))))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    // Keep-alive loop: one iteration per exchange. `Ok(None)` from the
    // reader is a clean end (peer closed, or sat idle past the read
    // timeout); a framing error gets a best-effort 400 and a close —
    // the server never hangs on, or propagates, malformed bytes.
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()),
            Err(_) => {
                let body = error_body("malformed_request", "unparseable HTTP request");
                let _ = send(
                    &mut writer,
                    400,
                    &[],
                    "application/json",
                    body.as_bytes(),
                    true,
                );
                return Ok(());
            }
        };
        let close = req.wants_close() || shared.shutting_down.load(Ordering::SeqCst);
        let outcome = route(&req, &mut writer, shared, self_addr, close)?;
        if close || outcome == ConnOutcome::Close {
            return Ok(());
        }
    }
}

fn route(
    req: &Request,
    writer: &mut impl Write,
    shared: &Arc<Shared>,
    self_addr: Option<SocketAddr>,
    close: bool,
) -> io::Result<ConnOutcome> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => send(
            writer,
            200,
            &[],
            "application/json",
            b"{\"status\":\"ok\"}",
            close,
        ),
        ("GET", "/metrics") => {
            let mut body = shared.metrics.render(
                shared.queue.len(),
                shared.queue.capacity(),
                shared.node_id.as_deref(),
            );
            body.push_str(&shared.chaos.render_metrics());
            send(
                writer,
                200,
                &[],
                "text/plain; version=0.0.4",
                body.as_bytes(),
                close,
            )
        }
        ("GET", "/workloads") => send(
            writer,
            200,
            &[],
            "application/json",
            crate::job::workloads_payload().as_bytes(),
            close,
        ),
        ("POST", "/jobs") => handle_job(req, writer, shared, close),
        ("POST", "/jobs/batch") => handle_batch(req, writer, shared, close),
        ("POST", "/migrate") => handle_migrate(req, writer, shared, close),
        ("POST", "/cache") => handle_cache_put(req, writer, shared, close),
        ("POST", "/drain") => handle_drain(req, writer, shared, self_addr),
        ("POST", "/shutdown") => handle_shutdown(req, writer, shared, self_addr),
        ("GET" | "POST", _) => send(
            writer,
            404,
            &[],
            "application/json",
            error_body("not_found", &req.path).as_bytes(),
            close,
        ),
        _ => send(
            writer,
            405,
            &[],
            "application/json",
            error_body("method_not_allowed", &req.method).as_bytes(),
            close,
        ),
    }
}

/// How a submission was admitted.
enum Submit {
    /// Served from the result cache.
    CacheHit(Arc<String>),
    /// Enqueued; the receiver yields the execution's result.
    Enqueued(mpsc::Receiver<JobResult>),
    /// Joined an identical in-flight execution (single-flight).
    Joined(mpsc::Receiver<JobResult>),
    /// Refused: queue at capacity.
    Full,
    /// Refused: shutting down.
    Closed,
}

/// Admission control for one validated spec. Cache, in-flight table,
/// and enqueue are checked under one lock so a digest is never executed
/// twice concurrently, and a completed execution is always visible
/// (cache insert happens before the in-flight entry is removed).
fn submit(shared: &Arc<Shared>, spec: JobSpec, digest: u64) -> Submit {
    let mut inflight = lock_ignore_poison(&shared.inflight);
    if let Some(hit) = shared.cache.get(digest) {
        shared.metrics.cache_hits.inc();
        return Submit::CacheHit(hit);
    }
    if let Some(waiters) = inflight.get_mut(&digest) {
        let (tx, rx) = mpsc::channel();
        waiters.push(tx);
        shared.metrics.singleflight_joined.inc();
        return Submit::Joined(rx);
    }
    let (tx, rx) = mpsc::channel();
    match shared.queue.try_push(QueuedJob {
        spec,
        digest,
        enqueued: Instant::now(),
        reply: tx,
    }) {
        Ok(()) => {
            inflight.insert(digest, Vec::new());
            shared.metrics.jobs_queued.inc();
            shared.metrics.jobs_inflight.inc();
            shared.metrics.cache_misses.inc();
            Submit::Enqueued(rx)
        }
        Err(PushError::Full) => {
            shared.metrics.jobs_rejected.inc();
            Submit::Full
        }
        Err(PushError::Closed) => Submit::Closed,
    }
}

/// Maps a job result to `(status, cache-header, checkpoint-header,
/// body)`. The checkpoint ref travels as a header (`X-Recon-Checkpoint`)
/// rather than in the body, so deadline payloads stay byte-stable
/// across retries that resume from different checkpoints.
fn job_response(
    reply: JobResult,
    cache_state: &str,
) -> (u16, Option<String>, Option<String>, String) {
    match reply {
        Ok(out) => (200, Some(cache_state.to_string()), None, out.payload),
        Err(JobError::DeadlineExceeded {
            payload,
            checkpoint,
            ..
        }) => (408, None, checkpoint, payload),
        Err(JobError::Stalled { payload }) => (500, None, None, payload),
        Err(JobError::AuditViolated { payload }) => (500, None, None, payload),
        Err(JobError::Cancelled) => (
            503,
            None,
            None,
            error_body("cancelled", "job cancelled by shutdown"),
        ),
        Err(JobError::Invalid(msg)) => (400, None, None, error_body("invalid_job", &msg)),
        Err(JobError::Failed(msg)) => (500, None, None, error_body("job_failed", &msg)),
    }
}

fn handle_job(
    req: &Request,
    writer: &mut impl Write,
    shared: &Arc<Shared>,
    close: bool,
) -> io::Result<ConnOutcome> {
    let bad = |writer: &mut _, msg: &str| {
        send(
            writer,
            400,
            &[],
            "application/json",
            error_body("invalid_job", msg).as_bytes(),
            close,
        )
    };
    let Some(body) = req.body_str() else {
        return bad(writer, "body is not UTF-8");
    };
    let parsed = match parse(body) {
        Ok(v) => v,
        Err(e) => return bad(writer, &e),
    };
    let spec = match JobSpec::from_json(&parsed) {
        Ok(s) => s,
        Err(e) => return bad(writer, &e),
    };
    let digest = spec.digest();

    // chaos seam: connection dropped after the request was read, before
    // any response byte — the submission vanishes mid-flight.
    if shared.chaos.decide(FaultSite::DropRequest, digest) {
        return Ok(ConnOutcome::Close);
    }
    // chaos seam: synthetic queue-saturation burst.
    if shared.chaos.decide(FaultSite::QueueBurst, digest) {
        return send_job_response(
            writer,
            shared,
            digest,
            429,
            &[("Retry-After", "1".to_string())],
            error_body("queue_full", "bounded queue at capacity; retry later").as_bytes(),
            close,
        );
    }

    let (status, cache_header, ckpt_header, payload): (
        u16,
        Option<String>,
        Option<String>,
        String,
    ) = match submit(shared, spec, digest) {
        Submit::CacheHit(hit) => (200, Some("hit".to_string()), None, hit.as_str().to_string()),
        Submit::Full => {
            return send_job_response(
                writer,
                shared,
                digest,
                429,
                &[("Retry-After", "1".to_string())],
                error_body("queue_full", "bounded queue at capacity; retry later").as_bytes(),
                close,
            );
        }
        Submit::Closed => {
            return send_job_response(
                writer,
                shared,
                digest,
                503,
                &[],
                error_body("shutting_down", "server is draining; not accepting jobs").as_bytes(),
                close,
            );
        }
        Submit::Enqueued(rx) | Submit::Joined(rx) => {
            // The worker always replies (panics are caught, orphans
            // are recovered); RecvError can only mean the pool is
            // gone mid-shutdown.
            let reply = rx.recv().unwrap_or(Err(JobError::Cancelled));
            job_response(reply, "miss")
        }
    };
    let mut headers: Vec<(&str, String)> = cache_header
        .into_iter()
        .map(|v| ("X-Recon-Cache", v))
        .collect();
    if let Some(c) = ckpt_header {
        headers.push(("X-Recon-Checkpoint", c));
    }
    send_job_response(
        writer,
        shared,
        digest,
        status,
        &headers,
        payload.as_bytes(),
        close,
    )
}

/// Writes a `/jobs` response through the chaos plane's response seams:
/// the rendered bytes may be cut mid-write, truncated to a header
/// fragment, or replaced with garbage — all keyed by the job digest, so
/// the same retry sequence sees the same faults on every run.
fn send_job_response(
    writer: &mut impl Write,
    shared: &Arc<Shared>,
    digest: u64,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &[u8],
    close: bool,
) -> io::Result<ConnOutcome> {
    match shared.chaos.response_fault(digest) {
        ResponseFault::None => send(
            writer,
            status,
            extra_headers,
            "application/json",
            body,
            close,
        ),
        ResponseFault::DropMidWrite => {
            let rendered = render_response(status, extra_headers, "application/json", body, close);
            writer.write_all(&rendered[..rendered.len() / 2])?;
            writer.flush()?;
            Ok(ConnOutcome::Close)
        }
        ResponseFault::TruncatedHttp => {
            let rendered = render_response(status, extra_headers, "application/json", body, close);
            let cut = rendered.len().min(20);
            writer.write_all(&rendered[..cut])?;
            writer.flush()?;
            Ok(ConnOutcome::Close)
        }
        ResponseFault::Garbage => {
            writer.write_all(&garbage_bytes(digest))?;
            writer.flush()?;
            Ok(ConnOutcome::Close)
        }
    }
}

/// `POST /jobs/batch`: many specs in one request, each admitted through
/// the same cache/single-flight/queue path as `POST /jobs`, answered
/// with per-spec statuses in submission order. The batch endpoint is
/// not a chaos seam — per-job faults are injected on `/jobs`, where the
/// retry contract is per-digest.
fn handle_batch(
    req: &Request,
    writer: &mut impl Write,
    shared: &Arc<Shared>,
    close: bool,
) -> io::Result<ConnOutcome> {
    let bad = |writer: &mut _, msg: &str| {
        send(
            writer,
            400,
            &[],
            "application/json",
            error_body("invalid_batch", msg).as_bytes(),
            close,
        )
    };
    let Some(body) = req.body_str() else {
        return bad(writer, "body is not UTF-8");
    };
    let parsed = match parse(body) {
        Ok(v) => v,
        Err(e) => return bad(writer, &e),
    };
    let Some(jobs) = parsed.get("jobs").and_then(Json::as_array) else {
        return bad(writer, "batch must be {\"jobs\":[<spec>, ...]}");
    };
    if jobs.is_empty() {
        return bad(writer, "batch is empty");
    }
    if jobs.len() > MAX_BATCH {
        return bad(
            writer,
            &format!("batch of {} exceeds the cap of {MAX_BATCH}", jobs.len()),
        );
    }

    // Admit everything first (sharing the queue's capacity), then wait:
    // independent jobs execute concurrently across the worker pool
    // instead of serializing one recv at a time.
    enum Pending {
        Done(u16, Option<String>, String),
        Waiting(mpsc::Receiver<JobResult>),
    }
    let mut pending = Vec::with_capacity(jobs.len());
    for v in jobs {
        match JobSpec::from_json(v) {
            Err(e) => pending.push(Pending::Done(400, None, error_body("invalid_job", &e))),
            Ok(spec) => {
                let digest = spec.digest();
                match submit(shared, spec, digest) {
                    Submit::CacheHit(hit) => pending.push(Pending::Done(
                        200,
                        Some("hit".to_string()),
                        hit.as_str().to_string(),
                    )),
                    Submit::Full => pending.push(Pending::Done(
                        429,
                        None,
                        error_body("queue_full", "bounded queue at capacity; retry later"),
                    )),
                    Submit::Closed => pending.push(Pending::Done(
                        503,
                        None,
                        error_body("shutting_down", "server is draining; not accepting jobs"),
                    )),
                    Submit::Enqueued(rx) | Submit::Joined(rx) => {
                        pending.push(Pending::Waiting(rx));
                    }
                }
            }
        }
    }

    let mut out = String::with_capacity(256 * pending.len());
    out.push_str("{\"results\":[");
    for (i, p) in pending.into_iter().enumerate() {
        let (status, cache_state, payload) = match p {
            Pending::Done(s, c, b) => (s, c, b),
            Pending::Waiting(rx) => {
                let reply = rx.recv().unwrap_or(Err(JobError::Cancelled));
                // The checkpoint ref is a header on `/jobs`; batch
                // responses are multiplexed bodies, so it is dropped.
                let (s, c, _ckpt, b) = job_response(reply, "miss");
                (s, c, b)
            }
        };
        if i > 0 {
            out.push(',');
        }
        use std::fmt::Write as _;
        let _ = write!(out, "{{\"status\":{status},");
        if let Some(c) = cache_state {
            let _ = write!(out, "\"cache\":\"{c}\",");
        }
        // Payloads are themselves JSON objects, embedded raw.
        let _ = write!(out, "\"body\":{payload}}}");
    }
    out.push_str("]}");
    send(writer, 200, &[], "application/json", out.as_bytes(), close)
}

/// `POST /migrate`: accepts raw RCK1 checkpoint bytes from a draining
/// peer node. The checkpoint is decoded and validated (magic, checksum,
/// an embedded `serve-job` spec whose digest matches the checkpoint's
/// own `config_digest`) — bytes from the wire are never trusted — then
/// written into this node's checkpoint directory through the same
/// atomic temp+rename path local jobs use. The job is re-enqueued
/// best-effort with a dead reply channel (exactly like startup orphan
/// recovery): even when the queue is full, the on-disk checkpoint means
/// any later submission of the digest resumes mid-run instead of
/// starting from cycle zero.
fn handle_migrate(
    req: &Request,
    writer: &mut impl Write,
    shared: &Arc<Shared>,
    close: bool,
) -> io::Result<ConnOutcome> {
    let bad = |writer: &mut _, msg: &str| {
        send(
            writer,
            400,
            &[],
            "application/json",
            error_body("invalid_migration", msg).as_bytes(),
            close,
        )
    };
    let Some(dir) = shared.ckpt.as_ref().and_then(|p| p.dir.clone()) else {
        return bad(writer, "node has no checkpoint directory (--cache-dir)");
    };
    let ck = match ckpt::Checkpoint::decode(&req.body) {
        Ok(ck) => ck,
        Err(e) => return bad(writer, &format!("checkpoint rejected: {e:?}")),
    };
    if ck.meta("kind") != Some("serve-job") {
        return bad(writer, "checkpoint does not embed a serve-job spec");
    }
    let Some(spec) = ck
        .meta("spec")
        .and_then(|s| parse(s).ok())
        .and_then(|v| JobSpec::from_json(&v).ok())
    else {
        return bad(writer, "embedded spec does not parse or validate");
    };
    if spec.digest() != ck.config_digest {
        return bad(writer, "embedded spec digest does not match checkpoint");
    }
    let digest = ck.config_digest;
    let cycle = ck.cycle;
    if let Err(e) = ckpt::write(&dir, &ck) {
        return send(
            writer,
            500,
            &[],
            "application/json",
            error_body("migration_failed", &format!("checkpoint write: {e}")).as_bytes(),
            close,
        );
    }
    shared.metrics.migrations_in.inc();

    // Best-effort resume: enqueue with a dead reply channel so the
    // migrated job starts executing before anyone resubmits it.
    let mut enqueued = false;
    if shared.cache.get(digest).is_none() {
        let mut inflight = lock_ignore_poison(&shared.inflight);
        if let std::collections::hash_map::Entry::Vacant(slot) = inflight.entry(digest) {
            let (tx, _rx) = mpsc::channel();
            if shared
                .queue
                .try_push(QueuedJob {
                    spec,
                    digest,
                    enqueued: Instant::now(),
                    reply: tx,
                })
                .is_ok()
            {
                slot.insert(Vec::new());
                shared.metrics.jobs_queued.inc();
                shared.metrics.jobs_inflight.inc();
                enqueued = true;
            }
        }
    }
    let body = format!(
        "{{\"status\":\"accepted\",\"digest\":\"{digest:016x}\",\"cycle\":{cycle},\"enqueued\":{enqueued}}}"
    );
    send(writer, 200, &[], "application/json", body.as_bytes(), close)
}

/// `POST /cache`: accepts a replicated result from the gateway —
/// `{"digest":"<16 hex>","payload":"<result JSON as a string>"}` — so
/// the ring successor can answer this digest from cache if the primary
/// dies. First-write-wins like every other cache insert.
fn handle_cache_put(
    req: &Request,
    writer: &mut impl Write,
    shared: &Arc<Shared>,
    close: bool,
) -> io::Result<ConnOutcome> {
    let bad = |writer: &mut _, msg: &str| {
        send(
            writer,
            400,
            &[],
            "application/json",
            error_body("invalid_replication", msg).as_bytes(),
            close,
        )
    };
    let Some(body) = req.body_str() else {
        return bad(writer, "body is not UTF-8");
    };
    let parsed = match parse(body) {
        Ok(v) => v,
        Err(e) => return bad(writer, &e),
    };
    let Some(digest) = parsed
        .get("digest")
        .and_then(Json::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
    else {
        return bad(writer, "digest must be a hex string");
    };
    let Some(payload) = parsed.get("payload").and_then(Json::as_str) else {
        return bad(writer, "payload must be a string");
    };
    shared.cache.insert(digest, Arc::new(payload.to_string()));
    shared.metrics.replications_in.inc();
    send(
        writer,
        200,
        &[],
        "application/json",
        format!("{{\"status\":\"stored\",\"digest\":\"{digest:016x}\"}}").as_bytes(),
        close,
    )
}

/// `POST /drain`: planned evacuation. The node stops admitting work,
/// cancels everything queued or running (cancelled runs keep their
/// newest on-disk checkpoint at the last commit boundary), waits for
/// the workers to go quiet, then — if the body names a `{"to":"addr"}`
/// target — ships the newest checkpoint of every unfinished job to that
/// peer's `/migrate` endpoint. The response reports how many jobs
/// migrated, *after* the shipping completed, so the caller knows the
/// hand-off is durable before this node exits.
fn handle_drain(
    req: &Request,
    writer: &mut impl Write,
    shared: &Arc<Shared>,
    self_addr: Option<SocketAddr>,
) -> io::Result<ConnOutcome> {
    use std::net::ToSocketAddrs as _;
    let to: Option<SocketAddr> = match req.body_str().filter(|b| !b.trim().is_empty()) {
        None => None,
        Some(body) => match parse(body) {
            Ok(v) => match v.get("to").and_then(Json::as_str) {
                None => None,
                Some(addr) => match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
                    Some(a) => Some(a),
                    None => {
                        return send(
                            writer,
                            400,
                            &[],
                            "application/json",
                            error_body("invalid_drain", &format!("unresolvable target '{addr}'"))
                                .as_bytes(),
                            true,
                        );
                    }
                },
            },
            Err(e) => {
                return send(
                    writer,
                    400,
                    &[],
                    "application/json",
                    error_body("invalid_drain", &e).as_bytes(),
                    true,
                );
            }
        },
    };

    // Stop admissions, cancel queued + running work, let the workers
    // wind down. Cancelled clients get 503 (no Retry-After) and their
    // retries will be refused here and rerouted by the gateway.
    shared.shutting_down.store(true, Ordering::SeqCst);
    shared.cancel.store(true, Ordering::SeqCst);
    shared.queue.close();
    let deadline = Instant::now() + Duration::from_secs(60);
    while (shared.metrics.jobs_running.get() > 0 || !shared.queue.is_empty())
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Settle: the last worker decrements jobs_running before its final
    // bookkeeping (cache insert, notify) finishes.
    std::thread::sleep(Duration::from_millis(50));

    let mut migrated = 0u64;
    let mut failed = 0u64;
    if let (Some(to_addr), Some(dir)) = (to, shared.ckpt.as_ref().and_then(|p| p.dir.clone())) {
        if let Ok(scan) = ckpt::scan(&dir) {
            // `scan.valid` is newest-first: ship one checkpoint per
            // digest, skipping jobs that already have a cached result.
            let mut seen = std::collections::HashSet::new();
            for (path, ck) in &scan.valid {
                if !seen.insert(ck.config_digest)
                    || ck.meta("kind") != Some("serve-job")
                    || shared.cache.get(ck.config_digest).is_some()
                {
                    continue;
                }
                let shipped = fs::read(path).ok().and_then(|bytes| {
                    crate::client::request_bytes(
                        to_addr,
                        "POST",
                        "/migrate",
                        "application/octet-stream",
                        &bytes,
                    )
                    .ok()
                });
                match shipped {
                    Some(resp) if resp.status == 200 => {
                        shared.metrics.migrations_out.inc();
                        migrated += 1;
                        println!(
                            "drained job {:016x} (checkpoint at cycle {}) to {to_addr}",
                            ck.config_digest, ck.cycle
                        );
                    }
                    _ => failed += 1,
                }
            }
        }
    }

    let body = format!("{{\"status\":\"drained\",\"migrated\":{migrated},\"failed\":{failed}}}");
    send(writer, 200, &[], "application/json", body.as_bytes(), true)?;
    // Poke the accept loop so it observes the flag and returns.
    if let Some(addr) = self_addr {
        let _ = TcpStream::connect(addr);
    }
    Ok(ConnOutcome::Close)
}

fn handle_shutdown(
    req: &Request,
    writer: &mut impl Write,
    shared: &Arc<Shared>,
    self_addr: Option<SocketAddr>,
) -> io::Result<ConnOutcome> {
    let mode = match req.body_str().filter(|b| !b.trim().is_empty()) {
        None => ShutdownMode::Graceful,
        Some(body) => match parse(body) {
            Ok(v) => match v.get("mode").and_then(Json::as_str) {
                None | Some("graceful") => ShutdownMode::Graceful,
                Some("abort") => ShutdownMode::Abort,
                Some(other) => {
                    return send(
                        writer,
                        400,
                        &[],
                        "application/json",
                        error_body("invalid_shutdown", &format!("unknown mode '{other}'"))
                            .as_bytes(),
                        true,
                    );
                }
            },
            Err(e) => {
                return send(
                    writer,
                    400,
                    &[],
                    "application/json",
                    error_body("invalid_shutdown", &e).as_bytes(),
                    true,
                );
            }
        },
    };

    // Answer first so the client is not racing the teardown.
    let body = format!(
        "{{\"status\":\"shutting_down\",\"mode\":\"{}\",\"queued\":{}}}",
        if mode == ShutdownMode::Abort {
            "abort"
        } else {
            "graceful"
        },
        shared.queue.len()
    );
    send(writer, 200, &[], "application/json", body.as_bytes(), true)?;

    shared.shutting_down.store(true, Ordering::SeqCst);
    if mode == ShutdownMode::Abort {
        shared.cancel.store(true, Ordering::SeqCst);
        for job in shared.queue.drain() {
            shared.metrics.jobs_cancelled.inc();
            notify(shared, &job, &Err(JobError::Cancelled));
        }
    }
    // Close the queue: workers drain the (graceful) backlog, then exit.
    shared.queue.close();
    // Poke the accept loop so it observes the flag and returns.
    if let Some(addr) = self_addr {
        let _ = TcpStream::connect(addr);
    }
    Ok(ConnOutcome::Close)
}
