//! The cluster gateway: one HTTP front door over N `recon serve`
//! worker nodes.
//!
//! The gateway owns a [`HashRing`] keyed by the canonical job digest.
//! A `POST /jobs` submission is validated *at the edge* (same error
//! shape as a node), hashed, and proxied to the digest's primary node
//! over a pooled keep-alive connection with the self-healing retry
//! client. Failure handling distinguishes the two ways a node can say
//! no:
//!
//! * **Node down** — connection refused (fail-fast in the client) or
//!   exhausted transport retries. The gateway marks the node down,
//!   counts `recon_client_reroutes_total`, and walks the ring to the
//!   next distinct node. A background health checker probes `/healthz`
//!   and flips nodes back up when they return.
//! * **Node busy** — the node answered `429`/`503` after the per-node
//!   retry budget. That response (with its `Retry-After` hint) is
//!   relayed to the client untouched; rerouting backpressure would
//!   defeat the digest→node affinity that makes caching and
//!   single-flight dedup work.
//!
//! Successful `200` results are **replicated** to the digest's ring
//! replica (`POST /cache`), so when a primary dies its successor — the
//! exact node failover routes to — can answer repeated submissions from
//! cache without re-executing. Together with checkpoint migration
//! (`POST /migrate`, driven by a draining node, see
//! [`crate::storm`]), the replica is always the warmest place a job
//! can land after its primary disappears.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use recon_serve::client::{self, submit_with_retry, Connection, Retried, RetryPolicy};
use recon_serve::http::{read_request, render_response, Request};
use recon_serve::job::JobSpec;
use recon_serve::json::{escape, parse, Json};
use recon_serve::metrics::Counter;
use recon_serve::queue::{lock_ignore_poison, BoundedQueue};
use recon_serve::server::MAX_BATCH;

use crate::ring::{HashRing, DEFAULT_VNODES};

/// Idle pooled connections kept per node.
const POOL_CAP: usize = 32;

/// Gateway configuration (the `recon gateway` flags).
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Listen address (port 0 binds an ephemeral port).
    pub addr: String,
    /// Worker node addresses (`host:port`); these strings are also the
    /// ring member names and the `node` label values.
    pub nodes: Vec<String>,
    /// Virtual points per node on the hash ring.
    pub vnodes: usize,
    /// Connection-handler threads.
    pub handler_cap: usize,
    /// Client-facing per-connection read timeout.
    pub read_timeout: Duration,
    /// Client-facing per-connection write timeout.
    pub write_timeout: Duration,
    /// Per-I/O timeout on gateway→node connections. Must cover the
    /// longest job a node can serve.
    pub node_timeout: Duration,
    /// Health-probe period.
    pub health_interval: Duration,
    /// Replicate `200` results to the ring replica.
    pub replicate: bool,
    /// Per-node submission policy (transport retries + bounded
    /// backpressure patience; `fail_fast_refused` should stay `true` so
    /// dead nodes reroute immediately).
    pub retry: RetryPolicy,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:7190".to_string(),
            nodes: Vec::new(),
            vnodes: DEFAULT_VNODES,
            handler_cap: 32,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            node_timeout: Duration::from_secs(60),
            health_interval: Duration::from_millis(200),
            replicate: true,
            retry: RetryPolicy {
                max_attempts: 6,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(100),
                retry_after_cap: Duration::from_millis(50),
                seed: 0,
                fail_fast_refused: true,
            },
        }
    }
}

/// Gateway-level counters (`GET /metrics` on the gateway).
#[derive(Default, Debug)]
pub struct GatewayMetrics {
    /// `POST /jobs` submissions accepted for routing.
    pub jobs: Counter,
    /// `POST /jobs/batch` submissions.
    pub batches: Counter,
    /// Transport-level failovers: a node was unreachable (refused
    /// fail-fast or exhausted transport retries) and the job moved to
    /// the next ring candidate.
    pub client_reroutes: Counter,
    /// Jobs answered by a node other than the digest's primary (for
    /// any reason: down-skip or transport failover).
    pub gateway_reroutes: Counter,
    /// Submissions that exhausted every ring candidate.
    pub no_node: Counter,
    /// Results successfully replicated to the ring replica.
    pub replications: Counter,
    /// Replication attempts that failed (best-effort; never blocks the
    /// client response).
    pub replication_failures: Counter,
}

/// Per-node live state.
#[derive(Debug)]
pub struct NodeState {
    /// Ring member name (the configured `host:port` string).
    pub name: String,
    /// Resolved address.
    pub addr: SocketAddr,
    /// Last known health (flipped by probes and by routing failures).
    up: AtomicBool,
    /// Jobs answered by this node through the gateway.
    pub routed: Counter,
    pool: Mutex<Vec<Connection>>,
}

impl NodeState {
    /// Last known health.
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::Relaxed)
    }
}

/// State shared by the accept loop, handlers, and the health checker.
#[derive(Debug)]
pub struct GwShared {
    /// The consistent-hash ring (member names == node names below).
    pub ring: HashRing,
    /// Per-node state, indexed in [`HashRing::nodes`] order.
    pub nodes: Vec<NodeState>,
    /// Gateway counters.
    pub metrics: GatewayMetrics,
    retry: RetryPolicy,
    node_timeout: Duration,
    replicate: bool,
    shutting_down: AtomicBool,
}

impl GwShared {
    fn node_index(&self, name: &str) -> usize {
        self.ring
            .nodes()
            .binary_search_by(|n| n.as_str().cmp(name))
            .expect("route() only yields ring members")
    }
}

/// A running gateway.
#[derive(Debug)]
pub struct Gateway {
    addr: SocketAddr,
    shared: Arc<GwShared>,
    accept: Option<JoinHandle<()>>,
    handlers: Vec<JoinHandle<()>>,
    health: Option<JoinHandle<()>>,
}

impl Gateway {
    /// Resolves the node list, builds the ring, binds the listener, and
    /// starts the handler pool plus the health checker.
    ///
    /// # Errors
    ///
    /// `InvalidInput` for an empty or unresolvable node list; bind
    /// errors.
    pub fn start(config: &GatewayConfig) -> io::Result<Gateway> {
        // Digests key the scale, so route with the one the nodes run at.
        recon_serve::job::set_scale(recon_workloads::Scale::from_env());
        if config.nodes.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "gateway needs at least one node (--nodes host:port,host:port,...)",
            ));
        }
        let ring = HashRing::new(&config.nodes, config.vnodes);
        let mut nodes = Vec::with_capacity(ring.nodes().len());
        for name in ring.nodes() {
            let addr = name
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("unresolvable node '{name}'"),
                    )
                })?;
            nodes.push(NodeState {
                name: name.clone(),
                addr,
                up: AtomicBool::new(true),
                routed: Counter::default(),
                pool: Mutex::new(Vec::new()),
            });
        }
        let shared = Arc::new(GwShared {
            ring,
            nodes,
            metrics: GatewayMetrics::default(),
            retry: config.retry.clone(),
            node_timeout: config.node_timeout,
            replicate: config.replicate,
            shutting_down: AtomicBool::new(false),
        });

        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let conns = Arc::new(BoundedQueue::new(config.handler_cap.max(1)));
        let handlers = (0..config.handler_cap.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let conns = Arc::clone(&conns);
                let timeouts = (config.read_timeout, config.write_timeout);
                std::thread::Builder::new()
                    .name(format!("recon-gw-conn-{i}"))
                    .spawn(move || {
                        while let Some(stream) = conns.pop() {
                            let _ = handle_connection(stream, &shared, timeouts);
                        }
                    })
                    .expect("spawn gateway handler")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("recon-gw-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &conns))
                .expect("spawn gateway accept loop")
        };

        let health = {
            let shared = Arc::clone(&shared);
            let interval = config.health_interval.max(Duration::from_millis(10));
            std::thread::Builder::new()
                .name("recon-gw-health".to_string())
                .spawn(move || health_loop(&shared, interval))
                .expect("spawn health checker")
        };

        Ok(Gateway {
            addr,
            shared,
            accept: Some(accept),
            handlers,
            health: Some(health),
        })
    }

    /// The actual bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for in-process inspection in tests.
    #[must_use]
    pub fn shared(&self) -> &GwShared {
        &self.shared
    }

    /// Blocks until `POST /shutdown` stops the gateway, then joins all
    /// threads.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.handlers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<GwShared>,
    conns: &Arc<BoundedQueue<TcpStream>>,
) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if let Err((mut stream, _)) = conns.try_push_or_return(stream) {
            let _ = stream.write_all(&render_response(
                503,
                &[("Retry-After", "1".to_string())],
                "application/json",
                b"{\"error\":\"overloaded\",\"message\":\"gateway backlog full; retry later\"}",
                true,
            ));
        }
    }
    conns.close();
}

/// Probes every node's `/healthz` and updates its `up` flag. Routing
/// also updates the flags (down on transport failure, up on success),
/// so the probe is what notices a *restarted* node while no traffic is
/// flowing toward it.
fn health_loop(shared: &Arc<GwShared>, interval: Duration) {
    while !shared.shutting_down.load(Ordering::SeqCst) {
        for node in &shared.nodes {
            let healthy = Connection::with_timeout(node.addr, Duration::from_millis(500))
                .request("GET", "/healthz", None)
                .map(|r| r.status == 200)
                .unwrap_or(false);
            node.up.store(healthy, Ordering::Relaxed);
        }
        std::thread::sleep(interval);
    }
}

fn handle_connection(
    stream: TcpStream,
    shared: &Arc<GwShared>,
    (read_timeout, write_timeout): (Duration, Duration),
) -> io::Result<()> {
    stream.set_read_timeout(Some(read_timeout.max(Duration::from_millis(1))))?;
    stream.set_write_timeout(Some(write_timeout.max(Duration::from_millis(1))))?;
    stream.set_nodelay(true)?;
    let self_addr = stream.local_addr().ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()),
            Err(_) => {
                let _ = send(
                    &mut writer,
                    400,
                    &[],
                    "{\"error\":\"malformed_request\",\"message\":\"unparseable HTTP request\"}"
                        .as_bytes(),
                    true,
                );
                return Ok(());
            }
        };
        let close = req.wants_close() || shared.shutting_down.load(Ordering::SeqCst);
        let closed = route(&req, &mut writer, shared, self_addr, close)?;
        if close || closed {
            return Ok(());
        }
    }
}

/// Writes a response; returns whether the connection closes.
fn send(
    writer: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, String)],
    body: &[u8],
    close: bool,
) -> io::Result<bool> {
    writer.write_all(&render_response(
        status,
        extra_headers,
        "application/json",
        body,
        close,
    ))?;
    writer.flush()?;
    Ok(close)
}

fn route(
    req: &Request,
    writer: &mut impl Write,
    shared: &Arc<GwShared>,
    self_addr: Option<SocketAddr>,
    close: bool,
) -> io::Result<bool> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => send(writer, 200, &[], b"{\"status\":\"ok\"}", close),
        ("GET", "/metrics") => {
            let body = render_metrics(shared);
            writer.write_all(&render_response(
                200,
                &[],
                "text/plain; version=0.0.4",
                body.as_bytes(),
                close,
            ))?;
            writer.flush()?;
            Ok(close)
        }
        ("GET", "/cluster") => {
            let body = render_cluster(shared);
            send(writer, 200, &[], body.as_bytes(), close)
        }
        ("POST", "/jobs") => handle_job(req, writer, shared, close),
        ("POST", "/jobs/batch") => handle_batch(req, writer, shared, close),
        ("POST", "/shutdown") => {
            send(writer, 200, &[], b"{\"status\":\"shutting_down\"}", true)?;
            shared.shutting_down.store(true, Ordering::SeqCst);
            if let Some(addr) = self_addr {
                let _ = TcpStream::connect(addr);
            }
            Ok(true)
        }
        ("GET" | "POST", _) => send(
            writer,
            404,
            &[],
            format!(
                "{{\"error\":\"not_found\",\"message\":\"{}\"}}",
                escape(&req.path)
            )
            .as_bytes(),
            close,
        ),
        _ => send(
            writer,
            405,
            &[],
            format!(
                "{{\"error\":\"method_not_allowed\",\"message\":\"{}\"}}",
                escape(&req.method)
            )
            .as_bytes(),
            close,
        ),
    }
}

fn render_metrics(shared: &Arc<GwShared>) -> String {
    use std::fmt::Write as _;
    let m = &shared.metrics;
    let mut out = String::with_capacity(1024);
    let mut counter = |name: &str, help: &str, value: u64| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    };
    counter(
        "recon_gateway_jobs_total",
        "Job submissions accepted for routing.",
        m.jobs.get(),
    );
    counter(
        "recon_gateway_batches_total",
        "Batch submissions accepted for routing.",
        m.batches.get(),
    );
    counter(
        "recon_client_reroutes_total",
        "Transport-level failovers to the next ring candidate (node down).",
        m.client_reroutes.get(),
    );
    counter(
        "recon_gateway_reroutes_total",
        "Jobs answered by a node other than the digest's primary.",
        m.gateway_reroutes.get(),
    );
    counter(
        "recon_gateway_no_node_total",
        "Submissions that exhausted every ring candidate.",
        m.no_node.get(),
    );
    counter(
        "recon_gateway_replications_total",
        "Results replicated to the ring replica.",
        m.replications.get(),
    );
    counter(
        "recon_gateway_replication_failures_total",
        "Failed best-effort replications.",
        m.replication_failures.get(),
    );
    let _ = writeln!(out, "# HELP recon_node_up Last known node health.");
    let _ = writeln!(out, "# TYPE recon_node_up gauge");
    for node in &shared.nodes {
        let _ = writeln!(
            out,
            "recon_node_up{{node=\"{}\"}} {}",
            node.name,
            u64::from(node.is_up())
        );
    }
    let _ = writeln!(
        out,
        "# HELP recon_gateway_routed_total Jobs answered per node."
    );
    let _ = writeln!(out, "# TYPE recon_gateway_routed_total counter");
    for node in &shared.nodes {
        let _ = writeln!(
            out,
            "recon_gateway_routed_total{{node=\"{}\"}} {}",
            node.name,
            node.routed.get()
        );
    }
    out
}

fn render_cluster(shared: &Arc<GwShared>) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256);
    let _ = write!(
        out,
        "{{\"vnodes\":{},\"replicate\":{},\"nodes\":[",
        shared.ring.vnodes(),
        shared.replicate
    );
    for (i, node) in shared.nodes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"node\":\"{}\",\"up\":{},\"routed\":{}}}",
            escape(&node.name),
            node.is_up(),
            node.routed.get()
        );
    }
    out.push_str("]}");
    out
}

/// One proxied submission: the digest's failover sequence is walked
/// until a node *answers* (any HTTP status — backpressure is an answer)
/// or every candidate proves unreachable.
fn proxy_job(shared: &Arc<GwShared>, digest: u64, json: &str) -> Option<(usize, Retried)> {
    let order = shared.ring.route(digest);
    let total = order.len();
    for (i, name) in order.iter().enumerate() {
        let idx = shared.node_index(name);
        let node = &shared.nodes[idx];
        // Skip nodes the health checker has marked down — unless this
        // is the last candidate, which is always worth one real try.
        if !node.is_up() && i + 1 < total {
            continue;
        }
        match node_submit(shared, node, digest, json) {
            Ok(retried) => {
                node.up.store(true, Ordering::Relaxed);
                node.routed.inc();
                if i > 0 {
                    shared.metrics.gateway_reroutes.inc();
                }
                return Some((idx, retried));
            }
            Err(_) => {
                // Unreachable (refused fail-fast, or transport retries
                // exhausted): mark down and walk on.
                node.up.store(false, Ordering::Relaxed);
                if i + 1 < total {
                    shared.metrics.client_reroutes.inc();
                }
            }
        }
    }
    shared.metrics.no_node.inc();
    None
}

fn node_submit(
    shared: &Arc<GwShared>,
    node: &NodeState,
    digest: u64,
    json: &str,
) -> io::Result<Retried> {
    let mut conn = lock_ignore_poison(&node.pool)
        .pop()
        .unwrap_or_else(|| Connection::with_timeout(node.addr, shared.node_timeout));
    let result = submit_with_retry(&mut conn, json, digest, &shared.retry, &mut |d| {
        std::thread::sleep(d)
    });
    if result.is_ok() {
        let mut pool = lock_ignore_poison(&node.pool);
        if pool.len() < POOL_CAP {
            pool.push(conn);
        }
    }
    result
}

/// Best-effort replication of a `200` payload to the digest's ring
/// replica. Failures are counted, never surfaced: the authoritative
/// result has already been computed and will be returned regardless.
fn replicate(shared: &Arc<GwShared>, digest: u64, served_idx: usize, payload: &str) {
    if !shared.replicate {
        return;
    }
    let Some(replica) = shared.ring.replica(digest) else {
        return;
    };
    let idx = shared.node_index(replica);
    if idx == served_idx {
        return;
    }
    let body = format!(
        "{{\"digest\":\"{digest:016x}\",\"payload\":\"{}\"}}",
        escape(payload)
    );
    match client::request(shared.nodes[idx].addr, "POST", "/cache", Some(&body)) {
        Ok(r) if r.status == 200 => shared.metrics.replications.inc(),
        _ => shared.metrics.replication_failures.inc(),
    }
}

/// The headers a node response carries that the client should see,
/// plus the gateway's own `X-Recon-Node` (which node answered — the
/// observable a migration test needs to prove a cross-node resume).
fn forward_headers(retried: &Retried, node_name: &str) -> Vec<(&'static str, String)> {
    let mut headers: Vec<(&'static str, String)> = Vec::with_capacity(3);
    if let Some(v) = retried.response.header("x-recon-cache") {
        headers.push(("X-Recon-Cache", v.to_string()));
    }
    if let Some(v) = retried.response.header("x-recon-checkpoint") {
        headers.push(("X-Recon-Checkpoint", v.to_string()));
    }
    if let Some(v) = retried.response.header("retry-after") {
        headers.push(("Retry-After", v.to_string()));
    }
    headers.push(("X-Recon-Node", node_name.to_string()));
    headers
}

fn handle_job(
    req: &Request,
    writer: &mut impl Write,
    shared: &Arc<GwShared>,
    close: bool,
) -> io::Result<bool> {
    let bad = |writer: &mut _, msg: &str| {
        send(
            writer,
            400,
            &[],
            format!(
                "{{\"error\":\"invalid_job\",\"message\":\"{}\"}}",
                escape(msg)
            )
            .as_bytes(),
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
    shared.metrics.jobs.inc();

    match proxy_job(shared, digest, body) {
        Some((idx, retried)) => {
            if retried.response.status == 200 {
                replicate(shared, digest, idx, &retried.response.body);
            }
            let name = shared.nodes[idx].name.clone();
            let headers = forward_headers(&retried, &name);
            send(
                writer,
                retried.response.status,
                &headers,
                retried.response.body.as_bytes(),
                close,
            )
        }
        None => send(
            writer,
            503,
            &[("Retry-After", "1".to_string())],
            b"{\"error\":\"no_node\",\"message\":\"every ring candidate is unreachable\"}",
            close,
        ),
    }
}

fn handle_batch(
    req: &Request,
    writer: &mut impl Write,
    shared: &Arc<GwShared>,
    close: bool,
) -> io::Result<bool> {
    let bad = |writer: &mut _, msg: &str| {
        send(
            writer,
            400,
            &[],
            format!(
                "{{\"error\":\"invalid_batch\",\"message\":\"{}\"}}",
                escape(msg)
            )
            .as_bytes(),
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
    shared.metrics.batches.inc();
    shared.metrics.jobs.add(jobs.len() as u64);

    // Validate at the edge, then fan the valid specs out concurrently —
    // each rides its own digest's failover sequence independently.
    enum Slot {
        Invalid(String),
        Valid(String, u64),
    }
    let slots: Vec<Slot> = jobs
        .iter()
        .map(|v| match JobSpec::from_json(v) {
            Err(e) => Slot::Invalid(e),
            Ok(spec) => Slot::Valid(spec.to_json(), spec.digest()),
        })
        .collect();
    let mut results: Vec<Option<(usize, Retried)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = slots
            .iter()
            .map(|slot| match slot {
                Slot::Invalid(_) => None,
                Slot::Valid(json, digest) => {
                    let shared = Arc::clone(shared);
                    let (json, digest) = (json.clone(), *digest);
                    Some(scope.spawn(move || proxy_job(&shared, digest, &json)))
                }
            })
            .collect();
        results = handles
            .into_iter()
            .map(|h| h.and_then(|h| h.join().unwrap_or(None)))
            .collect();
    });

    let mut out = String::with_capacity(256 * slots.len());
    out.push_str("{\"results\":[");
    for (i, (slot, result)) in slots.iter().zip(results).enumerate() {
        if i > 0 {
            out.push(',');
        }
        use std::fmt::Write as _;
        match (slot, result) {
            (Slot::Invalid(e), _) => {
                let _ = write!(
                    out,
                    "{{\"status\":400,\"body\":{{\"error\":\"invalid_job\",\"message\":\"{}\"}}}}",
                    escape(e)
                );
            }
            (Slot::Valid(..), Some((idx, retried))) => {
                let digest = match slot {
                    Slot::Valid(_, d) => *d,
                    Slot::Invalid(_) => unreachable!(),
                };
                if retried.response.status == 200 {
                    replicate(shared, digest, idx, &retried.response.body);
                }
                let _ = write!(out, "{{\"status\":{},", retried.response.status);
                if let Some(c) = retried.response.header("x-recon-cache") {
                    let _ = write!(out, "\"cache\":\"{c}\",");
                }
                let _ = write!(
                    out,
                    "\"node\":\"{}\",\"body\":{}}}",
                    escape(&shared.nodes[idx].name),
                    retried.response.body
                );
            }
            (Slot::Valid(..), None) => {
                out.push_str(
                    "{\"status\":503,\"body\":{\"error\":\"no_node\",\"message\":\"every ring candidate is unreachable\"}}",
                );
            }
        }
    }
    out.push_str("]}");
    send(writer, 200, &[], out.as_bytes(), close)
}
