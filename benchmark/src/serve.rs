//! `serve-mix`: an in-process `recon_serve::Server` on loopback with
//! default workers, driven by two keep-alive clients in a closed loop
//! (each sends its next request only after the previous reply, as CLI
//! and gateway callers do) over a seeded, popularity-skewed mix of
//! quick-scale `run` (half of them with `fast_forward`), `analyze`,
//! `verify` and `asm` jobs.
//!
//! Each pass starts a fresh server, so the cache starts empty. The
//! first request for a spec in the list is its miss: it simulates. A
//! later request for the same spec is a cache hit, or, when it arrives
//! while the first is still simulating, a join that waits on that same
//! job and simulates nothing. Joins count in neither the hit nor the
//! miss latencies, nor in `detailed_mips`.
//!
//! The repository holds no record of real `recon serve` traffic, so the
//! mix is assumed, not measured. Each of its numbers below says why it
//! was chosen; a later change may retune them, which changes every
//! serve figure and is then a change of the benchmark.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use recon_isa::rng::SplitMix64;
use recon_serve::client::{self, Connection, RetryPolicy};
use recon_serve::job::{self, JobError, JobKind, JobSpec};
use recon_serve::{ServeConfig, Server};
use recon_sim::Budget;
use recon_workloads::{Scale, Suite, ThreadSpec, Workload};

use crate::host::HostClock;
use crate::layers::{self, Values};
use crate::matrix::shuffle;
use crate::sim::{self, Job, SimSums, TraceCounts};
use crate::stats::{median, percentile, ratio, Tally};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Run, SETUP_MIN_REPS, SETUP_MIN_S};

/// Keep-alive client connections: one per core of the 2-core host the
/// benchmark is sized for.
const CLIENTS: usize = 2;
/// Requests per pass. Each pass simulates one miss per distinct spec it
/// names (196 of the 600), so two passes give the 200 misses a p95
/// needs for 10 samples beyond it, and a pass fits in a run.
const REQUESTS: usize = 600;
/// The mix names no kind more often than another: each kind gets a
/// quarter of the requests.
const KINDS: [JobKind; 4] = [
    JobKind::Run,
    JobKind::Analyze,
    JobKind::Verify,
    JobKind::Asm,
];
/// Popularity exponent: within its kind, the spec of rank `r` in a
/// seeded ranking gets a share of the requests proportional to
/// `1 / r^ZIPF_S`. Request popularity in measured web proxy traces
/// follows such a Zipf-like law with an exponent between about 0.6 and
/// 0.8 (Breslau et al., "Web Caching and Zipf-like Distributions",
/// INFOCOM 1999); 0.8 is the skewed end of that range.
const ZIPF_S: f64 = 0.8;
/// Functional warm-up of the `run` specs that ask for one: every run
/// spec is offered both fully detailed and with this warm-up. It is
/// under half of the shortest quick-scale stand-in on offer (xz, 54,280
/// instructions), so every warmed run keeps a detailed region, and it
/// lies within the 5,000-50,000 warm-ups the repository's own
/// fast-forward tests use.
const FAST_FORWARD: u64 = 20_000;
/// Host-speed kernel samples timed before and after each timed pass.
const KERNEL_SAMPLES: usize = 5;
/// Cache-warming submission made during set-up; not part of the mix.
const WARMUP: &str = r#"{"kind":"analyze","suite":"spec2017","bench":"exchange2"}"#;

/// One candidate submission.
#[derive(Clone, Debug)]
struct Candidate {
    json: String,
    kind: JobKind,
}

fn candidates() -> Vec<Candidate> {
    let names = |s: Suite| -> Vec<&'static str> {
        match s {
            Suite::Spec2017 => recon_workloads::spec2017(Scale::Quick),
            _ => recon_workloads::spec2006(Scale::Quick),
        }
        .iter()
        .map(|b| b.name)
        .collect()
    };
    let schemes: Vec<String> = sim::schemes()
        .iter()
        .map(|s| s.label().to_ascii_lowercase())
        .collect();
    let mut out = Vec::new();
    for (suite, label) in [(Suite::Spec2017, "spec2017"), (Suite::Spec2006, "spec2006")] {
        // Served specs lowercase the benchmark name, so a stand-in with
        // capitals in its name cannot be named over the wire.
        for bench in names(suite)
            .into_iter()
            .filter(|b| *b == b.to_ascii_lowercase())
        {
            for scheme in &schemes {
                for ff in [String::new(), format!(",\"fast_forward\":{FAST_FORWARD}")] {
                    out.push(Candidate {
                        json: format!(
                            "{{\"kind\":\"run\",\"suite\":\"{label}\",\"bench\":\"{bench}\",\"scheme\":\"{scheme}\"{ff}}}"
                        ),
                        kind: JobKind::Run,
                    });
                }
            }
            if !(suite == Suite::Spec2017 && bench == "exchange2") {
                out.push(Candidate {
                    json: format!(
                        "{{\"kind\":\"analyze\",\"suite\":\"{label}\",\"bench\":\"{bench}\"}}"
                    ),
                    kind: JobKind::Analyze,
                });
            }
        }
    }
    for g in recon_verify::gadget::all_with_embedded() {
        for scheme in &schemes {
            out.push(Candidate {
                json: format!(
                    "{{\"kind\":\"verify\",\"gadget\":\"{}\",\"scheme\":\"{scheme}\"}}",
                    g.name
                ),
                kind: JobKind::Verify,
            });
        }
    }
    for e in &recon_asm::corpus::CORPUS {
        for scheme in &schemes {
            out.push(Candidate {
                json: format!(
                    "{{\"kind\":\"asm\",\"scheme\":\"{scheme}\",\"source\":{}}}",
                    crate::stats::json_str(e.source)
                ),
                kind: JobKind::Asm,
            });
        }
    }
    out
}

/// The seeded request list. Each kind gets the same number of requests.
/// Within a kind, the spec of rank `r` in a seeded ranking is requested
/// its Zipf share of them, so popular specs repeat (cache hits) and the
/// tail is requested once (misses) or not at all. The counts are fixed,
/// so every seed names as many distinct specs and simulates as many
/// misses of each kind; the seed picks which spec holds which rank, and
/// the order of the requests.
fn request_list(seed: u64) -> Vec<Candidate> {
    let mut rng = SplitMix64::new(seed ^ 0x0073_6572_7665);
    let all = candidates();
    let mut out = Vec::with_capacity(REQUESTS);
    for kind in KINDS {
        let mut pool: Vec<&Candidate> = all.iter().filter(|c| c.kind == kind).collect();
        shuffle(&mut pool, &mut rng);
        for (c, n) in pool
            .iter()
            .zip(zipf_counts(pool.len(), REQUESTS / KINDS.len()))
        {
            out.extend(std::iter::repeat_n((*c).clone(), n));
        }
    }
    shuffle(&mut out, &mut rng);
    out
}

/// `total` requests split over `n` ranks in proportion to `1 / r^ZIPF_S`,
/// rounded by largest remainder so that they sum to `total`.
fn zipf_counts(n: usize, total: usize) -> Vec<usize> {
    let exact: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-ZIPF_S)).collect();
    let h: f64 = exact.iter().sum();
    let exact: Vec<f64> = exact.iter().map(|w| w / h * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let short = total - counts.iter().sum::<usize>();
    for &i in by_remainder.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

/// One answered request.
#[derive(Clone, Debug)]
struct Answer {
    status: u16,
    hit: bool,
    body: String,
    retries: u32,
    latency_ms: f64,
}

struct Pass {
    answers: Vec<Result<Answer, String>>,
    wall: f64,
}

/// Starts a server and warms it up; returns it with the set-up time.
fn start() -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = server.addr();
    let health =
        client::request(addr, "GET", "/healthz", None).map_err(|e| format!("healthz: {e}"))?;
    let warm = client::submit_job(addr, WARMUP).map_err(|e| format!("warm-up: {e}"))?;
    if health.status != 200 || warm.status != 200 {
        return Err(format!(
            "warm-up answered {} / {}",
            health.status, warm.status
        ));
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

fn stop(server: Server) -> Result<(), String> {
    let resp = client::request(server.addr(), "POST", "/shutdown", None)
        .map_err(|e| format!("shutdown: {e}"))?;
    server.wait();
    if resp.status == 200 {
        Ok(())
    } else {
        Err(format!("shutdown answered {}", resp.status))
    }
}

fn drive(addr: SocketAddr, list: &[Candidate]) -> Vec<Result<Answer, String>> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<Answer, String>>>> = Mutex::new(vec![None; list.len()]);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (next, slots) = (&next, &slots);
            s.spawn(move || {
                let mut conn = Connection::new(addr);
                let policy = RetryPolicy {
                    seed: c as u64,
                    ..RetryPolicy::default()
                };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = list.get(i) else { break };
                    let t = Instant::now();
                    let sent = client::submit_with_retry(
                        &mut conn,
                        &req.json,
                        i as u64,
                        &policy,
                        &mut std::thread::sleep,
                    );
                    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                    let answer = sent
                        .map(|r| Answer {
                            status: r.response.status,
                            hit: r.response.header("x-recon-cache") == Some("hit"),
                            body: r.response.body,
                            retries: r.attempts - 1,
                            latency_ms,
                        })
                        .map_err(|e| format!("request {i}: {e}"));
                    slots.lock().expect("no client panics holding the slots")[i] = Some(answer);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("clients joined")
        .into_iter()
        .map(|a| a.unwrap_or_else(|| Err("never sent".into())))
        .collect()
}

fn pass(list: &[Candidate]) -> Result<Pass, String> {
    let (server, _) = start()?;
    let t = Instant::now();
    let answers = drive(server.addr(), list);
    let wall = t.elapsed().as_secs_f64();
    stop(server)?;
    Ok(Pass { answers, wall })
}

/// What a direct `recon_serve::execute` of the spec answers, mapped to
/// `(status, body)` the way the server maps it.
fn expected(json: &str) -> Result<(u16, String), String> {
    let v = recon_serve::json::parse(json)?;
    let spec = JobSpec::from_json(&v)?;
    Ok(match job::execute(&spec, None) {
        Ok(out) => (200, out.payload),
        Err(JobError::DeadlineExceeded { payload, .. }) => (408, payload),
        Err(JobError::Stalled { payload } | JobError::AuditViolated { payload }) => (500, payload),
        Err(e) => (500, format!("{e:?}")),
    })
}

/// Whether each request is the first for its spec in the list: on a
/// fresh server, the one that simulates.
fn first_requests(list: &[Candidate]) -> Vec<bool> {
    let mut seen = HashSet::new();
    list.iter().map(|c| seen.insert(c.json.as_str())).collect()
}

/// Distinct submissions in first-appearance order.
fn distinct(list: &[Candidate]) -> Vec<&Candidate> {
    list.iter()
        .zip(first_requests(list))
        .filter_map(|(c, first)| first.then_some(c))
        .collect()
}

/// The answers of all passes by what the server did for them.
struct Split<'a> {
    hits: Vec<&'a Answer>,
    /// First requests for a spec, with the spec.
    misses: Vec<(&'a Candidate, &'a Answer)>,
    /// Later requests that waited on the first one's job.
    joins: usize,
}

fn split<'a>(list: &'a [Candidate], passes: &'a [Pass]) -> Split<'a> {
    let first = first_requests(list);
    let mut out = Split {
        hits: Vec::new(),
        misses: Vec::new(),
        joins: 0,
    };
    for p in passes {
        for ((c, a), &first) in list.iter().zip(&p.answers).zip(&first) {
            match a {
                Ok(a) if a.hit => out.hits.push(a),
                Ok(a) if first => out.misses.push((c, a)),
                Ok(_) => out.joins += 1,
                Err(_) => {}
            }
        }
    }
    out
}

impl Split<'_> {
    fn miss_ms(&self) -> Vec<f64> {
        self.misses.iter().map(|(_, a)| a.latency_ms).collect()
    }

    fn hit_ms(&self) -> Vec<f64> {
        self.hits.iter().map(|a| a.latency_ms).collect()
    }
}

/// Checks every answer against the direct execution of its spec.
fn check(
    list: &[Candidate],
    answers: &[Result<Answer, String>],
    want: &HashMap<String, Result<(u16, String), String>>,
    tally: &mut Tally,
) {
    for (req, a) in list.iter().zip(answers) {
        let verdict = a
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|a| match &want[&req.json] {
                Err(e) => Err(format!("direct execution failed: {e}")),
                Ok((status, body)) if a.status != *status || a.body != *body => Err(format!(
                    "{} answered {} ({} bytes), direct execute gives {status} ({} bytes)",
                    req.kind.label(),
                    a.status,
                    a.body.len(),
                    body.len()
                )),
                Ok(_) => Ok(()),
            });
        tally.record(verdict);
    }
}

/// FxHash over the served `(status, body)` of each distinct spec.
fn fingerprint<'a>(items: impl Iterator<Item = (u16, &'a str)>) -> u64 {
    use std::hash::Hasher as _;
    let mut h = recon_isa::hash::FxHasher::default();
    for (status, body) in items {
        h.write_u16(status);
        h.write(body.as_bytes());
    }
    h.finish()
}

fn served_fingerprint(list: &[Candidate], answers: &[Result<Answer, String>]) -> u64 {
    let order = distinct(list);
    let first = |json: &str| {
        list.iter()
            .zip(answers)
            .find(|(c, _)| c.json == json)
            .and_then(|(_, a)| a.as_ref().ok())
    };
    fingerprint(
        order
            .iter()
            .map(|c| first(&c.json).map_or((0, ""), |a| (a.status, a.body.as_str()))),
    )
}

/// Committed instructions a miss simulated, from its payload.
fn committed(body: &str) -> Option<u64> {
    recon_serve::json::parse(body)
        .ok()?
        .get("committed")?
        .as_u64()
}

fn references(list: &[Candidate]) -> HashMap<String, Result<(u16, String), String>> {
    let specs: Vec<String> = distinct(list).into_iter().map(|c| c.json.clone()).collect();
    let answers = recon_sim::parallel_map(CLIENTS, specs.clone(), |json| expected(&json));
    specs.into_iter().zip(answers).collect()
}

/// Server set-ups (start and warm-up; the stop is not timed) until they
/// cover [`SETUP_MIN_S`]; returns their median.
fn setup_s() -> Result<f64, String> {
    let mut times = Vec::new();
    while times.len() < SETUP_MIN_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        let (server, s) = start()?;
        times.push(s);
        stop(server)?;
    }
    Ok(median(&times).unwrap_or(0.0))
}

/// Passes over the list, each on a fresh server, until `seconds` have
/// gone; returns an untimed warm-up pass made first, and the timed
/// passes. The service resolves each benchmark once per process (its
/// lookup memo), as a long-running server does; the warm-up pays that
/// once, so every timed pass starts from the same state. Only the
/// result cache starts empty in each pass.
fn timed(
    list: &[Candidate],
    seconds: f64,
    clock: &mut HostClock,
) -> Result<(Pass, Vec<Pass>), String> {
    let warm = pass(list)?;
    let start_t = Instant::now();
    let mut passes = Vec::new();
    loop {
        clock.sample(KERNEL_SAMPLES);
        passes.push(pass(list)?);
        if passes.len() >= crate::MIN_PASSES && start_t.elapsed().as_secs_f64() >= seconds {
            clock.sample(KERNEL_SAMPLES);
            return Ok((warm, passes));
        }
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool, clock: &mut HostClock) -> Result<Run, String> {
    let list = request_list(seed);
    if traced {
        return run_traced(&list, seconds, clock);
    }
    let mut out = Run::default();
    let setup_s = setup_s()?;
    let (warm, passes) = timed(&list, seconds, clock)?;
    let rss = peak_rss_mb();

    let want = references(&list);
    let want_fp = fingerprint(distinct(&list).iter().map(|c| match &want[&c.json] {
        Ok((s, b)) => (*s, b.as_str()),
        Err(_) => (0, ""),
    }));
    for p in std::iter::once(&warm).chain(&passes) {
        check(&list, &p.answers, &want, &mut out.tally);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let split = split(&list, &passes);
    let miss_ms = split.miss_ms();
    // Simulated instructions per second of client-observed miss time,
    // over the misses whose payload reports `committed`.
    let (instr, ms) = split
        .misses
        .iter()
        .filter_map(|(_, a)| committed(&a.body).map(|n| (n, a.latency_ms)))
        .fold((0u64, 0.0), |(n, t), (c, ms)| (n + c, t + ms));
    let served_fp = served_fingerprint(&list, &passes[0].answers);
    out.fingerprints.push(("served".into(), served_fp));
    out.fingerprints.push(("direct".into(), want_fp));
    out.lines.push(format!(
        "{} requests per pass from {CLIENTS} clients, {} distinct specs; {} hits, {} misses, {} joins; pass walls {walls:.3?} s",
        list.len(),
        want.len(),
        split.hits.len(),
        miss_ms.len(),
        split.joins
    ));
    let mut e = Values::end_to_end();
    e.set("detailed_mips", ratio(instr as f64 / 1e6, ms / 1e3));
    e.set("figures_s", median(&walls).unwrap_or(0.0));
    e.set("serve_miss_p50_ms", median(&miss_ms).unwrap_or(0.0));
    e.set("setup_s", setup_s);
    e.set("peak_rss_mb", rss);
    out.values = e;
    Ok(out)
}

fn run_traced(list: &[Candidate], seconds: f64, clock: &mut HostClock) -> Result<Run, String> {
    let mut out = Run::default();
    let mut tr = Tracer::new();
    let (warm, passes) = timed(list, seconds, clock)?;
    let served_fp = served_fingerprint(list, &passes[0].answers);

    // Direct calls, one distinct spec at a time: parse, digest and a
    // direct execute (the reference the served answers must equal).
    let specs = distinct(list);
    let mut want = HashMap::new();
    let mut exec_ms: HashMap<String, f64> = HashMap::new();
    let mut per_kind: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let (mut parse_ns, mut digest_ns) = (0u64, 0u64);
    let mut parsed = Vec::new();
    for c in &specs {
        let t0 = tr.now_ns();
        let spec = tr.span("serve.parse", |_| {
            recon_serve::json::parse(&c.json).and_then(|v| JobSpec::from_json(&v))
        })?;
        let t1 = tr.now_ns();
        std::hint::black_box(tr.span("serve.digest", |_| spec.digest()));
        let t2 = tr.now_ns();
        parse_ns += t1 - t0;
        digest_ns += t2 - t1;
        let e0 = tr.now_ns();
        let direct = tr.span("probe.execute", |_| expected(&c.json));
        let ms = (tr.now_ns() - e0) as f64 / 1e6;
        exec_ms.insert(c.json.clone(), ms);
        per_kind.entry(c.kind.label()).or_default().push(ms);
        want.insert(c.json.clone(), direct);
        parsed.push(spec);
    }
    for p in std::iter::once(&warm).chain(&passes) {
        check(list, &p.answers, &want, &mut out.tally);
    }
    let direct_fp = fingerprint(specs.iter().map(|c| match &want[&c.json] {
        Ok((s, b)) => (*s, b.as_str()),
        Err(_) => (0, ""),
    }));
    crate::compare_fingerprints(&mut out, served_fp, direct_fp);

    // The same jobs again through each crate's own entry point, with the
    // simulations ticked from here.
    let mut counts = TraceCounts::default();
    let mut sums = SimSums::default();
    let (mut dift_ms, mut verify_ms, mut asm_us) = (vec![], vec![], vec![]);
    let mut suites: HashMap<Suite, Vec<recon_workloads::Benchmark>> = HashMap::new();
    let t = Instant::now();
    for (c, spec) in specs.iter().zip(&parsed) {
        let sim_job = match spec.kind {
            JobKind::Run | JobKind::Analyze => {
                let suite = match spec.suite.as_deref() {
                    Some("spec2017") => Suite::Spec2017,
                    _ => Suite::Spec2006,
                };
                let name = spec.bench.clone().unwrap_or_default();
                // Like the server's lookup memo: each suite is generated
                // once, later lookups reuse it.
                let benches = suites.entry(suite).or_insert_with(|| {
                    tr.span("workloads.gen", |_| match suite {
                        Suite::Spec2017 => recon_workloads::spec2017(Scale::Quick),
                        _ => recon_workloads::spec2006(Scale::Quick),
                    })
                });
                let bench = benches
                    .iter()
                    .find(|b| b.name.eq_ignore_ascii_case(&name))
                    .cloned()
                    .ok_or_else(|| format!("no benchmark {name}"))?;
                if spec.kind == JobKind::Analyze {
                    let a0 = tr.now_ns();
                    let r = tr.span("dift.analyze", |_| {
                        recon_dift::analyze_program_budgeted(&bench.workload.program, 200_000_000)
                    });
                    dift_ms.push((tr.now_ns() - a0) as f64 / 1e6);
                    out.tally
                        .record(r.map(|_| ()).map_err(|e| format!("dift: {e}")));
                    None
                } else {
                    Some(Job {
                        program: c.json.clone(),
                        workload: Arc::new(bench.workload),
                        exp: job::experiment_for(suite),
                        scheme: spec.scheme.expect("validated"),
                        golden: None,
                        fast_forward: spec.fast_forward,
                    })
                }
            }
            JobKind::Verify => {
                let v0 = tr.now_ns();
                let cell = tr.span("verify.cell", |_| {
                    recon_verify::run_cell_named_budgeted(
                        spec.gadget.as_deref().unwrap_or_default(),
                        spec.scheme.expect("validated"),
                        &Budget::default(),
                    )
                });
                verify_ms.push((tr.now_ns() - v0) as f64 / 1e6);
                out.tally.record(match cell {
                    Some(Ok(cell)) if cell.as_expected() => Ok(()),
                    Some(Ok(_)) => Err("verify cell verdict not as expected".into()),
                    Some(Err(e)) => Err(format!("verify: {e}")),
                    None => Err("unknown gadget".into()),
                });
                None
            }
            JobKind::Asm | JobKind::Matrix => {
                let a0 = tr.now_ns();
                let p = tr
                    .span("asm.assemble", |_| {
                        recon_asm::assemble(spec.source.as_deref().unwrap_or_default())
                    })
                    .map_err(|e| format!("assemble: {e}"))?;
                asm_us.push((tr.now_ns() - a0) as f64 / 1e3);
                let threads: Vec<ThreadSpec> = p
                    .entries
                    .iter()
                    .map(|e| ThreadSpec {
                        entry: e.entry,
                        seeds: e.seeds.clone(),
                    })
                    .collect();
                Some(Job {
                    program: c.json.clone(),
                    workload: Arc::new(Workload {
                        program: p.program,
                        threads,
                    }),
                    exp: job::experiment_for(Suite::Corpus),
                    scheme: spec.scheme.expect("validated"),
                    golden: None,
                    fast_forward: None,
                })
            }
        };
        if let Some(j) = sim_job {
            let o = sim::run_traced(&j, &mut tr, &mut counts, &mut out.tally);
            // The traced simulation must agree with the direct execute.
            let served = want[&c.json].as_ref().ok().map(|(_, b)| committed(b));
            out.tally.record(match (&o.result, served) {
                (Ok(r), Some(Some(n))) if r.committed() == n => Ok(()),
                (Ok(r), s) => Err(format!(
                    "traced run committed {} but execute gave {s:?}",
                    r.committed()
                )),
                (Err(e), _) => Err(e.clone()),
            });
            if let Ok(r) = &o.result {
                sums.add(r);
            }
        }
    }
    let layer_wall = t.elapsed().as_secs_f64();

    let split = split(list, &passes);
    let hit_ms = split.hit_ms();
    let miss_ms = split.miss_ms();
    let overhead: Vec<f64> = split
        .misses
        .iter()
        .map(|(c, a)| a.latency_ms - exec_ms.get(&c.json).copied().unwrap_or(0.0))
        .collect();
    let answered = passes.iter().flat_map(|p| p.answers.iter().flatten());
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let n = specs.len() as f64;
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };

    sim::attribute_ticks(&mut tr, &counts);
    let mut v = Values::per_layer();
    layers::fill_sim(&mut v, &counts, &sums);
    layers::fill_shares(&mut v, &tr);
    v.set("serve.parse_us", ratio(parse_ns as f64 / 1e3, n));
    v.set("serve.digest_us", ratio(digest_ns as f64 / 1e3, n));
    for kind in ["run", "analyze", "verify", "asm"] {
        v.set(
            &format!("serve.execute_ms.{kind}"),
            mean(per_kind.get(kind).map_or(&[][..], |x| x)),
        );
    }
    v.set("serve.http_overhead_ms", median(&overhead).unwrap_or(0.0));
    v.set(
        "serve_jobs_per_s",
        ratio(list.len() as f64, median(&walls).unwrap_or(0.0)),
    );
    v.set(
        "serve.cache_hit_frac",
        ratio(hit_ms.len() as f64, (list.len() * passes.len()) as f64),
    );
    v.set("serve.joins", split.joins as f64);
    v.set(
        "serve.retries",
        answered.map(|a| f64::from(a.retries)).sum(),
    );
    v.set("serve_hit_p50_ms", percentile(&hit_ms, 50.0).unwrap_or(0.0));
    v.set(
        "serve_miss_p95_ms",
        percentile(&miss_ms, 95.0).unwrap_or(0.0),
    );
    v.set("serve.miss_samples", miss_ms.len() as f64);
    v.set("dift.analyze_ms", mean(&dift_ms));
    v.set("verify.cell_ms", mean(&verify_ms));
    v.set("asm.assemble_us", mean(&asm_us));
    let exec_total: f64 = exec_ms.values().sum::<f64>() / 1e3;
    v.set("trace.overhead_s", layer_wall - exec_total);
    out.lines.push(format!(
        "{} passes of {} requests, {} distinct specs; {} hits, {} misses, {} joins (p95 needs >= 200 misses)",
        passes.len(),
        list.len(),
        specs.len(),
        hit_ms.len(),
        miss_ms.len(),
        split.joins
    ));
    out.finish_traced(v, &counts, tr);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_counts_sum_to_the_total_and_fall_with_rank() {
        for (n, total) in [(1, 150), (25, 150), (300, 150), (7, 3)] {
            let c = zipf_counts(n, total);
            assert_eq!(c.len(), n);
            assert_eq!(c.iter().sum::<usize>(), total, "n={n}");
            assert!(c.windows(2).all(|w| w[0] >= w[1]), "n={n}: {c:?}");
        }
    }

    #[test]
    fn every_seed_sends_the_same_counts() {
        let shape = |seed| {
            let list = request_list(seed);
            let kinds: Vec<usize> = KINDS
                .iter()
                .map(|k| list.iter().filter(|c| c.kind == *k).count())
                .collect();
            (list.len(), kinds, distinct(&list).len())
        };
        let first = shape(1);
        assert_eq!(first.0, REQUESTS);
        assert_eq!(first.1, vec![REQUESTS / KINDS.len(); KINDS.len()]);
        assert_eq!(shape(2), first);
        assert_ne!(
            request_list(1).iter().map(|c| &c.json).collect::<Vec<_>>(),
            request_list(2).iter().map(|c| &c.json).collect::<Vec<_>>()
        );
    }
}
