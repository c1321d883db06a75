//! Simulation jobs: the untimed-detail runner used by the timed region,
//! the traced runner that ticks `System` itself, the memory-log replay,
//! the per-job output checks and the fingerprint.

use std::hash::Hasher as _;
use std::sync::Arc;
use std::time::Instant;

use recon_isa::hash::FxHasher;
use recon_isa::snap::SnapWriter;
use recon_isa::DecodedProgram;
use recon_mem::observe::MemEventKind;
use recon_mem::{MemStats, MemorySystem};
use recon_secure::SecureConfig;
use recon_sim::{
    Budget, Experiment, System, SystemResult, DEFAULT_AUDIT_EVERY_CYCLES, DEFAULT_WATCHDOG_CYCLES,
};
use recon_workloads::Workload;

use crate::layers::Values;
use crate::stats::{median, ratio, Tally};
use crate::trace::Tracer;

/// The five evaluated configurations, in the paper's order.
pub fn schemes() -> [SecureConfig; 5] {
    [
        SecureConfig::unsafe_baseline(),
        SecureConfig::nda(),
        SecureConfig::nda_recon(),
        SecureConfig::stt(),
        SecureConfig::stt_recon(),
    ]
}

/// Cycles between replays of the recorded memory log, which bounds the
/// log's memory.
const REPLAY_CHUNK_CYCLES: u64 = 4096;

/// One simulation: a program under one scheme.
#[derive(Clone, Debug)]
pub struct Job {
    /// Program name; jobs with equal names run the same program.
    pub program: String,
    pub workload: Arc<Workload>,
    pub exp: Experiment,
    pub scheme: SecureConfig,
    /// Golden digest of a self-checking corpus program.
    pub golden: Option<u64>,
    /// Functional instructions to run before detailed timing.
    pub fast_forward: Option<u64>,
}

impl Job {
    pub fn label(&self) -> String {
        format!("{} under {}", self.program, self.scheme.label())
    }

    fn budget(&self) -> Budget {
        Budget {
            fast_forward: self.fast_forward,
            ..Budget::default()
        }
    }
}

/// What one job produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub result: Result<SystemResult, String>,
    /// Architectural digest (memory image + registers) at the end.
    pub arch_digest: u64,
    /// `(digest, status)` words of a corpus program's self-check.
    pub self_check: (u64, u64),
    /// Host seconds for `System::new` plus the run.
    pub seconds: f64,
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

fn finish(sys: &System, result: Result<SystemResult, String>, seconds: f64) -> Outcome {
    Outcome {
        result,
        arch_digest: sys.arch_digest(),
        self_check: (
            sys.data().peek(recon_asm::corpus::DIGEST_ADDR),
            sys.data().peek(recon_asm::corpus::STATUS_ADDR),
        ),
        seconds,
    }
}

/// Runs a job the way the simulator's own entry points do
/// (`System::run_budgeted`), timing `System::new` plus the run.
pub fn run_plain(job: &Job) -> Outcome {
    let run = || {
        let t0 = Instant::now();
        let mut sys = System::new(
            &job.workload,
            job.exp.core,
            job.exp.mem,
            job.scheme,
            job.exp.recon,
        );
        let r = sys
            .run_budgeted(job.exp.max_cycles, &job.budget())
            .map_err(|e| e.to_string());
        let seconds = t0.elapsed().as_secs_f64();
        finish(&sys, r, seconds)
    };
    std::panic::catch_unwind(run).unwrap_or_else(|p| Outcome {
        result: Err(format!("panicked: {}", panic_text(&*p))),
        arch_digest: 0,
        self_check: (0, 0),
        seconds: 0.0,
    })
}

/// Architectural digest of a functional-only run of the workload
/// (every thread interpreted to `halt`, no timing model).
pub fn functional_digest(workload: &Workload, exp: &Experiment) -> u64 {
    let mut sys = System::new(
        workload,
        exp.core,
        exp.mem,
        SecureConfig::unsafe_baseline(),
        exp.recon,
    );
    sys.fast_forward(u64::MAX);
    sys.arch_digest()
}

/// Counts the traced runner gathers across jobs.
#[derive(Clone, Debug, Default)]
pub struct TraceCounts {
    pub ticks: u64,
    pub idle_ticks: u64,
    pub tick_ns: u64,
    pub replay_ns: u64,
    pub replayed_accesses: u64,
    /// Jobs whose replayed `MemStats` differed from the run's.
    pub replay_mismatches: u64,
    pub audits: u64,
    pub audit_ns: u64,
    pub sim_new_ns: u64,
    pub sim_new_count: u64,
    pub decode_ns: u64,
    pub decode_count: u64,
    pub ff_ns: u64,
    pub ff_instructions: u64,
}

/// Replays recorded demand accesses into `replay`, returning how many.
fn replay_events(sys: &mut System, replay: &mut MemorySystem) -> u64 {
    let mut n = 0;
    for ev in sys.mem_mut().take_transactions() {
        replay.set_now(ev.cycle);
        match ev.kind {
            MemEventKind::Read { core, addr, .. } => {
                replay.read(core, addr);
            }
            MemEventKind::Write { core, addr, .. } => {
                replay.write(core, addr);
            }
            MemEventKind::Rmw { core, addr, .. } => {
                replay.rmw(core, addr);
            }
            MemEventKind::RevealSet { core, addr } | MemEventKind::RevealDropped { core, addr } => {
                replay.reveal(core, addr);
            }
            // Side effects of the demand accesses above; the replay
            // regenerates them.
            _ => continue,
        }
        n += 1;
    }
    n
}

/// Runs a job by ticking `System` from here: each tick is timed, the
/// committed count around it gives idle ticks, the auditor sweeps every
/// `DEFAULT_AUDIT_EVERY_CYCLES`, and the memory log is replayed into a
/// fresh `MemorySystem` to time the memory hierarchy on its own.
///
/// The loop stops exactly where `System::run_budgeted` stops, so the
/// result equals an untraced run's. Audit violations are added to
/// `tally` against this job; a replay whose `MemStats` differ from the
/// run's is counted in `c.replay_mismatches`.
pub fn run_traced(job: &Job, tr: &mut Tracer, c: &mut TraceCounts, tally: &mut Tally) -> Outcome {
    tr.span("bench.job", |tr| {
        let t0 = Instant::now();
        let s0 = tr.now_ns();
        let mut sys = tr.span("sim.new", |_| {
            System::new(
                &job.workload,
                job.exp.core,
                job.exp.mem,
                job.scheme,
                job.exp.recon,
            )
        });
        let new_ns = tr.now_ns() - s0;
        c.sim_new_ns += new_ns;
        c.sim_new_count += 1;
        // System::new decodes the program; time that decode on its own
        // and move it from the sim layer to the isa layer.
        let d0 = tr.now_ns();
        let decoded = DecodedProgram::decode(&job.workload.program);
        std::hint::black_box(&decoded);
        let d1 = tr.now_ns();
        tr.record("probe.decode", d0, d1);
        drop(decoded);
        let decode_ns = (d1 - d0).min(new_ns);
        tr.add_estimate("sim", "isa", decode_ns);
        c.decode_ns += d1 - d0;
        c.decode_count += 1;

        if let Some(n) = job.fast_forward {
            let f0 = tr.now_ns();
            let done = tr.span("isa.fast_forward", |_| sys.fast_forward(n));
            c.ff_ns += tr.now_ns() - f0;
            c.ff_instructions += done;
        }

        sys.mem_mut().record_transactions(true);
        let mut replay = MemorySystem::new(
            sys.mem().num_cores(),
            sys.mem().config(),
            sys.mem().recon_config(),
        );
        let mut violations = Vec::new();
        let mut stalled = false;
        let max_cycles = job.exp.max_cycles;
        tr.span("sim.run", |tr| {
            let mut last_total = sys.committed_total();
            let mut last_progress = sys.cycle();
            loop {
                let t = Instant::now();
                let busy = sys.tick();
                c.tick_ns += t.elapsed().as_nanos() as u64;
                c.ticks += 1;
                let total = sys.committed_total();
                if total == last_total {
                    c.idle_ticks += 1;
                } else {
                    last_total = total;
                    last_progress = sys.cycle();
                }
                if !busy || sys.cycle() >= max_cycles {
                    break;
                }
                if sys.cycle() - last_progress >= DEFAULT_WATCHDOG_CYCLES {
                    stalled = true;
                    break;
                }
                if sys.cycle() % DEFAULT_AUDIT_EVERY_CYCLES == 0 {
                    let a0 = tr.now_ns();
                    violations.extend(tr.span("sim.audit", |_| sys.audit()));
                    c.audit_ns += tr.now_ns() - a0;
                    c.audits += 1;
                }
                if sys.cycle() % REPLAY_CHUNK_CYCLES == 0 {
                    let r0 = tr.now_ns();
                    c.replayed_accesses +=
                        tr.span("probe.replay", |_| replay_events(&mut sys, &mut replay));
                    c.replay_ns += tr.now_ns() - r0;
                }
            }
            let a0 = tr.now_ns();
            violations.extend(tr.span("sim.audit", |_| sys.audit()));
            c.audit_ns += tr.now_ns() - a0;
            c.audits += 1;
            let r0 = tr.now_ns();
            c.replayed_accesses +=
                tr.span("probe.replay", |_| replay_events(&mut sys, &mut replay));
            c.replay_ns += tr.now_ns() - r0;
        });
        let result = SystemResult {
            completed: sys.cores().iter().all(recon_cpu::Core::is_done),
            cycles: sys.cycle(),
            cores: sys.cores().iter().map(recon_cpu::Core::stats).collect(),
            mem: sys.mem().stats(),
        };
        if replay.stats() != result.mem {
            c.replay_mismatches += 1;
        }
        if !violations.is_empty() {
            tally.fail_counted(format!(
                "{}: auditor found {} violation(s), first: {}",
                job.label(),
                violations.len(),
                violations[0]
            ));
        }
        let seconds = t0.elapsed().as_secs_f64();
        let r = if stalled {
            Err(format!(
                "stalled: no commit for {DEFAULT_WATCHDOG_CYCLES} cycles"
            ))
        } else if !result.completed {
            Err(format!("did not complete within {max_cycles} cycles"))
        } else {
            Ok(result)
        };
        finish(&sys, r, seconds)
    })
}

/// Moves the tick time from the sim layer to the cpu layer and the
/// replayed memory time from the cpu layer to the mem layer.
pub fn attribute_ticks(tr: &mut Tracer, c: &TraceCounts) {
    tr.add_estimate("sim", "cpu", c.tick_ns);
    tr.add_estimate("cpu", "mem", c.replay_ns.min(c.tick_ns));
}

/// FxHash over the `SystemResult::save_snap` bytes of every job, in job
/// order (a failed job contributes a marker).
pub fn fingerprint<'a>(results: impl IntoIterator<Item = &'a Result<SystemResult, String>>) -> u64 {
    let mut h = FxHasher::default();
    for r in results {
        match r {
            Ok(r) => {
                let mut w = SnapWriter::new();
                r.save_snap(&mut w);
                h.write(w.as_slice());
            }
            Err(_) => h.write_u64(u64::MAX),
        }
    }
    h.finish()
}

/// The per-job output checks: completion, equal digests and committed
/// counts across schemes for single-thread programs, agreement with a
/// functional-only run, and corpus self-checks. `functional` maps a
/// program name to its functional-only digest. Every job is one
/// attempt; each failing job is one failure.
pub fn check_jobs(
    jobs: &[Job],
    outcomes: &[Outcome],
    functional: &dyn Fn(&str) -> Option<u64>,
    tally: &mut Tally,
) {
    for (i, (job, out)) in jobs.iter().zip(outcomes).enumerate() {
        let verdict = check_one(job, out, functional, jobs, outcomes, i);
        tally.record(verdict.map_err(|why| format!("{}: {why}", job.label())));
    }
}

fn check_one(
    job: &Job,
    out: &Outcome,
    functional: &dyn Fn(&str) -> Option<u64>,
    jobs: &[Job],
    outcomes: &[Outcome],
    i: usize,
) -> Result<(), String> {
    let r = out.result.as_ref().map_err(Clone::clone)?;
    if !r.completed {
        return Err("did not complete".into());
    }
    if let Some(golden) = job.golden {
        let (digest, status) = out.self_check;
        if status != recon_asm::corpus::STATUS_PASS {
            return Err(format!("self-check status {status:#x}"));
        }
        if digest != golden {
            return Err(format!("corpus digest {digest:#x} != golden {golden:#x}"));
        }
    }
    if job.workload.num_threads() != 1 {
        return Ok(());
    }
    if let Some(want) = functional(&job.program) {
        if out.arch_digest != want {
            return Err(format!(
                "arch digest {:#x} != functional-only {want:#x}",
                out.arch_digest
            ));
        }
    }
    // Compare with the first job of the same program (another scheme).
    if let Some((j, first)) = jobs
        .iter()
        .zip(outcomes)
        .enumerate()
        .find(|(_, (other, _))| other.program == job.program)
        .map(|(j, (_, o))| (j, o))
    {
        if j != i {
            if let Ok(base) = &first.result {
                if first.arch_digest != out.arch_digest {
                    return Err("arch digest differs across schemes".into());
                }
                if base.committed() != r.committed() {
                    return Err(format!(
                        "committed {} differs across schemes ({})",
                        r.committed(),
                        base.committed()
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Functional-only digests of every distinct single-thread program.
pub fn functional_digests(jobs: &[Job]) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for j in jobs.iter().filter(|j| j.workload.num_threads() == 1) {
        if !out.iter().any(|(n, _)| *n == j.program) {
            out.push((j.program.clone(), functional_digest(&j.workload, &j.exp)));
        }
    }
    out
}

/// One timed pass over a batch workload's jobs, in job order.
#[derive(Debug)]
pub struct PassTimes<'a> {
    pub results: Vec<&'a Result<SystemResult, String>>,
    /// Host seconds of each job.
    pub seconds: Vec<f64>,
    pub wall: f64,
}

/// End-to-end metrics of a batch workload from its timed passes. Every
/// pass must give the first pass's fingerprint; a pass that does not
/// counts as a failure. Returns the metrics and that fingerprint.
pub fn batch_values(
    passes: &[PassTimes],
    setup_s: f64,
    rss_mb: f64,
    tally: &mut Tally,
) -> (Values, u64) {
    let first_fp = fingerprint(passes[0].results.iter().copied());
    let mut committed = 0u64;
    let mut job_s = 0.0;
    let mut walls = Vec::new();
    let mut latencies_ms = Vec::new();
    for p in passes {
        let fp = fingerprint(p.results.iter().copied());
        if fp != first_fp {
            tally.fail_counted(format!(
                "pass fingerprint {fp:#018x} != first pass {first_fp:#018x}"
            ));
        }
        committed += p
            .results
            .iter()
            .filter_map(|r| r.as_ref().ok())
            .map(SystemResult::committed)
            .sum::<u64>();
        job_s += p.seconds.iter().sum::<f64>();
        walls.push(p.wall);
        latencies_ms.extend(p.seconds.iter().map(|s| s * 1e3));
    }
    let wall = median(&walls).unwrap_or(0.0);
    let mut e = Values::end_to_end();
    e.set("detailed_mips", ratio(committed as f64 / 1e6, job_s));
    e.set("figures_s", wall);
    e.set("serve_miss_p50_ms", median(&latencies_ms).unwrap_or(0.0));
    e.set("setup_s", setup_s);
    e.set("peak_rss_mb", rss_mb);
    (e, first_fp)
}

/// Sums of the simulated statistics the per-layer metrics are built on.
#[derive(Clone, Debug, Default)]
pub struct SimSums {
    pub cycles: u64,
    pub committed: u64,
    pub core_cycles: u64,
    pub loads: u64,
    pub squashed: u64,
    pub mispredicts: u64,
    pub head_load_stall: u64,
    pub guarded_loads: u64,
    pub delay_cycles: u64,
    pub revealed_loads: u64,
    pub reveals_requested: u64,
    pub tag_conflicts: u64,
    pub mem: MemStats,
}

impl SimSums {
    pub fn add(&mut self, r: &SystemResult) {
        self.cycles += r.cycles;
        self.committed += r.committed();
        for c in &r.cores {
            self.core_cycles += c.cycles;
            self.loads += c.loads_committed;
            self.squashed += c.squashed;
            self.mispredicts += c.branch_mispredicts;
            self.head_load_stall += c.stall_head_load;
            self.guarded_loads += c.guarded_loads_committed;
            self.delay_cycles += c.scheme_delay_cycles;
            self.revealed_loads += c.revealed_loads_committed;
            self.reveals_requested += c.reveals_requested;
            self.tag_conflicts += c.lpt.tag_conflicts;
        }
        let m = &r.mem;
        let s = &mut self.mem;
        s.l1_hits += m.l1_hits;
        s.l2_hits += m.l2_hits;
        s.llc_hits += m.llc_hits;
        s.mem_fetches += m.mem_fetches;
        s.stores_performed += m.stores_performed;
        s.remote_forwards += m.remote_forwards;
        s.invalidations += m.invalidations;
        s.reveals_set += m.reveals_set;
    }
}
