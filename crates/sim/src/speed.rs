//! MIPS scoreboard: how fast the simulator simulates.
//!
//! `recon bench-speed` measures three things and writes them to
//! `BENCH_speed.json`:
//!
//! 1. **Per-scheme throughput** — detailed-mode MIPS (committed
//!    instructions per host second) for each of the five schemes, plus
//!    the end-to-end wall-clock speedup of the same run when most of it
//!    is replaced by a functional fast-forward warmup
//!    ([`crate::System::fast_forward`]). The warm run's detailed region
//!    is checked byte-identical against a snapshot/restore replica, so
//!    the reported speedup never comes at the cost of a divergent
//!    result.
//! 2. **Functional-mode throughput** — MIPS of the straight-line
//!    interpreter over pre-decoded instructions, the engine behind
//!    fast-forward, and of the DIFT leakage analysis
//!    ([`recon_dift::analyze_program`]) over the same program, the
//!    engine behind `recon analyze` and the Figure 4/9 harnesses.
//! 3. **Microbenchmarks isolating each fast path** — pre-decoded
//!    stream lookups vs re-decoding at every fetch, packed u64
//!    reveal-mask batches vs per-word probe-and-set merges, and the
//!    `SparseMem` page cache vs a page-alternating walk over more pages
//!    than it holds.
//!
//! Timings are host-dependent by nature; everything else in the report
//! (instruction counts, warmup length, the identity verdicts, the
//! schema itself) is deterministic, which is what the golden-schema
//! test pins down.

use std::io::Write as _;
use std::time::Instant;

use recon::{MaskArray, RevealMask};
use recon_isa::{
    run_decoded, run_with, ArchState, DataMem, DecodedInst, DecodedProgram, SparseMem,
};
use recon_secure::SecureConfig;
use recon_workloads::{find, Benchmark, Scale, Suite};

use crate::audit::DEFAULT_AUDIT_EVERY_CYCLES;
use crate::error::Budget;
use crate::experiment::Experiment;
use crate::system::System;

/// Throughput of one scheme, detailed vs fast-forward-warmed.
#[derive(Clone, Debug)]
pub struct SchemeSpeed {
    /// The scheme configuration.
    pub scheme: SecureConfig,
    /// Instructions the full detailed run committed.
    pub instructions: u64,
    /// Host seconds of the full detailed run.
    pub detailed_seconds: f64,
    /// Host seconds of the warmed run (functional fast-forward plus
    /// the detailed tail).
    pub warm_seconds: f64,
    /// End-to-end wall-clock speedup: `detailed_seconds /
    /// warm_seconds`.
    pub speedup: f64,
    /// Whether the warm run's detailed region is byte-identical to a
    /// replica restored from a snapshot taken at the mode switch.
    pub identical: bool,
}

impl SchemeSpeed {
    /// Detailed-mode throughput in MIPS.
    #[must_use]
    pub fn detailed_mips(&self) -> f64 {
        mips(self.instructions, self.detailed_seconds)
    }
}

/// Cost of the invariant auditor at its default cadence. The sweep is
/// pure observation, so the *simulated* result must be identical; the
/// cost is host wall-clock only, and it is measured directly — the
/// sweep timed in isolation on end-of-run state, scaled by the number
/// of sweeps the run performs — because differencing two short
/// wall-clock runs cannot resolve a ~1% effect through scheduler
/// noise.
#[derive(Clone, Debug)]
pub struct AuditSpeed {
    /// Sweep cadence in simulated cycles.
    pub audit_every: u64,
    /// Sweeps a full run performs at this cadence.
    pub sweeps: u64,
    /// Host seconds those sweeps cost (per-sweep time × `sweeps`).
    pub sweep_seconds: f64,
    /// Host seconds of the unaudited detailed run (best of repeats).
    pub run_seconds: f64,
    /// Whether an audited run's result (cycles, stats, everything)
    /// equals the unaudited run's.
    pub identical: bool,
}

impl AuditSpeed {
    /// Host-time overhead of auditing, as a fraction of the unaudited
    /// run (0.02 = 2%).
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        if self.run_seconds > 0.0 {
            self.sweep_seconds / self.run_seconds
        } else {
            0.0
        }
    }
}

/// One microbenchmark isolating a single optimization: the same work
/// through the slow path and the fast path.
#[derive(Clone, Debug)]
pub struct MicroBench {
    /// Which fast path this isolates (`decode`, `mask`, `mem`).
    pub name: &'static str,
    /// What the slow side does.
    pub baseline: &'static str,
    /// What the fast side does.
    pub optimized: &'static str,
    /// Slow-side throughput, million operations per second.
    pub baseline_mops: f64,
    /// Fast-side throughput, million operations per second.
    pub optimized_mops: f64,
}

impl MicroBench {
    /// Fast-over-slow throughput ratio.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.baseline_mops > 0.0 {
            self.optimized_mops / self.baseline_mops
        } else {
            0.0
        }
    }
}

/// The full scoreboard, written as `BENCH_speed.json`.
#[derive(Clone, Debug)]
pub struct SpeedReport {
    /// The command line that produced the report, prefixed with the
    /// `RECON_SCALE` it ran at so that it reproduces the numbers.
    pub command: String,
    /// The host it ran on: CPU model and available parallelism.
    pub host: String,
    /// Workload scale the runs used (`quick`/`paper`).
    pub scale: &'static str,
    /// Suite of the measured benchmark.
    pub suite: &'static str,
    /// The measured benchmark.
    pub bench: &'static str,
    /// Instructions the functional interpreter executed to halt.
    pub functional_instructions: u64,
    /// Host seconds of the functional run (including the one-time
    /// decode).
    pub functional_seconds: f64,
    /// Host seconds of the DIFT leakage analysis over the same
    /// instructions (best of repeats).
    pub dift_seconds: f64,
    /// Warmup length the warmed runs fast-forwarded (the first ~95% of
    /// the program).
    pub fast_forward: u64,
    /// Per-scheme detailed/warmed throughput.
    pub schemes: Vec<SchemeSpeed>,
    /// Per-optimization isolation microbenchmarks.
    pub micro: Vec<MicroBench>,
    /// Invariant-auditor cost at the default cadence.
    pub audit: AuditSpeed,
}

fn mips(instructions: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        instructions as f64 / 1e6 / seconds
    } else {
        0.0
    }
}

impl SpeedReport {
    /// Functional-mode throughput in MIPS.
    #[must_use]
    pub fn functional_mips(&self) -> f64 {
        mips(self.functional_instructions, self.functional_seconds)
    }

    /// DIFT leakage-analysis throughput in MIPS.
    #[must_use]
    pub fn dift_mips(&self) -> f64 {
        mips(self.functional_instructions, self.dift_seconds)
    }

    /// Functional MIPS over the *fastest* scheme's detailed MIPS — the
    /// conservative form of the "functional is at least N× detailed"
    /// claim.
    #[must_use]
    pub fn functional_over_detailed(&self) -> f64 {
        let best = self
            .schemes
            .iter()
            .map(SchemeSpeed::detailed_mips)
            .fold(0.0f64, f64::max);
        if best > 0.0 {
            self.functional_mips() / best
        } else {
            0.0
        }
    }

    /// The *smallest* per-scheme end-to-end speedup — the headline
    /// number, conservative over all five schemes.
    #[must_use]
    pub fn end_to_end_speedup(&self) -> f64 {
        self.schemes
            .iter()
            .map(|s| s.speedup)
            .fold(f64::INFINITY, f64::min)
            .min(f64::MAX)
    }

    /// Whether every scheme's warm detailed region matched its
    /// snapshot/restore replica byte for byte.
    #[must_use]
    pub fn all_identical(&self) -> bool {
        self.schemes.iter().all(|s| s.identical)
    }

    /// Runs the full scoreboard on the named benchmark at `scale`.
    /// `quick` shrinks repeat counts (CI smoke); the measured schema
    /// and verdicts are identical either way.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark is unknown, is not single-threaded, or
    /// if a functional run faults — all programmer errors in the
    /// harness, not runtime conditions.
    #[must_use]
    pub fn measure(suite: Suite, bench: &str, scale: Scale, quick: bool) -> SpeedReport {
        let b = find(suite, bench, scale).unwrap_or_else(|| panic!("no benchmark '{bench}'"));
        assert_eq!(
            b.workload.num_threads(),
            1,
            "the speed scoreboard runs single-thread benchmarks"
        );

        // Functional mode: decode once, interpret to halt.
        let t0 = Instant::now();
        let decoded = DecodedProgram::decode(&b.workload.program);
        let mut mem = SparseMem::from_image(&b.workload.program.image);
        let mut st = ArchState::at_entry(&b.workload.program);
        let functional_instructions =
            run_decoded(&decoded, &mut st, &mut mem, u64::MAX).expect("functional run faults");
        assert!(st.halted, "benchmark must halt for the scoreboard");
        let functional_seconds = t0.elapsed().as_secs_f64();
        let dift_seconds = measure_dift(&b, functional_instructions, quick);

        // Warmup covers all but the last ~5% of the program (with a
        // floor so the detailed region always exercises the pipeline).
        let tail = (functional_instructions / 20).max(500);
        let fast_forward = functional_instructions.saturating_sub(tail);

        let exp = Experiment::default();
        let schemes = [
            SecureConfig::unsafe_baseline(),
            SecureConfig::nda(),
            SecureConfig::nda_recon(),
            SecureConfig::stt(),
            SecureConfig::stt_recon(),
        ]
        .into_iter()
        .map(|scheme| measure_scheme(&exp, &b, scheme, fast_forward))
        .collect();

        SpeedReport {
            command: format!(
                "RECON_SCALE={} {}",
                scale.label(),
                std::env::args().collect::<Vec<_>>().join(" ")
            ),
            host: host_description(),
            scale: scale.label(),
            suite: "spec2017",
            bench: b.name,
            functional_instructions,
            functional_seconds,
            dift_seconds,
            fast_forward,
            schemes,
            micro: vec![micro_decode(&b, quick), micro_mask(quick), micro_mem(quick)],
            audit: measure_audit(&exp, &b, quick),
        }
    }

    /// Serializes the scoreboard (hand-rolled: the build is
    /// dependency-free). Field order is the schema; the golden test
    /// pins it.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(2048);
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"command\": \"{}\",", json_escape(&self.command));
        let _ = writeln!(s, "  \"host\": \"{}\",", json_escape(&self.host));
        let _ = writeln!(s, "  \"scale\": \"{}\",", self.scale);
        let _ = writeln!(s, "  \"suite\": \"{}\",", self.suite);
        let _ = writeln!(s, "  \"bench\": \"{}\",", self.bench);
        let _ = writeln!(
            s,
            "  \"functional_instructions\": {},",
            self.functional_instructions
        );
        let _ = writeln!(
            s,
            "  \"functional_seconds\": {:.6},",
            self.functional_seconds
        );
        let _ = writeln!(s, "  \"functional_mips\": {:.3},", self.functional_mips());
        let _ = writeln!(s, "  \"dift_seconds\": {:.6},", self.dift_seconds);
        let _ = writeln!(s, "  \"dift_mips\": {:.3},", self.dift_mips());
        let _ = writeln!(s, "  \"fast_forward\": {},", self.fast_forward);
        let _ = writeln!(
            s,
            "  \"functional_over_detailed\": {:.3},",
            self.functional_over_detailed()
        );
        let _ = writeln!(
            s,
            "  \"end_to_end_speedup\": {:.3},",
            self.end_to_end_speedup()
        );
        let _ = writeln!(
            s,
            "  \"detailed_region_identical\": {},",
            self.all_identical()
        );
        let _ = writeln!(s, "  \"schemes\": [");
        let n = self.schemes.len();
        for (i, sc) in self.schemes.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"scheme\": \"{}\", \"instructions\": {}, \"detailed_seconds\": {:.6}, \"detailed_mips\": {:.3}, \"warm_seconds\": {:.6}, \"speedup\": {:.3}, \"identical\": {}}}{comma}",
                sc.scheme.label(),
                sc.instructions,
                sc.detailed_seconds,
                sc.detailed_mips(),
                sc.warm_seconds,
                sc.speedup,
                sc.identical,
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(
            s,
            "  \"audit\": {{\"audit_every\": {}, \"sweeps\": {}, \"sweep_seconds\": {:.6}, \"run_seconds\": {:.6}, \"overhead_fraction\": {:.4}, \"identical\": {}}},",
            self.audit.audit_every,
            self.audit.sweeps,
            self.audit.sweep_seconds,
            self.audit.run_seconds,
            self.audit.overhead_fraction(),
            self.audit.identical,
        );
        let _ = writeln!(s, "  \"micro\": [");
        let n = self.micro.len();
        for (i, m) in self.micro.iter().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(
                s,
                "    {{\"name\": \"{}\", \"baseline\": \"{}\", \"optimized\": \"{}\", \"baseline_mops\": {:.3}, \"optimized_mops\": {:.3}, \"speedup\": {:.3}}}{comma}",
                m.name,
                m.baseline,
                m.optimized,
                m.baseline_mops,
                m.optimized_mops,
                m.speedup(),
            );
        }
        let _ = writeln!(s, "  ]");
        let _ = writeln!(s, "}}");
        s
    }

    /// Writes [`SpeedReport::to_json`] to `path`, overwriting.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or writing the file.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json().as_bytes())
    }
}

/// The CPU model (from `/proc/cpuinfo` where there is one) and the
/// available parallelism.
fn host_description() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".into());
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    format!("{cpu}, {cpus} CPUs")
}

/// Escapes quotes and backslashes for a JSON string (command lines and CPU
/// names carry no control characters).
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Host seconds of the DIFT leakage analysis over `b`, best of
/// repeats. It must analyze exactly the `instructions` the functional
/// run executed.
fn measure_dift(b: &Benchmark, instructions: u64, quick: bool) -> f64 {
    let repeats = if quick { 1 } else { 3 };
    (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            let report = recon_dift::analyze_program(&b.workload.program, usize::MAX)
                .expect("leakage analysis faults");
            let seconds = t0.elapsed().as_secs_f64();
            assert_eq!(report.instructions, instructions, "DIFT runs to halt");
            seconds
        })
        .fold(f64::INFINITY, f64::min)
}

fn measure_scheme(
    exp: &Experiment,
    b: &Benchmark,
    scheme: SecureConfig,
    fast_forward: u64,
) -> SchemeSpeed {
    // Full detailed run, cold.
    let t0 = Instant::now();
    let mut sys = System::new(&b.workload, exp.core, exp.mem, scheme, exp.recon);
    let detailed = sys.run(exp.max_cycles);
    let detailed_seconds = t0.elapsed().as_secs_f64();
    assert!(detailed.completed, "detailed run must complete");

    // Warmed run: functional fast-forward, then the detailed tail. The
    // snapshot at the mode switch is taken off the clock — it exists
    // only to prove the detailed region is well-defined.
    let t0 = Instant::now();
    let mut warm = System::new(&b.workload, exp.core, exp.mem, scheme, exp.recon);
    warm.fast_forward(fast_forward);
    let ff_seconds = t0.elapsed().as_secs_f64();
    let snap = warm.snapshot_bytes();
    let t1 = Instant::now();
    let warm_result = warm.run(exp.max_cycles);
    let warm_seconds = ff_seconds + t1.elapsed().as_secs_f64();
    assert!(warm_result.completed, "warm run must complete");

    // Byte-identity of the detailed region: a replica restored from
    // the mode-switch snapshot must reproduce the warm result exactly.
    let mut replica = System::new(&b.workload, exp.core, exp.mem, scheme, exp.recon);
    replica
        .restore_bytes(&snap)
        .expect("mode-switch snapshot restores");
    let identical = replica.run(exp.max_cycles) == warm_result;

    SchemeSpeed {
        scheme,
        instructions: detailed.committed(),
        detailed_seconds,
        warm_seconds,
        speedup: if warm_seconds > 0.0 {
            detailed_seconds / warm_seconds
        } else {
            0.0
        },
        identical,
    }
}

/// Measures the auditor's cost on the heaviest scheme (STT+ReCon has
/// the most state to sweep) at the default cadence.
///
/// The run itself is timed best-of-repeats without the auditor; the
/// sweep is then timed in isolation on the run's *final* state (caches
/// full, queues drained — representative of a steady-state sweep) and
/// scaled by the sweep count. A full audited run also executes, untimed,
/// to assert the sweep never perturbs the simulated result.
fn measure_audit(exp: &Experiment, b: &Benchmark, quick: bool) -> AuditSpeed {
    let scheme = SecureConfig::stt_recon();
    let repeats = if quick { 2 } else { 5 };

    let mut run_seconds = f64::MAX;
    let mut sys = System::new(&b.workload, exp.core, exp.mem, scheme, exp.recon);
    let mut plain_result = sys
        .run_budgeted(exp.max_cycles, &Budget::default())
        .expect("unaudited run completes");
    for _ in 1..repeats {
        let mut s = System::new(&b.workload, exp.core, exp.mem, scheme, exp.recon);
        let t0 = Instant::now();
        plain_result = s
            .run_budgeted(exp.max_cycles, &Budget::default())
            .expect("unaudited run completes");
        run_seconds = run_seconds.min(t0.elapsed().as_secs_f64());
        sys = s;
    }

    // Per-sweep cost on the final state, amortized over enough calls
    // that the clock resolution is irrelevant.
    let sweep_repeats = if quick { 16 } else { 64 };
    let t0 = Instant::now();
    let mut violations = 0usize;
    for _ in 0..sweep_repeats {
        violations += sys.audit().len();
    }
    let per_sweep = t0.elapsed().as_secs_f64() / f64::from(sweep_repeats);
    assert_eq!(violations, 0, "healthy end-of-run state must audit clean");
    let sweeps = plain_result.cycles / DEFAULT_AUDIT_EVERY_CYCLES + 1;

    let budget = Budget {
        audit_every_cycles: Some(DEFAULT_AUDIT_EVERY_CYCLES),
        ..Budget::default()
    };
    let mut audited = System::new(&b.workload, exp.core, exp.mem, scheme, exp.recon);
    let audited_result = audited
        .run_budgeted(exp.max_cycles, &budget)
        .expect("audited clean run completes (zero false positives)");

    AuditSpeed {
        audit_every: DEFAULT_AUDIT_EVERY_CYCLES,
        sweeps,
        sweep_seconds: per_sweep * sweeps as f64,
        run_seconds,
        identical: plain_result == audited_result,
    }
}

/// What the front-end consumes from a decoded instruction — summed so
/// the decode work in [`micro_decode`] is observable and cannot be
/// dead-code-eliminated.
#[inline]
fn fetch_digest(d: &DecodedInst) -> u64 {
    d.srcs[0].map_or(0, |r| r.index() as u64)
        + d.srcs[1].map_or(0, |r| r.index() as u64)
        + d.dst.map_or(0, |r| r.index() as u64)
        + u64::from(d.is_load)
        + u64::from(d.is_control)
}

/// Per-fetch re-decode vs the pre-decoded stream, over the *executed*
/// instruction sequence (what the fetch stage actually sees), not the
/// static code order — so the table lookups are data-dependent and the
/// comparison cannot be vectorized away.
fn micro_decode(b: &Benchmark, quick: bool) -> MicroBench {
    let repeats = if quick { 20 } else { 200 };
    let program = &b.workload.program;

    // The real fetch stream: every instruction index the program
    // executes, in order.
    let mut pcs: Vec<u32> = Vec::new();
    {
        let mut mem = SparseMem::from_image(&program.image);
        run_with(program, &mut mem, usize::MAX, |r| {
            pcs.push(r.index as u32);
        })
        .expect("fetch-stream run");
    }

    // Baseline: what fetch did before — decode the fetched instruction
    // on every fetch.
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..repeats {
        for &pc in &pcs {
            let d = DecodedInst::decode(program.code[pc as usize]);
            acc = acc.wrapping_add(fetch_digest(&d));
        }
    }
    let fetches = (repeats * pcs.len()) as u64;
    let baseline_mops = fetches as f64 / 1e6 / t0.elapsed().as_secs_f64();

    // Optimized: decode once, fetch from the dense table.
    let decoded = DecodedProgram::decode(program);
    let t0 = Instant::now();
    let mut acc2 = 0u64;
    for _ in 0..repeats {
        for &pc in &pcs {
            let d = decoded.get(pc as usize).expect("pc in range");
            acc2 = acc2.wrapping_add(fetch_digest(d));
        }
    }
    let optimized_mops = fetches as f64 / 1e6 / t0.elapsed().as_secs_f64();
    assert_eq!(std::hint::black_box(acc), std::hint::black_box(acc2));

    MicroBench {
        name: "decode",
        baseline: "re-decode at every fetch",
        optimized: "pre-decoded stream lookup",
        baseline_mops,
        optimized_mops,
    }
}

/// Packed u64 reveal-mask batches vs per-line merges over the same
/// pseudo-random mask population.
fn micro_mask(quick: bool) -> MicroBench {
    const LINES: usize = 4096;
    let repeats = if quick { 200 } else { 2000 };

    // Deterministic mask population (xorshift64).
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    let patterns: Vec<u8> = (0..LINES).map(|_| (next() & 0xFF) as u8).collect();

    // Baseline: the shape the mem-side merge loops had before the
    // packed arrays — probe each word of each line and set it
    // individually (a branch and a bit op per word).
    let src: Vec<RevealMask> = patterns.iter().map(|&p| RevealMask::from_bits(p)).collect();
    let mut dst = vec![RevealMask::all_concealed(); LINES];
    let t0 = Instant::now();
    for _ in 0..repeats {
        for (d, s) in dst.iter_mut().zip(&src) {
            for w in 0..8 {
                if s.is_revealed(w) {
                    d.reveal(w);
                }
            }
        }
    }
    let merges = (repeats * LINES) as u64;
    let baseline_mops = merges as f64 / 1e6 / t0.elapsed().as_secs_f64();
    assert!(dst.iter().zip(&src).all(|(d, s)| d.bits() == s.bits()));

    // Optimized: the packed array, eight line merges per u64 OR.
    let mut packed_src = MaskArray::new(LINES);
    for (line, &p) in patterns.iter().enumerate() {
        packed_src.set(line, RevealMask::from_bits(p));
    }
    let mut packed_dst = MaskArray::new(LINES);
    let t0 = Instant::now();
    for _ in 0..repeats {
        packed_dst.merge_or_from(&packed_src);
    }
    let optimized_mops = merges as f64 / 1e6 / t0.elapsed().as_secs_f64();
    assert_eq!(packed_dst.count_revealed(), packed_src.count_revealed());

    MicroBench {
        name: "mask",
        baseline: "per-word probe-and-set merge",
        optimized: "packed u64 batch merge",
        baseline_mops,
        optimized_mops,
    }
}

/// The `SparseMem` page cache: page-local sweeps (every access after a
/// page's first hits the cache) vs a walk that moves to another page on
/// every access, over more pages than the cache holds, so every access
/// falls back to the map probe.
fn micro_mem(quick: bool) -> MicroBench {
    const WORDS: u64 = 512; // one 4 KiB page
    const PAGES: u64 = 256; // four times the page cache's 64 entries
    let repeats = if quick { 8 } else { 80 };

    let mut m = SparseMem::new();
    for p in 0..PAGES {
        m.write(p << 12, 1);
    }

    // Baseline: consecutive accesses touch consecutive pages, and a
    // page comes back only after PAGES - 1 others have been looked up,
    // four of them in its own page-cache entry.
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..repeats {
        for w in 0..WORDS {
            for p in 0..PAGES {
                acc = acc.wrapping_add(m.read((p << 12) + w * 8));
            }
        }
    }
    let ops = repeats * WORDS * PAGES;
    let baseline_mops = ops as f64 / 1e6 / t0.elapsed().as_secs_f64();

    // Optimized: the same reads, one page at a time.
    let t0 = Instant::now();
    for _ in 0..repeats {
        for p in 0..PAGES {
            for w in 0..WORDS {
                acc = acc.wrapping_add(m.read((p << 12) + w * 8));
            }
        }
    }
    let optimized_mops = ops as f64 / 1e6 / t0.elapsed().as_secs_f64();
    std::hint::black_box(acc);

    MicroBench {
        name: "mem",
        baseline: "page-alternating probes over 4x the page cache",
        optimized: "page-local sweeps (page cache)",
        baseline_mops,
        optimized_mops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mips_handles_zero_time() {
        assert_eq!(mips(1000, 0.0), 0.0);
        assert!((mips(2_000_000, 2.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn micro_speedup_handles_zero_baseline() {
        let m = MicroBench {
            name: "x",
            baseline: "a",
            optimized: "b",
            baseline_mops: 0.0,
            optimized_mops: 5.0,
        };
        assert_eq!(m.speedup(), 0.0);
    }

    #[test]
    fn report_aggregates_are_conservative() {
        let sc = |detailed_seconds: f64, speedup: f64, identical: bool| SchemeSpeed {
            scheme: SecureConfig::stt(),
            instructions: 1_000_000,
            detailed_seconds,
            warm_seconds: detailed_seconds / speedup,
            speedup,
            identical,
        };
        let r = SpeedReport {
            command: "recon bench-speed".into(),
            host: "test".into(),
            scale: "quick",
            suite: "spec2017",
            bench: "mcf",
            functional_instructions: 10_000_000,
            functional_seconds: 1.0,
            dift_seconds: 4.0,
            fast_forward: 9_500_000,
            schemes: vec![sc(2.0, 8.0, true), sc(1.0, 6.0, true)],
            micro: vec![],
            audit: AuditSpeed {
                audit_every: DEFAULT_AUDIT_EVERY_CYCLES,
                sweeps: 100,
                sweep_seconds: 0.01,
                run_seconds: 1.0,
                identical: true,
            },
        };
        // functional 10 MIPS; fastest detailed is 1 MIPS → 10×.
        assert!((r.functional_over_detailed() - 10.0).abs() < 1e-9);
        assert!((r.dift_mips() - 2.5).abs() < 1e-9);
        // Headline is the smallest per-scheme speedup.
        assert!((r.end_to_end_speedup() - 6.0).abs() < 1e-9);
        assert!(r.all_identical());
        let mut bad = r.clone();
        bad.schemes[1].identical = false;
        assert!(!bad.all_identical());
    }
}
