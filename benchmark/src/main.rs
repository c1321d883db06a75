//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <matrix-membound|matrix-compute|figures|serve-mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload, checks its outputs, and prints every metric by
//! name with its unit. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). See `benchmark/README.md`.

mod figures;
mod host;
mod layers;
mod matrix;
mod serve;
mod sim;
mod stats;
mod trace;

use std::hash::Hasher as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use host::HostClock;
use layers::{Values, END_TO_END};
use sim::TraceCounts;
use stats::Tally;
use trace::Tracer;

/// Set-up is repeated until its samples cover this many host seconds
/// (and at least [`SETUP_MIN_REPS`] times); `setup_s` is their median.
/// A set-up takes milliseconds, so a fixed handful of repetitions would
/// leave `setup_s` at the mercy of a single slow sample.
pub const SETUP_MIN_S: f64 = 1.0;

/// Fewest set-up repetitions per run.
pub const SETUP_MIN_REPS: usize = 5;

/// Host-speed kernel samples timed before the set-up; the workloads
/// take more between their jobs.
const HOST_SAMPLES_AT_START: usize = 5;

/// Fewest passes over a workload's job set in a timed run; more are made
/// while `--seconds` has not run out.
pub const MIN_PASSES: usize = 2;

/// Where result records and span files go, relative to the checkout.
const OUT_DIR: &str = ".bench_out";

const WORKLOADS: [&str; 4] = ["matrix-membound", "matrix-compute", "figures", "serve-mix"];

/// What one workload run produced.
#[derive(Debug)]
pub struct Run {
    pub tally: Tally,
    pub values: Values,
    /// `(label, fingerprint)` of each simulated job set.
    pub fingerprints: Vec<(String, u64)>,
    /// Human-readable notes printed before the result.
    pub lines: Vec<String>,
    pub spans: Option<Tracer>,
}

impl Default for Run {
    fn default() -> Self {
        Run {
            tally: Tally::default(),
            values: Values::end_to_end(),
            fingerprints: Vec::new(),
            lines: Vec::new(),
            spans: None,
        }
    }
}

impl Run {
    /// Completes a traced run: `fail_frac`, the replay self-check note,
    /// and the spans to write out.
    pub fn finish_traced(&mut self, mut v: Values, counts: &TraceCounts, tr: Tracer) {
        v.set("fail_frac", self.tally.fail_frac());
        v.set(
            "trace.fingerprint_match",
            f64::from(u8::from(
                self.fingerprints.windows(2).all(|w| w[0].1 == w[1].1),
            )),
        );
        if counts.replay_mismatches > 0 {
            self.lines.push(format!(
                "mem.* INVALID: the replayed memory log did not reproduce MemStats on {} job(s)",
                counts.replay_mismatches
            ));
        } else if counts.ticks > 0 {
            self.lines
                .push("mem replay self-check: MemStats reproduced exactly on every job".into());
        }
        self.lines.push(format!(
            "traced: {} ticks, {} audit sweeps, {} spans",
            counts.ticks,
            counts.audits,
            tr.spans().len()
        ));
        self.values = v;
        self.spans = Some(tr);
    }
}

/// Runs `build` until the samples cover [`SETUP_MIN_S`] and number at
/// least [`SETUP_MIN_REPS`]; returns the last build and the median time.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let built = build();
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= SETUP_MIN_REPS && times.iter().sum::<f64>() >= SETUP_MIN_S {
            return (built, stats::median(&times).unwrap_or(0.0));
        }
    }
}

/// Records both fingerprints and counts a mismatch as a failure.
pub fn compare_fingerprints(out: &mut Run, timed: u64, traced: u64) {
    out.fingerprints.push(("timed".into(), timed));
    out.fingerprints.push(("traced".into(), traced));
    if timed != traced {
        out.tally.fail_counted(format!(
            "traced fingerprint {traced:#018x} != timed fingerprint {timed:#018x}"
        ));
    }
}

/// Process high-water resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed '{value}'"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| (1..=600).contains(&s))
                        .ok_or_else(|| format!("bad --seconds '{value}'"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                });
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' ({})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// FxHash over the simulator's sources (`crates/`), standing in for a
/// commit id where the checkout is not a git repository.
fn source_digest(root: &Path) -> Option<u64> {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "s")
            {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    if files.is_empty() {
        return None;
    }
    files.sort();
    let mut h = recon_isa::hash::FxHasher::default();
    for f in files {
        h.write(
            f.strip_prefix(root)
                .unwrap_or(&f)
                .to_string_lossy()
                .as_bytes(),
        );
        h.write(&std::fs::read(&f).unwrap_or_default());
    }
    Some(h.finish())
}

fn command_output(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Command line, seed, source version, toolchain and host behind the
/// numbers.
fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = command_output("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        ("command", std::env::args().collect::<Vec<_>>().join(" ")),
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("git_commit", commit),
        (
            "source_digest",
            source_digest(Path::new("."))
                .map_or_else(|| "unknown".into(), |d| format!("{d:#018x}")),
        ),
        (
            "rustc",
            command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or_else(|_| "unknown".into(), |n| n.to_string()),
        ),
        ("cpu", cpu),
        (
            "scale",
            match args.workload.as_str() {
                "matrix-membound" | "matrix-compute" => "paper".into(),
                _ => "quick".into(),
            },
        ),
        (
            "model_validation",
            "none: no hardware reference results; no accuracy figure is reported".into(),
        ),
    ]
}

fn write_record(args: &Args, prov: &[(&str, String)], run: &Run, result: &str) {
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let dir = Path::new(OUT_DIR);
    let mut s = String::from("{\n  \"provenance\": {");
    for (i, (k, v)) in prov.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        s.push_str(&format!(
            "{sep}\n    {}: {}",
            stats::json_str(k),
            stats::json_str(v)
        ));
    }
    s.push_str("\n  },\n  \"fingerprints\": {");
    for (i, (k, v)) in run.fingerprints.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        s.push_str(&format!("{sep}\n    {}: \"{v:#018x}\"", stats::json_str(k)));
    }
    s.push_str("\n  },\n  \"notes\": [");
    for (i, l) in run.lines.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        s.push_str(&format!("{sep}\n    {}", stats::json_str(l)));
    }
    s.push_str("\n  ],\n  \"failures\": [");
    for (i, f) in run.tally.failures.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        s.push_str(&format!("{sep}\n    {}", stats::json_str(f)));
    }
    s.push_str(&format!("\n  ],\n  \"result\": {result}\n}}\n"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), s));
    if let Err(e) = written {
        eprintln!("warning: could not write the result record: {e}");
    }
    if let Some(tr) = &run.spans {
        if let Err(e) = tr.write_tsv(&dir.join(format!("{stem}.spans.tsv"))) {
            eprintln!("warning: could not write spans: {e}");
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Served job digests and benchmark sizes follow RECON_SCALE; the
    // workloads fix their own scale.
    std::env::remove_var("RECON_SCALE");
    let prov = provenance(&args);
    for (k, v) in &prov {
        println!("# {k}: {v}");
    }
    let seconds = args.seconds as f64;
    let mut clock = HostClock::new();
    clock.sample(HOST_SAMPLES_AT_START);
    let run = match args.workload.as_str() {
        "matrix-membound" => matrix::run(
            matrix::Kind::MemBound,
            args.seed,
            seconds,
            args.trace,
            &mut clock,
        ),
        "matrix-compute" => matrix::run(
            matrix::Kind::Compute,
            args.seed,
            seconds,
            args.trace,
            &mut clock,
        ),
        "figures" => figures::run(args.seed, seconds, args.trace, &mut clock),
        "serve-mix" => serve::run(args.seed, seconds, args.trace, &mut clock),
        _ => unreachable!("workload validated by parse_args"),
    };
    let mut run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if args.trace {
        run.values.set("host.kernel_ms", clock.median_s() * 1e3);
    } else {
        let measured: Vec<String> = END_TO_END
            .iter()
            .map(|(name, unit, _)| format!("{name} {:.6} {unit}", run.values.get(name)))
            .collect();
        run.lines
            .push(format!("as measured on this host: {}", measured.join(", ")));
        run.lines.push(format!(
            "host speed: reference kernel median {:.4} ms against {:.4} ms on the reference host; host times are divided, and rates multiplied, by the slowdown {:.4}",
            clock.median_s() * 1e3,
            host::REFERENCE_S * 1e3,
            clock.slowdown()
        ));
        run.values.rescale_to_reference_host(
            clock.slowdown(),
            clock.resident_bytes() as f64 / (1024.0 * 1024.0),
        );
    }
    for l in &run.lines {
        println!("{l}");
    }
    for (k, v) in &run.fingerprints {
        println!("fingerprint {k}: {v:#018x}");
    }
    for f in &run.tally.failures {
        println!("FAILED: {f}");
    }
    let metrics = match run.values.to_set() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for m in metrics.iter() {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let correct = run.tally.failed() == 0;
    println!(
        "{} attempted, {} failed (fail_frac {:.6})",
        run.tally.attempted,
        run.tally.failed(),
        run.tally.fail_frac()
    );
    let result = stats::result_line(correct, &run.tally, &metrics);
    write_record(&args, &prov, &run, &result);
    println!("{result}");
    ExitCode::SUCCESS
}
