//! Named SPEC2017 / SPEC2006 / PARSEC stand-in benchmarks.
//!
//! Each entry names the benchmark it stands in for and instantiates a
//! generator with parameters chosen to mimic that benchmark's *character*
//! relevant to the ReCon evaluation: pointer-dereference rate, pointer
//! reuse, working-set size, branchiness, and store rate. See DESIGN.md
//! for the substitution rationale (absolute IPC is not preserved; the
//! relative behaviour under NDA/STT/ReCon is).
//!
//! The knobs that map to the paper's observations:
//!
//! * pointer-heavy + reusing (`xalancbmk`, `mcf`, `omnetpp`, `gcc`) —
//!   large STT/NDA losses, large ReCon recovery;
//! * streaming (`lbm`, `bwaves`, `imagick`) — no loss, nothing to recover;
//! * indirect-address (`cactuBSSN`, `deepsjeng`, `soplex`) — losses whose
//!   leakage is *not* direct load pairs: ReCon recovers little
//!   (Figure 9's low-ratio points);
//! * working sets larger than L1/L2 (`mcf`, `omnetpp`) — need reveal
//!   masks at L2/LLC to benefit (Figure 10).

use crate::gen::branchy::{self, BranchyParams};
use crate::gen::btree::{self, BtreeParams};
use crate::gen::gadget::{self, GadgetParams};
use crate::gen::hash::{self, HashParams};
use crate::gen::list::{self, ListParams};
use crate::gen::parallel::{self, ParKind, ParallelParams};
use crate::gen::stencil::{self, StencilParams};
use crate::gen::stream::{self, StreamParams};
#[cfg(test)]
use crate::workload::Workload;
use crate::workload::{Benchmark, Suite, ThreadSpec};

/// Workload sizing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scale {
    /// Short runs for tests and quick sweeps (tens of thousands of
    /// dynamic instructions).
    #[default]
    Quick,
    /// Longer runs for the figure harnesses (hundreds of thousands).
    Paper,
}

impl Scale {
    /// Multiplier applied to pass/iteration counts.
    #[must_use]
    pub fn factor(self) -> u64 {
        match self {
            Scale::Quick => 1,
            Scale::Paper => 4,
        }
    }

    /// Reads the scale from the `RECON_SCALE` environment variable
    /// (`paper` for ×4 runs; anything else is [`Scale::Quick`]). Read
    /// once where a process starts; everything downstream carries the
    /// scale explicitly.
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("RECON_SCALE").as_deref() {
            Ok("paper") | Ok("PAPER") => Scale::Paper,
            _ => Scale::Quick,
        }
    }

    /// The lowercase name (`quick` or `paper`), as spelled in
    /// `RECON_SCALE` and in run-spec digests.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Paper => "paper",
        }
    }

    /// Parses a [`Scale::label`] spelling, case-insensitively.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        [Scale::Quick, Scale::Paper]
            .into_iter()
            .find(|s| s.label().eq_ignore_ascii_case(name))
    }
}

/// ` — did you mean '..'?` when `input` is within edit distance 2 of a
/// candidate (compared case-insensitively), else the empty string.
#[must_use]
pub fn did_you_mean<'a>(input: &str, candidates: impl IntoIterator<Item = &'a str>) -> String {
    let candidates: Vec<&str> = candidates.into_iter().collect();
    let lower: Vec<String> = candidates.iter().map(|c| c.to_ascii_lowercase()).collect();
    recon_asm::suggest(
        &input.to_ascii_lowercase(),
        lower.iter().map(String::as_str),
    )
    .and_then(|s| lower.iter().position(|l| l == s))
    .map_or_else(String::new, |i| {
        format!(" — did you mean '{}'?", candidates[i])
    })
}

impl Suite {
    /// Every suite, in display order.
    pub const ALL: [Suite; 4] = [
        Suite::Spec2017,
        Suite::Spec2006,
        Suite::Parsec,
        Suite::Corpus,
    ];

    /// The lowercase name the CLI and `recon serve` accept.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Suite::Spec2017 => "spec2017",
            Suite::Spec2006 => "spec2006",
            Suite::Parsec => "parsec",
            Suite::Corpus => "corpus",
        }
    }

    /// Resolves a suite name case-insensitively.
    ///
    /// # Errors
    ///
    /// An unknown name, with every suite listed and a near-miss hint.
    pub fn resolve(name: &str) -> Result<Suite, String> {
        Suite::ALL
            .into_iter()
            .find(|s| s.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let names = Suite::ALL.map(Suite::name);
                format!(
                    "unknown suite '{name}' ({}){}",
                    names.join("|"),
                    did_you_mean(name, names)
                )
            })
    }

    /// Generates every benchmark of the suite at `scale`.
    #[must_use]
    pub fn benchmarks(self, scale: Scale) -> Vec<Benchmark> {
        match self {
            Suite::Spec2017 => spec2017(scale),
            Suite::Spec2006 => spec2006(scale),
            Suite::Parsec => parsec(scale),
            Suite::Corpus => corpus(scale),
        }
    }

    /// Resolves a benchmark name case-insensitively to the suite's own
    /// spelling. The names are generated once per process (they do not
    /// depend on the scale, and generating a suite builds every
    /// benchmark's program).
    ///
    /// # Errors
    ///
    /// An unknown name, with a near-miss hint.
    pub fn resolve_bench(self, name: &str) -> Result<&'static str, String> {
        use std::sync::OnceLock;
        static NAMES: OnceLock<[Vec<&'static str>; 4]> = OnceLock::new();
        let names = &NAMES.get_or_init(|| {
            Suite::ALL.map(|s| s.benchmarks(Scale::Quick).iter().map(|b| b.name).collect())
        })[Suite::ALL.iter().position(|&s| s == self).expect("listed")];
        names
            .iter()
            .find(|n| n.eq_ignore_ascii_case(name))
            .copied()
            .ok_or_else(|| {
                format!(
                    "no benchmark '{name}' in {self}{}",
                    did_you_mean(name, names.iter().copied())
                )
            })
    }
}

fn gadget_bench(
    name: &'static str,
    suite: Suite,
    scale: Scale,
    slots: u64,
    cond_lines: u64,
    passes: u64,
    extra: impl FnOnce(&mut GadgetParams),
) -> Benchmark {
    let mut p = GadgetParams {
        slots,
        cond_lines,
        passes: passes * scale.factor(),
        seed: fxhash(name),
        ..GadgetParams::default()
    };
    extra(&mut p);
    Benchmark::single(name, suite, gadget::generate(p))
}

/// Cheap deterministic per-name seed.
fn fxhash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The SPEC CPU2017 speed stand-ins (Figure 5/6 upper rows).
#[must_use]
pub fn spec2017(scale: Scale) -> Vec<Benchmark> {
    let f = scale.factor();
    let s = Suite::Spec2017;
    vec![
        Benchmark::single(
            "bwaves",
            s,
            stream::generate(StreamParams {
                elements: 8192,
                passes: 2 * f,
                ..Default::default()
            }),
        ),
        gadget_bench("cactuBSSN", s, scale, 1024, 16384, 4, |p| {
            p.indirect_per_16 = 16;
            p.tgt_stride = 64;
        }),
        gadget_bench("deepsjeng", s, scale, 2048, 16384, 2, |p| {
            p.indirect_per_16 = 16;
            p.taken_per_256 = 224;
            p.tgt_stride = 64;
        }),
        Benchmark::single(
            "exchange2",
            s,
            branchy::generate(BranchyParams {
                values: 512,
                iterations: 6000 * f,
                seed: fxhash("exchange2"),
            }),
        ),
        Benchmark::single(
            "fotonik3d",
            s,
            stream::generate(StreamParams {
                elements: 8192,
                passes: 2 * f,
                ..Default::default()
            }),
        ),
        gadget_bench("gcc", s, scale, 1024, 16384, 6, |p| {
            p.indirect_per_16 = 4;
            p.stores_per_16 = 1;
            p.cyclic = true;
        }),
        Benchmark::single(
            "imagick",
            s,
            stream::generate(StreamParams {
                elements: 4096,
                passes: 3 * f,
                writes: true,
                ..Default::default()
            }),
        ),
        Benchmark::single(
            "lbm",
            s,
            stream::generate(StreamParams {
                elements: 8192,
                passes: 2 * f,
                writes: true,
                ..Default::default()
            }),
        ),
        Benchmark::single(
            "leela",
            s,
            btree::generate(BtreeParams {
                height: 7,
                searches: 1500 * f,
                seed: fxhash("leela"),
            }),
        ),
        Benchmark::single(
            "mcf",
            s,
            list::generate(ListParams {
                nodes: 2048, // 128 KiB of nodes: beyond L2, fits the LLC
                chains: 8,
                visits: 1024 * f, // 4 traversals of each 256-node ring
                cond_lines: 16384,
                payload_slots: 512,
                seed: fxhash("mcf"),
            }),
        ),
        Benchmark::single(
            "nab",
            s,
            stencil::generate(StencilParams {
                points: 6144,
                sweeps: 2 * f,
            }),
        ),
        gadget_bench("omnetpp", s, scale, 1024, 16384, 4, |p| {
            p.depth = 2;
            p.indirect_per_16 = 2;
            p.cyclic = true;
        }),
        Benchmark::single(
            "perlbench",
            s,
            hash::generate(HashParams {
                buckets: 1024,
                lookups: 6144 * f,
                keys: 2048,
                cond_lines: 8192,
                seed: fxhash("perlbench"),
            }),
        ),
        Benchmark::single(
            "pop2",
            s,
            stencil::generate(StencilParams {
                points: 8192,
                sweeps: 2 * f,
            }),
        ),
        Benchmark::single(
            "roms",
            s,
            stream::generate(StreamParams {
                elements: 6144,
                passes: 2 * f,
                ..Default::default()
            }),
        ),
        Benchmark::single(
            "wrf",
            s,
            stencil::generate(StencilParams {
                points: 4096,
                sweeps: 3 * f,
            }),
        ),
        Benchmark::single(
            "x264",
            s,
            stream::generate(StreamParams {
                elements: 4096,
                passes: 3 * f,
                writes: true,
                stride_words: 2,
            }),
        ),
        Benchmark::single(
            "xalancbmk",
            s,
            hash::generate(HashParams {
                buckets: 512,
                lookups: 6144 * f,
                keys: 1024,
                cond_lines: 16384,
                seed: fxhash("xalancbmk"),
            }),
        ),
        gadget_bench("xz", s, scale, 512, 16384, 8, |p| {
            p.stores_per_16 = 2;
            p.indirect_per_16 = 4;
            p.cyclic = true;
        }),
        Benchmark::single(
            "cam4",
            s,
            stencil::generate(StencilParams {
                points: 6144,
                sweeps: 2 * f,
            }),
        ),
    ]
}

/// The SPEC CPU2006 stand-ins (Figure 5/6 lower rows).
#[must_use]
pub fn spec2006(scale: Scale) -> Vec<Benchmark> {
    let f = scale.factor();
    let s = Suite::Spec2006;
    vec![
        Benchmark::single(
            "astar",
            s,
            btree::generate(BtreeParams {
                height: 9,
                searches: 1200 * f,
                seed: fxhash("astar"),
            }),
        ),
        Benchmark::single(
            "bzip2",
            s,
            branchy::generate(BranchyParams {
                values: 2048,
                iterations: 6000 * f,
                seed: fxhash("bzip2"),
            }),
        ),
        gadget_bench("gcc", s, scale, 1024, 16384, 5, |p| {
            p.indirect_per_16 = 4;
            p.stores_per_16 = 1;
            p.cyclic = true;
        }),
        Benchmark::single(
            "gobmk",
            s,
            branchy::generate(BranchyParams {
                values: 1024,
                iterations: 6000 * f,
                seed: fxhash("gobmk"),
            }),
        ),
        Benchmark::single(
            "h264ref",
            s,
            stream::generate(StreamParams {
                elements: 4096,
                passes: 3 * f,
                writes: true,
                ..Default::default()
            }),
        ),
        Benchmark::single(
            "hmmer",
            s,
            stream::generate(StreamParams {
                elements: 6144,
                passes: 3 * f,
                ..Default::default()
            }),
        ),
        Benchmark::single(
            "lbm",
            s,
            stream::generate(StreamParams {
                elements: 8192,
                passes: 2 * f,
                writes: true,
                ..Default::default()
            }),
        ),
        Benchmark::single(
            "libquantum",
            s,
            stream::generate(StreamParams {
                elements: 8192,
                passes: 2 * f,
                ..Default::default()
            }),
        ),
        Benchmark::single(
            "mcf",
            s,
            list::generate(ListParams {
                nodes: 2048,
                chains: 8,
                visits: 1024 * f,
                cond_lines: 16384,
                payload_slots: 512,
                seed: fxhash("mcf06"),
            }),
        ),
        Benchmark::single(
            "milc",
            s,
            stencil::generate(StencilParams {
                points: 8192,
                sweeps: 2 * f,
            }),
        ),
        Benchmark::single(
            "namd",
            s,
            stencil::generate(StencilParams {
                points: 4096,
                sweeps: 3 * f,
            }),
        ),
        gadget_bench("omnetpp", s, scale, 1024, 16384, 4, |p| {
            p.depth = 2;
            p.indirect_per_16 = 2;
            p.cyclic = true;
        }),
        Benchmark::single(
            "perlbench",
            s,
            hash::generate(HashParams {
                buckets: 1024,
                lookups: 6144 * f,
                keys: 2048,
                cond_lines: 8192,
                seed: fxhash("perlbench06"),
            }),
        ),
        Benchmark::single(
            "sjeng",
            s,
            branchy::generate(BranchyParams {
                values: 1024,
                iterations: 6000 * f,
                seed: fxhash("sjeng"),
            }),
        ),
        gadget_bench("soplex", s, scale, 1024, 8192, 4, |p| {
            p.indirect_per_16 = 12;
            p.tgt_stride = 64;
        }),
        Benchmark::single(
            "sphinx3",
            s,
            hash::generate(HashParams {
                buckets: 512,
                lookups: 4096 * f,
                keys: 2048,
                cond_lines: 4096,
                seed: fxhash("sphinx3"),
            }),
        ),
        Benchmark::single(
            "xalancbmk",
            s,
            hash::generate(HashParams {
                buckets: 512,
                lookups: 6144 * f,
                keys: 1024,
                cond_lines: 16384,
                seed: fxhash("xalancbmk06"),
            }),
        ),
    ]
}

/// The PARSEC stand-ins (Figure 8), all 4-thread.
#[must_use]
pub fn parsec(scale: Scale) -> Vec<Benchmark> {
    let f = scale.factor();
    let mk = |name: &'static str, kind: ParKind, slots: u64, cond_lines: u64, passes: u64| {
        let workload = parallel::generate(ParallelParams {
            kind,
            slots,
            cond_lines,
            passes: passes * f,
            seed: fxhash(name),
        });
        Benchmark {
            name,
            suite: Suite::Parsec,
            workload,
        }
    };
    vec![
        mk(
            "blackscholes",
            ParKind::DataParallel { rotate: false },
            1024,
            16384,
            4,
        ),
        mk(
            "bodytrack",
            ParKind::DataParallel { rotate: true },
            1024,
            16384,
            4,
        ),
        mk("canneal", ParKind::SharedChase, 2048, 16384, 3),
        mk("dedup", ParKind::ProducerConsumer, 512, 16384, 4),
        mk("ferret", ParKind::ProducerConsumer, 1024, 16384, 3),
        mk(
            "fluidanimate",
            ParKind::DataParallel { rotate: true },
            512,
            8192,
            5,
        ),
        mk("streamcluster", ParKind::SharedChase, 1024, 16384, 4),
        mk(
            "swaptions",
            ParKind::DataParallel { rotate: false },
            512,
            8192,
            5,
        ),
    ]
}

/// Real programs assembled from the embedded `recon-asm` corpus.
///
/// Unlike the synthetic stand-ins, these are actual algorithms
/// (quicksort, matrix multiply, a QOI-style decoder, a box blur, and a
/// pointer chase) written in assembly text with self-checking
/// epilogues: each run writes a result digest and pass/fail status to
/// known addresses, so every harness can verify the machine computed
/// the right answer under every scheme. The pass count in
/// [`recon_asm::corpus::PASS_REG`] is overridden with the scale
/// factor; digests are pass-count invariant by construction.
#[must_use]
pub fn corpus(scale: Scale) -> Vec<Benchmark> {
    recon_asm::corpus::CORPUS
        .iter()
        .map(|e| {
            let p = e.assemble();
            let threads = p
                .entries
                .iter()
                .map(|spec| {
                    let mut seeds: Vec<_> = spec
                        .seeds
                        .iter()
                        .copied()
                        .filter(|&(r, _)| r != recon_asm::corpus::PASS_REG)
                        .collect();
                    seeds.push((recon_asm::corpus::PASS_REG, scale.factor()));
                    ThreadSpec {
                        entry: spec.entry,
                        seeds,
                    }
                })
                .collect();
            Benchmark {
                name: e.name,
                suite: Suite::Corpus,
                workload: crate::workload::Workload {
                    program: p.program,
                    threads,
                },
            }
        })
        .collect()
}

/// Convenience: every single-thread benchmark of both SPEC suites.
#[must_use]
pub fn all_single_thread(scale: Scale) -> Vec<Benchmark> {
    let mut v = spec2017(scale);
    v.extend(spec2006(scale));
    v
}

/// Looks up a benchmark by suite and name.
#[must_use]
pub fn find(suite: Suite, name: &str, scale: Scale) -> Option<Benchmark> {
    suite.benchmarks(scale).into_iter().find(|b| b.name == name)
}

/// The benchmarks the paper analyzes in Figure 9 (SPEC2017 entries with
/// more than 5% STT degradation).
pub const FIG9_BENCHMARKS: [&str; 7] = [
    "cactuBSSN",
    "deepsjeng",
    "mcf",
    "leela",
    "omnetpp",
    "perlbench",
    "xalancbmk",
];

/// Validates a workload terminates in the functional model within a
/// budget (used in tests).
#[cfg(test)]
fn terminates(w: &Workload, budget: usize) -> bool {
    if w.num_threads() != 1 {
        return true; // multithreaded: validated in recon-sim tests
    }
    recon_isa::run_collect(&w.program, budget)
        .map(|(_, st)| st.halted)
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec2017_has_twenty_benchmarks() {
        assert_eq!(spec2017(Scale::Quick).len(), 20);
    }

    #[test]
    fn spec2006_has_seventeen_benchmarks() {
        assert_eq!(spec2006(Scale::Quick).len(), 17);
    }

    #[test]
    fn parsec_has_eight_four_thread_benchmarks() {
        let p = parsec(Scale::Quick);
        assert_eq!(p.len(), 8);
        assert!(p.iter().all(|b| b.workload.num_threads() == 4));
    }

    #[test]
    fn every_single_thread_benchmark_terminates() {
        for b in all_single_thread(Scale::Quick) {
            assert!(
                terminates(&b.workload, 30_000_000),
                "{} ({}) must halt",
                b.name,
                b.suite
            );
        }
    }

    #[test]
    fn corpus_has_five_scaled_benchmarks() {
        for scale in [Scale::Quick, Scale::Paper] {
            let c = corpus(scale);
            assert_eq!(c.len(), 5);
            for b in &c {
                assert_eq!(b.suite, Suite::Corpus);
                assert_eq!(b.workload.num_threads(), 1);
                let seeds = &b.workload.threads[0].seeds;
                assert_eq!(
                    seeds
                        .iter()
                        .find(|&&(r, _)| r == recon_asm::corpus::PASS_REG)
                        .map(|&(_, v)| v),
                    Some(scale.factor()),
                    "{} pass seed",
                    b.name
                );
            }
        }
    }

    #[test]
    fn find_locates_benchmarks() {
        assert!(find(Suite::Spec2017, "mcf", Scale::Quick).is_some());
        assert!(find(Suite::Corpus, "quicksort", Scale::Quick).is_some());
        assert!(find(Suite::Spec2006, "sphinx3", Scale::Quick).is_some());
        assert!(find(Suite::Parsec, "canneal", Scale::Quick).is_some());
        assert!(find(Suite::Spec2017, "nonexistent", Scale::Quick).is_none());
    }

    #[test]
    fn names_resolve_case_insensitively_with_hints() {
        assert_eq!(Suite::resolve("CORPUS"), Ok(Suite::Corpus));
        let e = Suite::resolve("Corpu").unwrap_err();
        assert!(e.contains("spec2017|spec2006|parsec|corpus"), "{e}");
        assert!(e.contains("did you mean 'corpus'"), "{e}");
        assert_eq!(Suite::Spec2017.resolve_bench("CACTUBSSN"), Ok("cactuBSSN"));
        let e = Suite::Corpus.resolve_bench("quicksot").unwrap_err();
        assert!(e.contains("did you mean 'quicksort'"), "{e}");
        for suite in Suite::ALL {
            for b in suite.benchmarks(Scale::Paper) {
                assert_eq!(suite.resolve_bench(b.name), Ok(b.name));
            }
        }
        for scale in [Scale::Quick, Scale::Paper] {
            assert_eq!(Scale::parse(scale.label()), Some(scale));
        }
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn fig9_benchmarks_exist_in_spec2017() {
        for name in FIG9_BENCHMARKS {
            assert!(
                find(Suite::Spec2017, name, Scale::Quick).is_some(),
                "{name}"
            );
        }
    }

    #[test]
    fn scales_differ() {
        let q = find(Suite::Spec2017, "bwaves", Scale::Quick).unwrap();
        let p = find(Suite::Spec2017, "bwaves", Scale::Paper).unwrap();
        let (tq, _) = recon_isa::run_collect(&q.workload.program, 50_000_000).unwrap();
        let (tp, _) = recon_isa::run_collect(&p.workload.program, 50_000_000).unwrap();
        assert!(tp.len() > 2 * tq.len());
    }

    #[test]
    fn names_seed_differently() {
        assert_ne!(fxhash("mcf"), fxhash("gcc"));
    }
}
