//! Timing fingerprints: one FxHash per (benchmark, scheme) cell over the
//! full `SystemResult` — cycles and every core, LPT and memory counter —
//! plus the architectural digest, checked against a committed golden
//! table.
//!
//! The corpus goldens pin what a program computes; this table pins *when*
//! it computes it. Any change to the timing model moves at least one
//! cell, so a refactor that claims to be cycle-exact must leave the file
//! untouched. Regenerate it with
//! `RECON_BLESS=1 cargo test --test timing_fingerprints`
//! and justify the diff.

use std::hash::Hasher as _;

use recon_isa::hash::FxHasher;
use recon_isa::snap::SnapWriter;
use recon_secure::SecureConfig;
use recon_sim::{parallel_map, Experiment, System};
use recon_workloads::{corpus, parsec, spec2006, spec2017, Benchmark, Scale};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/timing_fingerprints.txt"
);

/// The paper-scale memory-bound stand-ins: the ROB fills behind misses,
/// which is where an event-driven core skips the most cycles.
const MEMBOUND: [&str; 5] = ["mcf", "omnetpp", "xalancbmk", "perlbench", "leela"];

fn schemes() -> [SecureConfig; 5] {
    [
        SecureConfig::unsafe_baseline(),
        SecureConfig::nda(),
        SecureConfig::nda_recon(),
        SecureConfig::stt(),
        SecureConfig::stt_recon(),
    ]
}

/// Every suite benchmark at quick scale, then the membound stand-ins at
/// paper scale, each labelled `suite/name/scale`.
fn benchmarks() -> Vec<(String, Benchmark)> {
    let mut out = Vec::new();
    for b in [
        spec2017(Scale::Quick),
        spec2006(Scale::Quick),
        parsec(Scale::Quick),
        corpus(Scale::Quick),
    ]
    .into_iter()
    .flatten()
    {
        out.push((format!("{:?}/{}/quick", b.suite, b.name), b));
    }
    for b in spec2017(Scale::Paper) {
        if MEMBOUND.contains(&b.name) {
            out.push((format!("{:?}/{}/paper", b.suite, b.name), b));
        }
    }
    out
}

/// The cell's fingerprint: `SystemResult::save_snap` bytes, then the
/// architectural digest.
fn fingerprint(bench: &Benchmark, secure: SecureConfig) -> u64 {
    let exp = Experiment::default();
    let mut sys = System::new(&bench.workload, exp.core, exp.mem, secure, exp.recon);
    let result = sys.run(exp.max_cycles);
    assert!(
        result.completed,
        "{} under {secure} did not finish",
        bench.name
    );
    let mut w = SnapWriter::new();
    result.save_snap(&mut w);
    let mut h = FxHasher::default();
    h.write(w.as_slice());
    h.write_u64(sys.arch_digest());
    h.finish()
}

fn table() -> String {
    let mut cells = Vec::new();
    for (label, bench) in benchmarks() {
        for secure in schemes() {
            cells.push((label.clone(), bench.clone(), secure));
        }
    }
    let lines = parallel_map(2, cells, |(label, bench, secure)| {
        format!(
            "{label} {} {:016x}\n",
            secure.label(),
            fingerprint(&bench, secure)
        )
    });
    lines.concat()
}

#[test]
fn timing_fingerprints_match_the_golden_table() {
    let got = table();
    if std::env::var_os("RECON_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(GOLDEN, &got).expect("write the golden table");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden table present (bless it with RECON_BLESS=1)");
    let diff: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want {w}\n   got {g}"))
        .collect();
    assert!(
        diff.is_empty() && want.lines().count() == got.lines().count(),
        "{} of {} timing fingerprints moved ({} golden lines, {} computed):\n{}",
        diff.len(),
        got.lines().count(),
        want.lines().count(),
        got.lines().count(),
        diff.join("\n")
    );
}
