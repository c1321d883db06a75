//! Checkpoint-bytes fingerprints: one FxHash per cell over
//! `System::snapshot_bytes()` at the first drained checkpoint of a
//! checkpointed run, checked against a committed golden table.
//!
//! The timing goldens pin *when* a program computes; this table pins the
//! checkpoint *encoding*: the functional memory (`SMEM`), the memory
//! system (`MSYS`, including every cache array's `CARR` section with the
//! stale tags and LRU stamps of invalid ways) and the cores. A change to
//! how any of those structures is stored in memory must leave these
//! bytes alone, so a checkpoint written by an older build still resumes.
//! Regenerate the table with
//! `RECON_BLESS=1 cargo test --test checkpoint_fingerprints`
//! and justify the diff.

use std::hash::Hasher as _;

use recon_isa::hash::FxHasher;
use recon_secure::SecureConfig;
use recon_sim::{parallel_map, Budget, Experiment, System};
use recon_workloads::{parsec, spec2017, Benchmark, Scale};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/checkpoint_fingerprints.txt"
);

/// Checkpoint cadence: long enough for every cache level to have
/// evicted and invalidated lines before the first snapshot.
const CADENCE: u64 = 15_000;

fn cells() -> Vec<(String, Benchmark, SecureConfig)> {
    let mut out = Vec::new();
    for b in spec2017(Scale::Quick) {
        if b.name == "mcf" || b.name == "leela" {
            for secure in [SecureConfig::unsafe_baseline(), SecureConfig::stt_recon()] {
                out.push((format!("{:?}/{}/quick", b.suite, b.name), b.clone(), secure));
            }
        }
    }
    let canneal = parsec(Scale::Quick)
        .into_iter()
        .find(|b| b.name == "canneal")
        .expect("canneal is a PARSEC stand-in");
    assert_eq!(canneal.workload.threads.len(), 4, "a 4-thread PARSEC cell");
    out.push((
        format!("{:?}/{}/quick", canneal.suite, canneal.name),
        canneal,
        SecureConfig::stt_recon(),
    ));
    out
}

/// The cell's line: the first checkpoint's cycle and byte hash. Also
/// checks that the bytes restore and re-encode identically.
fn line(label: &str, bench: &Benchmark, secure: SecureConfig) -> String {
    let exp = Experiment::default();
    let build = || System::new(&bench.workload, exp.core, exp.mem, secure, exp.recon);
    let mut sys = build();
    let budget = Budget {
        checkpoint_every_cycles: Some(CADENCE),
        max_cycles: Some(CADENCE * 2),
        ..Budget::default()
    };
    let mut first: Option<(u64, Vec<u8>)> = None;
    // The run may stop at the cycle cap; only its first snapshot counts.
    let _ = sys.run_budgeted_checkpointed(exp.max_cycles, &budget, |cycle, bytes| {
        if first.is_none() {
            first = Some((cycle, bytes.to_vec()));
        }
    });
    let (cycle, bytes) = first.unwrap_or_else(|| panic!("{label} {secure}: no checkpoint"));
    let mut restored = build();
    restored
        .restore_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{label} {secure}: restore failed: {e}"));
    assert!(
        restored.snapshot_bytes() == bytes,
        "{label} {secure}: restored system re-encodes differently"
    );
    let mut h = FxHasher::default();
    h.write(&bytes);
    format!(
        "{label} {} {cycle} {} {:016x}\n",
        secure.label(),
        bytes.len(),
        h.finish()
    )
}

#[test]
fn checkpoint_bytes_match_the_golden_table() {
    let got = parallel_map(2, cells(), |(label, bench, secure)| {
        line(&label, &bench, secure)
    })
    .concat();
    if std::env::var_os("RECON_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(GOLDEN, &got).expect("write the golden table");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden table present (bless it with RECON_BLESS=1)");
    assert!(
        want == got,
        "checkpoint bytes moved:\n--- golden\n{want}--- computed\n{got}"
    );
}
