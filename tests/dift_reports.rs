//! DIFT report golden table: one row per single-thread SPEC stand-in at
//! quick and paper scale, with the `LeakReport` counts the Figure 4 and
//! Figure 9 harnesses read.
//!
//! The leakage analysis is a pure function of the committed-instruction
//! trace, so any change to the taint engine that claims to keep its
//! semantics must leave this file untouched. Regenerate it with
//! `RECON_BLESS=1 cargo test --test dift_reports` and justify the diff.

use recon_dift::analyze_program;
use recon_sim::parallel_map;
use recon_workloads::{all_single_thread, Scale};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dift_reports.txt");

/// The step budget of the Figure 4 harness.
const MAX_STEPS: usize = 100_000_000;

fn table() -> String {
    let mut cells = Vec::new();
    for scale in [Scale::Quick, Scale::Paper] {
        for b in all_single_thread(scale) {
            assert_eq!(b.workload.num_threads(), 1, "{} is single-thread", b.name);
            cells.push((format!("{:?}/{}/{}", b.suite, b.name, scale.label()), b));
        }
    }
    let lines = parallel_map(2, cells, |(label, b)| {
        let r = analyze_program(&b.workload.program, MAX_STEPS)
            .unwrap_or_else(|e| panic!("{label} faulted: {e}"));
        format!(
            "{label} instructions={} touched_words={} dift_leaked={} pair_leaked={}\n",
            r.instructions, r.touched_words, r.dift_leaked, r.pair_leaked
        )
    });
    lines.concat()
}

#[test]
fn dift_reports_match_the_golden_table() {
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
        "{} of {} DIFT reports moved ({} golden lines, {} computed):\n{}",
        diff.len(),
        got.lines().count(),
        want.lines().count(),
        got.lines().count(),
        diff.join("\n")
    );
}
