//! `recon run`, `recon suite` and `recon resume` through the binary:
//! flag errors carry near-miss hints, and every setting that changes a
//! run's result keys its checkpoint and result records, so a record is
//! never handed back for a different run and a resume runs under the
//! settings the run was checkpointed with.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

/// A fresh per-test directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("recon-run-spec-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `recon` at quick scale with `dir` as its working directory
/// (`recon suite` writes `BENCH_runner.json` there).
fn recon(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_recon"))
        .args(args)
        .current_dir(dir)
        .env_remove("RECON_SCALE")
        .output()
        .expect("run recon")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

/// The command fails and its error mentions every one of `needles`.
fn fails_with(dir: &Path, args: &[&str], needles: &[&str]) {
    let o = recon(dir, args);
    assert!(!o.status.success(), "{args:?} must fail");
    let err = stderr(&o);
    for n in needles {
        assert!(err.contains(n), "{args:?}: '{n}' missing from: {err}");
    }
}

#[test]
fn unknown_and_repeated_flags_are_rejected_with_hints() {
    let dir = scratch("flags");
    let run = ["run", "spec2017", "mcf", "stt"];
    fails_with(
        &dir,
        &[&run[..], &["--fastforward", "1000"]].concat(),
        &[
            "unknown flag '--fastforward'",
            "did you mean '--fast-forward'?",
        ],
    );
    fails_with(
        &dir,
        &[&run[..], &["--audit", "5", "--audit", "6"]].concat(),
        &["--audit given twice"],
    );
    fails_with(
        &dir,
        &["suite", "corpus", "--checkpoint-evry", "5"],
        &["did you mean '--checkpoint-every'?"],
    );
    fails_with(
        &dir,
        &["suite", "Corpu"],
        &["spec2017|spec2006|parsec|corpus", "did you mean 'corpus'?"],
    );
    fails_with(
        &dir,
        &["resume", "x.rck", "--audit", "5"],
        &["unknown resume flag '--audit'"],
    );
}

#[test]
fn watchdog_window_keys_the_run_records() {
    let dir = scratch("watchdog");
    let run = ["run", "corpus", "memref", "stt", "--checkpoint", "ck"];
    let stalled = recon(&dir, &[&run[..], &["--watchdog-cycles", "5"]].concat());
    assert!(!stalled.status.success(), "a 5-cycle window stalls");
    assert!(
        stderr(&stalled).contains("liveness stall"),
        "{}",
        stderr(&stalled)
    );
    // The watchdog off is another run: it must simulate to completion,
    // not replay the 5-cycle window's stall record.
    let off = recon(&dir, &[&run[..], &["--watchdog-cycles", "0"]].concat());
    assert!(off.status.success(), "{}", stderr(&off));
    assert!(!stdout(&off).contains("record found"), "{}", stdout(&off));
    assert!(stdout(&off).contains("cycles"), "{}", stdout(&off));
}

#[test]
fn audit_cadence_keys_the_suite_records() {
    let dir = scratch("suite");
    // `--jobs` may stand anywhere among the flags.
    let suite = ["suite", "corpus", "--jobs", "2", "--checkpoint", "ck"];
    let cached = |o: &Output| {
        assert!(o.status.success(), "{}", stderr(o));
        let out = stdout(o);
        out.lines()
            .find(|l| l.starts_with("checkpoints:"))
            .unwrap_or_else(|| panic!("no checkpoint summary in: {out}"))
            .to_string()
    };
    assert!(cached(&recon(&dir, &suite)).contains(" 0 jobs from result cache"));
    assert!(cached(&recon(&dir, &suite)).contains("25 jobs from result cache"));
    // An audit cadence can turn a completed job into a violation
    // record, so audited jobs must not come from the unaudited records.
    let audited = [&suite[..], &["--audit", "1000"]].concat();
    assert!(cached(&recon(&dir, &audited)).contains(" 0 jobs from result cache"));
}

#[test]
fn resume_runs_under_the_checkpointed_watchdog_and_audit() {
    let dir = scratch("resume");
    let args = [
        "run",
        "spec2017",
        "mcf",
        "stt+recon",
        "--checkpoint",
        "full",
        "--checkpoint-every",
        "10000",
        "--watchdog-cycles",
        "100000",
        "--audit",
        "50000",
    ];
    // Paper scale keeps the run alive long enough to copy its first
    // checkpoint out (the run deletes its checkpoints when it ends);
    // a run that ends first is retried.
    for _ in 0..5 {
        let _ = std::fs::remove_dir_all(dir.join("full"));
        let _ = std::fs::remove_dir_all(dir.join("mid"));
        std::fs::create_dir_all(dir.join("mid")).expect("create mid dir");
        let child = Command::new(env!("CARGO_BIN_EXE_recon"))
            .args(args)
            .current_dir(&dir)
            .env("RECON_SCALE", "paper")
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn recon run");
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut copied = None;
        while copied.is_none() && Instant::now() < deadline {
            let first = std::fs::read_dir(dir.join("full")).ok().and_then(|rd| {
                rd.filter_map(Result::ok)
                    .map(|e| e.path())
                    .find(|p| p.extension().is_some_and(|x| x == "rck"))
            });
            if let Some(src) = first {
                let dst = dir.join("mid").join(src.file_name().expect("file name"));
                copied = std::fs::copy(&src, &dst).ok().map(|_| dst);
            } else if std::fs::read_dir(dir.join("full")).is_ok_and(|rd| {
                rd.filter_map(Result::ok)
                    .any(|e| e.path().extension().is_some_and(|x| x == "res"))
            }) {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let full = child.wait_with_output().expect("wait for the full run");
        assert!(full.status.success(), "{}", stderr(&full));
        let Some(mid) = copied else { continue };
        let resumed = Command::new(env!("CARGO_BIN_EXE_recon"))
            .args(["resume", mid.to_str().expect("utf-8 path")])
            .current_dir(&dir)
            .env_remove("RECON_SCALE")
            .output()
            .expect("run recon resume");
        assert!(resumed.status.success(), "{}", stderr(&resumed));
        let resumed = stdout(&resumed);
        // The resume found its checkpoint under the digest it rebuilt
        // from the meta, so it runs with the same window and cadence.
        assert!(
            resumed.contains("resumed from checkpoint at cycle"),
            "{resumed}"
        );
        let stats = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.contains("checkpoint"))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(stats(&resumed), stats(&stdout(&full)));
        return;
    }
    panic!("no run left a checkpoint to copy in 5 attempts");
}
