//! A closed stdout ends a command quietly: `recon list | head -n 3`
//! must not print a panic and a backtrace once `head` has gone. The
//! exit status is still a failure (141, as for a `SIGPIPE` kill), so a
//! gate whose output was cut off never reads as passed.

use std::process::{Command, Stdio};

/// Runs `recon args` with stdout a pipe whose read end is already
/// closed, so the first write fails with a broken pipe.
fn run_into_closed_pipe(args: &[&str]) -> std::process::Output {
    let (reader, writer) = std::io::pipe().expect("create pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_recon"))
        .args(args)
        .env_remove("RECON_SCALE")
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run recon")
}

#[test]
fn closed_stdout_stops_commands_quietly() {
    for args in [
        &["list"][..],
        &["run", "corpus", "memref", "stt"],
        &["analyze", "spec2017", "mcf"],
    ] {
        let o = run_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(!stderr.contains("panicked"), "recon {args:?}: {stderr}");
        assert_eq!(o.status.code(), Some(141), "recon {args:?}: {:?}", o.status);
    }
}
