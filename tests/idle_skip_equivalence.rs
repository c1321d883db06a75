//! Idle-cycle skipping is exact: `System::run_budgeted_checkpointed`,
//! which jumps over cycles in which every core is quiet, must end every
//! run exactly where a loop calling `System::tick` once per cycle ends
//! it — same `SystemResult`, same stop reason, same checkpoint bytes,
//! same stall forensics — whatever boundary (cycle cap, fuel, watchdog,
//! audit or checkpoint cadence) falls inside an idle window.

use recon::ReconConfig;
use recon_cpu::{Core, CoreConfig};
use recon_isa::reg::names::*;
use recon_isa::{Inst, MemImage, Program};
use recon_mem::MemConfig;
use recon_secure::SecureConfig;
use recon_sim::system::DRAIN_BOUND_CYCLES;
use recon_sim::{Budget, Experiment, SimError, StallReport, System, SystemResult};
use recon_workloads::{find, Benchmark, Scale, Suite, Workload};

fn schemes() -> [SecureConfig; 5] {
    [
        SecureConfig::unsafe_baseline(),
        SecureConfig::nda(),
        SecureConfig::nda_recon(),
        SecureConfig::stt(),
        SecureConfig::stt_recon(),
    ]
}

fn bench(suite: Suite, name: &str) -> Benchmark {
    find(suite, name, Scale::Quick).expect("suite benchmark")
}

fn system(w: &Workload, secure: SecureConfig) -> System {
    let exp = Experiment::default();
    System::new(w, exp.core, exp.mem, secure, exp.recon)
}

/// Everything a run can be told apart by.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: SystemResult,
    stop: String,
    stall: Option<StallReport>,
    checkpoints: Vec<(u64, Vec<u8>)>,
}

/// The simulator's own loop, which skips quiet cycles.
fn skipping(sys: &mut System, max_cycles: u64, budget: &Budget) -> Outcome {
    let mut checkpoints = Vec::new();
    let run = sys.run_budgeted_checkpointed(max_cycles, budget, |cycle, bytes| {
        checkpoints.push((cycle, bytes.to_vec()));
    });
    let (result, stop, stall) = match run {
        Ok(r) => (r, "completed".to_string(), None),
        Err(SimError::Stalled { partial, report }) => (*partial, "stalled".into(), Some(*report)),
        Err(SimError::DeadlineExceeded { partial, reason }) => {
            (*partial, format!("deadline {reason:?}"), None)
        }
        Err(e) => panic!("unexpected stop: {e}"),
    };
    Outcome {
        result,
        stop,
        stall,
        checkpoints,
    }
}

/// The same run, one `System::tick` per cycle, with every check of
/// `run_budgeted_checkpointed` evaluated after every cycle.
fn ticking(sys: &mut System, max_cycles: u64, budget: &Budget) -> Outcome {
    if let Some(fuel) = budget.fuel {
        for core in sys.cores_mut() {
            core.set_fuel(fuel);
        }
    }
    let audit = budget.audit_every_cycles;
    let mut next_audit = audit.map(|c| sys.cycle() + c);
    let cadence = budget.checkpoint_every_cycles;
    let mut next_ckpt = cadence.map(|c| sys.cycle() + c);
    let window = budget.effective_watchdog();
    let mut last_total = sys.committed_total();
    let mut last_progress = sys.cycle();
    let mut checkpoints = Vec::new();
    let mut stall = None;
    loop {
        if !sys.tick() || sys.cycle() >= max_cycles {
            break;
        }
        if let Some(w) = window {
            let total = sys.committed_total();
            if total != last_total {
                last_total = total;
                last_progress = sys.cycle();
            } else if sys.cycle() - last_progress >= w && !sys.cores().iter().any(Core::out_of_fuel)
            {
                stall = Some(sys.stall_report(w));
                break;
            }
        }
        if let (Some(at), Some(c)) = (next_audit, audit) {
            if sys.cycle() >= at {
                assert!(sys.audit().is_empty(), "clean run audits clean");
                next_audit = Some(sys.cycle() + c);
            }
        }
        if let (Some(at), Some(c)) = (next_ckpt, cadence) {
            if sys.cycle() >= at {
                if sys.drain(DRAIN_BOUND_CYCLES) {
                    checkpoints.push((sys.cycle(), sys.snapshot_bytes()));
                }
                next_ckpt = Some(sys.cycle() + c);
                last_total = sys.committed_total();
                last_progress = sys.cycle();
            }
        }
    }
    let completed = sys.cores().iter().all(Core::is_done);
    let result = SystemResult {
        completed,
        cycles: sys.cycle(),
        cores: sys.cores().iter().map(Core::stats).collect(),
        mem: sys.mem().stats(),
    };
    let stop = if stall.is_some() {
        "stalled".to_string()
    } else if completed {
        "completed".into()
    } else if sys.cores().iter().any(Core::out_of_fuel) {
        "deadline Fuel".into()
    } else {
        "deadline MaxCycles".into()
    };
    Outcome {
        result,
        stop,
        stall,
        checkpoints,
    }
}

fn assert_same(w: &Workload, secure: SecureConfig, max_cycles: u64, budget: &Budget) -> Outcome {
    let skip = skipping(&mut system(w, secure), max_cycles, budget);
    let tick = ticking(&mut system(w, secure), max_cycles, budget);
    assert_eq!(
        skip, tick,
        "under {secure} with {budget:?}, cap {max_cycles}"
    );
    skip
}

/// Cycles at which every core of a per-cycle run has just had a quiet
/// tick with at least `len` more quiet cycles ahead: the middle of an
/// idle window.
fn idle_windows(w: &Workload, secure: SecureConfig, len: u64, limit: usize) -> Vec<u64> {
    let mut sys = system(w, secure);
    let mut found = Vec::new();
    while sys.tick() && found.len() < limit {
        let c = sys.cycle();
        let quiet_for = sys
            .cores()
            .iter()
            .map(|core| core.quiet_until(c).unwrap_or(c))
            .min()
            .unwrap_or(c);
        if quiet_for > c + len && found.last().is_none_or(|&f| c > f + 1000) {
            found.push(c);
        }
    }
    found
}

#[test]
fn skipping_matches_ticking_under_every_scheme_single_and_four_threads() {
    let mcf = bench(Suite::Spec2017, "mcf");
    let canneal = bench(Suite::Parsec, "canneal");
    assert_eq!(canneal.workload.num_threads(), 4);
    for secure in schemes() {
        for b in [&mcf, &canneal] {
            let out = assert_same(&b.workload, secure, u64::MAX, &Budget::default());
            assert_eq!(out.stop, "completed", "{} under {secure}", b.name);
        }
    }
}

#[test]
fn skipping_matches_ticking_with_an_audit_cadence() {
    let budget = Budget {
        audit_every_cycles: Some(777),
        ..Budget::default()
    };
    for (suite, name) in [(Suite::Spec2017, "xalancbmk"), (Suite::Parsec, "dedup")] {
        let b = bench(suite, name);
        for secure in [SecureConfig::nda(), SecureConfig::stt_recon()] {
            assert_same(&b.workload, secure, u64::MAX, &budget);
        }
    }
}

#[test]
fn skipping_matches_ticking_across_checkpoints_and_a_resume() {
    let budget = Budget {
        checkpoint_every_cycles: Some(4_000),
        ..Budget::default()
    };
    for (suite, name) in [(Suite::Spec2017, "omnetpp"), (Suite::Parsec, "canneal")] {
        let b = bench(suite, name);
        let secure = SecureConfig::stt_recon();
        let whole = assert_same(&b.workload, secure, u64::MAX, &budget);
        assert!(whole.checkpoints.len() >= 2, "{name}: too short to resume");
        let (_, bytes) = &whole.checkpoints[1];
        let mut resumed = system(&b.workload, secure);
        resumed.restore_bytes(bytes).expect("restore");
        let rest = skipping(&mut resumed, u64::MAX, &budget);
        assert_eq!(rest.result, whole.result, "{name}: resumed run differs");
        assert_eq!(rest.checkpoints[..], whole.checkpoints[2..], "{name}");
    }
}

#[test]
fn a_cycle_cap_inside_an_idle_window_stops_on_the_same_cycle() {
    for (suite, name) in [(Suite::Spec2017, "mcf"), (Suite::Parsec, "canneal")] {
        let b = bench(suite, name);
        for secure in [SecureConfig::unsafe_baseline(), SecureConfig::nda()] {
            let windows = idle_windows(&b.workload, secure, 8, 3);
            assert!(!windows.is_empty(), "{name} under {secure} never idles");
            for c in windows {
                let out = assert_same(&b.workload, secure, c + 3, &Budget::default());
                assert_eq!(out.stop, "deadline MaxCycles");
                assert_eq!(out.result.cycles, c + 3);
            }
        }
    }
}

#[test]
fn fuel_running_out_while_other_cores_idle_stops_on_the_same_cycle() {
    let canneal = bench(Suite::Parsec, "canneal");
    let mcf = bench(Suite::Spec2017, "mcf");
    for fuel in [1_000, 4_321, 9_999] {
        for secure in [SecureConfig::unsafe_baseline(), SecureConfig::stt()] {
            for b in [&canneal, &mcf] {
                let out = assert_same(&b.workload, secure, u64::MAX, &Budget::with_fuel(fuel));
                assert_eq!(out.stop, "deadline Fuel", "{} fuel {fuel}", b.name);
            }
        }
    }
}

/// The historical AMO gate (`CoreConfig::amo_empty_sq_bug`) deadlocks:
/// the run idles from the hang to the watchdog deadline, which the skip
/// must land on exactly, with the same forensics.
#[test]
fn the_amo_bug_stall_fires_on_the_same_cycle_with_the_same_report() {
    let p = Program {
        code: vec![
            Inst::LoadImm {
                dst: R1,
                imm: 0x2000,
            },
            Inst::AmoAdd {
                dst: R2,
                base: R1,
                offset: 8,
                add: R1,
            },
            Inst::Store {
                val: R1,
                base: R1,
                offset: 0,
            },
            Inst::Halt,
        ],
        entry: 0,
        image: MemImage::new(),
    };
    let core = CoreConfig {
        amo_empty_sq_bug: true,
        ..CoreConfig::tiny()
    };
    let budget = Budget {
        watchdog_cycles: Some(10_000),
        ..Budget::default()
    };
    for secure in schemes() {
        let make = || {
            System::new(
                &Workload::single(p.clone()),
                core,
                MemConfig::default(),
                secure,
                ReconConfig::default(),
            )
        };
        let skip = skipping(&mut make(), 2_000_000, &budget);
        let tick = ticking(&mut make(), 2_000_000, &budget);
        assert_eq!(skip.stop, "stalled", "under {secure}");
        assert_eq!(skip, tick, "under {secure}");
    }
}
