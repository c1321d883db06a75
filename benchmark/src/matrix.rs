//! `matrix-membound` and `matrix-compute`: paper-scale single-thread
//! programs, each under all five schemes, one job at a time, fully
//! detailed with no fast-forward.

use std::sync::Arc;
use std::time::Instant;

use recon_isa::rng::{Rng as _, SplitMix64};
use recon_isa::Program;
use recon_sim::Experiment;
use recon_workloads::gen::btree::{self, BtreeParams};
use recon_workloads::gen::gadget::{self, GadgetParams};
use recon_workloads::gen::hash::{self, HashParams};
use recon_workloads::gen::list::{self, ListParams};
use recon_workloads::{Scale, Workload};

use crate::host::HostClock;
use crate::layers::{self, Values};
use crate::sim::{self, Job, Outcome, PassTimes, SimSums, TraceCounts};
use crate::stats::{ratio, Tally};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Run};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    MemBound,
    Compute,
}

/// The streaming and stencil stand-ins of `matrix-compute`.
const COMPUTE: [&str; 4] = ["bwaves", "imagick", "x264", "nab"];

/// The pointer-chasing stand-ins of mcf, omnetpp, xalancbmk, perlbench
/// and leela at paper scale, with their layouts drawn from `seed`. The
/// generator parameters are those of the SPEC2017 stand-ins in
/// `recon_workloads::spec2017`; only the seed differs (the
/// `membound_params_match_the_suite` test holds them equal).
fn membound(mut seed: impl FnMut() -> u64) -> [(&'static str, Program); 5] {
    let f = Scale::Paper.factor();
    [
        (
            "mcf",
            list::generate(ListParams {
                nodes: 2048,
                chains: 8,
                visits: 1024 * f,
                cond_lines: 16384,
                payload_slots: 512,
                seed: seed(),
            }),
        ),
        (
            "omnetpp",
            gadget::generate(GadgetParams {
                slots: 1024,
                cond_lines: 16384,
                passes: 4 * f,
                depth: 2,
                indirect_per_16: 2,
                cyclic: true,
                seed: seed(),
                ..GadgetParams::default()
            }),
        ),
        (
            "xalancbmk",
            hash::generate(HashParams {
                buckets: 512,
                lookups: 6144 * f,
                keys: 1024,
                cond_lines: 16384,
                seed: seed(),
            }),
        ),
        (
            "perlbench",
            hash::generate(HashParams {
                buckets: 1024,
                lookups: 6144 * f,
                keys: 2048,
                cond_lines: 8192,
                seed: seed(),
            }),
        ),
        (
            "leela",
            btree::generate(BtreeParams {
                height: 7,
                searches: 1500 * f,
                seed: seed(),
            }),
        ),
    ]
}

/// Draws the programs of one workload from `seed`.
fn programs(kind: Kind, seed: u64) -> Vec<(String, Workload, Option<u64>)> {
    let mut rng = SplitMix64::new(seed ^ 0x6d61_7472_6978);
    let mut out: Vec<(String, Workload, Option<u64>)> = match kind {
        Kind::MemBound => membound(|| rng.next_u64())
            .into_iter()
            .map(|(name, p)| (name.to_string(), Workload::single(p), None))
            .collect(),
        // The stream and stencil stand-ins take no seed, so they are the
        // suite's own programs (the seed picks their order), plus the
        // self-checking corpus programs.
        Kind::Compute => {
            let mut v: Vec<(String, Workload, Option<u64>)> =
                recon_workloads::spec2017(Scale::Paper)
                    .into_iter()
                    .filter(|b| COMPUTE.contains(&b.name))
                    .map(|b| (b.name.to_string(), b.workload, None))
                    .collect();
            for b in recon_workloads::corpus(Scale::Paper) {
                let golden = recon_asm::corpus::find(b.name).map(|e| e.golden_digest);
                v.push((b.name.to_string(), b.workload, golden));
            }
            v
        }
    };
    shuffle(&mut out, &mut rng);
    out
}

/// Seeded Fisher-Yates.
pub fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

fn jobs(programs: Vec<(String, Workload, Option<u64>)>) -> Vec<Job> {
    let exp = Experiment::default();
    let mut out = Vec::new();
    for (name, w, golden) in programs {
        let w = Arc::new(w);
        for scheme in sim::schemes() {
            out.push(Job {
                program: name.clone(),
                workload: Arc::clone(&w),
                exp,
                scheme,
                golden,
                fast_forward: None,
            });
        }
    }
    out
}

fn check(jobs: &[Job], outcomes: &[Outcome], functional: &[(String, u64)], tally: &mut Tally) {
    let lookup = |p: &str| functional.iter().find(|(n, _)| n == p).map(|(_, d)| *d);
    sim::check_jobs(jobs, outcomes, &lookup, tally);
}

/// Runs the jobs in order, timing the host-speed kernel before each;
/// returns the outcomes and the pass wall time without the kernel.
fn pass(jobs: &[Job], clock: &mut HostClock) -> (Vec<Outcome>, f64) {
    let t = Instant::now();
    let mut kernel_s = 0.0;
    let out = jobs
        .iter()
        .map(|j| {
            kernel_s += clock.sample(1);
            sim::run_plain(j)
        })
        .collect();
    (out, t.elapsed().as_secs_f64() - kernel_s)
}

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    clock: &mut HostClock,
) -> Result<Run, String> {
    let mut out = Run::default();
    if traced {
        return Ok(run_traced(kind, seed, out, clock));
    }
    let (jobs, setup_s) = crate::repeat_setup(|| jobs(programs(kind, seed)));
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(pass(&jobs, clock));
        if passes.len() >= crate::MIN_PASSES && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let rss = peak_rss_mb();

    let functional = sim::functional_digests(&jobs);
    for (outcomes, _) in &passes {
        check(&jobs, outcomes, &functional, &mut out.tally);
    }
    let times: Vec<PassTimes> = passes
        .iter()
        .map(|(o, wall)| PassTimes {
            results: o.iter().map(|o| &o.result).collect(),
            seconds: o.iter().map(|o| o.seconds).collect(),
            wall: *wall,
        })
        .collect();
    let (e, first_fp) = sim::batch_values(&times, setup_s, rss, &mut out.tally);
    out.fingerprints.push(("timed".into(), first_fp));
    let walls: Vec<f64> = passes.iter().map(|p| p.1).collect();
    out.lines.push(format!(
        "{} jobs per pass, {} distinct programs, pass walls {walls:.3?} s",
        jobs.len(),
        functional.len()
    ));
    out.values = e;
    Ok(out)
}

fn run_traced(kind: Kind, seed: u64, mut out: Run, clock: &mut HostClock) -> Run {
    let mut tr = Tracer::new();
    let jobs = tr.span("workloads.gen", |_| jobs(programs(kind, seed)));
    let (plain, plain_wall) = pass(&jobs, clock);
    let timed_fp = sim::fingerprint(plain.iter().map(|o| &o.result));

    let mut counts = TraceCounts::default();
    let t = Instant::now();
    let traced: Vec<Outcome> = jobs
        .iter()
        .map(|j| sim::run_traced(j, &mut tr, &mut counts, &mut out.tally))
        .collect();
    let traced_wall = t.elapsed().as_secs_f64();
    let traced_fp = sim::fingerprint(traced.iter().map(|o| &o.result));

    let functional = sim::functional_digests(&jobs);
    check(&jobs, &traced, &functional, &mut out.tally);
    crate::compare_fingerprints(&mut out, timed_fp, traced_fp);

    let mut sums = SimSums::default();
    for r in traced.iter().filter_map(|o| o.result.as_ref().ok()) {
        sums.add(r);
    }
    sim::attribute_ticks(&mut tr, &counts);
    let mut v = Values::per_layer();
    layers::fill_sim(&mut v, &counts, &sums);
    layers::fill_shares(&mut v, &tr);
    v.set("serve_jobs_per_s", ratio(jobs.len() as f64, plain_wall));
    v.set("trace.overhead_s", traced_wall - plain_wall);
    out.finish_traced(v, &counts, tr);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The seed `recon_workloads` gives a stand-in: FNV-1a of its name.
    fn suite_seed(name: &str) -> u64 {
        name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        })
    }

    /// With the suite's own seeds, the memory-bound programs are exactly
    /// the paper-scale SPEC2017 stand-ins, so a retuned stand-in cannot
    /// silently drift away from what this workload measures.
    #[test]
    fn membound_params_match_the_suite() {
        let suite = recon_workloads::spec2017(Scale::Paper);
        let mut names = ["mcf", "omnetpp", "xalancbmk", "perlbench", "leela"].iter();
        for (name, program) in membound(|| suite_seed(names.next().expect("one seed per program")))
        {
            let b = suite.iter().find(|b| b.name == name).expect(name);
            assert!(
                b.workload.program == program,
                "{name} differs from the suite's stand-in"
            );
        }
    }

    #[test]
    fn compute_takes_every_named_stand_in_and_the_corpus() {
        let names: Vec<String> = programs(Kind::Compute, 1)
            .into_iter()
            .map(|p| p.0)
            .collect();
        for n in COMPUTE {
            assert!(names.iter().any(|x| x == n), "{n}");
        }
        assert_eq!(names.len(), COMPUTE.len() + recon_asm::corpus::CORPUS.len());
    }
}
