//! `figures`: the `recon suite` job set at quick scale — spec2017,
//! spec2006, parsec and corpus, each benchmark under the five schemes —
//! through `recon_sim::run_batch` with 2 workers, one suite after the
//! other as `recon suite` runs them. The stand-ins' programs are fixed;
//! the seed sets only the order in which suites and jobs are submitted.

use std::sync::Arc;
use std::time::Instant;

use recon_isa::rng::SplitMix64;
use recon_sim::{run_batch, Experiment, SystemResult};
use recon_workloads::{Benchmark, Scale, Suite};

use crate::host::HostClock;
use crate::layers::{self, Values};
use crate::matrix::shuffle;
use crate::sim::{self, Job, Outcome, PassTimes, SimSums, TraceCounts};
use crate::stats::{ratio, Tally};
use crate::trace::Tracer;
use crate::{peak_rss_mb, Run};

/// Worker threads, sized for a 2-core host.
const WORKERS: usize = 2;

struct SuiteSet {
    exp: Experiment,
    benches: Vec<Benchmark>,
}

fn build(seed: u64) -> Vec<SuiteSet> {
    let mut rng = SplitMix64::new(seed ^ 0x6669_6775_7265);
    let mut suites: Vec<SuiteSet> = [
        Suite::Spec2017,
        Suite::Spec2006,
        Suite::Parsec,
        Suite::Corpus,
    ]
    .into_iter()
    .map(|s| SuiteSet {
        exp: recon_serve::job::experiment_for(s),
        benches: match s {
            Suite::Spec2017 => recon_workloads::spec2017(Scale::Quick),
            Suite::Spec2006 => recon_workloads::spec2006(Scale::Quick),
            Suite::Parsec => recon_workloads::parsec(Scale::Quick),
            Suite::Corpus => recon_workloads::corpus(Scale::Quick),
        },
    })
    .collect();
    shuffle(&mut suites, &mut rng);
    for s in &mut suites {
        shuffle(&mut s.benches, &mut rng);
    }
    suites
}

/// One pass through the runner: per job in submission order, its
/// result and host seconds, plus the wall time of each suite's batch.
struct BatchPass {
    results: Vec<Result<SystemResult, String>>,
    seconds: Vec<f64>,
    suite_walls: Vec<f64>,
    /// Per suite, the job seconds in submission order.
    suite_jobs: Vec<Vec<f64>>,
}

impl BatchPass {
    fn wall(&self) -> f64 {
        self.suite_walls.iter().sum()
    }
}

/// Kernel samples timed before each suite's batch.
const KERNEL_SAMPLES: usize = 3;

fn batch_pass(suites: &[SuiteSet], clock: &mut HostClock) -> BatchPass {
    let schemes = sim::schemes();
    let mut p = BatchPass {
        results: Vec::new(),
        seconds: Vec::new(),
        suite_walls: Vec::new(),
        suite_jobs: Vec::new(),
    };
    for s in suites {
        clock.sample(KERNEL_SAMPLES);
        let t = Instant::now();
        let batch = run_batch(&s.exp, &s.benches, &schemes, WORKERS);
        p.suite_walls.push(t.elapsed().as_secs_f64());
        let failures = batch.failures();
        for b in &s.benches {
            for c in schemes {
                p.results.push(match batch.get(b.name, c) {
                    Some(r) => Ok(r.clone()),
                    None => Err(failures
                        .iter()
                        .find(|(n, k, _)| *n == b.name && *k == c)
                        .map_or_else(|| "no result".to_string(), |(_, _, e)| (*e).to_string())),
                });
            }
        }
        // run_batch reports timings in submission order.
        let secs: Vec<f64> = batch.timings.iter().map(|t| t.seconds).collect();
        p.seconds.extend(&secs);
        p.suite_jobs.push(secs);
    }
    p
}

/// Wall time after the first worker ran out of jobs, reconstructed by
/// replaying the runner's FIFO queue over the measured job times.
fn tail_s(jobs: &[f64], wall: f64) -> f64 {
    let mut free = vec![0.0f64; WORKERS.min(jobs.len()).max(1)];
    for &d in jobs {
        let (i, _) = free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("at least one worker");
        free[i] += d;
    }
    let first_idle = free.iter().copied().fold(f64::INFINITY, f64::min);
    (wall - first_idle).max(0.0)
}

fn jobs_of(suites: &[SuiteSet]) -> Vec<Job> {
    let mut out = Vec::new();
    for s in suites {
        for b in &s.benches {
            let w = Arc::new(b.workload.clone());
            let golden = (b.suite == Suite::Corpus)
                .then(|| recon_asm::corpus::find(b.name).map(|e| e.golden_digest))
                .flatten();
            for scheme in sim::schemes() {
                out.push(Job {
                    program: format!("{}/{}", b.suite, b.name),
                    workload: Arc::clone(&w),
                    exp: s.exp,
                    scheme,
                    golden,
                    fast_forward: None,
                });
            }
        }
    }
    out
}

/// Completion, and equal committed counts across schemes for
/// single-thread programs (digests need the final `System`, which
/// `run_batch` does not return; the traced run checks them).
fn check_batch(jobs: &[Job], results: &[Result<SystemResult, String>], tally: &mut Tally) {
    for (i, (job, r)) in jobs.iter().zip(results).enumerate() {
        let verdict = match r {
            Err(e) => Err(e.clone()),
            Ok(r) if !r.completed => Err("did not complete".into()),
            Ok(r) => {
                let first = jobs
                    .iter()
                    .position(|j| j.program == job.program)
                    .unwrap_or(i);
                match &results[first] {
                    Ok(base)
                        if job.workload.num_threads() == 1 && base.committed() != r.committed() =>
                    {
                        Err(format!(
                            "committed {} differs across schemes ({})",
                            r.committed(),
                            base.committed()
                        ))
                    }
                    _ => Ok(()),
                }
            }
        };
        tally.record(verdict.map_err(|why| format!("{}: {why}", job.label())));
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool, clock: &mut HostClock) -> Result<Run, String> {
    let mut out = Run::default();
    if traced {
        return Ok(run_traced(seed, out, clock));
    }
    let (suites, setup_s) = crate::repeat_setup(|| build(seed));
    let jobs = jobs_of(&suites);
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(batch_pass(&suites, clock));
        if passes.len() >= crate::MIN_PASSES && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let rss = peak_rss_mb();
    for p in &passes {
        check_batch(&jobs, &p.results, &mut out.tally);
    }
    let times: Vec<PassTimes> = passes
        .iter()
        .map(|p| PassTimes {
            results: p.results.iter().collect(),
            seconds: p.seconds.clone(),
            wall: p.wall(),
        })
        .collect();
    let (e, first_fp) = sim::batch_values(&times, setup_s, rss, &mut out.tally);
    out.fingerprints.push(("timed-2-workers".into(), first_fp));
    let walls: Vec<f64> = passes.iter().map(BatchPass::wall).collect();
    out.lines.push(format!(
        "{} jobs per pass on {WORKERS} workers, pass walls {walls:.3?} s",
        jobs.len()
    ));
    out.values = e;
    Ok(out)
}

fn run_traced(seed: u64, mut out: Run, clock: &mut HostClock) -> Run {
    let mut tr = Tracer::new();
    let suites = tr.span("workloads.gen", |_| build(seed));
    let jobs = jobs_of(&suites);
    let p = batch_pass(&suites, clock);
    let timed_fp = sim::fingerprint(&p.results);
    let job_s: f64 = p.seconds.iter().sum();
    let busy = ratio(job_s, WORKERS as f64 * p.wall());
    let tail: f64 = p
        .suite_jobs
        .iter()
        .zip(&p.suite_walls)
        .map(|(j, w)| tail_s(j, *w))
        .sum();

    // The same jobs on one worker, ticked from here.
    let mut counts = TraceCounts::default();
    let t = Instant::now();
    let traced: Vec<Outcome> = jobs
        .iter()
        .map(|j| sim::run_traced(j, &mut tr, &mut counts, &mut out.tally))
        .collect();
    let traced_wall = t.elapsed().as_secs_f64();
    let traced_fp = sim::fingerprint(traced.iter().map(|o| &o.result));

    let functional = sim::functional_digests(&jobs);
    let lookup = |p: &str| functional.iter().find(|(n, _)| n == p).map(|(_, d)| *d);
    sim::check_jobs(&jobs, &traced, &lookup, &mut out.tally);
    out.fingerprints.push(("timed-2-workers".into(), timed_fp));
    out.fingerprints.push(("traced-1-worker".into(), traced_fp));
    if timed_fp != traced_fp {
        out.tally.fail_counted(format!(
            "1-worker traced fingerprint {traced_fp:#018x} != 2-worker timed {timed_fp:#018x}"
        ));
    }

    let mut sums = SimSums::default();
    for r in traced.iter().filter_map(|o| o.result.as_ref().ok()) {
        sums.add(r);
    }
    sim::attribute_ticks(&mut tr, &counts);
    let mut v = Values::per_layer();
    layers::fill_sim(&mut v, &counts, &sums);
    layers::fill_shares(&mut v, &tr);
    v.set("runner.busy_frac", busy);
    v.set("runner.tail_s", tail);
    v.set("runner.share", 1.0 - busy);
    v.set("serve_jobs_per_s", ratio(jobs.len() as f64, p.wall()));
    // Untraced serial-equivalent time of the same jobs.
    v.set("trace.overhead_s", traced_wall - job_s);
    out.finish_traced(v, &counts, tr);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_time_after_the_first_worker_idles() {
        // FIFO on two workers: [3, 1, 1] -> worker A: 3, worker B: 1+1=2.
        assert!((tail_s(&[3.0, 1.0, 1.0], 3.0) - 1.0).abs() < 1e-12);
        assert_eq!(tail_s(&[1.0, 1.0], 1.0), 0.0);
    }
}
