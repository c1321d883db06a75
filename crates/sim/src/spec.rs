//! One run identity for every front end.
//!
//! A [`RunSpec`] names a simulation by everything that can change its
//! result: suite, benchmark, scheme, workload scale, and the budget
//! fields (fuel, cycle cap, watchdog window, fast-forward warmup,
//! audit cadence, checkpoint cadence). `recon run`, `recon resume`,
//! `recon suite` and `recon serve`'s `run`/`matrix`/`analyze` jobs all
//! build one, so the content-addressed records they reuse (checkpoints,
//! result and stall records, the service cache) are keyed by the same
//! [`RunSpec::digest`].
//!
//! The canonical string writes every field, unset ones as `-`, after a
//! version tag: a new field bumps [`RunSpec::VERSION`] instead of being
//! appended only when set. The same string is the checkpoint meta, so
//! a resume decodes exactly the spec that was digested.

use std::hash::Hasher;
use std::path::PathBuf;

use recon_isa::hash::FxHasher;
use recon_secure::SecureConfig;
use recon_workloads::{did_you_mean, find, Benchmark, Scale, Suite};

use crate::ckpt::Checkpoint;
use crate::error::Budget;

/// Checkpoint cadence in simulated cycles when `--checkpoint` is given
/// without `--checkpoint-every`.
const DEFAULT_CKPT_EVERY: u64 = 500_000;

/// The flags [`RunSpec::from_flags`] accepts, each taking one value.
const RUN_FLAGS: [&str; 5] = [
    "--checkpoint",
    "--checkpoint-every",
    "--fast-forward",
    "--watchdog-cycles",
    "--audit",
];

/// Everything that can change a run's result.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunSpec {
    /// Benchmark suite.
    pub suite: Suite,
    /// Benchmark, in the suite's spelling; `None` for every benchmark
    /// of the suite (`recon suite`).
    pub bench: Option<&'static str>,
    /// Scheme; `None` for the five-scheme matrix.
    pub scheme: Option<SecureConfig>,
    /// Workload scale.
    pub scale: Scale,
    /// Per-core committed-instruction cap.
    pub fuel: Option<u64>,
    /// Cycle cap overriding the experiment's.
    pub max_cycles: Option<u64>,
    /// Liveness-watchdog window; `Some(0)` turns the watchdog off,
    /// `None` keeps the default window.
    pub watchdog: Option<u64>,
    /// Functional warmup in instructions before detailed timing.
    pub fast_forward: Option<u64>,
    /// Invariant-audit sweep cadence in cycles.
    pub audit: Option<u64>,
    /// Checkpoint cadence in cycles. The drains perturb timing, so a
    /// checkpointed run is a different run.
    pub cadence: Option<u64>,
}

impl RunSpec {
    /// Version of the canonical string; bumped whenever a field is
    /// added, removed or re-spelled.
    pub const VERSION: u32 = 5;

    /// A spec with no budget fields set, resolving `suite` and `bench`
    /// case-insensitively.
    ///
    /// # Errors
    ///
    /// An unknown suite or benchmark, with a near-miss hint.
    pub fn new(
        suite: &str,
        bench: Option<&str>,
        scheme: Option<SecureConfig>,
        scale: Scale,
    ) -> Result<RunSpec, String> {
        let suite = Suite::resolve(suite)?;
        let bench = bench.map(|b| suite.resolve_bench(b)).transpose()?;
        Ok(RunSpec {
            suite,
            bench,
            scheme,
            scale,
            fuel: None,
            max_cycles: None,
            watchdog: None,
            fast_forward: None,
            audit: None,
            cadence: None,
        })
    }

    /// Builds a spec from `recon run`/`recon suite` arguments: the
    /// positional names plus `--checkpoint`, `--checkpoint-every`,
    /// `--fast-forward`, `--watchdog-cycles` and `--audit` pairs.
    /// Returns the `--checkpoint` directory beside the spec; the
    /// directory does not change results, the cadence does.
    ///
    /// # Errors
    ///
    /// Unknown names, unknown or repeated flags (with a near-miss
    /// hint), missing or malformed values, and `--checkpoint-every`
    /// without `--checkpoint`.
    pub fn from_flags(
        suite: &str,
        bench: Option<&str>,
        scheme: Option<&str>,
        scale: Scale,
        args: &[&str],
    ) -> Result<(RunSpec, Option<PathBuf>), String> {
        let scheme = scheme.map(resolve_scheme).transpose()?;
        let mut spec = RunSpec::new(suite, bench, scheme, scale)?;
        let mut seen = Vec::new();
        let (mut dir, mut every) = (None, None);
        let mut it = args.iter();
        while let Some(&flag) = it.next() {
            if !RUN_FLAGS.contains(&flag) {
                return Err(format!(
                    "unknown flag '{flag}' ({}){}",
                    RUN_FLAGS.join(" "),
                    did_you_mean(flag, RUN_FLAGS)
                ));
            }
            if seen.contains(&flag) {
                return Err(format!("{flag} given twice"));
            }
            seen.push(flag);
            let &value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
            let positive = |what: &str| {
                value
                    .parse()
                    .ok()
                    .filter(|&n: &u64| n >= 1)
                    .ok_or_else(|| format!("{flag} wants a positive {what}, got '{value}'"))
            };
            match flag {
                "--checkpoint" => dir = Some(PathBuf::from(value)),
                "--checkpoint-every" => every = Some(positive("cycle count")?),
                "--fast-forward" => spec.fast_forward = Some(positive("instruction count")?),
                "--audit" => spec.audit = Some(positive("cycle cadence")?),
                // --watchdog-cycles: 0 is a valid window (off).
                _ => {
                    spec.watchdog = Some(value.parse().map_err(|_| {
                        format!("{flag} wants a cycle count (0 = off), got '{value}'")
                    })?);
                }
            }
        }
        match (&dir, every) {
            (None, Some(_)) => return Err("--checkpoint-every needs --checkpoint <dir>".into()),
            (Some(_), every) => spec.cadence = Some(every.unwrap_or(DEFAULT_CKPT_EVERY)),
            (None, None) => {}
        }
        Ok((spec, dir))
    }

    /// The spec of one (benchmark, scheme) job of this suite or matrix
    /// spec, every budget field kept.
    #[must_use]
    pub(crate) fn job(&self, bench: &'static str, scheme: SecureConfig) -> RunSpec {
        RunSpec {
            bench: Some(bench),
            scheme: Some(scheme),
            ..self.clone()
        }
    }

    /// The simulation budget the spec's fields describe.
    #[must_use]
    pub fn budget(&self) -> Budget {
        Budget {
            fuel: self.fuel,
            max_cycles: self.max_cycles,
            cancel: None,
            checkpoint_every_cycles: self.cadence,
            fast_forward: self.fast_forward,
            watchdog_cycles: self.watchdog,
            audit_every_cycles: self.audit,
        }
    }

    /// Generates the named benchmark at the spec's scale (`None` for a
    /// suite spec).
    #[must_use]
    pub fn benchmark(&self) -> Option<Benchmark> {
        find(self.suite, self.bench?, self.scale)
    }

    /// The versioned canonical string the digest is taken over.
    #[must_use]
    pub fn canonical(&self) -> String {
        let num = |n: Option<u64>| n.map_or_else(|| "-".to_string(), |n| n.to_string());
        format!(
            "v{}|suite={}|bench={}|scheme={}|scale={}|fuel={}|max_cycles={}|watchdog={}|fast_forward={}|audit={}|cadence={}",
            Self::VERSION,
            self.suite.name(),
            self.bench.unwrap_or("-"),
            self.scheme.map_or_else(|| "-".to_string(), |s| s.label()),
            self.scale.label(),
            num(self.fuel),
            num(self.max_cycles),
            num(self.watchdog),
            num(self.fast_forward),
            num(self.audit),
            num(self.cadence),
        )
    }

    /// Decodes a [`RunSpec::canonical`] string.
    ///
    /// # Errors
    ///
    /// Another version, a missing or misordered field, or a value that
    /// does not parse.
    fn from_canonical(s: &str) -> Result<RunSpec, String> {
        let mut fields = s.split('|');
        if fields.next() != Some(format!("v{}", Self::VERSION).as_str()) {
            return Err(format!(
                "run spec '{s}' is not version {} (written by another build?)",
                Self::VERSION
            ));
        }
        let mut next = |key: &str| {
            fields
                .next()
                .and_then(|f| f.strip_prefix(key)?.strip_prefix('='))
                .map(|v| (v != "-").then_some(v))
                .ok_or_else(|| format!("run spec '{s}' lacks '{key}'"))
        };
        let suite = next("suite")?.ok_or("run spec names no suite")?;
        let bench = next("bench")?;
        let scheme = next("scheme")?.map(resolve_scheme).transpose()?;
        let scale = next("scale")?
            .and_then(Scale::parse)
            .ok_or("run spec names no known scale")?;
        let mut spec = RunSpec::new(suite, bench, scheme, scale)?;
        let mut num = |key: &str| {
            next(key)?
                .map(|v| {
                    v.parse()
                        .map_err(|_| format!("run spec {key} '{v}' is not a count"))
                })
                .transpose()
        };
        spec.fuel = num("fuel")?;
        spec.max_cycles = num("max_cycles")?;
        spec.watchdog = num("watchdog")?;
        spec.fast_forward = num("fast_forward")?;
        spec.audit = num("audit")?;
        spec.cadence = num("cadence")?;
        Ok(spec)
    }

    /// The content address of the run: FxHash of the canonical string.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = FxHasher::default();
        h.write(self.canonical().as_bytes());
        h.finish()
    }

    /// The meta records a checkpoint or result record of this run
    /// carries.
    #[must_use]
    pub fn meta(&self) -> Vec<(String, String)> {
        vec![
            ("kind".to_string(), "run".to_string()),
            ("spec".to_string(), self.canonical()),
        ]
    }

    /// Rebuilds the spec a checkpoint was written under.
    ///
    /// # Errors
    ///
    /// A checkpoint not written from a run spec, a spec that does not
    /// decode, or one whose digest is not the checkpoint's.
    pub fn from_meta(ck: &Checkpoint) -> Result<RunSpec, String> {
        let spec = match (ck.meta("kind"), ck.meta("spec")) {
            (Some("run"), Some(spec)) => Self::from_canonical(spec)?,
            (kind, _) => {
                return Err(format!(
                    "not written by 'recon run' or 'recon suite' (kind={})",
                    kind.unwrap_or("missing")
                ))
            }
        };
        if spec.digest() != ck.config_digest {
            return Err("its run spec does not match its digest".into());
        }
        Ok(spec)
    }
}

fn resolve_scheme(name: &str) -> Result<SecureConfig, String> {
    SecureConfig::parse(name)
        .ok_or_else(|| format!("unknown scheme '{name}' ({})", SecureConfig::PARSE_NAMES))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mcf() -> RunSpec {
        RunSpec::new(
            "spec2017",
            Some("mcf"),
            Some(SecureConfig::stt()),
            Scale::Quick,
        )
        .unwrap()
    }

    #[test]
    fn flags_build_the_spec_and_reject_unknown_or_repeated_flags() {
        let (spec, dir) = RunSpec::from_flags(
            "SPEC2017",
            Some("MCF"),
            Some("stt"),
            Scale::Quick,
            &[
                "--watchdog-cycles",
                "0",
                "--audit",
                "1000",
                "--checkpoint",
                "d",
            ],
        )
        .unwrap();
        assert_eq!(spec.bench, Some("mcf"));
        assert_eq!(spec.watchdog, Some(0));
        assert_eq!(spec.audit, Some(1000));
        assert_eq!(spec.cadence, Some(DEFAULT_CKPT_EVERY));
        assert_eq!(dir, Some(PathBuf::from("d")));
        let err = |args: &[&str]| {
            RunSpec::from_flags("spec2017", Some("mcf"), Some("stt"), Scale::Quick, args)
                .unwrap_err()
        };
        let e = err(&["--fastforward", "1000"]);
        assert!(e.contains("did you mean '--fast-forward'?"), "{e}");
        assert!(err(&["--audit", "5", "--audit", "6"]).contains("twice"));
        assert!(err(&["--audit"]).contains("wants a value"));
        assert!(err(&["--audit", "0"]).contains("positive"));
        assert!(err(&["--checkpoint-every", "5"]).contains("needs --checkpoint"));
    }

    #[test]
    fn canonical_round_trips_through_the_decoder() {
        let mut spec = mcf();
        assert_eq!(RunSpec::from_canonical(&spec.canonical()), Ok(spec.clone()));
        spec.bench = None;
        spec.scheme = None;
        spec.scale = Scale::Paper;
        spec.watchdog = Some(0);
        spec.cadence = Some(20_000);
        assert_eq!(RunSpec::from_canonical(&spec.canonical()), Ok(spec.clone()));
        let old = spec.canonical().replacen("v5", "v4", 1);
        assert!(RunSpec::from_canonical(&old).is_err());
        let short = spec.canonical().replace("|cadence=20000", "");
        assert!(RunSpec::from_canonical(&short)
            .unwrap_err()
            .contains("cadence"));
    }

    #[test]
    fn every_result_changing_field_changes_the_digest() {
        type Change = fn(&mut RunSpec);
        let base = mcf();
        let variants: [(&str, Change); 10] = [
            ("suite", |s| {
                s.suite = Suite::Spec2006;
                s.bench = Some("mcf");
            }),
            ("bench", |s| s.bench = Some("lbm")),
            ("scheme", |s| s.scheme = Some(SecureConfig::stt_recon())),
            ("scale", |s| s.scale = Scale::Paper),
            ("fuel", |s| s.fuel = Some(1000)),
            ("max_cycles", |s| s.max_cycles = Some(1000)),
            ("watchdog", |s| s.watchdog = Some(0)),
            ("fast_forward", |s| s.fast_forward = Some(1000)),
            ("audit", |s| s.audit = Some(1000)),
            ("cadence", |s| s.cadence = Some(1000)),
        ];
        for (field, change) in variants {
            let mut other = base.clone();
            change(&mut other);
            assert_ne!(other.digest(), base.digest(), "{field} must key the digest");
        }
    }
}
