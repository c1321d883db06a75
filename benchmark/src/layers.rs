//! The metric catalogue and the per-layer numbers of a traced run.
//!
//! Every workload reports the same names: a traced run on a workload
//! that never calls a layer reports that layer's numbers as 0.

use std::collections::BTreeMap;

use crate::sim::{SimSums, TraceCounts};
use crate::stats::{ratio, MetricSet};
use crate::trace::Tracer;

/// End-to-end metrics (tracing off): `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("detailed_mips", "Minstr/s", "higher"),
    ("figures_s", "s", "lower"),
    ("serve_miss_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Per-layer metrics (traced run): `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, &str); 58] = [
    ("workloads.gen_s", "s", "lower"),
    ("workloads.share", "fraction", "lower"),
    ("isa.decode_ms", "ms", "lower"),
    ("isa.functional_mips", "Minstr/s", "higher"),
    ("isa.share", "fraction", "lower"),
    ("sim.new_ms", "ms", "lower"),
    ("sim.tick_ns", "ns", "lower"),
    ("sim.idle_cycle_frac", "fraction", "lower"),
    ("sim.cycles", "cycles", "lower"),
    ("sim.committed", "instr", "higher"),
    ("sim.audit_ms", "ms", "lower"),
    ("sim.share", "fraction", "lower"),
    ("runner.busy_frac", "fraction", "higher"),
    ("runner.tail_s", "s", "lower"),
    ("runner.share", "fraction", "lower"),
    ("cpu.self_ns_per_cycle", "ns", "lower"),
    ("cpu.ipc", "instr/cycle", "higher"),
    ("cpu.head_load_stall_frac", "fraction", "lower"),
    ("cpu.squash_per_kinst", "1/kinstr", "lower"),
    ("cpu.mispredict_per_kinst", "1/kinstr", "lower"),
    ("cpu.share", "fraction", "lower"),
    ("secure.guarded_load_frac", "fraction", "lower"),
    ("secure.delay_cycles_per_kinst", "cycles/kinstr", "lower"),
    ("lpt.reveal_set_frac", "fraction", "higher"),
    ("lpt.tag_conflicts", "count", "lower"),
    ("recon.revealed_load_frac", "fraction", "higher"),
    ("mem.replay_ns_per_access", "ns", "lower"),
    ("mem.accesses", "count", "lower"),
    ("mem.l1_miss_frac", "fraction", "lower"),
    ("mem.llc_miss_frac", "fraction", "lower"),
    ("mem.coherence_per_kaccess", "1/kaccess", "lower"),
    ("mem.replay_valid", "bool", "higher"),
    ("mem.share", "fraction", "lower"),
    ("serve.parse_us", "us", "lower"),
    ("serve.digest_us", "us", "lower"),
    ("serve.execute_ms.run", "ms", "lower"),
    ("serve.execute_ms.analyze", "ms", "lower"),
    ("serve.execute_ms.verify", "ms", "lower"),
    ("serve.execute_ms.asm", "ms", "lower"),
    ("serve.http_overhead_ms", "ms", "lower"),
    ("serve_jobs_per_s", "1/s", "higher"),
    ("serve.cache_hit_frac", "fraction", "higher"),
    ("serve.joins", "count", "lower"),
    ("serve.retries", "count", "lower"),
    ("serve.share", "fraction", "lower"),
    ("serve_hit_p50_ms", "ms", "lower"),
    ("serve_miss_p95_ms", "ms", "lower"),
    ("serve.miss_samples", "count", "higher"),
    ("dift.analyze_ms", "ms", "lower"),
    ("dift.share", "fraction", "lower"),
    ("verify.cell_ms", "ms", "lower"),
    ("verify.share", "fraction", "lower"),
    ("asm.assemble_us", "us", "lower"),
    ("asm.share", "fraction", "lower"),
    ("fail_frac", "fraction", "lower"),
    ("host.kernel_ms", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.fingerprint_match", "bool", "higher"),
];

/// Layers whose self time is reported as `<layer>.share`.
const SHARED_LAYERS: [&str; 9] = [
    "workloads",
    "isa",
    "sim",
    "cpu",
    "mem",
    "serve",
    "dift",
    "verify",
    "asm",
];

/// Named values filled in by a workload, rendered in catalogue order.
#[derive(Debug)]
pub struct Values {
    catalogue: &'static [(&'static str, &'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Values {
    pub fn end_to_end() -> Self {
        Values {
            catalogue: &END_TO_END,
            values: BTreeMap::new(),
        }
    }

    pub fn per_layer() -> Self {
        Values {
            catalogue: &PER_LAYER,
            values: BTreeMap::new(),
        }
    }

    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// On a name missing from the catalogue (a bug in this benchmark).
    pub fn set(&mut self, name: &str, value: f64) {
        let key = self
            .catalogue
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the catalogue"))
            .0;
        self.values.insert(key, value);
    }

    /// Rescales end-to-end host figures to the reference host of
    /// [`crate::host`]: times are divided by `slowdown` and rates
    /// multiplied by it, and the host clock's own resident memory
    /// (`clock_mb`) is taken out of `peak_rss_mb`.
    pub fn rescale_to_reference_host(&mut self, slowdown: f64, clock_mb: f64) {
        for (name, v) in &mut self.values {
            match *name {
                "detailed_mips" => *v *= slowdown,
                "figures_s" | "serve_miss_p50_ms" | "setup_s" => *v /= slowdown,
                "peak_rss_mb" => *v -= clock_mb,
                _ => {}
            }
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every catalogued metric, unset ones as 0.
    pub fn to_set(&self) -> Result<MetricSet, String> {
        let mut m = MetricSet::default();
        for &(name, unit, _) in self.catalogue {
            m.push(name, self.get(name), unit)?;
        }
        Ok(m)
    }
}

/// Fills the simulator-side layer metrics from the traced tick loop's
/// counts and the simulated statistics.
pub fn fill_sim(v: &mut Values, c: &TraceCounts, s: &SimSums) {
    let ticks = c.ticks as f64;
    let committed = s.committed as f64;
    v.set(
        "isa.decode_ms",
        ratio(c.decode_ns as f64, c.decode_count as f64) / 1e6,
    );
    v.set(
        "isa.functional_mips",
        ratio(c.ff_instructions as f64 * 1e3, c.ff_ns as f64),
    );
    v.set(
        "sim.new_ms",
        ratio(c.sim_new_ns as f64, c.sim_new_count as f64) / 1e6,
    );
    v.set("sim.tick_ns", ratio(c.tick_ns as f64, ticks));
    v.set("sim.idle_cycle_frac", ratio(c.idle_ticks as f64, ticks));
    v.set("sim.cycles", s.cycles as f64);
    v.set("sim.committed", committed);
    v.set(
        "sim.audit_ms",
        ratio(c.audit_ns as f64, c.audits as f64) / 1e6,
    );
    v.set(
        "cpu.self_ns_per_cycle",
        ratio(c.tick_ns.saturating_sub(c.replay_ns) as f64, ticks),
    );
    v.set("cpu.ipc", ratio(committed, s.cycles as f64));
    v.set(
        "cpu.head_load_stall_frac",
        ratio(s.head_load_stall as f64, s.core_cycles as f64),
    );
    v.set(
        "cpu.squash_per_kinst",
        ratio(s.squashed as f64 * 1e3, committed),
    );
    v.set(
        "cpu.mispredict_per_kinst",
        ratio(s.mispredicts as f64 * 1e3, committed),
    );
    v.set(
        "secure.guarded_load_frac",
        ratio(s.guarded_loads as f64, s.loads as f64),
    );
    v.set(
        "secure.delay_cycles_per_kinst",
        ratio(s.delay_cycles as f64 * 1e3, committed),
    );
    v.set(
        "lpt.reveal_set_frac",
        ratio(s.mem.reveals_set as f64, s.reveals_requested as f64),
    );
    v.set("lpt.tag_conflicts", s.tag_conflicts as f64);
    v.set(
        "recon.revealed_load_frac",
        ratio(s.revealed_loads as f64, s.loads as f64),
    );
    let accesses = c.replayed_accesses as f64;
    v.set(
        "mem.replay_ns_per_access",
        ratio(c.replay_ns as f64, accesses),
    );
    v.set("mem.accesses", accesses);
    let loads = s.mem.total_loads() as f64;
    v.set(
        "mem.l1_miss_frac",
        ratio(loads - s.mem.l1_hits as f64, loads),
    );
    v.set(
        "mem.llc_miss_frac",
        ratio(
            s.mem.mem_fetches as f64,
            (s.mem.llc_hits + s.mem.mem_fetches) as f64,
        ),
    );
    v.set(
        "mem.coherence_per_kaccess",
        ratio(
            (s.mem.invalidations + s.mem.remote_forwards) as f64 * 1e3,
            accesses,
        ),
    );
    v.set(
        "mem.replay_valid",
        f64::from(u8::from(c.replay_mismatches == 0)),
    );
}

/// Sets `<layer>.share` for every traced layer: its self time over the
/// self time of all program layers (the benchmark's own `bench.*` glue
/// and `probe.*` measurements excluded).
pub fn fill_shares(v: &mut Values, tr: &Tracer) {
    let layers = tr.layer_self_ns();
    let total: f64 = layers
        .iter()
        .filter(|(l, _)| !matches!(**l, "bench" | "probe"))
        .map(|(_, ns)| ns.max(0.0))
        .sum();
    for layer in SHARED_LAYERS {
        let ns = layers.get(layer).copied().unwrap_or(0.0).max(0.0);
        v.set(&format!("{layer}.share"), ratio(ns, total));
    }
    v.set("workloads.gen_s", tr.total_ns("workloads.gen") as f64 / 1e9);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{valid_name, valid_unit};

    #[test]
    fn catalogue_names_and_units_are_valid() {
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(matches!(*better, "higher" | "lower"), "{name}");
        }
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n, "names are used once");
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = recon_serve::json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(|x| x.as_array()).expect(key);
            assert_eq!(listed.len(), catalogue.len(), "{key}");
            for (entry, (name, unit, better)) in listed.iter().zip(catalogue) {
                assert_eq!(entry.get("name").and_then(|x| x.as_str()), Some(*name));
                assert_eq!(
                    entry.get("unit").and_then(|x| x.as_str()),
                    Some(*unit),
                    "{name}"
                );
                assert_eq!(
                    entry.get("better").and_then(|x| x.as_str()),
                    Some(*better),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn reference_host_scaling_divides_times_and_multiplies_rates() {
        let mut v = Values::end_to_end();
        for (name, _, _) in END_TO_END {
            v.set(name, 8.0);
        }
        v.rescale_to_reference_host(2.0, 4.0);
        assert_eq!(v.get("detailed_mips"), 16.0);
        for name in ["figures_s", "serve_miss_p50_ms", "setup_s"] {
            assert_eq!(v.get(name), 4.0, "{name}");
        }
        assert_eq!(v.get("peak_rss_mb"), 4.0);
    }

    #[test]
    fn every_metric_is_reported_even_when_unset() {
        let mut v = Values::per_layer();
        v.set("sim.tick_ns", 12.5);
        let set = v.to_set().unwrap();
        assert_eq!(set.iter().count(), PER_LAYER.len());
        assert_eq!(set.get("sim.tick_ns"), Some(12.5));
        assert_eq!(set.get("dift.share"), Some(0.0));
    }
}
