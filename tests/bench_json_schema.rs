//! Schema stability for the JSON reports the repo writes:
//! `BENCH_runner.json` (`BatchResults::write_json`), `BENCH_serve.json`
//! (`BenchServeReport`), and `BENCH_speed.json` (`SpeedReport`). All
//! are parsed back with the serving layer's own JSON reader, so the
//! documents stay valid JSON with a fixed field set — and the runner's
//! timings stay deterministic across worker counts.

use recon_secure::SecureConfig;
use recon_serve::{json, BenchServeReport};
use recon_sim::{run_batch, Experiment, SpeedReport};
use recon_workloads::{find, Scale, Suite};

fn tmp_path(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("recon-{}-{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// `(bench, scheme, cycles)` rows — everything in a timing that must
/// not depend on the worker count.
fn timing_rows(doc: &json::Json) -> Vec<(String, String, u64)> {
    let json::Json::Arr(rows) = doc.get("job_timings").expect("job_timings present") else {
        panic!("job_timings is an array");
    };
    rows.iter()
        .map(|r| {
            (
                r.get("bench")
                    .and_then(json::Json::as_str)
                    .unwrap()
                    .to_string(),
                r.get("scheme")
                    .and_then(json::Json::as_str)
                    .unwrap()
                    .to_string(),
                r.get("cycles").and_then(json::Json::as_u64).unwrap(),
            )
        })
        .collect()
}

#[test]
fn batch_results_json_schema_and_determinism_across_jobs() {
    let exp = Experiment::default();
    let benches = vec![
        find(Suite::Spec2017, "mcf", Scale::Quick).unwrap(),
        find(Suite::Spec2017, "deepsjeng", Scale::Quick).unwrap(),
    ];
    let configs = [SecureConfig::unsafe_baseline(), SecureConfig::stt_recon()];

    let mut rows_by_jobs = Vec::new();
    for jobs in [1usize, 4] {
        let batch = run_batch(&exp, &benches, &configs, jobs);
        let path = tmp_path(&format!("runner-{jobs}.json"));
        batch.write_json(&path).expect("write BENCH_runner.json");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let doc = json::parse(&text).expect("BENCH_runner.json is valid JSON");
        // The golden schema: exactly these top-level keys, in order.
        assert_eq!(
            doc.keys(),
            vec![
                "jobs",
                "unique_jobs",
                "failed_jobs",
                "wall_seconds",
                "serial_seconds",
                "speedup",
                "job_timings"
            ]
        );
        assert_eq!(
            doc.get("jobs").and_then(json::Json::as_u64),
            Some(jobs as u64)
        );
        assert_eq!(doc.get("unique_jobs").and_then(json::Json::as_u64), Some(4));
        assert_eq!(doc.get("failed_jobs").and_then(json::Json::as_u64), Some(0));
        assert!(
            doc.get("wall_seconds")
                .and_then(json::Json::as_f64)
                .unwrap()
                >= 0.0
        );
        let rows = timing_rows(&doc);
        assert_eq!(rows.len(), 4);
        for (_, _, cycles) in &rows {
            assert!(*cycles > 0);
        }
        rows_by_jobs.push(rows);
    }
    assert_eq!(
        rows_by_jobs[0], rows_by_jobs[1],
        "timing rows (bench, scheme, cycles) are identical for --jobs 1 and --jobs 4"
    );
}

#[test]
fn bench_serve_report_golden() {
    let report = BenchServeReport {
        clients: 8,
        requests_per_client: 200,
        queue_cap: 1,
        ok: 1580,
        deadline: 20,
        backpressure_429: 431,
        mismatches: 0,
        lost: 0,
        cache_hits: 1200,
        cache_misses: 400,
        wall_seconds: 12.5,
        throughput_rps: 128.0,
        p50_ms: 40.25,
        p95_ms: 150.5,
        p99_ms: 310.125,
    };
    // Byte-for-byte golden: any schema change must update this test.
    let golden = "{\n  \"clients\": 8,\n  \"requests_per_client\": 200,\n  \"queue_cap\": 1,\n  \"ok\": 1580,\n  \"deadline\": 20,\n  \"backpressure_429\": 431,\n  \"mismatches\": 0,\n  \"lost\": 0,\n  \"cache_hits\": 1200,\n  \"cache_misses\": 400,\n  \"wall_seconds\": 12.500000,\n  \"throughput_rps\": 128.000,\n  \"p50_ms\": 40.250,\n  \"p95_ms\": 150.500,\n  \"p99_ms\": 310.125\n}\n";
    assert_eq!(report.to_json(), golden);

    // Round-trip through the parser.
    let doc = json::parse(&report.to_json()).expect("valid JSON");
    assert_eq!(doc.get("ok").and_then(json::Json::as_u64), Some(1580));
    assert_eq!(
        doc.get("p99_ms").and_then(json::Json::as_f64),
        Some(310.125)
    );

    // And through the file writer.
    let path = tmp_path("serve-golden.json");
    report.write_json(&path).expect("write BENCH_serve.json");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(text, golden);
}

#[test]
fn speed_report_json_schema_and_determinism() {
    let report = SpeedReport::measure(Suite::Spec2017, "mcf", Scale::from_env(), true);

    let path = tmp_path("speed.json");
    report.write_json(&path).expect("write BENCH_speed.json");
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let doc = json::parse(&text).expect("BENCH_speed.json is valid JSON");
    // The golden schema: exactly these top-level keys, in order.
    assert_eq!(
        doc.keys(),
        vec![
            "command",
            "host",
            "scale",
            "suite",
            "bench",
            "functional_instructions",
            "functional_seconds",
            "functional_mips",
            "dift_seconds",
            "dift_mips",
            "fast_forward",
            "functional_over_detailed",
            "end_to_end_speedup",
            "detailed_region_identical",
            "schemes",
            "audit",
            "micro"
        ]
    );
    assert_eq!(doc.get("bench").and_then(json::Json::as_str), Some("mcf"));
    for key in ["command", "host"] {
        assert!(
            !doc.get(key)
                .and_then(json::Json::as_str)
                .unwrap()
                .is_empty(),
            "{key} names where the numbers come from"
        );
    }
    let scale = doc.get("scale").and_then(json::Json::as_str).unwrap();
    assert!(
        doc.get("command")
            .and_then(json::Json::as_str)
            .unwrap()
            .starts_with(&format!("RECON_SCALE={scale} ")),
        "the command names the scale it ran at"
    );
    for key in ["functional_mips", "dift_mips"] {
        assert!(
            doc.get(key).and_then(json::Json::as_f64).unwrap() > 0.0,
            "{key} is a positive throughput"
        );
    }
    assert_eq!(
        doc.get("detailed_region_identical")
            .map(|v| matches!(v, json::Json::Bool(true))),
        Some(true),
        "every scheme's detailed region must be byte-identical"
    );

    // One row per scheme, in matrix order, with the fixed row schema.
    let json::Json::Arr(rows) = doc.get("schemes").expect("schemes present") else {
        panic!("schemes is an array");
    };
    let labels: Vec<&str> = rows
        .iter()
        .map(|r| r.get("scheme").and_then(json::Json::as_str).unwrap())
        .collect();
    assert_eq!(labels, ["unsafe", "NDA", "NDA+ReCon", "STT", "STT+ReCon"]);
    for r in rows {
        assert_eq!(
            r.keys(),
            vec![
                "scheme",
                "instructions",
                "detailed_seconds",
                "detailed_mips",
                "warm_seconds",
                "speedup",
                "identical"
            ]
        );
    }

    // The audited-run row: identical simulated result, bounded host
    // overhead (the sweep is pure observation).
    let audit = doc.get("audit").expect("audit present");
    assert_eq!(
        audit.keys(),
        vec![
            "audit_every",
            "sweeps",
            "sweep_seconds",
            "run_seconds",
            "overhead_fraction",
            "identical"
        ]
    );
    assert!(
        audit
            .get("audit_every")
            .and_then(json::Json::as_u64)
            .unwrap()
            > 0
    );
    assert_eq!(
        audit
            .get("identical")
            .map(|v| matches!(v, json::Json::Bool(true))),
        Some(true),
        "the audit sweep must not perturb the simulated run"
    );

    // The three isolation microbenchmarks, each with a positive
    // throughput on both sides.
    let json::Json::Arr(micro) = doc.get("micro").expect("micro present") else {
        panic!("micro is an array");
    };
    let names: Vec<&str> = micro
        .iter()
        .map(|m| m.get("name").and_then(json::Json::as_str).unwrap())
        .collect();
    assert_eq!(names, ["decode", "mask", "mem"]);
    for m in micro {
        assert!(m.get("baseline_mops").and_then(json::Json::as_f64).unwrap() > 0.0);
        assert!(
            m.get("optimized_mops")
                .and_then(json::Json::as_f64)
                .unwrap()
                > 0.0
        );
    }

    // Everything except host timings is deterministic across runs.
    let again = SpeedReport::measure(Suite::Spec2017, "mcf", Scale::from_env(), true);
    assert_eq!(
        again.functional_instructions,
        report.functional_instructions
    );
    assert_eq!(again.fast_forward, report.fast_forward);
    assert_eq!(again.schemes.len(), report.schemes.len());
    for (a, b) in again.schemes.iter().zip(&report.schemes) {
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.instructions, b.instructions);
        assert!(a.identical && b.identical);
    }
}
