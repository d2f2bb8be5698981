//! The benchmark's own checks, on toy-scale machines.

use perfbench::metrics::{self, Metric};
use perfbench::run::{self, Report};
use perfbench::{Kind, Scale};

const SECONDS: f64 = 0.05;

fn untraced(kind: Kind, seed: u64) -> Report {
    let report = run::untraced(kind, seed, SECONDS, &Scale::TOY);
    assert!(report.correct, "{} seed {seed}: {:?}", kind.name(), report.notes);
    report
}

fn traced(kind: Kind, seed: u64) -> Report {
    let report = run::traced(kind, seed, SECONDS, &Scale::TOY);
    assert!(report.correct, "{} seed {seed}: {:?}", kind.name(), report.notes);
    report
}

fn value(report: &Report, name: &str) -> f64 {
    report.get(name).unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn every_workload_passes_its_oracle_at_two_seeds() {
    for kind in Kind::ALL {
        for seed in [1, 0x5eed] {
            let u = untraced(kind, seed);
            assert_eq!(u.failed, 0);
            assert!(u.attempted > 0);
            let t = traced(kind, seed);
            assert_eq!(t.digest, u.digest, "{}: traced and untraced digests", kind.name());
            assert_eq!(value(&t, "failed_frac"), 0.0);
        }
    }
}

#[test]
fn simulated_figures_repeat_exactly_for_a_seed() {
    for kind in Kind::ALL {
        let a = run::reference_only(kind, 7, &Scale::TOY);
        let b = run::reference_only(kind, 7, &Scale::TOY);
        assert!(a.correct && b.correct, "{}: {:?} {:?}", kind.name(), a.notes, b.notes);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.metrics, b.metrics, "{}", kind.name());
        assert!(value(&a, "sim_mb_per_s") > 0.0);
    }
    for kind in [Kind::Scatter, Kind::Serving] {
        let r = run::reference_only(kind, 7, &Scale::TOY);
        let (p50, p99) = (value(&r, "sim_latency_p50_ns"), value(&r, "sim_latency_p99_ns"));
        assert!(0.0 < p50 && p50 < p99, "{}: p50 {p50} p99 {p99}", kind.name());
    }
}

/// `BENCHMARK.json` declares `m` with the same unit and direction.
fn declared(json: &str, m: &Metric) -> bool {
    json.contains(&format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        m.name, m.unit, m.better
    ))
}

#[test]
fn every_printed_metric_is_declared_in_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for m in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
        assert!(declared(&json, m), "{} is not declared as {m:?}", m.name);
    }
    let u = untraced(Kind::Stream, 3);
    let t = traced(Kind::Stream, 3);
    // The launcher adds `peak_rss_mib`; the process prints the rest.
    let printed: Vec<&str> = u.metrics.iter().map(|&(n, _)| n).collect();
    let expected: Vec<&str> =
        metrics::END_TO_END.iter().map(|m| m.name).filter(|&n| n != "peak_rss_mib").collect();
    assert_eq!(printed, expected);
    let printed: Vec<&str> = t.metrics.iter().map(|&(n, _)| n).collect();
    let expected: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(printed, expected);
    for report in [&u, &t] {
        let line = report.to_json();
        for &(name, _) in &report.metrics {
            let unit = metrics::find(name).expect("declared").unit;
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{line}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
    }
}

#[test]
fn workloads_separate_the_layers_as_claimed() {
    let stream = traced(Kind::Stream, 11);
    let scatter = traced(Kind::Scatter, 11);
    let serving = traced(Kind::Serving, 11);
    assert!(value(&stream, "delivery.msgs_per_run") > 1.0, "stream batches runs");
    assert_eq!(value(&scatter, "delivery.msgs_per_run"), 1.0, "scatter never batches");
    assert!(value(&serving, "nipt.evictions") > 0.0, "serving churns the NIPT");
    assert!(value(&serving, "nipt.refault_ratio") > 0.0);
    for r in [&stream, &scatter] {
        assert_eq!(value(r, "nipt.evictions"), 0.0);
        assert_eq!(value(r, "nipt.refault_ratio"), 0.0);
    }
    for r in [&stream, &scatter, &serving] {
        for name in ["os.udma_send_ns", "multicomputer.propagate_ns", "parallel.commit_ns_per_msg"]
        {
            assert!(value(r, name) > 0.0, "{name} measured");
        }
    }
}

#[test]
fn command_line_errors_exit_2() {
    let bin = env!("CARGO_BIN_EXE_perfbench");
    for args in
        [&["--workload", "nope"][..], &["--seed", "1"], &["--workload", "stream", "--trace", "2"]]
    {
        let out = std::process::Command::new(bin).args(args).output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "no result on a bad command line");
    }
}
