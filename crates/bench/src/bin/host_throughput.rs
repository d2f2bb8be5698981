//! Deterministic artifacts of the simulator's data plane.
//!
//! Drives N-node streaming workloads through the serial driver and the
//! parallel engine, plus the multi-tenant serving workload, and writes
//! `BENCH_throughput.json`: per workload its state digest, steady-state
//! allocations per message, and the simulated-latency percentiles of
//! traced and serving rows. Nothing here reads the host clock, so the
//! file reproduces byte-for-byte on any host; host time is measured by
//! `perfbench` (`BENCHMARK.json`).
//!
//! Run: `cargo run --release -p shrimp-bench --bin host_throughput`
//!
//! Options:
//!
//! ```text
//! --threads <n>      determinism smoke: run the 8-node stream through
//!                    the serial driver, the unified engine at 1 shard,
//!                    and at <n> worker threads, plus a 256-node mesh
//!                    serial vs <n> threads
//! --out <path>       output JSON path (default: BENCH_throughput.json)
//! --trace <path>     also run the 8-node stream with the flight
//!                    recorder enabled, write its trace converted to
//!                    Perfetto trace-event JSON (shrimp::trace_bin_to_json)
//!                    to <path>, and record the traced run (its digest
//!                    must match the untraced runs)
//! --trace-bin <path> like --trace but writes the SHRTRC01 binary the
//!                    engine exports, unconverted
//! --metrics <path>   also run a traced + metered 64-node mesh smoke
//!                    (t=2) and a traced 2-node stream, write the
//!                    machine-wide metrics snapshot (stable text form)
//!                    to <path>, and record both runs — the 2-node row
//!                    then carries per-stage p50/p99 latencies in the
//!                    output JSON; --metrics BENCH_metrics.txt from the
//!                    repo root regenerates the committed snapshot
//! --sample-trace <path>
//!                    write the small fixed 2-node workload's SHRTRC01
//!                    binary trace to <path> and exit — regenerates the
//!                    committed traces/sample_2node.shrtrc
//!                    byte-identically (the workload is deterministic)
//! ```
//!
//! The default (no `--threads`) suite covers the 2- and 8-node serial
//! streams, a thread sweep on the 8-node stream, a 16-node stream, and
//! t=1/2/4 sweeps over 64-, 256- and 1024-node meshes. Equal workloads
//! must carry equal digests whatever their thread count or tracing:
//! any divergence exits 1. The binary registers the counting allocator,
//! so every stream and serving row reports its steady-state heap
//! allocations per message.

use std::fs;

use shrimp_bench::host_perf::{self, ThroughputResult};
use shrimp_bench::table::print_table;

#[global_allocator]
static ALLOC: shrimp_bench::alloc_count::CountingAlloc = shrimp_bench::alloc_count::CountingAlloc;

const USAGE: &str = "usage: host_throughput [--threads <n>] [--out <path>] [--trace <path>] \
     [--trace-bin <path>] [--metrics <path>] [--sample-trace <path>]\n\
     (regenerate the committed metrics snapshot with --metrics BENCH_metrics.txt)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke_threads: Option<usize> = None;
    let mut out_path = "BENCH_throughput.json".to_string();
    let mut trace_path: Option<String> = None;
    let mut trace_bin_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" | "--threads" | "--trace" | "--trace-bin" | "--metrics" | "--sample-trace" => {
                let Some(v) = it.next() else {
                    eprintln!("error: {a} requires a value\n{USAGE}");
                    std::process::exit(2);
                };
                match a.as_str() {
                    "--out" => out_path = v.clone(),
                    "--trace" => trace_path = Some(v.clone()),
                    "--trace-bin" => trace_bin_path = Some(v.clone()),
                    "--metrics" => metrics_path = Some(v.clone()),
                    "--sample-trace" => {
                        // Fixed small deterministic workload: same bytes
                        // on every host, safe to commit as a sample.
                        let (r, bin) = host_perf::stream_pairs_traced(2, 4096, 200, 1);
                        fs::write(v, &bin).expect("write sample trace");
                        println!(
                            "wrote {}-byte sample trace ({} msgs, digest {:016x}) to {v}",
                            bin.len(),
                            r.messages,
                            r.digest
                        );
                        return;
                    }
                    _ => match v.parse::<usize>() {
                        Ok(n) if n >= 1 => smoke_threads = Some(n),
                        _ => {
                            eprintln!("error: --threads needs a positive integer\n{USAGE}");
                            std::process::exit(2);
                        }
                    },
                }
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    // (nodes, msg_bytes, messages per pair, threads); threads 0 = serial
    // driver. The sizes are the ones the committed golden digests
    // (`tests/metrics.rs`, `BENCH_throughput.json`) pin. Engine rows keep
    // a few thousand sends per flow, so the one-time per-run scratch
    // (which scales with node count) amortizes below the 0.002
    // allocs/msg the zero-alloc contract allows.
    let workloads: Vec<(u16, u64, u32, usize)> = match smoke_threads {
        // Determinism smoke: the 8-node stream through the serial driver,
        // the unified engine at one shard, and the unified engine at <n>
        // shards — plus a 256-node mesh serial vs <n> shards, so the
        // digest comparison also covers the big-machine path.
        Some(n) => vec![
            (8, 4096, 2_500, 0),
            (8, 4096, 2_500, 1),
            (8, 4096, 2_500, n),
            (256, 4096, 200, 0),
            (256, 4096, 200, n),
        ],
        None => vec![
            (2, 4096, 10_000, 0),
            (2, 256, 20_000, 0),
            (8, 4096, 2_500, 0),
            (8, 4096, 50_000, 1),
            (8, 4096, 50_000, 2),
            (8, 4096, 50_000, 4),
            (16, 4096, 25_000, 4),
            (64, 4096, 6_000, 1),
            (64, 4096, 6_000, 2),
            (64, 4096, 6_000, 4),
            (256, 4096, 4_000, 1),
            (256, 4096, 4_000, 2),
            (256, 4096, 4_000, 4),
            (1024, 4096, 4_000, 1),
            (1024, 4096, 4_000, 2),
            (1024, 4096, 4_000, 4),
        ],
    };
    let mut runs: Vec<ThroughputResult> = workloads
        .iter()
        .map(|&(nodes, bytes, msgs, threads)| host_perf::stream_pairs(nodes, bytes, msgs, threads))
        .collect();

    // Tracing smoke: rerun the 8-node stream with the flight recorder on.
    // The traced entry joins `runs`, so the digest-equality check below
    // also proves tracing never perturbs the simulated timeline.
    if trace_path.is_some() || trace_bin_path.is_some() {
        let (result, bin) = host_perf::stream_pairs_traced(8, 4096, 2_500, 2);
        let spans = shrimp::decode_trace_bin(&bin).expect("well-formed binary trace").recorded;
        if let Some(path) = &trace_path {
            let json = shrimp::trace_bin_to_json(&bin).expect("well-formed binary trace");
            fs::write(path, &json).expect("write trace JSON");
            println!("wrote {spans}-span Perfetto trace to {path}");
        }
        if let Some(path) = &trace_bin_path {
            fs::write(path, &bin).expect("write binary trace");
            println!("wrote {spans}-span binary trace to {path} ({} bytes)", bin.len());
        }
        runs.push(result);
    }

    // Metrics smoke: a traced + metered 64-node mesh (t=2) whose pinned
    // snapshot goes to disk for CI to validate, plus a traced 2-node
    // stream so the output JSON carries per-stage p50/p99 latencies for
    // the paper's canonical two-node transfer.
    if let Some(path) = &metrics_path {
        // Same per-pair count as the suite's 64-node rows: the metered
        // digest then joins the equality check against the untraced rows.
        let (result, _, metrics) = host_perf::stream_pairs_traced_metered(64, 4096, 6_000, 2);
        fs::write(path, &metrics).expect("write metrics snapshot");
        println!("wrote {}-line metrics snapshot to {path}", metrics.lines().count());
        runs.push(result);
        let (two_node, _) = host_perf::stream_pairs_traced(2, 4096, 10_000, 0);
        runs.push(two_node);
    }

    // Serving rows: the multi-tenant request/reply workload — tenant
    // processes contending for a deliberately undersized NIPT, mixed §7
    // priorities, closed-loop RPC latency. Run at one shard and two so
    // the digest-equality check below covers the reactive-program path
    // too. The request percentiles are simulated figures, deterministic
    // on any host, and CI gates on them against the committed row.
    // The t=2 row runs traced so the committed JSON also carries the
    // per-stage p50/p90/p99 split of the serving path (tracing is pure
    // observation: its digest must still equal the t=1 row's).
    let serving_t1 = shrimp_bench::serving::serving(64, 16, 4, 1);
    let (serving_t2, _trace) = shrimp_bench::serving::serving_traced(64, 16, 4, 2);
    for out in [serving_t1, serving_t2] {
        assert!(out.nipt_evictions > 0, "serving must churn the NIPT");
        assert!(out.nipt_refaults > 0, "serving must refault stale slots");
        runs.push(out.result);
    }

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{}", r.messages),
                format!("{}", r.threads),
                format!("{:016x}", r.digest),
                r.allocs_per_msg.map_or_else(|| "-".to_string(), |a| format!("{a:.3}")),
            ]
        })
        .collect();
    print_table(
        "host_throughput — state digests and steady-state allocations",
        &["workload", "msgs", "threads", "digest", "allocs/msg"],
        &rows,
    );

    // Equal workloads must digest identically at every thread count — the
    // conservative engine's whole contract.
    let divergent = host_perf::digest_divergences(&runs);
    for (a, b) in &divergent {
        eprintln!(
            "DETERMINISM FAILURE: {} digest {:016x} != {} digest {:016x}",
            a.name, a.digest, b.name, b.digest
        );
    }

    let metrics_head = metrics_path
        .as_deref()
        .map(|p| format!("\n  \"metrics_snapshot\": \"{p}\","))
        .unwrap_or_default();
    let json = format!(
        "{{\n  \"bench\": \"host_throughput\",{metrics_head}\n  \"runs\": {}\n}}\n",
        host_perf::runs_to_json(&runs)
    );
    fs::write(&out_path, &json).expect("write BENCH_throughput.json");
    println!("\nwrote {out_path}");

    if !divergent.is_empty() {
        std::process::exit(1);
    }
}
