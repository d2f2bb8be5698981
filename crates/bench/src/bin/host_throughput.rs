//! Host wall-clock throughput of the simulator's data plane.
//!
//! Drives N-node streaming workloads through the serial driver and the
//! parallel engine, reports **host** messages/sec — the engineering
//! number that bounds every large-scale experiment — then writes
//! `BENCH_throughput.json`.
//!
//! Run: `cargo run --release -p shrimp-bench --bin host_throughput`
//!
//! Options:
//!   --quick            smoke-test sizing (CI): ~1/20 of the message count
//!   --threads <n>      determinism smoke: run the 8-node stream through
//!                      the serial driver, the unified engine at 1 shard,
//!                      and at <n> worker threads, plus a 256-node mesh
//!                      serial vs <n> threads; fail if any state digests
//!                      differ (exit 1)
//!   --out <path>       output JSON path (default: BENCH_throughput.json)
//!   --compare <path>   embed a previous output as `"before"` and print
//!                      per-workload speedups against it
//!   --baseline-bin <path>
//!                      interleaved A/B: alternate full passes of the
//!                      given (previously built) host_throughput binary
//!                      and the current build, keep each side's best pass
//!                      per workload, and compare those — slow host drift
//!                      (thermal, noisy neighbours) then biases neither
//!                      side. The baseline's best rows become `"before"`.
//!   --trace <path>     also run the 8-node stream with the flight
//!                      recorder enabled, write its trace converted to
//!                      Perfetto trace-event JSON (`shrimp::trace_bin_to_json`)
//!                      to <path>, and record the traced run (its digest
//!                      must match the untraced runs)
//!   --trace-bin <path> like --trace but writes the `SHRTRC01` binary the
//!                      engine exports, unconverted
//!   --metrics <path>   also run a traced + metered 64-node mesh smoke
//!                      (t=2) and a traced 2-node stream, write the
//!                      machine-wide metrics snapshot (stable text form)
//!                      to <path>, and record both runs — the 2-node row
//!                      then carries per-stage p50/p99 latencies in the
//!                      output JSON; `--metrics BENCH_metrics.txt` from the
//!                      repo root regenerates the committed snapshot
//!   --sample-trace <path>
//!                      write the small fixed 2-node workload's SHRTRC01
//!                      binary trace to <path> and exit — regenerates the
//!                      committed `traces/sample_2node.shrtrc`
//!                      byte-identically (the workload is deterministic)
//!
//! The default (no `--threads`) suite covers the serial baselines, a
//! thread sweep on the 8-node stream, 8→16-node scaling, and big-machine
//! meshes at 64, 256 and 1024 nodes (serial plus a t=1/2/4 sweep each).
//! Every entry records its thread count, commit hash, host logical-core
//! count, and the FNV digest of final machine state; equal-workload
//! entries must carry equal digests regardless of thread count. Parallel
//! rows also carry the epoch-phase breakdown (execute / barrier / merge /
//! commit host-time totals). On a host with >= 2 logical cores, a t>=2
//! row of a >= 64-node mesh must beat the serial driver (exit 1
//! otherwise); on a 1-core host those rows verify determinism only and
//! the output says so. When a traced run happens, the output also records
//! the traced-vs-untraced throughput ratio (`"traced_overhead"`).
//!
//! Build with `--features count-allocs` to register the counting
//! allocator and report steady-state heap allocations per message.

use std::fs;
use std::process::Command;

use shrimp_bench::host_perf::{self, ThroughputResult};
use shrimp_bench::table::print_table;

#[cfg(feature = "count-allocs")]
#[global_allocator]
static ALLOC: shrimp_bench::alloc_count::CountingAlloc = shrimp_bench::alloc_count::CountingAlloc;

/// Pulls `"msgs_per_sec":<n>` for workload `name` out of a previous
/// output with plain string scanning (our own format; no JSON dep).
fn baseline_msgs_per_sec(json: &str, name: &str) -> Option<f64> {
    let key = format!("\"name\":\"{name}\"");
    let obj = &json[json.find(&key)?..];
    let field = "\"msgs_per_sec\":";
    let rest = &obj[obj.find(field)? + field.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Extracts the most recent runs array (`"after"` if present, else
/// `"runs"`) from a previous output, verbatim, by bracket matching.
fn extract_runs_array(json: &str) -> Option<&str> {
    let key_pos = json
        .find("\"after\":")
        .map(|p| p + "\"after\":".len())
        .or_else(|| json.find("\"runs\":").map(|p| p + "\"runs\":".len()))?;
    let rest = &json[key_pos..];
    let open = rest.find('[')?;
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[open..=open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts workload `name`'s whole `{...}` row from a runs array by
/// brace matching (rows nest sub-objects: `"phases"`, per-stage
/// percentiles — taking the first `}` would truncate the row).
fn extract_run_object<'a>(array: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"name\":\"{name}\"");
    let pos = array.find(&key)?;
    let start = array[..pos].rfind('{')?;
    let mut depth = 0usize;
    for (i, c) in array[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&array[start..=start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Interleaved A/B passes (per side) for `--baseline-bin`.
const AB_ROUNDS: usize = 2;

const USAGE: &str = "usage: host_throughput [--quick] [--threads <n>] [--out <path>] \
     [--compare <path>] [--baseline-bin <path>] [--trace <path>] [--trace-bin <path>] \
     [--metrics <path>] [--sample-trace <path>]\n\
     (regenerate the committed metrics snapshot with --metrics BENCH_metrics.txt)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut smoke_threads: Option<usize> = None;
    let mut out_path = "BENCH_throughput.json".to_string();
    let mut compare_path: Option<String> = None;
    let mut baseline_bin: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_bin_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" | "--compare" | "--baseline-bin" | "--threads" | "--trace" | "--trace-bin"
            | "--metrics" | "--sample-trace" => {
                let Some(v) = it.next() else {
                    eprintln!("error: {a} requires a value\n{USAGE}");
                    std::process::exit(2);
                };
                match a.as_str() {
                    "--out" => out_path = v.clone(),
                    "--compare" => compare_path = Some(v.clone()),
                    "--baseline-bin" => baseline_bin = Some(v.clone()),
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
    if compare_path.is_some() && baseline_bin.is_some() {
        eprintln!("error: --compare and --baseline-bin are mutually exclusive\n{USAGE}");
        std::process::exit(2);
    }
    let compare = compare_path.map(|p| match fs::read_to_string(&p) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read --compare file `{p}`: {e}");
            std::process::exit(2);
        }
    });

    let scale: u32 = if quick { 20 } else { 1 };
    // (nodes, msg_bytes, full messages per pair, quick messages per pair,
    // threads); threads 0 = serial driver. The serial trio keeps the
    // pre-parallel workload names *and* its 1/20 quick scaling so
    // `--compare` lines up across PRs. Every other row keeps its full
    // count even under `--quick`: parallel and big-mesh rows are already
    // sized so the steady state dominates (and so the per-message
    // allocation figure reflects the steady state, not setup), and the
    // 64/256/1024-node meshes shrink the per-pair count as the pair count
    // grows, but never below a few thousand sends per flow: with only
    // hundreds, per-flow burst calibration, cold machine state and the
    // one-time per-run scratch (which scales with node count) would
    // dominate, and the row would measure setup — and render nonzero
    // allocs/msg — instead of steady-state throughput.
    let workloads: Vec<(u16, u64, u32, u32, usize)> = match smoke_threads {
        // Determinism smoke: the 8-node stream through the serial driver,
        // the unified engine at one shard, and the unified engine at <n>
        // shards — plus a 256-node mesh serial vs <n> shards, so the
        // digest comparison also covers the big-machine path.
        Some(n) => vec![
            (8, 4096, 50_000, 2_500, 0),
            (8, 4096, 50_000, 2_500, 1),
            (8, 4096, 50_000, 2_500, n),
            (256, 4096, 200, 200, 0),
            (256, 4096, 200, 200, n),
        ],
        None => vec![
            (2, 4096, 200_000, 10_000, 0),
            (2, 256, 400_000, 20_000, 0),
            (8, 4096, 50_000, 2_500, 0),
            (8, 4096, 50_000, 50_000, 1),
            (8, 4096, 50_000, 50_000, 2),
            (8, 4096, 50_000, 50_000, 4),
            (16, 4096, 25_000, 25_000, 4),
            (64, 4096, 6_000, 6_000, 0),
            (64, 4096, 6_000, 6_000, 1),
            (64, 4096, 6_000, 6_000, 2),
            (64, 4096, 6_000, 6_000, 4),
            (256, 4096, 4_000, 4_000, 0),
            (256, 4096, 4_000, 4_000, 1),
            (256, 4096, 4_000, 4_000, 2),
            (256, 4096, 4_000, 4_000, 4),
            (1024, 4096, 4_000, 4_000, 0),
            (1024, 4096, 4_000, 4_000, 1),
            (1024, 4096, 4_000, 4_000, 2),
            (1024, 4096, 4_000, 4_000, 4),
        ],
    };
    let workloads: Vec<(u16, u64, u32, usize)> = workloads
        .into_iter()
        .map(|(nodes, bytes, full, q, threads)| {
            (nodes, bytes, if quick { q } else { full }, threads)
        })
        .collect();
    let run_suite = |runs: &mut Vec<ThroughputResult>| {
        for (i, &(nodes, bytes, msgs, threads)) in workloads.iter().enumerate() {
            let result = host_perf::stream_pairs(nodes, bytes, msgs, threads);
            match runs.get_mut(i) {
                // A later A/B pass keeps each workload's best side.
                Some(best) => {
                    if result.msgs_per_sec > best.msgs_per_sec {
                        *best = result;
                    }
                }
                None => runs.push(result),
            }
        }
    };

    let mut runs: Vec<ThroughputResult> = Vec::new();
    // With a baseline binary: interleave full passes (baseline, own,
    // baseline, own, …) so slow host drift hits both sides equally, and
    // keep each side's best pass per workload. `baseline_best` maps our
    // workload order to the baseline's best row text + msgs/sec.
    let mut baseline_best: Vec<Option<(f64, String)>> = vec![None; workloads.len()];
    let mode = if baseline_bin.is_some() { "interleaved_ab" } else { "single_pass" };
    match &baseline_bin {
        Some(bin) => {
            let tmp = format!("{out_path}.baseline.tmp");
            for _ in 0..AB_ROUNDS {
                let mut cmd = Command::new(bin);
                if quick {
                    cmd.arg("--quick");
                }
                cmd.args(["--out", &tmp]);
                match cmd.status() {
                    Ok(s) if s.success() => {}
                    Ok(s) => {
                        eprintln!("error: baseline binary `{bin}` exited with {s}");
                        std::process::exit(2);
                    }
                    Err(e) => {
                        eprintln!("error: cannot run baseline binary `{bin}`: {e}");
                        std::process::exit(2);
                    }
                }
                let json = fs::read_to_string(&tmp).unwrap_or_default();
                if let Some(array) = extract_runs_array(&json) {
                    for (i, &(nodes, bytes, _, threads)) in workloads.iter().enumerate() {
                        let suffix =
                            if threads == 0 { String::new() } else { format!("_t{threads}") };
                        let name = format!("stream_{bytes}b_{nodes}node{suffix}");
                        let Some(rate) = baseline_msgs_per_sec(array, &name) else { continue };
                        let Some(obj) = extract_run_object(array, &name) else { continue };
                        if baseline_best[i].as_ref().is_none_or(|(best, _)| rate > *best) {
                            baseline_best[i] = Some((rate, obj.to_string()));
                        }
                    }
                }
                run_suite(&mut runs);
            }
            let _ = fs::remove_file(&tmp);
        }
        None => run_suite(&mut runs),
    }

    // Tracing smoke: rerun the 8-node stream with the flight recorder on.
    // The traced entry joins `runs`, so the digest-equality check below
    // also proves tracing never perturbs the simulated timeline.
    let mut traced_overhead = String::new();
    if trace_path.is_some() || trace_bin_path.is_some() {
        let (result, bin) = host_perf::stream_pairs_traced(8, 4096, 50_000 / scale, 2);
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
        // The traced-vs-untraced throughput delta, against the same
        // workload's untraced row from this invocation.
        if let Some(untraced) = runs.iter().find(|r| {
            (r.nodes, r.msg_bytes, r.messages, r.threads)
                == (result.nodes, result.msg_bytes, result.messages, result.threads)
                && !r.name.ends_with("_traced")
        }) {
            traced_overhead = format!(
                "\n  \"traced_overhead\": {{\"untraced_msgs_per_sec\":{:.1},\
                 \"traced_msgs_per_sec\":{:.1},\"ratio\":{:.3}}},",
                untraced.msgs_per_sec,
                result.msgs_per_sec,
                result.msgs_per_sec / untraced.msgs_per_sec,
            );
        }
        runs.push(result);
    }

    // Metrics smoke: a traced + metered 64-node mesh (t=2) whose pinned
    // snapshot goes to disk for CI to validate, plus a traced 2-node
    // stream so the output JSON carries per-stage p50/p99 latencies for
    // the paper's canonical two-node transfer.
    if let Some(path) = &metrics_path {
        // Same per-pair count as the suite's 64-node rows (full even under
        // --quick): the metered digest then joins the equality check
        // against the untraced rows, and one-time shard setup amortizes
        // below the 0.002 allocs/msg contract.
        let (result, _, metrics) = host_perf::stream_pairs_traced_metered(64, 4096, 6_000, 2);
        fs::write(path, &metrics).expect("write metrics snapshot");
        println!("wrote {}-line metrics snapshot to {path}", metrics.lines().count());
        runs.push(result);
        let msgs = if quick { 10_000 } else { 200_000 };
        let (two_node, _) = host_perf::stream_pairs_traced(2, 4096, msgs, 0);
        runs.push(two_node);
    }

    // Serving rows: the multi-tenant request/reply workload — tenant
    // processes contending for a deliberately undersized NIPT, mixed §7
    // priorities, closed-loop RPC latency. Run at one shard and two so
    // the digest-equality check below covers the reactive-program path
    // too. Sizing is identical in full and quick mode: the request
    // percentiles are *simulated* figures (deterministic on any host),
    // and CI gates on them against the committed row — the workload must
    // therefore be the same workload in every invocation.
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

    // "before": the baseline binary's best rows (interleaved mode), or
    // the *most recent* runs in the --compare file (its "after" array).
    let baseline_rows: Vec<String> =
        baseline_best.iter().flatten().map(|(_, obj)| format!("    {obj}")).collect();
    let before: Option<String> = if baseline_rows.is_empty() {
        compare.as_deref().and_then(extract_runs_array).map(str::to_string)
    } else {
        Some(format!("[\n{}\n  ]", baseline_rows.join(",\n")))
    };
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            let speedup = before
                .as_deref()
                .and_then(|old| baseline_msgs_per_sec(old, &r.name))
                .map(|b| format!("{:.2}x", r.msgs_per_sec / b))
                .unwrap_or_else(|| "-".to_string());
            vec![
                r.name.clone(),
                format!("{}", r.messages),
                format!("{}", r.threads),
                format!("{:.0}", r.msgs_per_sec),
                format!("{:.1}", r.mb_per_sec),
                format!("{:016x}", r.digest),
                speedup,
            ]
        })
        .collect();
    print_table(
        &format!(
            "host_throughput — simulator data-plane wall-clock throughput \
             ({} logical cores, {mode})",
            host_perf::host_logical_cores()
        ),
        &["workload", "msgs", "threads", "msgs/s", "MB/s", "digest", "vs before"],
        &rows,
    );

    // Epoch-phase breakdown (parallel rows only): where each run's host
    // time went, summed across shards. A large barrier share is straggler
    // wait (shard imbalance or an oversubscribed host), not engine cost.
    let phased: Vec<&ThroughputResult> = runs.iter().filter(|r| r.phases.is_some()).collect();
    if !phased.is_empty() {
        println!("\nepoch phases (host time, all shards): crossings exec/barrier/merge/commit");
        for r in phased {
            let [crossings, execute_ns, barrier_ns, merge_ns, commit_ns] =
                r.phases.expect("filtered on phases");
            let total = (execute_ns + barrier_ns + merge_ns + commit_ns).max(1) as f64;
            println!(
                "  {:>24} {:>7}  {:>3.0}% / {:>3.0}% / {:>3.0}% / {:>3.0}%",
                r.name,
                crossings,
                100.0 * execute_ns as f64 / total,
                100.0 * barrier_ns as f64 / total,
                100.0 * merge_ns as f64 / total,
                100.0 * commit_ns as f64 / total,
            );
        }
    }

    // Equal workloads must digest identically at every thread count — the
    // conservative engine's whole contract. Check every (nodes, bytes,
    // messages) group, not just the smoke pair.
    let mut divergent = false;
    for (i, a) in runs.iter().enumerate() {
        for b in &runs[i + 1..] {
            if (a.nodes, a.msg_bytes, a.messages) == (b.nodes, b.msg_bytes, b.messages)
                && a.digest != b.digest
            {
                eprintln!(
                    "DETERMINISM FAILURE: {} digest {:016x} != {} digest {:016x}",
                    a.name, a.digest, b.name, b.digest
                );
                divergent = true;
            }
        }
    }

    // Parallel speedup is only observable with real cores: on a
    // multi-core host, a t>=2 row of a big mesh (>= 64 nodes, where each
    // barrier crossing carries enough work to amortize coordination)
    // should beat the serial driver; inside a 1-core container that claim
    // is meaningless, so say so instead of failing (the digest checks
    // above still hold — determinism does not need cores).
    let cores = host_perf::host_logical_cores();
    if cores >= 2 {
        for a in &runs {
            if a.threads < 2 || a.nodes < 64 || a.name.ends_with("_traced") {
                continue;
            }
            if let Some(serial) = runs.iter().find(|s| {
                s.threads == 0
                    && (s.nodes, s.msg_bytes, s.messages) == (a.nodes, a.msg_bytes, a.messages)
            }) {
                if a.msgs_per_sec < serial.msgs_per_sec {
                    eprintln!(
                        "SPEEDUP FAILURE ({cores} cores): {} at {:.0} msgs/s did not beat {} at {:.0} msgs/s",
                        a.name, a.msgs_per_sec, serial.name, serial.msgs_per_sec
                    );
                    divergent = true;
                }
            }
        }
    } else {
        println!(
            "note: 1 logical core — parallel rows verify determinism only; \
             speedup-vs-serial is not checked"
        );
    }

    let after = host_perf::runs_to_json(&runs);
    let metrics_head = metrics_path
        .as_deref()
        .map(|p| format!("\n  \"metrics_snapshot\": \"{p}\","))
        .unwrap_or_default();
    let head = format!(
        "{{\n  \"bench\": \"host_throughput\",\n  \"host_cores\": {},\n  \"mode\": \"{mode}\",{traced_overhead}{metrics_head}",
        host_perf::host_logical_cores()
    );
    let json = match before {
        Some(before) => format!("{head}\n  \"before\": {before},\n  \"after\": {after}\n}}\n"),
        None => format!("{head}\n  \"runs\": {after}\n}}\n"),
    };
    fs::write(&out_path, &json).expect("write BENCH_throughput.json");
    println!("\nwrote {out_path}");

    if divergent {
        std::process::exit(1);
    }
}
