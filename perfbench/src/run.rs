//! One benchmark run: the untraced pass that yields the end-to-end
//! metrics, or the traced pass that yields the per-layer ledger, each
//! checked against the workload's correctness oracle.

use std::time::{Duration, Instant};

use shrimp_sim::MetricSet;

use crate::metrics;
use crate::Workload;
use crate::{build, host_nanos, latest_clock, ns_since, probes, Kind, Round, Scale, Spans};

/// Rounds each timed pass runs at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 5;

/// What a run prints: the verdict, the attempt and failure counts, and
/// every metric of its kind by name.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// No operation failed and every oracle check held.
    pub correct: bool,
    /// Messages attempted across every round of the run.
    pub attempted: u64,
    /// Trapped sends, unanswered requests and oracle misses.
    pub failed: u64,
    /// `(name, value)` in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Oracle misses and other findings, one line each.
    pub notes: Vec<String>,
    /// `state_digest` after the reference round.
    pub digest: u64,
}

impl Report {
    fn count(&mut self, round: Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        if round.failed > 0 {
            self.notes.push(format!("{} of {} messages failed", round.failed, round.attempted));
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(metrics::find(name).is_some(), "undeclared metric {name}");
        self.metrics.push((name, if value.is_finite() { value } else { 0.0 }));
    }

    /// The metric `name`, if this report has it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = metrics::find(name).map_or("", |m| m.unit);
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// The median of `values` (sorted in place); 0 for none.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `values` (sorted in place); 0 for
/// none.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The quantile of per-round rates a host-throughput metric reports: the
/// rate of the 1st-percentile round time, timeit's minimum made robust to
/// a single stray round.
///
/// Every round does the same work, and a shared host's co-tenants only
/// ever slow a round down, for stretches of seconds. On a two-vCPU host
/// the fastest rounds moved 10–17% between 30-second runs where the
/// median round moved 30–50%.
const RATE_QUANTILE: f64 = 0.99;

/// Counts heap allocations when registered as the global allocator
/// (the benchmark binary registers it; tests do not).
pub mod alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// The counting allocator.
    pub struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the counter is a plain
    // statistic and does not affect allocation.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: the caller's layout is passed on unchanged.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            // SAFETY: arguments forwarded unchanged from the caller.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Allocations so far (0 forever when not registered).
    pub fn count() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

/// The oracle checks that need the whole machine: every receive window
/// holds what the generator predicts, and every injected packet was
/// delivered or counted as dropped.
fn check_machine(w: &mut dyn Workload, report: &mut Report) {
    let misses = w.window_mismatches();
    if misses > 0 {
        report.fail(format!("{misses} receive windows differ from the prediction"));
    }
    let snap = w.mc().metrics_snapshot();
    let get = |sub, name| snap.get(sub, name, None).unwrap_or(0);
    let (packets, delivered) = (get("fabric", "packets"), get("delivery", "delivered"));
    let drops = get("fabric", "drops") + get("delivery", "drops");
    if packets.checked_sub(delivered) != Some(drops) {
        report
            .fail(format!("conservation: {packets} packets, {delivered} delivered, {drops} drops"));
    }
}

/// Runs `w`'s reference round — the deterministic round the simulated
/// figures come from — and returns `(bytes per sender per simulated
/// second in MB/s, latencies)`.
fn reference(
    w: &mut dyn Workload,
    spans: Option<&mut Spans>,
    report: &mut Report,
) -> (f64, Vec<f64>) {
    let start = latest_clock(w.mc());
    let (round, latencies) = w.reference_round(spans);
    let latencies = latencies.into_iter().map(|ns| ns as f64).collect();
    let makespan = latest_clock(w.mc()).saturating_sub(start);
    report.count(round);
    report.digest = w.mc().state_digest();
    let mb_per_s = round.bytes as f64 * 1e3 / makespan.max(1) as f64 / w.senders() as f64;
    (mb_per_s, latencies)
}

/// Host messages per second of one round of `each`, timed around the
/// round alone.
fn rate(
    w: &mut dyn Workload,
    report: &mut Report,
    each: &mut impl FnMut(&mut dyn Workload) -> Round,
) -> f64 {
    let t = Instant::now();
    let round = each(w);
    let ns = ns_since(t);
    report.count(round);
    (round.attempted - round.failed) as f64 * 1e9 / ns.max(1) as f64
}

/// Rounds of `each` until `budget` has passed, with their rates.
fn timed_rounds(
    w: &mut dyn Workload,
    budget: Duration,
    report: &mut Report,
    mut each: impl FnMut(&mut dyn Workload) -> Round,
) -> Vec<f64> {
    let t0 = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < MIN_ROUNDS || t0.elapsed() < budget {
        rates.push(rate(w, report, &mut each));
    }
    rates
}

/// The untraced run: set-up several times, one reference round, then
/// timed rounds alternating the flight recorder off and on.
pub fn untraced(kind: Kind, seed: u64, seconds: f64, scale: &Scale) -> Report {
    let mut report = Report::default();
    let mut setup = Vec::with_capacity(scale.setups);
    let mut built = None;
    for _ in 0..scale.setups.max(1) {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(build(kind, seed, scale));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let mut w = built.expect("at least one set-up");
    let (sim_mb_per_s, mut latencies) = reference(w.as_mut(), None, &mut report);

    // Recorder-off and recorder-on rounds alternate, so both see the same
    // host conditions.
    let t0 = Instant::now();
    let (mut plain, mut recorder_on) = (Vec::new(), Vec::new());
    let mut round = |w: &mut dyn Workload| w.round(None);
    while plain.len() < MIN_ROUNDS || t0.elapsed().as_secs_f64() < seconds {
        plain.push(rate(w.as_mut(), &mut report, &mut round));
        w.mc().set_tracing(true);
        recorder_on.push(rate(w.as_mut(), &mut report, &mut round));
        w.mc().set_tracing(false);
    }
    check_machine(w.as_mut(), &mut report);

    report.put("msgs_per_host_s", quantile(&mut plain, RATE_QUANTILE));
    report.put("recorder_on_msgs_per_host_s", quantile(&mut recorder_on, RATE_QUANTILE));
    report.put("setup_s", median(&mut setup));
    report.put("sim_mb_per_s", sim_mb_per_s);
    report.put("sim_latency_p50_ns", quantile(&mut latencies, 0.50));
    report.put("sim_latency_p99_ns", quantile(&mut latencies, 0.99));
    report.correct = report.failed == 0;
    report
}

/// Sum of a per-node counter of the deterministic snapshot.
fn per_node(set: &MetricSet, sub: &str, name: &str, nodes: usize) -> u64 {
    (0..nodes as u32).filter_map(|i| set.get(sub, name, Some(i))).sum()
}

/// `a / b`, or `none` when nothing was counted.
fn ratio(a: u64, b: u64, none: f64) -> f64 {
    if b == 0 {
        none
    } else {
        a as f64 / b as f64
    }
}

/// Unattributed share of traced wall time above which the ledger does not
/// close and the run fails.
pub const LEDGER_SLACK: f64 = 0.10;

/// The traced run: an untraced pass (for the overhead ratio, the
/// allocation count and the digest), then a traced pass on a fresh
/// machine of the same seed that times each layer, then the probes.
pub fn traced(kind: Kind, seed: u64, seconds: f64, scale: &Scale) -> Report {
    let mut report = Report::default();
    let budget = Duration::from_secs_f64(seconds / 2.0);

    let mut w = build(kind, seed, scale);
    reference(w.as_mut(), None, &mut report);
    let untraced_digest = report.digest;
    let allocs0 = alloc::count();
    let mut delivered = 0u64;
    let mut plain = timed_rounds(w.as_mut(), budget, &mut report, |w| {
        let r = w.round(None);
        delivered += r.attempted - r.failed;
        r
    });
    let allocs = alloc::count() - allocs0;
    check_machine(w.as_mut(), &mut report);
    drop(w);

    let mut w = build(kind, seed, scale);
    w.mc().set_phase_clock(Some(host_nanos));
    let nodes = w.mc().node_count();
    let before = w.mc().metrics_snapshot();
    let mut first = Spans::default();
    reference(w.as_mut(), Some(&mut first), &mut report);
    if report.digest != untraced_digest {
        report.fail(format!(
            "traced digest {:#018x} differs from untraced {untraced_digest:#018x}",
            report.digest
        ));
    }
    let delta = w.mc().snapshot_delta(&before);
    let engine = w.mc().engine_metrics();
    let mut spans = Spans::default();
    let mut traced_rates =
        timed_rounds(w.as_mut(), budget, &mut report, |w| w.round(Some(&mut spans)));
    check_machine(w.as_mut(), &mut report);

    let mut probe = Spans::default();
    w.cross_probe(&mut probe);
    let shapes = w.shapes();
    let tlb_entries = shrimp_machine::MachineConfig::default().tlb_entries;
    let (net_send, net_commit) = probes::net(&shapes, nodes as u16);

    // A layer the workload's own path calls is timed there; one it does
    // not is timed by the cross probe on the same machine.
    let pick = |own: bool| if own { &spans } else { &probe };
    let os = pick(spans.udma_sends > 0);
    report.put("os.udma_send_ns", ratio(os.udma_send_ns, os.udma_sends, 0.0));
    report.put("os.transfers_per_msg", ratio(os.transfers, os.udma_sends, 0.0));
    report.put("os.retries_per_msg", ratio(os.retries, os.udma_sends, 0.0));
    report.put("multicomputer.propagate_ns", ratio(os.propagate_ns, os.propagates, 0.0));
    let eng = pick(spans.epochs > 0);
    report.put("parallel.execute_ns_per_msg", ratio(eng.execute_ns, eng.msgs, 0.0));
    report.put("parallel.merge_ns_per_msg", ratio(eng.merge_ns, eng.msgs, 0.0));
    report.put("parallel.commit_ns_per_msg", ratio(eng.commit_ns, eng.msgs, 0.0));
    report.put("parallel.barrier_ns_per_msg", ratio(eng.barrier_ns, eng.msgs, 0.0));
    report.put("parallel.epochs", ratio(eng.epochs, eng.rounds, 0.0));
    report.put("program.step_ns", ratio(eng.step_ns, eng.steps, 0.0));
    report.put("program.steps_per_msg", ratio(eng.steps, eng.msgs, 0.0));
    let ten = pick(spans.ensures > 0);
    report.put("tenant.ensure_ns", ratio(ten.ensure_ns, ten.ensures, 0.0));
    let refaults = per_node(&delta, "nipt", "refaults", nodes);
    report.put("nipt.refault_ratio", ratio(refaults, first.ensures, 0.0));
    report.put("nipt.evictions", per_node(&delta, "nipt", "evictions", nodes) as f64);
    let get = |set: &MetricSet, sub, name| set.get(sub, name, None).unwrap_or(0);
    let runs = get(&delta, "delivery", "runs_committed");
    report.put("delivery.msgs_per_run", ratio(get(&delta, "delivery", "delivered"), runs, 1.0));
    report.put("delivery.run_splits", get(&delta, "delivery", "run_splits") as f64);
    report.put("wheel.spills", get(&engine, "wheel", "spills") as f64);
    report.put("wheel.reseeds", get(&engine, "wheel", "reseeds") as f64);
    report.put("wheel.depth_high", get(&engine, "wheel", "depth_high") as f64);
    report.put("dst_index.lane_spills", get(&engine, "dst_index", "lane_spills") as f64);
    report.put("net.send_ns", net_send);
    report.put("net.commit_next_ns", net_commit);
    report.put("mem.write_ns_per_kib", probes::mem(&shapes));
    report.put("mmu.translate_ns", probes::mmu(&shapes, tlb_entries));
    let hits = per_node(&delta, "tlb", "hits", nodes);
    let misses = per_node(&delta, "tlb", "misses", nodes);
    report.put("tlb.hit_ratio", ratio(hits, hits + misses, 0.0));
    report.put("nipt.lookup_ns", probes::nipt(&shapes));
    let pool_high = (0..nodes as u32)
        .filter_map(|i| engine.get_high_water("buf_pool", "in_use", Some(i)))
        .max()
        .unwrap_or(0);
    report.put("buf_pool.in_use_high", pool_high as f64);
    report.put("buf_pool.exhaustion", per_node(&engine, "buf_pool", "exhaustion", nodes) as f64);
    report.put("data_plane.allocs_per_msg", ratio(allocs, delivered, 0.0));
    report.put("failed_frac", ratio(report.failed, report.attempted, 0.0));

    let unattributed = 1.0 - ratio(spans.top_level_ns(), spans.wall_ns, 0.0);
    let traced_ns = 1e9 / quantile(&mut traced_rates, RATE_QUANTILE);
    let plain_ns = 1e9 / quantile(&mut plain, RATE_QUANTILE);
    report.put("ledger.wall_ns_per_msg", ratio(spans.wall_ns, spans.msgs, 0.0));
    report.put("ledger.unattributed_frac", unattributed);
    report.put("trace.overhead_ratio", traced_ns / plain_ns);
    if unattributed > LEDGER_SLACK {
        report.fail(format!(
            "ledger leaves {:.1}% of traced wall time unattributed",
            100.0 * unattributed
        ));
    }
    report.correct = report.failed == 0;
    report
}

/// The machine-independent part of a run, for tests: the simulated
/// figures and the digest after the reference round of a fresh build.
pub fn reference_only(kind: Kind, seed: u64, scale: &Scale) -> Report {
    let mut report = Report::default();
    let mut w = build(kind, seed, scale);
    let (sim_mb_per_s, mut latencies) = reference(w.as_mut(), None, &mut report);
    check_machine(w.as_mut(), &mut report);
    report.put("sim_mb_per_s", sim_mb_per_s);
    report.put("sim_latency_p50_ns", quantile(&mut latencies, 0.50));
    report.put("sim_latency_p99_ns", quantile(&mut latencies, 0.99));
    report.correct = report.failed == 0;
    report
}
