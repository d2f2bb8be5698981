//! Machine-wide metrics plane: a fixed-capacity registry of counters,
//! gauges (with high-water marks) and [`Histogram`]s, identified by typed
//! [`MetricId`]s (subsystem × name × optional node/link index), with
//! deterministic sorted text/JSON rendering.
//!
//! Two usage modes, by design (DESIGN.md §10):
//!
//! - **Hot paths embed the primitives.** Subsystems keep plain
//!   [`Counter`](crate::Counter)/[`Gauge`] fields inline and bump them with
//!   plain stores (`// lint:hot_path`, A1-clean) — no registry lookup, no
//!   indirection, no allocation on the data plane.
//! - **Snapshots build the registry.** At export time (off the hot path) a
//!   [`MetricSet`] is populated in a fixed deterministic order — node by
//!   node, link by link — then rendered sorted by [`MetricId`], so two
//!   snapshots of the same simulated timeline are byte-identical however
//!   many threads produced it.
//!
//! Pre-registered ids ([`CounterId`]/[`GaugeId`]/[`HistId`]) turn updates
//! into plain indexed stores for callers that want to drive the registry
//! directly; both modes meet in the same render path.

use crate::stats::Histogram;
use std::fmt::Write as _;

/// Identity of one metric: which subsystem owns it, its name, and an
/// optional per-node/per-link index. Ordering is the render order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct MetricId {
    /// Owning subsystem, e.g. `"nipt"`, `"link"`, `"wheel"`.
    pub subsystem: &'static str,
    /// Metric name within the subsystem, e.g. `"evictions"`.
    pub name: &'static str,
    /// Node or link index for per-instance metrics; `None` for
    /// machine-wide scalars.
    pub index: Option<u32>,
}

impl MetricId {
    /// A machine-wide metric with no per-instance index.
    pub const fn scalar(subsystem: &'static str, name: &'static str) -> Self {
        MetricId { subsystem, name, index: None }
    }

    /// A per-node/per-link metric.
    pub const fn indexed(subsystem: &'static str, name: &'static str, index: u32) -> Self {
        MetricId { subsystem, name, index: Some(index) }
    }
}

/// An instantaneous level with a high-water mark — queue depth, table
/// occupancy, buffers in flight. Updates are plain stores so gauges can
/// sit directly on data-plane structures.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Gauge {
    value: u64,
    high: u64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge { value: 0, high: 0 }
    }

    /// Sets the level, advancing the high-water mark. Never allocates.
    // lint:hot_path
    #[inline]
    pub fn set(&mut self, value: u64) {
        self.value = value;
        if value > self.high {
            self.high = value;
        }
    }

    /// Raises the level by `n`. Never allocates.
    // lint:hot_path
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.set(self.value.saturating_add(n));
    }

    /// Raises the level by one. Never allocates.
    // lint:hot_path
    #[inline]
    pub fn incr(&mut self) {
        self.add(1);
    }

    /// Lowers the level by `n` (saturating — a stray extra release keeps
    /// the gauge well-defined). The high-water mark is unaffected.
    // lint:hot_path
    #[inline]
    pub fn sub(&mut self, n: u64) {
        self.value = self.value.saturating_sub(n);
    }

    /// Lowers the level by one.
    // lint:hot_path
    #[inline]
    pub fn decr(&mut self) {
        self.sub(1);
    }

    /// Current level.
    pub fn get(self) -> u64 {
        self.value
    }

    /// Highest level ever set.
    pub fn high_water(self) -> u64 {
        self.high
    }

    /// Folds another instance of the same gauge in: levels sum (total
    /// across shards), high-water marks take the max.
    pub fn merge(&mut self, other: Gauge) {
        self.value = self.value.saturating_add(other.value);
        if other.high > self.high {
            self.high = other.high;
        }
    }
}

/// One registered metric's payload. Histograms are boxed: a snapshot
/// holds thousands of per-node counters and only a handful of
/// histograms, so the boxed variant keeps every entry a few words wide.
#[derive(Clone, Debug, PartialEq)]
enum MetricValue {
    Counter(u64),
    Gauge(Gauge),
    Hist(Box<Histogram>),
}

/// Typed handle to a registered counter: updates are plain indexed stores.
#[derive(Clone, Copy, Debug)]
pub struct CounterId(usize);

/// Typed handle to a registered gauge.
#[derive(Clone, Copy, Debug)]
pub struct GaugeId(usize);

/// Typed handle to a registered histogram.
#[derive(Clone, Copy, Debug)]
pub struct HistId(usize);

/// The registry of metrics, with deterministic rendering.
///
/// Registration appends (pre-size with [`MetricSet::with_capacity`]);
/// updates through the typed handles are plain indexed stores.
/// Rendering sorts by [`MetricId`], making the output a pure function of
/// the registered values — byte-identical across thread counts whenever
/// the values are.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricSet {
    entries: Vec<(MetricId, MetricValue)>,
}

impl MetricSet {
    /// An empty registry with room for `capacity` metrics before it
    /// reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        MetricSet { entries: Vec::with_capacity(capacity) }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn register(&mut self, id: MetricId, value: MetricValue) -> usize {
        self.entries.push((id, value));
        self.entries.len() - 1
    }

    /// Registers a counter at `initial`; returns its update handle.
    pub fn counter(&mut self, id: MetricId, initial: u64) -> CounterId {
        CounterId(self.register(id, MetricValue::Counter(initial)))
    }

    /// Registers a gauge; returns its update handle.
    pub fn gauge(&mut self, id: MetricId, initial: Gauge) -> GaugeId {
        GaugeId(self.register(id, MetricValue::Gauge(initial)))
    }

    /// Registers a histogram; returns its update handle.
    pub fn hist(&mut self, id: MetricId, initial: Histogram) -> HistId {
        HistId(self.register(id, MetricValue::Hist(Box::new(initial))))
    }

    /// Bumps a pre-registered counter — a plain indexed store.
    // lint:hot_path
    #[inline]
    pub fn counter_add(&mut self, id: CounterId, n: u64) {
        // INVARIANT: CounterId is only minted by `counter`, which pushed
        // a Counter entry at that index; entries are never removed.
        match &mut self.entries[id.0].1 {
            MetricValue::Counter(v) => *v = v.saturating_add(n),
            _ => unreachable!("CounterId points at a counter"),
        }
    }

    /// Mutable access to a pre-registered gauge — a plain indexed load.
    // lint:hot_path
    #[inline]
    pub fn gauge_mut(&mut self, id: GaugeId) -> &mut Gauge {
        // INVARIANT: GaugeId is only minted by `gauge`; see counter_add.
        match &mut self.entries[id.0].1 {
            MetricValue::Gauge(g) => g,
            _ => unreachable!("GaugeId points at a gauge"),
        }
    }

    /// Mutable access to a pre-registered histogram.
    // lint:hot_path
    #[inline]
    pub fn hist_mut(&mut self, id: HistId) -> &mut Histogram {
        // INVARIANT: HistId is only minted by `hist`; see counter_add.
        match &mut self.entries[id.0].1 {
            MetricValue::Hist(h) => h,
            _ => unreachable!("HistId points at a histogram"),
        }
    }

    /// The scalar view of a metric by identity: a counter's value or a
    /// gauge's current level. `None` for histograms and unknown ids.
    pub fn get(&self, subsystem: &str, name: &str, index: Option<u32>) -> Option<u64> {
        self.find(subsystem, name, index).and_then(|v| match v {
            MetricValue::Counter(c) => Some(*c),
            MetricValue::Gauge(g) => Some(g.get()),
            MetricValue::Hist(_) => None,
        })
    }

    /// A gauge's high-water mark by identity.
    pub fn get_high_water(&self, subsystem: &str, name: &str, index: Option<u32>) -> Option<u64> {
        self.find(subsystem, name, index).and_then(|v| match v {
            MetricValue::Gauge(g) => Some(g.high_water()),
            _ => None,
        })
    }

    /// A registered histogram by identity.
    pub fn get_hist(&self, subsystem: &str, name: &str, index: Option<u32>) -> Option<&Histogram> {
        self.find(subsystem, name, index).and_then(|v| match v {
            MetricValue::Hist(h) => Some(&**h),
            _ => None,
        })
    }

    fn find(&self, subsystem: &str, name: &str, index: Option<u32>) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|(id, _)| id.subsystem == subsystem && id.name == name && id.index == index)
            .map(|(_, v)| v)
    }

    /// Folds `other` into `self` by metric identity: counters and gauge
    /// levels sum, gauge high-water marks take the max, histograms merge.
    /// Metrics present only in `other` are appended (allocating — merging
    /// belongs off the hot path).
    pub fn merge_from(&mut self, other: &MetricSet) {
        for (id, theirs) in &other.entries {
            match self.entries.iter_mut().find(|(mine, _)| mine == id) {
                Some((_, mine)) => match (mine, theirs) {
                    (MetricValue::Counter(a), MetricValue::Counter(b)) => *a = a.saturating_add(*b),
                    (MetricValue::Gauge(a), MetricValue::Gauge(b)) => a.merge(*b),
                    (MetricValue::Hist(a), MetricValue::Hist(b)) => a.merge(b),
                    _ => panic!("metric {id:?} registered with two different kinds"),
                },
                None => {
                    self.entries.push((*id, theirs.clone()));
                }
            }
        }
    }

    /// The interval view `self − base`: counters subtract (saturating, so
    /// a restarted counter reads 0 rather than wrapping), gauges keep the
    /// current level and high-water (levels are instantaneous — they have
    /// no meaningful difference), histograms subtract bucketwise with
    /// count/sum and keep the current extremes.
    ///
    /// Linear when `base` registered the same ids in the same order (two
    /// snapshots of one machine do); any other pairing falls back to a
    /// search by id.
    pub fn delta(&self, base: &MetricSet) -> MetricSet {
        let mut out = MetricSet::with_capacity(self.entries.len());
        for (i, (id, now)) in self.entries.iter().enumerate() {
            let then = match base.entries.get(i) {
                Some((b, v)) if b == id => Some(v),
                _ => base.entries.iter().find(|(b, _)| b == id).map(|(_, v)| v),
            };
            let value = match (now, then) {
                (MetricValue::Counter(n), Some(MetricValue::Counter(t))) => {
                    MetricValue::Counter(n.saturating_sub(*t))
                }
                (MetricValue::Hist(n), Some(MetricValue::Hist(t))) => {
                    MetricValue::Hist(Box::new(n.subtract(t)))
                }
                (v, _) => v.clone(),
            };
            out.entries.push((*id, value));
        }
        out
    }

    /// Entries sorted by [`MetricId`] — the render order.
    fn sorted(&self) -> Vec<&(MetricId, MetricValue)> {
        let mut rows: Vec<_> = self.entries.iter().collect();
        rows.sort_by_key(|(id, _)| *id);
        rows
    }

    /// Renders the stable sorted text report, one line per metric:
    ///
    /// ```text
    /// delivery/delivered 400
    /// link/wire_bytes[1] 1654400
    /// nipt/occupancy[0] 3 high 3
    /// ```
    ///
    /// Counters render `value`; gauges `value high <mark>`; histograms
    /// `count/sum/min/max/p50/p90/p99`. All integers — the bytes are a
    /// pure function of the metric values.
    pub fn render_text(&self) -> String {
        let mut out = String::from("# shrimp-metrics v1\n");
        for (id, value) in self.sorted() {
            match id.index {
                Some(i) => {
                    let _ = write!(out, "{}/{}[{}]", id.subsystem, id.name, i);
                }
                None => {
                    let _ = write!(out, "{}/{}", id.subsystem, id.name);
                }
            }
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, " {v}");
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, " {} high {}", g.get(), g.high_water());
                }
                MetricValue::Hist(h) => {
                    let _ = writeln!(
                        out,
                        " count {} sum {} min {} max {} p50 {} p90 {} p99 {}",
                        h.count(),
                        h.sum(),
                        h.min().unwrap_or(0),
                        h.max().unwrap_or(0),
                        h.quantile(0.50).unwrap_or(0),
                        h.quantile(0.90).unwrap_or(0),
                        h.quantile(0.99).unwrap_or(0),
                    );
                }
            }
        }
        out
    }

    /// Renders the same sorted report as a JSON array of flat objects
    /// (hand-built, integers only — byte-identical whenever
    /// [`render_text`](Self::render_text) is).
    pub fn render_json(&self) -> String {
        let mut out = String::from("[\n");
        let rows = self.sorted();
        for (n, (id, value)) in rows.iter().enumerate() {
            let _ = write!(out, "  {{\"subsystem\":\"{}\",\"name\":\"{}\"", id.subsystem, id.name);
            if let Some(i) = id.index {
                let _ = write!(out, ",\"index\":{i}");
            }
            match value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, ",\"kind\":\"counter\",\"value\":{v}");
                }
                MetricValue::Gauge(g) => {
                    let _ = write!(
                        out,
                        ",\"kind\":\"gauge\",\"value\":{},\"high\":{}",
                        g.get(),
                        g.high_water()
                    );
                }
                MetricValue::Hist(h) => {
                    let _ = write!(
                        out,
                        ",\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\
                         \"p50\":{},\"p90\":{},\"p99\":{}",
                        h.count(),
                        h.sum(),
                        h.min().unwrap_or(0),
                        h.max().unwrap_or(0),
                        h.quantile(0.50).unwrap_or(0),
                        h.quantile(0.90).unwrap_or(0),
                        h.quantile(0.99).unwrap_or(0),
                    );
                }
            }
            let _ = writeln!(out, "}}{}", if n + 1 < rows.len() { "," } else { "" });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_level_and_high_water() {
        let mut g = Gauge::new();
        g.add(3);
        g.incr();
        assert_eq!((g.get(), g.high_water()), (4, 4));
        g.sub(2);
        assert_eq!((g.get(), g.high_water()), (2, 4));
        g.decr();
        g.decr();
        g.decr(); // saturates at zero
        assert_eq!((g.get(), g.high_water()), (0, 4));
        let mut other = Gauge::new();
        other.add(7);
        other.sub(6);
        g.merge(other);
        assert_eq!((g.get(), g.high_water()), (1, 7), "levels sum, highs max");
    }

    #[test]
    fn metric_set_registers_updates_and_renders_sorted() {
        let mut m = MetricSet::with_capacity(4);
        let c = m.counter(MetricId::scalar("zeta", "count"), 0);
        let g = m.gauge(MetricId::indexed("alpha", "depth", 1), Gauge::new());
        m.gauge(MetricId::indexed("alpha", "depth", 0), Gauge::new());
        let h = m.hist(MetricId::scalar("mid", "lat"), Histogram::new());
        m.counter_add(c, 5);
        m.gauge_mut(g).add(9);
        m.hist_mut(h).record(100);
        assert_eq!(m.get("zeta", "count", None), Some(5));
        assert_eq!(m.get("alpha", "depth", Some(1)), Some(9));
        assert_eq!(m.get_high_water("alpha", "depth", Some(1)), Some(9));
        assert_eq!(m.get_hist("mid", "lat", None).unwrap().count(), 1);

        let text = m.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# shrimp-metrics v1");
        assert_eq!(lines[1], "alpha/depth[0] 0 high 0");
        assert_eq!(lines[2], "alpha/depth[1] 9 high 9");
        assert!(lines[3].starts_with("mid/lat count 1 sum 100"), "got {}", lines[3]);
        assert_eq!(lines[4], "zeta/count 5");

        let json = m.render_json();
        assert!(json.contains(
            "\"subsystem\":\"zeta\",\"name\":\"count\",\"kind\":\"counter\",\"value\":5"
        ));
        assert!(json.contains("\"index\":1"));
    }

    #[test]
    fn merge_sums_counters_maxes_highs_and_appends_unknowns() {
        let mut a = MetricSet::with_capacity(2);
        let ca = a.counter(MetricId::scalar("s", "c"), 3);
        a.gauge(MetricId::scalar("s", "g"), Gauge::new());
        let _ = ca;
        let mut b = MetricSet::with_capacity(3);
        b.counter(MetricId::scalar("s", "c"), 4);
        let gb = b.gauge(MetricId::scalar("s", "g"), Gauge::new());
        b.gauge_mut(gb).add(11);
        b.counter(MetricId::scalar("s", "only_b"), 1);
        a.merge_from(&b);
        assert_eq!(a.get("s", "c", None), Some(7));
        assert_eq!(a.get("s", "g", None), Some(11));
        assert_eq!(a.get_high_water("s", "g", None), Some(11));
        assert_eq!(a.get("s", "only_b", None), Some(1));
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauge_levels() {
        let mut before = MetricSet::with_capacity(3);
        before.counter(MetricId::scalar("s", "c"), 10);
        let g0 = before.gauge(MetricId::scalar("s", "g"), Gauge::new());
        before.gauge_mut(g0).add(2);
        let h0 = before.hist(MetricId::scalar("s", "h"), Histogram::new());
        before.hist_mut(h0).record(8);

        let mut after = before.clone();
        after.counter_add(CounterId(0), 5);
        after.gauge_mut(GaugeId(1)).add(1);
        after.hist_mut(HistId(2)).record(8);
        after.hist_mut(HistId(2)).record(32);

        let d = after.delta(&before);
        assert_eq!(d.get("s", "c", None), Some(5));
        assert_eq!(d.get("s", "g", None), Some(3), "gauges keep the current level");
        let dh = d.get_hist("s", "h", None).unwrap();
        assert_eq!((dh.count(), dh.sum()), (2, 40));
        // Identical snapshots delta to all-zero counters.
        let z = after.delta(&after);
        assert_eq!(z.get("s", "c", None), Some(0));
        assert_eq!(z.get_hist("s", "h", None).unwrap().count(), 0);
    }
}
