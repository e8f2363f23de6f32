//! The metrics registry and the [`Observe`] handle every driver threads
//! through.
//!
//! Metric names are hierarchical slash-paths whose segments may carry
//! labels: `driver/shard=3/sweeps`. Registration (path lookup, allocation)
//! happens once per handle, off the hot path; recording through a handle is
//! an atomic add (counters/gauges) or one short mutex-guarded histogram
//! update. The disabled [`Observe::off`] handle hands out empty handles
//! whose record calls are a branch on `None` — the optimizer erases them,
//! and the differential proptests in `surge-stream` prove the enabled path
//! doesn't perturb answers either (non-invasiveness is the layer's central
//! contract, not an aspiration).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::flight::{FlightDump, FlightRecorder, TraceDump, TraceEvent};
use crate::metrics::{LatencyHistogram, LatencySummary};

/// Default per-worker flight-recorder ring capacity.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicI64>>,
    histograms: BTreeMap<String, Arc<Mutex<LatencyHistogram>>>,
}

/// A registry of named counters, gauges and latency histograms.
///
/// Shared behind the [`Observe`] handle; not usually constructed directly.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn counter(&self, path: &str) -> Arc<AtomicU64> {
        let mut inner = self.inner.lock().unwrap();
        inner
            .counters
            .entry(path.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone()
    }

    fn gauge(&self, path: &str) -> Arc<AtomicI64> {
        let mut inner = self.inner.lock().unwrap();
        inner
            .gauges
            .entry(path.to_string())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)))
            .clone()
    }

    fn histogram(&self, path: &str) -> Arc<Mutex<LatencyHistogram>> {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(path.to_string())
            .or_insert_with(|| Arc::new(Mutex::new(LatencyHistogram::new())))
            .clone()
    }

    /// A point-in-time snapshot of every metric, sorted by path.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.inner.lock().unwrap();
        RegistrySnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| {
                    let h = v.lock().unwrap();
                    (
                        k.clone(),
                        HistogramSnapshot {
                            summary: h.summary(),
                            sum_ns: h.sum_ns(),
                        },
                    )
                })
                .collect(),
        }
    }
}

/// A counter handle. Cloned freely; the disabled default is a no-op.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A gauge handle (signed, set/adjust semantics).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Adjusts the gauge by `d`.
    #[inline]
    pub fn add(&self, d: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a disabled handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

/// A latency-histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<Mutex<LatencyHistogram>>>);

impl Histogram {
    /// Records one sample in nanoseconds.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        if let Some(h) = &self.0 {
            h.lock().unwrap().record_ns(ns);
        }
    }

    /// Records one duration sample.
    #[inline]
    pub fn record(&self, d: std::time::Duration) {
        if let Some(h) = &self.0 {
            h.lock().unwrap().record(d);
        }
    }

    /// Merges a locally-accumulated histogram in (the per-worker pattern:
    /// workers record into their own [`LatencyHistogram`] and merge once).
    pub fn merge(&self, other: &LatencyHistogram) {
        if let Some(h) = &self.0 {
            h.lock().unwrap().merge(other);
        }
    }

    /// Sample count (0 for a disabled handle).
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.lock().unwrap().count())
    }
}

/// A per-worker flight-recorder handle.
#[derive(Debug, Clone, Default)]
pub struct Flight(Option<Arc<Mutex<FlightRecorder>>>);

impl Flight {
    /// Records one trace event.
    #[inline]
    pub fn record(&self, event: TraceEvent) {
        if let Some(r) = &self.0 {
            r.lock().unwrap().record(event);
        }
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

struct ObserveInner {
    registry: MetricsRegistry,
    flights: Mutex<BTreeMap<String, Arc<Mutex<FlightRecorder>>>>,
    flight_capacity: usize,
}

/// The observability handle threaded through every driver.
///
/// [`Observe::off`] (the `Default`) is the disabled layer: every handle it
/// hands out is a no-op and the drivers' answer streams are — provably,
/// via the differential proptests — bitwise identical either way.
#[derive(Clone, Default)]
pub struct Observe(Option<Arc<ObserveInner>>);

impl Observe {
    /// The disabled handle (no registry, no recording).
    pub fn off() -> Self {
        Observe(None)
    }

    /// An enabled handle with the default flight-recorder capacity.
    pub fn enabled() -> Self {
        Self::with_flight_capacity(DEFAULT_FLIGHT_CAPACITY)
    }

    /// An enabled handle whose per-worker rings keep `capacity` events.
    pub fn with_flight_capacity(capacity: usize) -> Self {
        Observe(Some(Arc::new(ObserveInner {
            registry: MetricsRegistry::new(),
            flights: Mutex::new(BTreeMap::new()),
            flight_capacity: capacity.max(1),
        })))
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Registers (or finds) the counter at `path`.
    pub fn counter(&self, path: &str) -> Counter {
        Counter(self.0.as_ref().map(|i| i.registry.counter(path)))
    }

    /// Registers (or finds) the gauge at `path`.
    pub fn gauge(&self, path: &str) -> Gauge {
        Gauge(self.0.as_ref().map(|i| i.registry.gauge(path)))
    }

    /// Registers (or finds) the latency histogram at `path`.
    pub fn histogram(&self, path: &str) -> Histogram {
        Histogram(self.0.as_ref().map(|i| i.registry.histogram(path)))
    }

    /// Registers (or finds) the flight recorder of worker `label`.
    pub fn flight(&self, label: &str) -> Flight {
        Flight(self.0.as_ref().map(|i| {
            i.flights
                .lock()
                .unwrap()
                .entry(label.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(FlightRecorder::new(i.flight_capacity))))
                .clone()
        }))
    }

    /// A point-in-time snapshot of the registry (empty when disabled).
    pub fn snapshot(&self) -> RegistrySnapshot {
        self.0
            .as_ref()
            .map(|i| i.registry.snapshot())
            .unwrap_or_default()
    }

    /// Dumps every worker's flight ring, in label order (non-destructive).
    pub fn trace_dump(&self) -> TraceDump {
        let mut workers = Vec::new();
        if let Some(inner) = &self.0 {
            for (label, ring) in inner.flights.lock().unwrap().iter() {
                let (events, dropped) = ring.lock().unwrap().dump();
                workers.push(FlightDump {
                    worker: label.clone(),
                    dropped,
                    events,
                });
            }
        }
        TraceDump { workers }
    }

    /// Drains every worker's flight ring, in label order (rings cleared).
    pub fn trace_drain(&self) -> TraceDump {
        let mut workers = Vec::new();
        if let Some(inner) = &self.0 {
            for (label, ring) in inner.flights.lock().unwrap().iter() {
                let (events, dropped) = ring.lock().unwrap().drain();
                workers.push(FlightDump {
                    worker: label.clone(),
                    dropped,
                    events,
                });
            }
        }
        TraceDump { workers }
    }

    /// A guard that dumps the flight rings to stderr if the current scope
    /// unwinds — the drain-on-driver-panic path. Dropping normally is
    /// silent.
    pub fn panic_dump_guard(&self, context: &str) -> PanicDumpGuard {
        PanicDumpGuard {
            obs: self.clone(),
            context: context.to_string(),
        }
    }
}

/// See [`Observe::panic_dump_guard`].
pub struct PanicDumpGuard {
    obs: Observe,
    context: String,
}

impl Drop for PanicDumpGuard {
    fn drop(&mut self) {
        if std::thread::panicking() && self.obs.is_enabled() {
            eprintln!(
                "surge-observe: panic in {}; flight-recorder dump:\n{}",
                self.context,
                self.obs.trace_dump()
            );
        }
    }
}

/// A histogram's exported state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Headline percentiles.
    pub summary: LatencySummary,
    /// Sum of samples in nanoseconds.
    pub sum_ns: u128,
}

/// A point-in-time export of a [`MetricsRegistry`], sorted by path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// `(path, value)` counters.
    pub counters: Vec<(String, u64)>,
    /// `(path, value)` gauges.
    pub gauges: Vec<(String, i64)>,
    /// `(path, state)` histograms.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl RegistrySnapshot {
    /// The counter at `path`, if registered.
    pub fn counter(&self, path: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(p, _)| p == path)
            .map(|&(_, v)| v)
    }

    /// The gauge at `path`, if registered.
    pub fn gauge(&self, path: &str) -> Option<i64> {
        self.gauges.iter().find(|(p, _)| p == path).map(|&(_, v)| v)
    }

    /// The histogram at `path`, if registered.
    pub fn histogram(&self, path: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, h)| h)
    }

    /// Sum of every counter whose path satisfies `pred` (the conservation
    /// checks sum label families, e.g. every `elastic/shard=*/sweeps`).
    pub fn sum_counters(&self, mut pred: impl FnMut(&str) -> bool) -> u64 {
        self.counters
            .iter()
            .filter(|(p, _)| pred(p))
            .map(|&(_, v)| v)
            .sum()
    }

    /// The registry as a JSON document (hand-rolled — the workspace is
    /// offline and serde-free).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"surge-observe-registry-v1\",\n  \"counters\": {");
        for (i, (path, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape_json(path), v));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (path, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{}\": {}", escape_json(path), v));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (path, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = &h.summary;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"mean_us\": {:.3}, \
                 \"p50_us\": {:.3}, \"p95_us\": {:.3}, \"p99_us\": {:.3}, \"max_us\": {:.3}}}",
                escape_json(path),
                s.count,
                h.sum_ns,
                s.mean_us,
                s.p50_us,
                s.p95_us,
                s.p99_us,
                s.max_us
            ));
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// The registry as Prometheus-style exposition text. Path segments of
    /// the form `k=v` become labels; the remaining segments, joined by
    /// `_`, become the metric name (prefixed `surge_`). Histograms export
    /// as summaries (`quantile` series plus `_count` and `_sum`).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (path, v) in &self.counters {
            let (name, labels) = prom_name(path);
            out.push_str(&format!("# TYPE {name} counter\n{name}{labels} {v}\n"));
        }
        for (path, v) in &self.gauges {
            let (name, labels) = prom_name(path);
            out.push_str(&format!("# TYPE {name} gauge\n{name}{labels} {v}\n"));
        }
        for (path, h) in &self.histograms {
            let (name, labels) = prom_name(path);
            let inner = labels
                .strip_prefix('{')
                .and_then(|l| l.strip_suffix('}'))
                .unwrap_or("");
            let with_q = |q: &str| {
                if inner.is_empty() {
                    format!("{{quantile=\"{q}\"}}")
                } else {
                    format!("{{{inner},quantile=\"{q}\"}}")
                }
            };
            out.push_str(&format!("# TYPE {name} summary\n"));
            let s = &h.summary;
            for (q, us) in [("0.5", s.p50_us), ("0.95", s.p95_us), ("0.99", s.p99_us)] {
                out.push_str(&format!("{name}{} {:.0}\n", with_q(q), us * 1e3));
            }
            out.push_str(&format!("{name}_count{labels} {}\n", s.count));
            out.push_str(&format!("{name}_sum{labels} {}\n", h.sum_ns));
        }
        out
    }
}

fn escape_json(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Splits a slash path into a Prometheus metric name and a label block.
fn prom_name(path: &str) -> (String, String) {
    let mut name_parts: Vec<String> = vec!["surge".to_string()];
    let mut labels: Vec<String> = Vec::new();
    for seg in path.split('/') {
        if let Some((k, v)) = seg.split_once('=') {
            labels.push(format!("{}=\"{}\"", sanitize(k), v.replace('"', "")));
        } else {
            name_parts.push(sanitize(seg));
        }
    }
    let labels = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", labels.join(","))
    };
    (name_parts.join("_"), labels)
}

fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_noops() {
        let obs = Observe::off();
        let c = obs.counter("a/b");
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = obs.gauge("a/g");
        g.set(7);
        assert_eq!(g.get(), 0);
        let h = obs.histogram("a/h");
        h.record_ns(100);
        assert_eq!(h.count(), 0);
        let f = obs.flight("w");
        assert!(!f.is_enabled());
        f.record(TraceEvent::FlushStart { seq: 0 });
        assert!(obs.snapshot().counters.is_empty());
        assert!(obs.trace_dump().is_empty());
    }

    #[test]
    fn counters_aggregate_across_clones_and_lookups() {
        let obs = Observe::enabled();
        let a = obs.counter("driver/shard=0/sweeps");
        let b = obs.counter("driver/shard=0/sweeps");
        a.add(3);
        b.add(4);
        a.clone().inc();
        assert_eq!(obs.snapshot().counter("driver/shard=0/sweeps"), Some(8));
    }

    #[test]
    fn sum_counters_covers_label_families() {
        let obs = Observe::enabled();
        obs.counter("d/shard=0/sweeps").add(2);
        obs.counter("d/shard=1/sweeps").add(3);
        obs.counter("d/shard=1/touches").add(100);
        let snap = obs.snapshot();
        let total = snap.sum_counters(|p| p.starts_with("d/shard=") && p.ends_with("/sweeps"));
        assert_eq!(total, 5);
    }

    #[test]
    fn histograms_merge_worker_locals() {
        let obs = Observe::enabled();
        let h = obs.histogram("checkpoint/stall_ns");
        let mut local = LatencyHistogram::new();
        local.record_ns(1_000);
        local.record_ns(2_000);
        h.merge(&local);
        h.record_ns(3_000);
        let snap = obs.snapshot();
        let hs = snap.histogram("checkpoint/stall_ns").unwrap();
        assert_eq!(hs.summary.count, 3);
        assert_eq!(hs.sum_ns, 6_000);
    }

    #[test]
    fn gauges_set_and_adjust() {
        let obs = Observe::enabled();
        let g = obs.gauge("serve/subscriptions");
        g.set(3);
        g.add(2);
        g.add(-1);
        assert_eq!(obs.snapshot().gauge("serve/subscriptions"), Some(4));
    }

    #[test]
    fn trace_dump_orders_workers_by_label() {
        let obs = Observe::enabled();
        obs.flight("shard=1")
            .record(TraceEvent::FlushStart { seq: 1 });
        obs.flight("shard=0")
            .record(TraceEvent::FlushStart { seq: 0 });
        obs.flight("driver")
            .record(TraceEvent::WalRotation { segment: 2 });
        let dump = obs.trace_dump();
        let labels: Vec<&str> = dump.workers.iter().map(|w| w.worker.as_str()).collect();
        assert_eq!(labels, vec!["driver", "shard=0", "shard=1"]);
        assert_eq!(dump.len(), 3);
        // Drain clears but keeps registrations.
        let drained = obs.trace_drain();
        assert_eq!(drained.len(), 3);
        assert!(obs.trace_dump().is_empty());
    }

    #[test]
    fn json_export_is_wellformed_and_complete() {
        let obs = Observe::enabled();
        obs.counter("runtime/objects").add(10);
        obs.gauge("serve/lanes").set(2);
        obs.histogram("runtime/flush_ns").record_ns(5_000);
        let json = obs.snapshot().to_json();
        assert!(json.contains("\"surge-observe-registry-v1\""));
        assert!(json.contains("\"runtime/objects\": 10"));
        assert!(json.contains("\"serve/lanes\": 2"));
        assert!(json.contains("\"runtime/flush_ns\""));
        // Balanced braces/quotes.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('"').count() % 2, 0, "unbalanced quotes");
    }

    #[test]
    fn prometheus_export_turns_segments_into_labels() {
        let obs = Observe::enabled();
        obs.counter("driver/shard=3/sweeps").add(42);
        obs.histogram("checkpoint/stall_ns").record_ns(10_000);
        let text = obs.snapshot().to_prometheus();
        assert!(
            text.contains("surge_driver_sweeps{shard=\"3\"} 42"),
            "{text}"
        );
        assert!(text.contains("# TYPE surge_driver_sweeps counter"));
        assert!(text.contains("surge_checkpoint_stall_ns{quantile=\"0.5\"}"));
        assert!(text.contains("surge_checkpoint_stall_ns_count 1"));
        assert!(text.contains("surge_checkpoint_stall_ns_sum 10000"));
    }

    #[test]
    fn flight_capacity_is_configurable() {
        let obs = Observe::with_flight_capacity(2);
        let f = obs.flight("w");
        for seq in 0..5 {
            f.record(TraceEvent::FlushStart { seq });
        }
        let dump = obs.trace_dump();
        assert_eq!(dump.workers[0].events.len(), 2);
        assert_eq!(dump.workers[0].dropped, 3);
    }

    #[test]
    fn panic_guard_is_silent_on_normal_drop() {
        let obs = Observe::enabled();
        let guard = obs.panic_dump_guard("test");
        drop(guard);
    }
}
