//! The metrics registry: named counters and log2-bucketed histograms with
//! byte-stable JSON snapshots.
//!
//! Registration returns a dense integer id; the hot path increments through
//! the id (one bounds-checked vector add), never through the name, so a
//! counter in the taint engine's per-byte copy loop costs the same as the
//! plain field it replaced. [`MetricsRegistry::snapshot`] produces a
//! [`MetricsSnapshot`] sorted by name — deterministic regardless of
//! registration order — which serializes via `faros_support::json` and can
//! be merged across registries (taint engine + trace recorder + plugin
//! manager) into the one report section.

use crate::fasthash::FastMap;
use faros_support::json::{self, FromJson, JsonError, JsonValue, ToJson};
use std::borrow::Cow;

/// Dense handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Dense handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

const BUCKETS: usize = 65; // bucket 0 = zero samples, bucket k covers [2^(k-1), 2^k)

#[derive(Debug, Clone, PartialEq, Eq)]
struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram { count: 0, sum: 0, min: u64::MAX, max: 0, buckets: vec![0; BUCKETS] }
    }

    fn observe(&mut self, sample: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
        let bucket = if sample == 0 { 0 } else { 64 - sample.leading_zeros() as usize };
        self.buckets[bucket] += 1;
    }
}

/// A registry of named counters and histograms.
///
/// # Examples
///
/// ```
/// use faros_obs::metrics::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// let copies = m.counter("taint.copies");
/// m.add(copies, 3);
/// m.inc(copies);
/// assert_eq!(m.get(copies), 4);
/// assert_eq!(m.snapshot().counter("taint.copies"), Some(4));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counter_vals: Vec<u64>,
    /// Name -> dense id; the single copy of each counter name.
    counter_index: FastMap<Cow<'static, str>, usize>,
    hists: Vec<Histogram>,
    /// Name -> dense id; the single copy of each histogram name.
    hist_index: FastMap<Cow<'static, str>, usize>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Creates an empty registry with room for `counters` counters.
    pub fn with_capacity(counters: usize) -> MetricsRegistry {
        MetricsRegistry {
            counter_vals: Vec::with_capacity(counters),
            counter_index: FastMap::with_capacity_and_hasher(counters, Default::default()),
            ..MetricsRegistry::default()
        }
    }

    /// Registers (or looks up) a counter by name. A `&'static str` name is
    /// kept by reference, so registering a component's fixed counters
    /// copies no names.
    pub fn counter(&mut self, name: impl Into<Cow<'static, str>>) -> CounterId {
        let name = name.into();
        if let Some(&i) = self.counter_index.get(name.as_ref()) {
            return CounterId(i);
        }
        let i = self.counter_vals.len();
        self.counter_vals.push(0);
        self.counter_index.insert(name, i);
        CounterId(i)
    }

    /// Adds 1 to a counter (the hot-path operation).
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counter_vals[id.0] += 1;
    }

    /// Adds `by` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, by: u64) {
        self.counter_vals[id.0] += by;
    }

    /// Overwrites a counter — gauge semantics, for sizes sampled at
    /// snapshot time (interner lists, tainted shadow bytes).
    #[inline]
    pub fn set(&mut self, id: CounterId, value: u64) {
        self.counter_vals[id.0] = value;
    }

    /// Reads a counter by id.
    pub fn get(&self, id: CounterId) -> u64 {
        self.counter_vals[id.0]
    }

    /// Reads a counter by name.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.counter_index.get(name).map(|&i| self.counter_vals[i])
    }

    /// Registers (or looks up) a histogram by name.
    pub fn histogram(&mut self, name: impl Into<Cow<'static, str>>) -> HistogramId {
        let name = name.into();
        if let Some(&i) = self.hist_index.get(name.as_ref()) {
            return HistogramId(i);
        }
        let i = self.hists.len();
        self.hists.push(Histogram::new());
        self.hist_index.insert(name, i);
        HistogramId(i)
    }

    /// Records one sample into a histogram.
    pub fn observe(&mut self, id: HistogramId, sample: u64) {
        self.hists[id.0].observe(sample);
    }

    /// Returns `true` if nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counter_vals.is_empty() && self.hists.is_empty()
    }

    /// Captures a name-sorted, serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counter_index
            .iter()
            .map(|(name, &i)| (name.to_string(), self.counter_vals[i]))
            .collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<HistogramSnapshot> = self
            .hist_index
            .iter()
            .map(|(name, &i)| (name, &self.hists[i]))
            .map(|(name, h)| HistogramSnapshot {
                name: name.to_string(),
                count: h.count,
                sum: h.sum,
                min: if h.count == 0 { 0 } else { h.min },
                max: h.max,
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c != 0)
                    .map(|(i, &c)| (i as u32, c))
                    .collect(),
            })
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        MetricsSnapshot { counters, histograms }
    }
}

/// A registered hit/miss counter pair for a fast-path optimization (e.g.
/// the taint engine's zero-taint shadow fast path): `<prefix>.hits` counts
/// operations the fast path proved to be no-ops and skipped,
/// `<prefix>.misses` counts operations that took the slow path.
///
/// # Examples
///
/// ```
/// use faros_obs::metrics::{FastPath, MetricsRegistry};
///
/// let mut m = MetricsRegistry::new();
/// let fp = FastPath::register(&mut m, "taint.fastpath");
/// fp.hit(&mut m);
/// fp.miss(&mut m);
/// let snap = m.snapshot();
/// assert_eq!(snap.counter("taint.fastpath.hits"), Some(1));
/// assert_eq!(snap.counter("taint.fastpath.misses"), Some(1));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FastPath {
    hits: CounterId,
    misses: CounterId,
}

impl FastPath {
    /// Registers `<prefix>.hits` and `<prefix>.misses` in `m`.
    pub fn register(m: &mut MetricsRegistry, prefix: &str) -> FastPath {
        FastPath {
            hits: m.counter(format!("{prefix}.hits")),
            misses: m.counter(format!("{prefix}.misses")),
        }
    }

    /// Counts a fast-path hit (the operation was skipped).
    #[inline]
    pub fn hit(&self, m: &mut MetricsRegistry) {
        m.inc(self.hits);
    }

    /// Counts a fast-path miss (the slow path ran).
    #[inline]
    pub fn miss(&self, m: &mut MetricsRegistry) {
        m.inc(self.misses);
    }

    /// Counts `n` fast-path hits at once (a range operation that decided
    /// `n` bytes).
    #[inline]
    pub fn hit_n(&self, m: &mut MetricsRegistry, n: u64) {
        m.add(self.hits, n);
    }

    /// Counts `n` fast-path misses at once.
    #[inline]
    pub fn miss_n(&self, m: &mut MetricsRegistry, n: u64) {
        m.add(self.misses, n);
    }

    /// Reads `(hits, misses)`.
    pub fn read(&self, m: &MetricsRegistry) -> (u64, u64) {
        (m.get(self.hits), m.get(self.misses))
    }
}

/// Serializable state of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty log2 buckets as `(bucket, count)`: bucket 0 holds zero
    /// samples, bucket k holds samples in `[2^(k-1), 2^k)`.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Approximate `q`-quantile (`q` in `[0, 1]`) reconstructed from the
    /// log2 buckets: walks the sparse bucket list to the sample of rank
    /// `ceil(q * count)` and returns that bucket's upper edge, clamped to
    /// the exact `[min, max]` range. The estimate is deterministic, merge
    /// order-independent, and exact whenever the target bucket holds a
    /// single distinct value (in particular for 0- and 1-sample
    /// histograms). Returns 0 on an empty histogram.
    pub fn approx_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(bucket, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                // Bucket 0 holds only zero samples; bucket k covers
                // [2^(k-1), 2^k), so its inclusive upper edge is 2^k - 1
                // (saturating for bucket 64).
                let edge = if bucket == 0 {
                    0
                } else if bucket >= 64 {
                    u64::MAX
                } else {
                    (1u64 << bucket) - 1
                };
                return edge.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Approximate median — see [`HistogramSnapshot::approx_quantile`].
    pub fn approx_p50(&self) -> u64 {
        self.approx_quantile(0.50)
    }

    /// Approximate 95th percentile — see
    /// [`HistogramSnapshot::approx_quantile`].
    pub fn approx_p95(&self) -> u64 {
        self.approx_quantile(0.95)
    }
}

/// A name-sorted, mergeable, serializable capture of one or more
/// registries. This is the optional `metrics` section of `FarosReport`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Returns `true` if the snapshot carries nothing.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.counters[i].1)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .binary_search_by(|h| h.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i])
    }

    /// Merges another snapshot in: same-name counters are summed, same-name
    /// histograms combined, and the result re-sorted.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => self.counters[i].1 += v,
                Err(i) => self.counters.insert(i, (name.clone(), *v)),
            }
        }
        for h in &other.histograms {
            match self.histograms.binary_search_by(|s| s.name.cmp(&h.name)) {
                Ok(i) => {
                    let mine = &mut self.histograms[i];
                    let was_empty = mine.count == 0;
                    mine.count += h.count;
                    mine.sum = mine.sum.saturating_add(h.sum);
                    if h.count > 0 {
                        mine.min = if was_empty { h.min } else { mine.min.min(h.min) };
                        mine.max = mine.max.max(h.max);
                    }
                    for &(bucket, c) in &h.buckets {
                        match mine.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
                            Ok(j) => mine.buckets[j].1 += c,
                            Err(j) => mine.buckets.insert(j, (bucket, c)),
                        }
                    }
                }
                Err(i) => self.histograms.insert(i, h.clone()),
            }
        }
    }
}

impl ToJson for HistogramSnapshot {
    fn to_json_value(&self) -> JsonValue {
        JsonValue::object(vec![
            ("name", self.name.to_json_value()),
            ("count", self.count.to_json_value()),
            ("sum", self.sum.to_json_value()),
            ("min", self.min.to_json_value()),
            ("max", self.max.to_json_value()),
            (
                "buckets",
                JsonValue::Array(
                    self.buckets
                        .iter()
                        .map(|&(b, c)| {
                            JsonValue::Array(vec![b.to_json_value(), c.to_json_value()])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl FromJson for HistogramSnapshot {
    fn from_json_value(v: &JsonValue) -> Result<HistogramSnapshot, JsonError> {
        let raw: Vec<Vec<u64>> = json::field(v, "buckets")?;
        let mut buckets = Vec::with_capacity(raw.len());
        for pair in raw {
            if pair.len() != 2 {
                return Err(JsonError::decode("histogram bucket must be a [bucket, count] pair"));
            }
            buckets.push((pair[0] as u32, pair[1]));
        }
        Ok(HistogramSnapshot {
            name: json::field(v, "name")?,
            count: json::field(v, "count")?,
            sum: json::field(v, "sum")?,
            min: json::field(v, "min")?,
            max: json::field(v, "max")?,
            buckets,
        })
    }
}

impl ToJson for MetricsSnapshot {
    fn to_json_value(&self) -> JsonValue {
        let counters = JsonValue::object(
            self.counters
                .iter()
                .map(|(n, v)| (n.clone(), v.to_json_value()))
                .collect(),
        );
        let mut fields = vec![("counters", counters)];
        if !self.histograms.is_empty() {
            fields.push(("histograms", self.histograms.to_json_value()));
        }
        JsonValue::object(fields)
    }
}

impl FromJson for MetricsSnapshot {
    fn from_json_value(v: &JsonValue) -> Result<MetricsSnapshot, JsonError> {
        let mut counters = Vec::new();
        match v.field("counters")? {
            JsonValue::Object(fields) => {
                for (name, val) in fields {
                    counters.push((name.clone(), u64::from_json_value(val)?));
                }
            }
            _ => return Err(JsonError::decode("`counters` must be an object")),
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(MetricsSnapshot {
            counters,
            // Absent when the snapshot held no histograms.
            histograms: json::field_or_default(v, "histograms")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_idempotently() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        assert_eq!(a, b);
        m.inc(a);
        m.add(b, 2);
        assert_eq!(m.get(a), 3);
        assert_eq!(m.value("x"), Some(3));
        assert_eq!(m.value("y"), None);
        m.set(a, 7);
        assert_eq!(m.get(a), 7);
    }

    #[test]
    fn snapshot_is_name_sorted_regardless_of_registration_order() {
        let mut m = MetricsRegistry::new();
        let z = m.counter("z.last");
        let a = m.counter("a.first");
        m.inc(z);
        m.add(a, 5);
        let snap = m.snapshot();
        assert_eq!(snap.counters[0].0, "a.first");
        assert_eq!(snap.counters[1].0, "z.last");
        assert_eq!(snap.counter("z.last"), Some(1));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("bytes");
        for s in [0u64, 1, 1, 2, 3, 4, 1024] {
            m.observe(h, s);
        }
        let snap = m.snapshot();
        let hs = &snap.histograms[0];
        assert_eq!(hs.count, 7);
        assert_eq!(hs.sum, 1035);
        assert_eq!((hs.min, hs.max), (0, 1024));
        // 0 -> bucket 0; 1,1 -> bucket 1; 2,3 -> bucket 2; 4 -> bucket 3;
        // 1024 -> bucket 11.
        assert_eq!(hs.buckets, vec![(0, 1), (1, 2), (2, 2), (3, 1), (11, 1)]);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("taint.copies");
        m.add(c, 42);
        let h = m.histogram("dispatch.batch");
        m.observe(h, 3);
        m.observe(h, 900);
        let snap = m.snapshot();
        let json = snap.to_json_value().to_pretty();
        let back = MetricsSnapshot::from_json_value(&JsonValue::parse(&json).unwrap()).unwrap();
        assert_eq!(back, snap);
        // Byte-stable: re-rendering the parsed form reproduces the text.
        assert_eq!(back.to_json_value().to_pretty(), json);
    }

    #[test]
    fn approx_quantiles_walk_the_log2_buckets() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("lat");
        // 10 samples: 0, 1, 2, 3, 4, 5, 6, 7, 100, 1000.
        for s in [0u64, 1, 2, 3, 4, 5, 6, 7, 100, 1000] {
            m.observe(h, s);
        }
        let snap = m.snapshot();
        let hs = snap.histogram("lat").unwrap();
        // Rank 5 (p50) lands in bucket 3 ([4, 8)) -> upper edge 7.
        assert_eq!(hs.approx_p50(), 7);
        // Rank 10 (p95: ceil(9.5)) is the last sample -> bucket 10, edge
        // 1023, clamped to max = 1000.
        assert_eq!(hs.approx_p95(), 1000);
        assert_eq!(hs.approx_quantile(0.0), 0);
        assert_eq!(hs.approx_quantile(1.0), 1000);
        assert_eq!(HistogramSnapshot::default().approx_p50(), 0);
    }

    #[test]
    fn approx_quantile_is_exact_for_single_sample_and_clamped_to_range() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("one");
        m.observe(h, 300);
        let snap = m.snapshot();
        let hs = snap.histogram("one").unwrap();
        // Bucket edge would be 511; min == max == 300 clamps it exact.
        assert_eq!(hs.approx_p50(), 300);
        assert_eq!(hs.approx_p95(), 300);
    }

    #[test]
    fn approx_quantile_is_merge_order_independent() {
        let mut a = MetricsRegistry::new();
        let ha = a.histogram("h");
        for s in [1u64, 2, 3] {
            a.observe(ha, s);
        }
        let mut b = MetricsRegistry::new();
        let hb = b.histogram("h");
        for s in [400u64, 500, 600] {
            b.observe(hb, s);
        }
        let mut ab = a.snapshot();
        ab.merge(&b.snapshot());
        let mut ba = b.snapshot();
        ba.merge(&a.snapshot());
        assert_eq!(ab, ba);
        assert_eq!(
            ab.histogram("h").unwrap().approx_p95(),
            ba.histogram("h").unwrap().approx_p95()
        );
    }

    #[test]
    fn merge_sums_counters_and_combines_histograms() {
        let mut a = MetricsRegistry::new();
        let shared_a = a.counter("shared");
        let only_a = a.counter("only_a");
        a.add(shared_a, 1);
        a.add(only_a, 2);
        let ha = a.histogram("h");
        a.observe(ha, 4);
        let mut b = MetricsRegistry::new();
        let shared_b = b.counter("shared");
        let only_b = b.counter("only_b");
        b.add(shared_b, 10);
        b.add(only_b, 20);
        let hb = b.histogram("h");
        b.observe(hb, 1);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("shared"), Some(11));
        assert_eq!(merged.counter("only_a"), Some(2));
        assert_eq!(merged.counter("only_b"), Some(20));
        let h = &merged.histograms[0];
        assert_eq!(h.count, 2);
        assert_eq!((h.min, h.max), (1, 4));
    }
}
