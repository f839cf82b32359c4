//! Structured trace events and the bounded flight-recorder ring buffer.
//!
//! Events are plain data: a virtual-clock timestamp, a `(pid, tid)`
//! attribution, a phase (span begin/end, instant, or track metadata), a
//! category, a name, and string key/value arguments. The
//! [`FlightRecorder`] keeps the most recent `capacity` events and counts
//! what it evicted, so a crashed or runaway replay still leaves the analyst
//! the tail of the story — the flight-recorder model.

use crate::chrome;
use faros_support::json::{self, FromJson, JsonError, JsonValue, ToJson};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

/// How an event renders on a track (the Chrome `ph` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// Opens a span on the event's `(pid, tid)` track (`ph: "B"`).
    Begin,
    /// Closes the innermost open span on the track (`ph: "E"`).
    End,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
    /// Track metadata, e.g. a process name (`ph: "M"`); not timestamped.
    Meta,
}

impl TracePhase {
    /// The Chrome `trace_event` phase letter.
    pub fn chrome_ph(self) -> &'static str {
        match self {
            TracePhase::Begin => "B",
            TracePhase::End => "E",
            TracePhase::Instant => "i",
            TracePhase::Meta => "M",
        }
    }

    /// Parses a Chrome phase letter back into a [`TracePhase`].
    ///
    /// # Errors
    ///
    /// Returns a decode error for any string that is not one of the four
    /// phase letters emitted by [`TracePhase::chrome_ph`].
    pub fn parse(s: &str) -> Result<TracePhase, JsonError> {
        match s {
            "B" => Ok(TracePhase::Begin),
            "E" => Ok(TracePhase::End),
            "i" => Ok(TracePhase::Instant),
            "M" => Ok(TracePhase::Meta),
            other => Err(JsonError::decode(format!("unknown trace phase `{other}`"))),
        }
    }
}

/// Event category (the Chrome `cat` field — the filterable track group).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceCategory {
    /// Syscall entry/exit spans.
    Syscall,
    /// Scheduler activity (context switches, idle boosts).
    Sched,
    /// Process and thread lifecycle.
    Process,
    /// Module loads.
    Module,
    /// Network DMA in/out of guest memory.
    Net,
    /// File bytes in/out of guest memory.
    File,
    /// Taint activity: label insertions, kernel-mediated copies, alerts.
    Taint,
    /// Sampled per-instruction markers (off by default — hot path).
    Insn,
    /// Plugin-framework events.
    Plugin,
    /// Static-analysis activity (dataflow engine counters).
    Analysis,
    /// Detonation-service lifecycle: job submit/start/finish, worker
    /// spawn/replacement, queue pressure.
    Service,
}

impl TraceCategory {
    /// The category name as emitted into the Chrome `cat` field.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceCategory::Syscall => "syscall",
            TraceCategory::Sched => "sched",
            TraceCategory::Process => "process",
            TraceCategory::Module => "module",
            TraceCategory::Net => "net",
            TraceCategory::File => "file",
            TraceCategory::Taint => "taint",
            TraceCategory::Insn => "insn",
            TraceCategory::Plugin => "plugin",
            TraceCategory::Analysis => "analysis",
            TraceCategory::Service => "service",
        }
    }

    /// Parses a category name back into a [`TraceCategory`].
    ///
    /// # Errors
    ///
    /// Returns a decode error for any string not produced by
    /// [`TraceCategory::as_str`].
    pub fn parse(s: &str) -> Result<TraceCategory, JsonError> {
        match s {
            "syscall" => Ok(TraceCategory::Syscall),
            "sched" => Ok(TraceCategory::Sched),
            "process" => Ok(TraceCategory::Process),
            "module" => Ok(TraceCategory::Module),
            "net" => Ok(TraceCategory::Net),
            "file" => Ok(TraceCategory::File),
            "taint" => Ok(TraceCategory::Taint),
            "insn" => Ok(TraceCategory::Insn),
            "plugin" => Ok(TraceCategory::Plugin),
            "analysis" => Ok(TraceCategory::Analysis),
            "service" => Ok(TraceCategory::Service),
            other => Err(JsonError::decode(format!("unknown trace category `{other}`"))),
        }
    }
}

/// One trace event. `ts` is the machine's virtual clock (instructions
/// retired plus idle boosts) — deterministic across replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual-clock timestamp.
    pub ts: u64,
    /// Attributed process id.
    pub pid: u32,
    /// Attributed thread id.
    pub tid: u32,
    /// Span begin/end, instant, or metadata.
    pub phase: TracePhase,
    /// Track category.
    pub cat: TraceCategory,
    /// Event name (e.g. the syscall service name).
    pub name: String,
    /// String key/value detail, in insertion order.
    pub args: Vec<(String, String)>,
}

impl TraceEvent {
    fn new(
        ts: u64,
        pid: u32,
        tid: u32,
        phase: TracePhase,
        cat: TraceCategory,
        name: impl Into<String>,
    ) -> TraceEvent {
        TraceEvent { ts, pid, tid, phase, cat, name: name.into(), args: Vec::new() }
    }

    /// A span-begin event.
    pub fn begin(ts: u64, pid: u32, tid: u32, cat: TraceCategory, name: impl Into<String>) -> TraceEvent {
        TraceEvent::new(ts, pid, tid, TracePhase::Begin, cat, name)
    }

    /// A span-end event.
    pub fn end(ts: u64, pid: u32, tid: u32, cat: TraceCategory, name: impl Into<String>) -> TraceEvent {
        TraceEvent::new(ts, pid, tid, TracePhase::End, cat, name)
    }

    /// An instant event.
    pub fn instant(ts: u64, pid: u32, tid: u32, cat: TraceCategory, name: impl Into<String>) -> TraceEvent {
        TraceEvent::new(ts, pid, tid, TracePhase::Instant, cat, name)
    }

    /// A `process_name` metadata event, so Perfetto labels the pid track.
    pub fn process_name(pid: u32, name: impl Into<String>) -> TraceEvent {
        TraceEvent::new(0, pid, 0, TracePhase::Meta, TraceCategory::Process, "process_name")
            .arg("name", name)
    }

    /// Appends one key/value argument (builder style).
    pub fn arg(mut self, key: impl Into<String>, value: impl Into<String>) -> TraceEvent {
        self.args.push((key.into(), value.into()));
        self
    }
}

/// One line per event: `[ts] category phase name key=value...` — the
/// format of every text view of a trace (the CLI's `trace` view and
/// `top`'s trace tail).
impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (cat, ph) = (self.cat.as_str(), self.phase.chrome_ph());
        write!(f, "[{:>10}] {cat:<8} {ph:<2} {}", self.ts, self.name)?;
        for (key, value) in &self.args {
            write!(f, " {key}={value}")?;
        }
        Ok(())
    }
}

impl ToJson for TraceEvent {
    fn to_json_value(&self) -> JsonValue {
        let mut fields = vec![
            ("ts", self.ts.to_json_value()),
            ("pid", self.pid.to_json_value()),
            ("tid", self.tid.to_json_value()),
            ("ph", self.phase.chrome_ph().to_json_value()),
            ("cat", self.cat.as_str().to_json_value()),
            ("name", self.name.to_json_value()),
        ];
        if !self.args.is_empty() {
            fields.push((
                "args",
                JsonValue::object(
                    self.args.iter().map(|(k, v)| (k.clone(), v.to_json_value())).collect(),
                ),
            ));
        }
        JsonValue::object(fields)
    }
}

impl FromJson for TraceEvent {
    fn from_json_value(v: &JsonValue) -> Result<TraceEvent, JsonError> {
        let ph: String = json::field(v, "ph")?;
        let cat: String = json::field(v, "cat")?;
        let mut args = Vec::new();
        if let Ok(raw) = v.field("args") {
            match raw {
                JsonValue::Object(fields) => {
                    for (k, val) in fields {
                        args.push((k.clone(), String::from_json_value(val)?));
                    }
                }
                _ => return Err(JsonError::decode("`args` must be an object")),
            }
        }
        Ok(TraceEvent {
            ts: json::field(v, "ts")?,
            pid: json::field(v, "pid")?,
            tid: json::field(v, "tid")?,
            phase: TracePhase::parse(&ph)?,
            cat: TraceCategory::parse(&cat)?,
            name: json::field(v, "name")?,
            args,
        })
    }
}

/// A bounded ring buffer of [`TraceEvent`]s.
///
/// `record` is O(1); once full, the oldest event is evicted and counted in
/// [`FlightRecorder::dropped`]. Event order is always preserved.
///
/// # Examples
///
/// ```
/// use faros_obs::trace::{FlightRecorder, TraceCategory, TraceEvent};
///
/// let mut rec = FlightRecorder::new(2);
/// for ts in 0..5 {
///     rec.record(TraceEvent::instant(ts, 1, 1, TraceCategory::Sched, "t"));
/// }
/// assert_eq!(rec.len(), 2);
/// assert_eq!(rec.dropped(), 3);
/// let ts: Vec<u64> = rec.events().map(|e| e.ts).collect();
/// assert_eq!(ts, vec![3, 4], "oldest evicted first");
/// ```
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cap: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

impl FlightRecorder {
    /// Default ring capacity — enough for every kernel-level event of the
    /// corpus scenarios without per-instruction sampling.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a recorder keeping at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder { cap: capacity.max(1), buf: VecDeque::new(), dropped: 0 }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the held events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Clones the most recent `n` events, oldest first — the live
    /// telemetry tail served over the service protocol.
    pub fn tail(&self, n: usize) -> Vec<TraceEvent> {
        let skip = self.buf.len().saturating_sub(n);
        self.buf.iter().skip(skip).cloned().collect()
    }

    /// Renders the held events as pretty-printed Chrome `trace_event` JSON.
    pub fn to_chrome_json(&self) -> String {
        chrome::chrome_trace_pretty(self.events())
    }

    /// Discards all held events (the drop counter is kept).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

/// A cheaply-cloneable shared handle to one [`FlightRecorder`], so several
/// plugins of the same (single-threaded) replay append into one buffer —
/// e.g. the replay trace recorder and the FAROS detector emitting
/// taint-alert instants interleaved in machine order.
#[derive(Debug, Clone)]
pub struct RecorderHandle(Rc<RefCell<FlightRecorder>>);

impl RecorderHandle {
    /// Creates a fresh recorder with the given ring capacity.
    pub fn new(capacity: usize) -> RecorderHandle {
        RecorderHandle(Rc::new(RefCell::new(FlightRecorder::new(capacity))))
    }

    /// Appends an event.
    pub fn record(&self, ev: TraceEvent) {
        self.0.borrow_mut().record(ev);
    }

    /// Events currently held.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Returns `true` if no events are held.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// Events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.0.borrow().dropped()
    }

    /// Runs `f` with shared access to the underlying recorder.
    pub fn with<R>(&self, f: impl FnOnce(&FlightRecorder) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Renders the held events as pretty-printed Chrome `trace_event` JSON.
    pub fn export_chrome(&self) -> String {
        self.0.borrow().to_chrome_json()
    }
}

impl Default for RecorderHandle {
    fn default() -> RecorderHandle {
        RecorderHandle::new(FlightRecorder::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let mut rec = FlightRecorder::new(3);
        for ts in 0..10 {
            rec.record(TraceEvent::instant(ts, 1, 1, TraceCategory::Sched, "e"));
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.capacity(), 3);
        assert_eq!(rec.dropped(), 7);
        let ts: Vec<u64> = rec.events().map(|e| e.ts).collect();
        assert_eq!(ts, vec![7, 8, 9]);
    }

    #[test]
    fn events_display_as_one_line_with_their_args() {
        let ev = TraceEvent::instant(42, 2, 0, TraceCategory::Net, "net_rx")
            .arg("flow", "a -> b")
            .arg("bytes", "252");
        assert_eq!(ev.to_string(), "[        42] net      i  net_rx flow=a -> b bytes=252");
        let bare = TraceEvent::begin(7, 1, 1, TraceCategory::Syscall, "NtClose");
        assert_eq!(bare.to_string(), "[         7] syscall  B  NtClose");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut rec = FlightRecorder::new(0);
        rec.record(TraceEvent::instant(1, 1, 1, TraceCategory::Sched, "e"));
        assert_eq!(rec.len(), 1);
        assert_eq!(rec.capacity(), 1);
    }

    #[test]
    fn handle_shares_one_buffer() {
        let a = RecorderHandle::new(8);
        let b = a.clone();
        a.record(TraceEvent::begin(1, 1, 1, TraceCategory::Syscall, "NtReadFile"));
        b.record(TraceEvent::end(2, 1, 1, TraceCategory::Syscall, "NtReadFile"));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        let names: Vec<String> = a.with(|r| r.events().map(|e| e.name.clone()).collect());
        assert_eq!(names, vec!["NtReadFile", "NtReadFile"]);
    }

    #[test]
    fn tail_returns_most_recent_events_oldest_first() {
        let mut rec = FlightRecorder::new(8);
        for ts in 0..5 {
            rec.record(TraceEvent::instant(ts, 1, 1, TraceCategory::Service, "e"));
        }
        let ts: Vec<u64> = rec.tail(2).iter().map(|e| e.ts).collect();
        assert_eq!(ts, vec![3, 4]);
        assert_eq!(rec.tail(100).len(), 5);
        assert!(rec.tail(0).is_empty());
    }

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            TraceEvent::begin(10, 2, 3, TraceCategory::Syscall, "NtWriteFile")
                .arg("bytes", "512"),
            TraceEvent::end(20, 2, 3, TraceCategory::Syscall, "NtWriteFile"),
            TraceEvent::instant(30, 1, 0, TraceCategory::Service, "submit-rejected"),
            TraceEvent::process_name(7, "svchost.exe"),
        ];
        for ev in &events {
            let json = ev.to_json_value().to_pretty();
            let back = TraceEvent::from_json_value(&JsonValue::parse(&json).unwrap()).unwrap();
            assert_eq!(&back, ev);
            assert_eq!(back.to_json_value().to_pretty(), json);
        }
    }

    #[test]
    fn unknown_phase_and_category_are_decode_errors() {
        let mut ev = TraceEvent::instant(1, 1, 1, TraceCategory::Sched, "e").to_json_value();
        if let JsonValue::Object(fields) = &mut ev {
            for (k, v) in fields.iter_mut() {
                if k == "ph" {
                    *v = JsonValue::Str("Z".to_string());
                }
            }
        }
        assert!(TraceEvent::from_json_value(&ev).is_err());
        let mut ev = TraceEvent::instant(1, 1, 1, TraceCategory::Sched, "e").to_json_value();
        if let JsonValue::Object(fields) = &mut ev {
            for (k, v) in fields.iter_mut() {
                if k == "cat" {
                    *v = JsonValue::Str("nope".to_string());
                }
            }
        }
        assert!(TraceEvent::from_json_value(&ev).is_err());
    }

    #[test]
    fn builder_args_keep_insertion_order() {
        let ev = TraceEvent::instant(5, 2, 3, TraceCategory::Taint, "alert")
            .arg("kind", "export-table-read")
            .arg("process", "notepad.exe");
        assert_eq!(ev.args[0].0, "kind");
        assert_eq!(ev.args[1].1, "notepad.exe");
    }
}
