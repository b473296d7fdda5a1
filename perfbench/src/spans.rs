//! In-memory span recorder for the traced run.
//!
//! The benchmark's own code brackets each call into a crate's public
//! API with [`Recorder::begin`] / [`Recorder::end`]. Spans stay in
//! memory until the run ends; then they are written as a Chrome trace
//! (the `traceEvents` form `lumos_trace::from_chrome_json` — and so
//! `lumos critical-path` / `lumos sm-util` — reads), read back, and the
//! per-layer metrics are derived from the parsed file. A disabled
//! recorder does nothing but a branch per call.

use lumos_trace::{
    from_chrome_json, to_chrome_json, ChromeTraceOptions, ClusterTrace, Dur, EventKind, RankTrace,
    ThreadId, TraceEvent, Ts,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Host "thread" of set-up spans in the exported trace.
pub const SETUP_TID: u32 = 1;
/// Host "thread" of timed-op spans and of the per-op work that
/// explains them.
pub const OP_TID: u32 = 2;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.simulate`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// [`SETUP_TID`] or [`OP_TID`].
    pub tid: u32,
}

/// The span and counter store of one run.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, f64>,
}

impl Recorder {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Recorder {
            on,
            epoch,
            tid: SETUP_TID,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (the traced run alternates a plain
    /// and a traced execution of each op).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Attributes later spans to set-up ([`SETUP_TID`]) or to ops
    /// ([`OP_TID`]).
    pub fn set_tid(&mut self, tid: u32) {
        self.tid = tid;
    }

    /// Opens a span: pass the result to [`Recorder::end`].
    pub fn begin(&self) -> Option<Instant> {
        self.on.then(Instant::now)
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, name: &'static str, start: Option<Instant>) {
        if let Some(start) = start {
            let end = Instant::now();
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                dur_ns: (end - start).as_nanos() as u64,
                tid: self.tid,
            });
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin();
        let out = f();
        self.end(name, s);
        out
    }

    /// Adds `v` to the counter `name` (per-layer counts are reported
    /// as their sum over traced ops divided by the op count).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_insert(0.0) += v;
        }
    }

    /// The recorded counters.
    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Writes `spans` to `path` as a Chrome trace (one rank, set-up and
/// ops on separate host threads).
///
/// # Errors
///
/// Returns the I/O error message.
pub fn write_chrome(spans: &[Span], label: &str, path: &Path) -> Result<(), String> {
    let mut rank = RankTrace::new(0);
    for s in spans {
        rank.push(TraceEvent::cpu_op(
            s.name,
            Ts(s.start_ns),
            Dur(s.dur_ns),
            ThreadId(s.tid),
        ));
    }
    rank.sort();
    let mut trace = ClusterTrace::new(label);
    trace.push_rank(rank);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, to_chrome_json(&trace, &ChromeTraceOptions::default()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Total milliseconds per span name and thread, read back from a
/// Chrome trace written by [`write_chrome`].
///
/// # Errors
///
/// Returns read and parse failures.
pub fn read_totals(path: &Path) -> Result<BTreeMap<(String, u32), f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let trace = from_chrome_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut totals = BTreeMap::new();
    for rank in trace.ranks() {
        for e in rank.events() {
            if let EventKind::CpuOp { tid } = e.kind {
                *totals.entry((e.name.to_string(), tid.0)).or_insert(0.0) += e.dur.as_ms_f64();
            }
        }
    }
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_round_trip_keeps_totals() {
        let epoch = Instant::now();
        let mut rec = Recorder::new(true, epoch);
        rec.time("calib.calibrate", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.set_tid(OP_TID);
        rec.time("core.simulate", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        rec.time("core.simulate", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        let dir = std::env::temp_dir().join(format!("perfbench-spans-{}", std::process::id()));
        let path = dir.join("t.json");
        write_chrome(rec.spans(), "t", &path).unwrap();
        let totals = read_totals(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let want: f64 = rec
            .spans()
            .iter()
            .filter(|s| s.name == "core.simulate")
            .map(|s| s.dur_ns as f64 / 1e6)
            .sum();
        let got = totals[&("core.simulate".to_string(), OP_TID)];
        assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        assert!(totals[&("calib.calibrate".to_string(), SETUP_TID)] >= 2.0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now());
        rec.time("x", || ());
        rec.count("n", 1.0);
        assert!(rec.spans().is_empty() && rec.counts().is_empty());
    }
}
