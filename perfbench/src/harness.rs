//! The closed loop shared by every workload: repeated set-up, whole
//! rounds of timed ops, checks, and the metrics of one run.

use crate::spans::{self, Recorder, OP_TID, SETUP_TID};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (see [`crate::WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every input and ground-truth seed derives from it.
    pub seed: u64,
    /// Seconds of timed ops to measure (the nearest whole number of
    /// rounds; at least one).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Reduced inputs and a single set-up, for the benchmark's tests.
    pub small: bool,
    /// Where the traced run writes its Chrome trace of spans.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Failed checks, for the log.
    pub failures: Vec<String>,
    /// The truth gaps (percent) of the distinct checked estimates.
    pub gaps: Vec<f64>,
    /// Per-op averages of the recorded counters (traced run).
    pub counts: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// The last line the benchmark prints.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Check results and truth gaps collected while a run goes.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
    gaps: Vec<f64>,
}

impl Checks {
    /// Records a failed check unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Records a failed check from an error.
    pub fn fail(&mut self, what: String) {
        self.expect(false, || what);
    }

    /// Records one truth gap (percent).
    pub fn gap(&mut self, pct: f64) {
        self.gaps.push(pct);
    }
}

/// A workload: inputs made once per set-up, and a fixed round of ops.
pub trait Workload: Sized {
    /// What an op hands to its check.
    type Out;

    /// Set-ups per run; `setup_s` is their median.
    const SETUP_REPS: usize = 3;

    /// Makes the inputs from the seed (timed as set-up).
    ///
    /// # Errors
    ///
    /// Returns any failure; the run then reports nothing.
    fn setup(seed: u64, small: bool, rec: &mut Recorder) -> Result<Self, String>;

    /// Ops per round.
    fn round_len(&self) -> usize;

    /// Runs op `i` of the round. With the recorder on this is the
    /// traced variant: the same public calls, decomposed where the API
    /// allows, each inside a span.
    ///
    /// # Errors
    ///
    /// Returns the op's error; it counts as failed.
    fn run(&self, i: usize, rec: &mut Recorder) -> Result<Self::Out, String>;

    /// Checks op `i`'s output (untimed). `first` is true in the first
    /// round, whose distinct outputs are kept for the checks that need
    /// heavy reference work; that work waits for [`Workload::finish`]
    /// so it does not run between timed ops. With the recorder on,
    /// layer work that explains the op runs here.
    fn check(&mut self, i: usize, out: Self::Out, first: bool, c: &mut Checks, rec: &mut Recorder);

    /// Run-level checks after the last round (recorder off).
    fn finish(&mut self, _c: &mut Checks) {}
}

/// Runs workload `W` under `cfg`.
///
/// # Errors
///
/// Returns set-up failures and trace-file I/O failures.
pub fn drive<W: Workload>(cfg: &Config, epoch: Instant) -> Result<Outcome, String> {
    let mut rec = Recorder::new(cfg.trace, epoch);
    rec.set_tid(SETUP_TID);
    let reps = if cfg.small { 1 } else { W::SETUP_REPS };
    let mut setup_s = Vec::with_capacity(reps);
    let mut work: Option<W> = None;
    for r in 0..reps {
        // Drop the previous inputs first so every set-up starts from
        // the same heap.
        drop(work.take());
        let start = if r == 0 { epoch } else { Instant::now() };
        work = Some(W::setup(cfg.seed, cfg.small, &mut rec)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut work = work.expect("at least one set-up");

    rec.set_tid(OP_TID);
    let mut checks = Checks::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut op_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut timed = 0.0f64;
    let mut round = 0usize;
    loop {
        for i in 0..work.round_len() {
            attempted += 1;
            // The traced run executes each op twice, plain and traced,
            // alternating which goes first; the difference of the two
            // medians is the tracing overhead.
            let order: &[bool] = match (cfg.trace, (round + i) % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            let mut result = None;
            for &traced in order {
                rec.set_on(traced);
                let t = Instant::now();
                let out = work.run(i, &mut rec);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                timed += ms / 1e3;
                if traced {
                    traced_ms.push(ms);
                } else {
                    op_ms.push(ms);
                }
                // The traced output is the one checked in a traced run,
                // so its explaining spans land in the trace.
                if traced || !cfg.trace {
                    result = Some(out);
                }
            }
            rec.set_on(cfg.trace);
            match result.expect("one execution is kept") {
                Ok(out) => work.check(i, out, round == 0, &mut checks, &mut rec),
                Err(e) => {
                    eprintln!("op {i} of round {round} failed: {e}");
                    failed += 1;
                }
            }
        }
        round += 1;
        // Whole rounds only: stop at the round count closest to the
        // requested time.
        let per_round = timed / round as f64;
        if cfg.small || timed + per_round / 2.0 >= cfg.seconds {
            break;
        }
    }
    work.finish(&mut checks);

    let ops = op_ms.len().max(1) as f64;
    let mut metrics = Vec::new();
    let counts: BTreeMap<&'static str, f64> = rec
        .counts()
        .iter()
        .map(|(k, v)| (*k, v / traced_ms.len().max(1) as f64))
        .collect();
    if cfg.trace {
        let path = cfg
            .out_dir
            .join(format!("perfbench-{}-seed{}.json", cfg.workload, cfg.seed));
        spans::write_chrome(rec.spans(), &format!("perfbench {}", cfg.workload), &path)?;
        let totals = spans::read_totals(&path)?;
        metrics = per_layer(
            &totals,
            &counts,
            reps,
            traced_ms.len().max(1),
            &op_ms,
            &traced_ms,
        );
    } else {
        let gaps = &checks.gaps;
        metrics.push(metric("setup_s", "s", median(&setup_s)));
        metrics.push(metric("op_p50_ms", "ms", median(&op_ms)));
        metrics.push(metric(
            "ops_per_s",
            "1/s",
            ops / (op_ms.iter().sum::<f64>() / 1e3),
        ));
        metrics.push(metric("peak_rss_mb", "MB", peak_rss_mb()));
        metrics.push(metric(
            "truth_gap_mean_pct",
            "%",
            gaps.iter().sum::<f64>() / gaps.len().max(1) as f64,
        ));
        metrics.push(metric(
            "truth_gap_max_pct",
            "%",
            gaps.iter().copied().fold(0.0, f64::max),
        ));
    }
    checks.expect(!checks.gaps.is_empty(), || {
        "no estimate was checked against a truth".into()
    });
    Ok(Outcome {
        correct: checks.failures.is_empty(),
        attempted,
        failed,
        metrics,
        failures: checks.failures,
        gaps: checks.gaps,
        counts,
    })
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Per-layer time metrics: set-up layers per set-up, the rest per
/// traced op. A layer that a workload never calls reads 0.
const LAYER_TIMES: &[(&str, &str)] = &[
    ("cluster.profile_ms", "cluster.profile"),
    ("trace.encode_ms", "trace.encode"),
    ("trace.parse_ms", "trace.parse"),
    ("calib.calibrate_ms", "calib.calibrate"),
    ("calib.artifact_io_ms", "calib.artifact_io"),
    ("core.reassemble_ms", "core.reassemble"),
    ("core.build_graph_ms", "core.build_graph"),
    ("core.simulate_ms", "core.simulate"),
    ("core.to_trace_ms", "core.to_trace"),
    ("search.screen_ms", "search.screen"),
    ("cluster.lower_ms", "cluster.lower"),
    ("cluster.verify_ms", "cluster.verify"),
    ("cluster.prepare_ms", "cluster.prepare"),
    ("cluster.engine_clean_ms", "cluster.engine_clean"),
    ("cluster.engine_jitter_ms", "cluster.engine_jitter"),
    ("cluster.realize_ms", "cluster.realize"),
    ("cluster.engine_faulted_ms", "cluster.engine_faulted"),
    ("trace.breakdown_ms", "trace.breakdown"),
];

/// Per-layer counts, averaged per traced op.
pub const LAYER_COUNTS: [&str; 10] = [
    "core.events",
    "core.graph_edges",
    "search.grid_points",
    "search.memory_pruned",
    "search.bound_skipped",
    "search.evaluated",
    "search.memo_hits",
    "search.memo_misses",
    "cluster.replicas_executed",
    "cluster.replicas_reused",
];

fn per_layer(
    totals: &BTreeMap<(String, u32), f64>,
    counts: &BTreeMap<&'static str, f64>,
    setups: usize,
    ops: usize,
    plain_ms: &[f64],
    traced_ms: &[f64],
) -> Vec<Metric> {
    let mut out = Vec::new();
    for (metric_name, span) in LAYER_TIMES {
        let setup = totals
            .get(&(span.to_string(), SETUP_TID))
            .copied()
            .unwrap_or(0.0);
        let op = totals
            .get(&(span.to_string(), OP_TID))
            .copied()
            .unwrap_or(0.0);
        out.push(metric(
            metric_name,
            "ms",
            setup / setups as f64 + op / ops as f64,
        ));
    }
    for name in LAYER_COUNTS {
        out.push(metric(
            name,
            "count",
            counts.get(name).copied().unwrap_or(0.0),
        ));
    }
    let grid = counts.get("search.grid_points").copied().unwrap_or(0.0);
    let evaluated = counts.get("search.evaluated").copied().unwrap_or(0.0);
    let search_ms = totals
        .get(&("search.run".to_string(), OP_TID))
        .copied()
        .unwrap_or(0.0)
        / ops as f64;
    out.push(metric(
        "search.evaluated_pct",
        "%",
        if grid > 0.0 {
            evaluated / grid * 100.0
        } else {
            0.0
        },
    ));
    out.push(metric(
        "search.ms_per_evaluated",
        "ms",
        if evaluated > 0.0 {
            search_ms / evaluated
        } else {
            0.0
        },
    ));
    out.push(metric(
        "bench.trace_overhead_ms",
        "ms",
        median(traced_ms) - median(plain_ms),
    ));
    out
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs the workload `cfg.workload`.
///
/// # Errors
///
/// Returns unknown workload names and set-up failures.
pub fn run(cfg: &Config, epoch: Instant) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "predict" => drive::<crate::predict::Predict>(cfg, epoch),
        "search" => drive::<crate::search::Search>(cfg, epoch),
        "robust" => drive::<crate::robust::Robust>(cfg, epoch),
        "replay" => drive::<crate::replay::Replay>(cfg, epoch),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            crate::WORKLOADS.join(", ")
        )),
    }
}
