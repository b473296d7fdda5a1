//! `search`: exhaustive streaming searches (`search_calibrated` with a
//! top-k retention bound, so lower-bound skipping is armed) over
//! sub-spaces of the committed `examples/spaces/sweep.toml` and
//! `schedules.toml` axes, from a calibrated GPT-3 15B @ 2x2x1 base.
//!
//! A round is eight searches, one per slot of [`SLOTS`]. The check
//! phase compares a bounded and a keep-all search of the whole
//! `schedules.toml` space and measures every candidate of the keep-all
//! run that the engine runs as-is against the ground truth.

use crate::ground::{self, calibrated_base, cluster_jitter, gap_pct, Base};
use crate::harness::{Checks, Workload};
use crate::predict::predict_traced;
use crate::rng::{derive, Rng};
use crate::spans::Recorder;
use lumos_core::Lumos;
use lumos_cost::AnalyticalCostModel;
use lumos_model::ScheduleKind;
use lumos_search::{
    search_calibrated, CandidateResult, Objective, SearchCalibration, SearchOptions, SearchReport,
    SpaceSpec, SpecFile,
};

const SWEEP: &str = include_str!("../../examples/spaces/sweep.toml");
const SCHEDULES: &str = include_str!("../../examples/spaces/schedules.toml");

/// Results kept per search (arms the lower-bound skip).
pub const TOP_K: usize = 2;

/// One search of the round.
pub struct Query {
    /// The sub-space.
    pub space: SpaceSpec,
    /// What to rank by.
    pub objective: Objective,
}

/// The `search` workload's inputs.
pub struct Search {
    base: Base,
    calib: SearchCalibration<AnalyticalCostModel>,
    queries: Vec<Query>,
    /// First-round results awaiting the prediction parity check.
    pending: Vec<(usize, Vec<CandidateResult>)>,
}

/// Search options of every query: one thread (the skip and memo
/// counters depend on how threads interleave), top-k retention.
pub fn options(objective: Objective, top_k: Option<usize>) -> SearchOptions {
    SearchOptions {
        objective,
        threads: Some(1),
        top_k,
        ..SearchOptions::default()
    }
}

/// The round's sub-spaces of the `sweep.toml` axes: (tp, pp, dp,
/// micro-batches). Each keeps the base deployment (tp 2, pp 2, dp 1),
/// which fits in memory; together they cover every axis value up to
/// the 8-GPU cap.
const SLOTS: [([u32; 2], [u32; 2], [u32; 2], u32); 8] = [
    ([2, 4], [1, 2], [1, 2], 4),
    ([2, 4], [2, 4], [1, 2], 8),
    ([2, 8], [1, 2], [1, 4], 4),
    ([2, 4], [2, 8], [1, 2], 8),
    ([2, 4], [1, 2], [1, 4], 8),
    ([2, 8], [2, 4], [1, 2], 4),
    ([2, 4], [2, 4], [1, 8], 4),
    ([2, 4], [1, 4], [1, 2], 8),
];

/// The round of queries: one search per slot, in a seeded order. Even
/// slots add the `sweep.toml` interleave axis, odd ones a non-default
/// schedule of `schedules.toml` (GPipe and ZB-H1 in turn); the
/// objectives take turns too. The spaces are the same in every run, so
/// a round's work is too: what the seed changes is the order and the
/// base trace (its cluster jitter), and with it every estimate, bound
/// and skip decision.
///
/// # Panics
///
/// Panics if the committed example spaces stop parsing.
pub fn queries(seed: u64, small: bool) -> Vec<Query> {
    let sweep = SpecFile::parse(SWEEP).expect("sweep.toml parses").space;
    let others: Vec<ScheduleKind> = reference_space()
        .schedules
        .into_iter()
        .filter(|&s| s != ScheduleKind::OneFOneB)
        .collect();
    let objectives = [
        Objective::PerGpuThroughput,
        Objective::Makespan,
        Objective::Mfu,
    ];
    let mut r = Rng::new(seed, "search/spaces");
    let slots = if small { &SLOTS[..1] } else { &SLOTS[..] };
    let mut out: Vec<Query> = slots
        .iter()
        .enumerate()
        .map(|(k, (tp, pp, dp, m))| {
            let space = SpaceSpec::deployment_grid(tp, pp, dp)
                .with_microbatches(&[*m])
                .with_max_gpus(8);
            let space = if k % 2 == 0 {
                space.with_interleave(&sweep.interleave)
            } else {
                space.with_schedules(&[ScheduleKind::OneFOneB, others[(k / 2) % others.len()]])
            };
            Query {
                space,
                objective: objectives[k % objectives.len()],
            }
        })
        .collect();
    r.shuffle(&mut out);
    out
}

/// The whole `schedules.toml` space: every run compares its bounded
/// and keep-all searches, and checks every candidate of the keep-all
/// run against the ground truth.
///
/// # Panics
///
/// Panics if the committed example space stops parsing.
pub fn reference_space() -> SpaceSpec {
    SpecFile::parse(SCHEDULES)
        .expect("schedules.toml parses")
        .space
}

/// The objective key a result is ranked by (lower ranks first).
pub fn rank_key(r: &CandidateResult, objective: Objective) -> f64 {
    match objective {
        Objective::Makespan => r.makespan.as_secs_f64(),
        Objective::PerGpuThroughput => -r.tokens_per_sec_per_gpu,
        Objective::Mfu => -r.utilization.mfu,
    }
}

/// Whether the ground-truth engine runs this result as ranked: no
/// virtual chunks and no schedule adjustment on top of the engine.
pub fn engine_runs_as_is(r: &CandidateResult) -> bool {
    let s = &r.setup;
    r.candidate.interleave == 1
        && s.schedule
            .engine_adjustment(s.parallelism.pp, s.batch.num_microbatches, 1)
            .is_none()
}

impl Search {
    /// Each plain-1F1B, non-interleaved result's ranked makespan equals
    /// a prediction of the same target (traced when `rec` is on).
    fn check_parity(
        &self,
        i: usize,
        results: &[CandidateResult],
        c: &mut Checks,
        rec: &mut Recorder,
    ) {
        let (base, q) = (&self.base, &self.queries[i]);
        for r in results {
            if r.candidate.interleave != 1 || r.setup.schedule != ScheduleKind::OneFOneB {
                continue;
            }
            let transforms = r.candidate.transforms_from(&base.setup, &q.space);
            let makespan = if rec.is_on() {
                predict_traced(base, &transforms, rec).map(|(_, m, _)| m)
            } else {
                Lumos::new()
                    .predict_with_library(
                        &base.artifact.library,
                        &base.setup,
                        &transforms,
                        &base.cost,
                    )
                    .map(|p| p.makespan())
                    .map_err(|e| e.to_string())
            };
            match makespan {
                Ok(m) => c.expect(m == r.makespan, || {
                    format!(
                        "search {i}: {} ranked at {} but predicts {m}",
                        r.label, r.makespan
                    )
                }),
                Err(e) => c.fail(format!("search {i}: {}: {e}", r.label)),
            }
        }
    }
}

impl Workload for Search {
    type Out = SearchReport;

    fn setup(seed: u64, small: bool, rec: &mut Recorder) -> Result<Self, String> {
        let setup = ground::deployment(lumos_model::ModelConfig::gpt3_15b(), "2x2x1");
        let jitter = cluster_jitter(derive(seed, "search/base"));
        let base = calibrated_base(&setup, jitter, rec)?;
        let calib = rec.time("calib.artifact_io", || {
            SearchCalibration::from_artifact(&base.artifact, AnalyticalCostModel::h100())
        });
        Ok(Search {
            base,
            calib,
            queries: queries(seed, small),
            pending: Vec::new(),
        })
    }

    fn round_len(&self) -> usize {
        self.queries.len()
    }

    fn run(&self, i: usize, rec: &mut Recorder) -> Result<SearchReport, String> {
        let q = &self.queries[i];
        let opts = options(q.objective, Some(TOP_K));
        let report = rec
            .time("search.run", || {
                search_calibrated(&self.calib, &q.space, &opts)
            })
            .map_err(|e| e.to_string())?;
        let s = &report.stats;
        rec.count("search.grid_points", s.enumerated as f64);
        rec.count("search.memory_pruned", s.memory_pruned as f64);
        rec.count("search.bound_skipped", s.bound_skipped as f64);
        rec.count("search.evaluated", s.evaluated as f64);
        rec.count("search.memo_hits", report.memo.hits as f64);
        rec.count("search.memo_misses", report.memo.misses as f64);
        Ok(report)
    }

    fn check(
        &mut self,
        i: usize,
        report: SearchReport,
        first: bool,
        c: &mut Checks,
        rec: &mut Recorder,
    ) {
        let q = &self.queries[i];
        c.expect(
            !report.results.is_empty() && report.results.len() <= TOP_K,
            || {
                format!(
                    "search {i}: {} results for top-{TOP_K}",
                    report.results.len()
                )
            },
        );
        let capacity = options(q.objective, None).gpu.memory_bytes();
        for w in report.results.windows(2) {
            let (a, b) = (rank_key(&w[0], q.objective), rank_key(&w[1], q.objective));
            c.expect(a < b || (a == b && w[0].index < w[1].index), || {
                format!("search {i}: {} ranked before {}", w[0].label, w[1].label)
            });
        }
        for r in &report.results {
            c.expect(r.memory.total() <= capacity, || {
                format!(
                    "search {i}: {} needs {} B of {capacity}",
                    r.label,
                    r.memory.total()
                )
            });
        }
        if rec.is_on() {
            self.check_parity(i, &report.results, c, rec);
        } else if first {
            self.pending.push((i, report.results));
        }
    }

    fn finish(&mut self, c: &mut Checks) {
        let mut off = Recorder::new(false, std::time::Instant::now());
        for (i, results) in &self.pending {
            self.check_parity(*i, results, c, &mut off);
        }
        // The bounded top-k equals the top-k of a keep-all run, which
        // fully evaluates every candidate (no bound skipping).
        let space = reference_space();
        let objective = Objective::PerGpuThroughput;
        let bounded = search_calibrated(&self.calib, &space, &options(objective, Some(TOP_K)));
        let all = search_calibrated(&self.calib, &space, &options(objective, None));
        let (b, a) = match (bounded, all) {
            (Ok(b), Ok(a)) => (b, a),
            (Err(e), _) | (_, Err(e)) => return c.fail(format!("keep-all comparison: {e}")),
        };
        let top = |r: &SearchReport| -> Vec<(String, u64)> {
            r.results
                .iter()
                .take(TOP_K)
                .map(|x| (x.label.clone(), x.makespan.as_ns()))
                .collect()
        };
        c.expect(a.stats.bound_skipped == 0, || {
            "keep-all run skipped candidates".into()
        });
        c.expect(top(&b) == top(&a), || {
            format!(
                "bounded top-k {:?} != keep-all top-k {:?}",
                top(&b),
                top(&a)
            )
        });
        // Every ranked candidate the engine runs as-is, against the
        // ground truth: a fixed set, so the gap is comparable run to run.
        for r in a.results.iter().filter(|r| engine_runs_as_is(r)) {
            match ground::truth(&r.setup) {
                Ok(truth) => c.gap(gap_pct(r.makespan, truth)),
                Err(e) => c.fail(e),
            }
        }
    }
}
