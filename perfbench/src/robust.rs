//! `robust`: fault-aware refinement of small spaces in which every
//! candidate is a finalist (`refine_sim`, `verify`, jitter replicas
//! and fault replicas), from four calibrated GPT-3 15B @ 2x2x1 bases,
//! each profiled on its own seeded cluster.
//!
//! A round is one search per base; the bases take turns with the
//! committed fault fixtures (`examples/fixtures/faults.toml`,
//! `faults-pp-degraded.toml`). The seed draws the clusters, the
//! objectives and the jitter and fault seeds. The check recomputes every finalist's clean, jittered
//! and faulted makespans from the public per-replica calls (`lower` →
//! `verify` → `PreparedJob::new` → `execute_metrics`, then
//! `FaultSpec::realize` + `Realization::compile` →
//! `execute_metrics_faulted`) and demands the report's numbers back;
//! in the traced run those calls are the spans of the cluster layer.

use crate::ground::{self, calibrated_base, cluster_jitter, gap_pct};
use crate::harness::{Checks, Workload};
use crate::rng::{derive, Rng};
use crate::search::engine_runs_as_is;
use crate::spans::Recorder;
use lumos_cluster::{lower, verify, FaultSpec, JitterModel, MeasuredStats, PreparedJob};
use lumos_cost::{AnalyticalCostModel, HostOverheads};
use lumos_model::{ModelConfig, Parallelism, TrainingSetup};
use lumos_search::{
    search_calibrated, CandidateResult, Objective, RefinedResult, SearchCalibration, SearchOptions,
    SearchReport, SpaceSpec,
};
use lumos_trace::Dur;

const FAULTS: &str = include_str!("../../examples/fixtures/faults.toml");
const FAULTS_PP: &str = include_str!("../../examples/fixtures/faults-pp-degraded.toml");

/// Jitter replicas per finalist.
pub const JITTER_REPLICAS: u32 = 16;
/// Fault replicas per finalist.
pub const FAULT_REPLICAS: u32 = 32;
/// Iterations averaged into a finalist's measured time.
pub const TRUTH_ITERS: u64 = 8;
/// The documented bound on the refine delta (simulated vs analytic).
pub const REFINE_DELTA: f64 = 0.15;

/// Calibrated bases per run: each comes from its own seeded cluster,
/// so a run's truth gap averages over four calibrations instead of
/// resting on one.
pub const BASES: usize = 4;

/// One robust search of the round.
pub struct Query {
    base: usize,
    space: SpaceSpec,
    opts: SearchOptions,
}

/// A calibrated 15B @ 2x2x1 base and the cluster it was profiled on.
struct RobustBase {
    jitter: JitterModel,
    calib: SearchCalibration<AnalyticalCostModel>,
}

/// The `robust` workload's inputs.
pub struct Robust {
    bases: Vec<RobustBase>,
    queries: Vec<Query>,
    /// First-round finalists awaiting their ground truth (and their
    /// recomputation, unless a traced check already did it).
    pending: Vec<(usize, Vec<Finalist>, bool)>,
}

fn query(r: &mut Rng, seed: u64, base: usize, spec: FaultSpec) -> Query {
    // tp 2 × pp {1, 2} × dp {1, 2} at 4 micro-batches: four
    // candidates, all finalists.
    let space = SpaceSpec::deployment_grid(&[2], &[1, 2], &[1, 2]).with_microbatches(&[4]);
    let opts = SearchOptions {
        objective: r.pick(&[
            Objective::PerGpuThroughput,
            Objective::Makespan,
            Objective::Mfu,
        ]),
        threads: Some(1),
        top_k: Some(4),
        refine_sim: true,
        verify: true,
        jitter_replicas: JITTER_REPLICAS,
        jitter_seed: derive(seed, &format!("robust/jitter/{base}")),
        fault_spec: Some(spec),
        fault_replicas: FAULT_REPLICAS,
        fault_seed: derive(seed, &format!("robust/fault/{base}")),
        ..SearchOptions::default()
    };
    Query { base, space, opts }
}

/// Makespans recomputed from the public per-replica calls.
struct Recomputed {
    clean: Dur,
    jitter: MeasuredStats,
    faults: MeasuredStats,
}

/// Lowers, verifies, prepares and executes one finalist the way
/// refinement does, one span per call.
fn recompute(
    setup: &TrainingSetup,
    opts: &SearchOptions,
    calib: &SearchCalibration<AnalyticalCostModel>,
    rec: &mut Recorder,
) -> Result<Recomputed, String> {
    let lookup = calib.lookup();
    let overheads = HostOverheads::default();
    let none = JitterModel::none();
    let job = rec
        .time("cluster.lower", || lower(setup))
        .map_err(|e| e.to_string())?;
    rec.time("cluster.verify", || verify(&job))
        .map_err(|e| e.to_string())?;
    let prep = rec
        .time("cluster.prepare", || PreparedJob::new(&job))
        .map_err(|e| e.to_string())?;
    let clean = rec
        .time("cluster.engine_clean", || {
            prep.execute_metrics(lookup, &overheads, &none, 0)
        })
        .map_err(|e| e.to_string())?
        .makespan;

    let model = JitterModel::realistic(opts.jitter_seed);
    let mut jittered = Vec::new();
    for replica in 0..opts.jitter_replicas {
        let out = rec
            .time("cluster.engine_jitter", || {
                prep.execute_metrics(lookup, &overheads, &model, replica as u64)
            })
            .map_err(|e| e.to_string())?;
        jittered.push(out.makespan);
        rec.count("cluster.replicas_executed", 1.0);
    }

    let spec = opts
        .fault_spec
        .as_ref()
        .expect("robust queries carry a fault spec");
    let world = setup.parallelism.world_size();
    let mut survivor: Option<Option<f64>> = None;
    let mut faulted = Vec::new();
    for replica in 0..opts.fault_replicas {
        let real = rec.time("cluster.realize", || {
            spec.realize(opts.fault_seed, replica, world)
        });
        if real.is_clean() {
            faulted.push(clean);
            rec.count("cluster.replicas_reused", 1.0);
            continue;
        }
        let scenario = rec.time("cluster.realize", || real.compile(world, clean));
        let makespan = if scenario.is_identity() {
            rec.count("cluster.replicas_reused", 1.0);
            clean
        } else {
            rec.count("cluster.replicas_executed", 1.0);
            rec.time("cluster.engine_faulted", || {
                prep.execute_metrics_faulted(lookup, &overheads, &none, 0, &scenario)
            })
            .map_err(|e| e.to_string())?
            .makespan
        };
        let surv = if real.wants_survivor() {
            match survivor {
                Some(s) => s,
                None => {
                    let s = survivor_s(setup, calib, rec)?;
                    survivor = Some(s);
                    s
                }
            }
        } else {
            None
        };
        faulted.push(Dur::from_secs_f64(
            real.effective_iteration_s(makespan.as_secs_f64(), surv),
        ));
    }
    Ok(Recomputed {
        clean,
        jitter: MeasuredStats {
            iterations: jittered,
        },
        faults: MeasuredStats {
            iterations: faulted,
        },
    })
}

/// The elastic survivor's iteration time (dp − 1 replicas, batch
/// conserved), or `None` when there is no survivor deployment.
fn survivor_s(
    setup: &TrainingSetup,
    calib: &SearchCalibration<AnalyticalCostModel>,
    rec: &mut Recorder,
) -> Result<Option<f64>, String> {
    let p = setup.parallelism;
    if p.dp < 2 {
        return Ok(None);
    }
    let mut survivor = setup.clone();
    survivor.parallelism = Parallelism::new(p.tp, p.pp, p.dp - 1).map_err(|e| e.to_string())?;
    let job = rec
        .time("cluster.lower", || lower(&survivor))
        .map_err(|e| e.to_string())?;
    rec.time("cluster.verify", || verify(&job))
        .map_err(|e| e.to_string())?;
    let prep = rec
        .time("cluster.prepare", || PreparedJob::new(&job))
        .map_err(|e| e.to_string())?;
    let out = rec
        .time("cluster.engine_clean", || {
            prep.execute_metrics(
                calib.lookup(),
                &HostOverheads::default(),
                &JitterModel::none(),
                0,
            )
        })
        .map_err(|e| e.to_string())?;
    Ok(Some(
        out.makespan.as_secs_f64() * p.dp as f64 / (p.dp - 1) as f64,
    ))
}

/// A finalist with the report row it came from.
type Finalist = (RefinedResult, CandidateResult);

/// The cheap checks every finalist gets after every op.
fn check_finalist(i: usize, (r, result): &Finalist, c: &mut Checks) {
    let label = &r.label;
    let Some(f) = r.faults else {
        c.fail(format!("robust {i}: {label} has no fault statistics"));
        return;
    };
    c.expect(f.expected >= r.simulated_makespan, || {
        format!(
            "robust {i}: {label} expects {} < clean {}",
            f.expected, r.simulated_makespan
        )
    });
    c.expect(f.robustness > 0.0 && f.robustness <= 1.0, || {
        format!("robust {i}: {label} robustness {}", f.robustness)
    });
    c.expect(r.delta.abs() <= REFINE_DELTA, || {
        format!(
            "robust {i}: {label} refine delta {:.3} beyond {REFINE_DELTA}",
            r.delta
        )
    });
    c.expect(engine_runs_as_is(result), || {
        format!("robust {i}: {label} needs a schedule adjustment")
    });
}

impl Robust {
    /// Recomputes a finalist from the public per-replica calls and
    /// compares with the report (traced when `rec` is on).
    fn check_recomputed(
        &self,
        i: usize,
        (r, result): &Finalist,
        c: &mut Checks,
        rec: &mut Recorder,
    ) {
        let q = &self.queries[i];
        let label = &r.label;
        let (Some(f), Some(j)) = (r.faults, r.jitter) else {
            return c.fail(format!("robust {i}: {label} lacks replica statistics"));
        };
        match recompute(&result.setup, &q.opts, &self.bases[q.base].calib, rec) {
            Ok(re) => {
                c.expect(re.clean == r.simulated_makespan, || {
                    format!(
                        "robust {i}: {label} clean {} vs report {}",
                        re.clean, r.simulated_makespan
                    )
                });
                c.expect(
                    re.jitter.mean() == j.mean && re.jitter.p95() == j.p95,
                    || format!("robust {i}: {label} jitter stats differ from the report"),
                );
                c.expect(
                    re.faults.mean() == f.expected && re.faults.p95() == f.p95,
                    || {
                        format!(
                            "robust {i}: {label} recomputed expected/p95 {}/{} vs report {}/{}",
                            re.faults.mean(),
                            re.faults.p95(),
                            f.expected,
                            f.p95
                        )
                    },
                );
            }
            Err(e) => c.fail(format!("robust {i}: {label}: {e}")),
        }
    }
}

impl Workload for Robust {
    type Out = SearchReport;

    fn setup(seed: u64, small: bool, rec: &mut Recorder) -> Result<Self, String> {
        let setup = ground::deployment(ModelConfig::gpt3_15b(), "2x2x1");
        let fixtures = [FAULTS, FAULTS_PP]
            .iter()
            .enumerate()
            .map(|(i, text)| FaultSpec::parse(text).map_err(|e| format!("fault fixture {i}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut r = Rng::new(seed, "robust/spaces");
        let mut bases = Vec::new();
        let mut queries = Vec::new();
        for b in 0..if small { 1 } else { BASES } {
            let jitter = cluster_jitter(derive(seed, &format!("robust/base/{b}")));
            let base = calibrated_base(&setup, jitter, rec)?;
            let calib = rec.time("calib.artifact_io", || {
                SearchCalibration::from_artifact(&base.artifact, AnalyticalCostModel::h100())
            });
            bases.push(RobustBase { jitter, calib });
            // Each base runs one fixture; the fixtures take turns.
            let fixture = b % fixtures.len();
            queries.push(query(&mut r, seed, b, fixtures[fixture].clone()));
        }
        Ok(Robust {
            bases,
            queries,
            pending: Vec::new(),
        })
    }

    fn round_len(&self) -> usize {
        self.queries.len()
    }

    fn run(&self, i: usize, rec: &mut Recorder) -> Result<SearchReport, String> {
        let q = &self.queries[i];
        let calib = &self.bases[q.base].calib;
        rec.time("search.run", || search_calibrated(calib, &q.space, &q.opts))
            .map_err(|e| e.to_string())
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
        let Some(refined) = report.refined else {
            return c.fail(format!("robust {i}: no refined finalists"));
        };
        c.expect(
            !refined.is_empty() && refined.len() == report.results.len().min(4),
            || {
                format!(
                    "robust {i}: {} finalists of {} results",
                    refined.len(),
                    report.results.len()
                )
            },
        );
        let mut finalists = Vec::new();
        for r in refined {
            match report.results.iter().find(|x| x.index == r.index) {
                Some(result) => finalists.push((r, result.clone())),
                None => c.fail(format!(
                    "robust {i}: finalist {} not among results",
                    r.label
                )),
            }
        }
        for f in &finalists {
            check_finalist(i, f, c);
        }
        if rec.is_on() {
            for f in &finalists {
                self.check_recomputed(i, f, c, rec);
            }
            let screen = SearchOptions {
                refine_sim: false,
                ..q.opts.clone()
            };
            if let Err(e) = rec.time("search.screen", || {
                search_calibrated(&self.bases[q.base].calib, &q.space, &screen)
            }) {
                c.fail(format!("robust {i}: screen-only rerun: {e}"));
            }
        }
        if first {
            self.pending.push((i, finalists, rec.is_on()));
        }
    }

    fn finish(&mut self, c: &mut Checks) {
        let mut off = Recorder::new(false, std::time::Instant::now());
        for (i, finalists, recomputed) in &self.pending {
            let base = &self.bases[self.queries[*i].base];
            for f in finalists {
                if !recomputed {
                    self.check_recomputed(*i, f, c, &mut off);
                }
                match ground::measured(&f.1.setup, base.jitter, TRUTH_ITERS) {
                    Ok(truth) => c.gap(gap_pct(f.0.simulated_makespan, truth)),
                    Err(e) => c.fail(e),
                }
            }
        }
    }
}
