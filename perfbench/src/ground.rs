//! Inputs made on the ground-truth engine, and the truths estimates
//! are checked against.
//!
//! The paper's H100 traces are not in the repository, so
//! `lumos_cluster::GroundTruthCluster` (analytic H100 costs plus
//! seeded jitter) stands in for the measured cluster. Prediction,
//! search and robust inputs are profiled under [`cluster_jitter`]:
//! the per-kernel, host and communication jitter of
//! `JitterModel::realistic`, without its iteration-wide drift term.
//! Drift is one draw per iteration that scales every kernel, so with a
//! single base trace per model it would make each run's accuracy
//! figure one coin flip; without it the truth gap measures the
//! estimator, and stays put from seed to seed.

use crate::spans::Recorder;
use lumos_calib::CalibrationArtifact;
use lumos_cluster::{GroundTruthCluster, JitterModel, SimConfig};
use lumos_cost::{AnalyticalCostModel, LookupCostModel};
use lumos_model::{BatchConfig, ModelConfig, Parallelism, ScheduleKind, TrainingSetup};
use lumos_trace::{from_chrome_json, to_chrome_json, ChromeTraceOptions, Dur};

/// The cost model every estimate is priced with: the artifact's
/// fitted tables over the H100 analytic fallback.
pub type Cost = LookupCostModel<AnalyticalCostModel>;

/// The ground-truth jitter of one seeded cluster (see the module
/// docs for why drift is left out).
pub fn cluster_jitter(seed: u64) -> JitterModel {
    JitterModel {
        drift_cv: 0.0,
        ..JitterModel::realistic(seed)
    }
}

/// A GPT-3 deployment in the paper's default batching (`2 × PP`
/// micro-batches, 2048-token sequences, 1F1B).
///
/// # Panics
///
/// Panics on a malformed `TPxPPxDP` label (labels are constants).
pub fn deployment(model: ModelConfig, label: &str) -> SimConfig {
    let parallelism = Parallelism::parse_label(label).expect("constant label");
    SimConfig {
        model,
        parallelism,
        batch: BatchConfig::gpt3_default(2 * parallelism.pp),
        schedule: ScheduleKind::OneFOneB,
    }
}

/// A calibrated base: what `lumos calibrate` leaves behind, loaded
/// back for queries.
pub struct Base {
    /// The profiled deployment.
    pub setup: TrainingSetup,
    /// The artifact after a JSON round trip.
    pub artifact: CalibrationArtifact,
    /// Its cost model.
    pub cost: Cost,
}

/// Profiles `setup` on a seeded cluster, encodes the trace as Chrome
/// JSON, parses it back, calibrates an artifact from it and round-trips
/// the artifact through its JSON form — the set-up every query
/// workload pays once.
///
/// # Errors
///
/// Returns engine, parse and calibration failures.
pub fn calibrated_base(
    setup: &TrainingSetup,
    jitter: JitterModel,
    rec: &mut Recorder,
) -> Result<Base, String> {
    let profiled = rec.time("cluster.profile", || {
        GroundTruthCluster::new(setup, AnalyticalCostModel::h100())
            .and_then(|c| c.with_jitter(jitter).profile_iteration(0))
            .map_err(|e| format!("profile {}: {e}", setup.label()))
    })?;
    let json = rec.time("trace.encode", || {
        to_chrome_json(&profiled.trace, &ChromeTraceOptions::default())
    });
    drop(profiled);
    let trace = rec.time("trace.parse", || {
        from_chrome_json(&json).map_err(|e| format!("parse {}: {e}", setup.label()))
    })?;
    drop(json);
    let artifact = rec.time("calib.calibrate", || {
        CalibrationArtifact::calibrate(&trace, setup, "h100", 8)
            .map_err(|e| format!("calibrate {}: {e}", setup.label()))
    })?;
    drop(trace);
    let (artifact, cost) = rec.time("calib.artifact_io", || {
        let loaded = CalibrationArtifact::from_json(&artifact.to_json())
            .map_err(|e| format!("artifact {}: {e}", setup.label()))?;
        let cost = loaded.cost_model(AnalyticalCostModel::h100());
        Ok::<_, String>((loaded, cost))
    })?;
    Ok(Base {
        setup: setup.clone(),
        artifact,
        cost,
    })
}

/// The ground truth of a target deployment: one iteration on the
/// ground-truth engine with the analytic H100 costs and no jitter.
/// A jitter-free truth is the same on every run, so the gap measures
/// how far the estimate — calibrated from a jittered base — is from
/// the target's noise-free cost.
///
/// # Errors
///
/// Returns invalid-configuration and engine failures.
pub fn truth(setup: &TrainingSetup) -> Result<Dur, String> {
    GroundTruthCluster::new(setup, AnalyticalCostModel::h100())
        .and_then(|c| c.metrics_iteration(0))
        .map(|m| m.makespan)
        .map_err(|e| format!("ground truth {}: {e}", setup.label()))
}

/// The measured time of a deployment on a jittered cluster: the mean
/// of `iters` iterations after the profiled one.
///
/// # Errors
///
/// Returns invalid-configuration and engine failures.
pub fn measured(setup: &TrainingSetup, jitter: JitterModel, iters: u64) -> Result<Dur, String> {
    let fail = |e: lumos_cluster::ClusterError| format!("ground truth {}: {e}", setup.label());
    let cluster = GroundTruthCluster::new(setup, AnalyticalCostModel::h100())
        .map_err(fail)?
        .with_jitter(jitter);
    let mut total = Dur::ZERO;
    for i in 1..=iters {
        total += cluster.metrics_iteration(i).map_err(fail)?.makespan;
    }
    Ok(total / iters)
}

/// `|estimate − truth| / truth`, in percent.
pub fn gap_pct(estimate: Dur, truth: Dur) -> f64 {
    estimate.relative_error(truth) * 100.0
}
