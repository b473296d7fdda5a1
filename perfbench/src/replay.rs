//! `replay`: the paper's Figure 5 loop. Each op ingests one profiled
//! Chrome trace (`from_chrome_json`), replays it (`Lumos::replay`) and
//! takes its breakdown; the replay is compared with the deployment's
//! actual time, the mean of further jittered iterations.
//!
//! The deployments are the 32-GPU Figure 5 ones of GPT-3 15B and 44B
//! (one op size, so the median op is a typical one), each profiled on the cluster
//! `lumos_bench::harness::profile_config` uses under its default run
//! options, so the truth gap is the figure the repository's paper
//! harness reports for them. Here the seed only orders the ops:
//! replay reproduces the profiled iteration exactly, so its gap to the
//! actual time is that iteration's own jitter, and drawing the
//! clusters from the seed would make the gap one random draw per
//! deployment rather than a property of the code.

use crate::ground;
use crate::harness::{Checks, Workload};
use crate::predict::edge_count;
use crate::rng::Rng;
use crate::spans::Recorder;
use lumos_bench::harness::{profile_config, RunOptions};
use lumos_cluster::SimConfig;
use lumos_core::{simulate, Lumos};
use lumos_model::ModelConfig;
use lumos_trace::{
    from_chrome_json, to_chrome_json, BreakdownExt, ChromeTraceOptions, ClusterTrace, Dur,
};

/// The replayed deployments: (model, Figure 5 label).
fn deployments(small: bool) -> Vec<SimConfig> {
    let mut out = vec![
        ground::deployment(ModelConfig::gpt3_15b(), "2x2x8"),
        ground::deployment(ModelConfig::gpt3_15b(), "2x4x4"),
        ground::deployment(ModelConfig::gpt3_15b(), "4x2x4"),
        ground::deployment(ModelConfig::gpt3_44b(), "4x4x2"),
        ground::deployment(ModelConfig::gpt3_44b(), "4x8x1"),
        ground::deployment(ModelConfig::gpt3_44b(), "8x4x1"),
    ];
    if small {
        out.truncate(1);
    }
    out
}

/// One profiled deployment.
pub struct Profiled {
    label: String,
    json: String,
    recorded: Dur,
    actual: Dur,
    ranks: usize,
    events: usize,
}

/// Profiles `config` with `profile_config` under its default run
/// options (iteration 0 is the trace, the mean of the further
/// iterations the actual time) and encodes the trace as Chrome JSON.
fn profile(config: &SimConfig, rec: &mut Recorder) -> Profiled {
    let p = rec.time("cluster.profile", || {
        profile_config(config, &RunOptions::default())
    });
    let json = rec.time("trace.encode", || {
        to_chrome_json(&p.output.trace, &ChromeTraceOptions::default())
    });
    let trace = &p.output.trace;
    Profiled {
        label: config.label(),
        json,
        recorded: p.output.makespan,
        actual: p.actual,
        ranks: trace.world_size(),
        // Annotation ranges are markers, not tasks: replay keeps every
        // other event.
        events: trace
            .ranks()
            .iter()
            .map(|r| r.len() - r.annotations().count())
            .sum(),
    }
}

/// The `replay` workload's inputs.
pub struct Replay {
    profiled: Vec<Profiled>,
}

/// What a replay op hands to its check.
pub struct Replayed {
    makespan: Dur,
    trace: ClusterTrace,
    breakdown: Dur,
}

impl Workload for Replay {
    type Out = Replayed;

    /// One set-up is already six independent profile-and-encode
    /// passes, each seconds long.
    const SETUP_REPS: usize = 1;

    fn setup(seed: u64, small: bool, rec: &mut Recorder) -> Result<Self, String> {
        let mut profiled: Vec<Profiled> =
            deployments(small).iter().map(|c| profile(c, rec)).collect();
        Rng::new(seed, "replay/order").shuffle(&mut profiled);
        Ok(Replay { profiled })
    }

    fn round_len(&self) -> usize {
        self.profiled.len()
    }

    fn run(&self, i: usize, rec: &mut Recorder) -> Result<Replayed, String> {
        let p = &self.profiled[i];
        let lumos = Lumos::new();
        let input = rec
            .time("trace.parse", || from_chrome_json(&p.json))
            .map_err(|e| format!("{}: {e}", p.label))?;
        let (makespan, trace) = if rec.is_on() {
            let graph = rec
                .time("core.build_graph", || lumos.build_graph(&input))
                .map_err(|e| e.to_string())?;
            let result = rec
                .time("core.simulate", || simulate(&graph, &lumos.sim))
                .map_err(|e| e.to_string())?;
            let label = format!("replay of {}", input.label);
            let trace = rec.time("core.to_trace", || result.to_trace(&graph, &label));
            rec.count("core.events", input.total_events() as f64);
            rec.count("core.graph_edges", edge_count(&graph.stats()) as f64);
            (result.makespan(), trace)
        } else {
            let r = lumos.replay(&input).map_err(|e| e.to_string())?;
            (r.makespan(), r.trace)
        };
        let breakdown = rec.time("trace.breakdown", || trace.breakdown()).total();
        Ok(Replayed {
            makespan,
            trace,
            breakdown,
        })
    }

    fn check(&mut self, i: usize, out: Replayed, first: bool, c: &mut Checks, _rec: &mut Recorder) {
        let p = &self.profiled[i];
        let label = &p.label;
        // Chrome JSON stores microseconds as floats; allow their
        // rounding and nothing more.
        c.expect(out.makespan.relative_error(p.recorded) <= 1e-6, || {
            format!(
                "{label}: replay {} vs recorded {}",
                out.makespan, p.recorded
            )
        });
        c.expect(
            out.trace.world_size() == p.ranks && out.trace.total_events() == p.events,
            || {
                format!(
                    "{label}: replay has {} ranks / {} events, input {} / {}",
                    out.trace.world_size(),
                    out.trace.total_events(),
                    p.ranks,
                    p.events
                )
            },
        );
        let slack = p.ranks as u64 * 4;
        c.expect(
            out.breakdown.as_ns().abs_diff(out.makespan.as_ns()) <= slack,
            || {
                format!(
                    "{label}: breakdown sums to {} of {}",
                    out.breakdown, out.makespan
                )
            },
        );
        if first {
            c.gap(ground::gap_pct(out.makespan, p.actual));
        }
    }
}
