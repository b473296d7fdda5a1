//! `predict`: a stream of distinct what-if predictions
//! (`Lumos::predict_with_library`) from two calibrated bases, GPT-3
//! 15B @ 2x2x1 and 44B @ 4x4x1.
//!
//! Each base has eight target slots. A slot fixes the kind of change
//! and the work it implies (`tp·dp·m·layers`, which sets the event
//! count); the seed draws the concrete values inside the slot. Four
//! slots per base re-price kernels (tp, hidden, seq_len), four do not;
//! targets run from 4 to 64 GPUs.

use crate::ground::{self, calibrated_base, cluster_jitter, gap_pct, Base};
use crate::harness::{Checks, Workload};
use crate::rng::{derive, Rng};
use crate::spans::Recorder;
use lumos_core::manipulate::{apply_transforms, plan, reassemble_with_library, Transform};
use lumos_core::{simulate, GraphStats, Lumos};
use lumos_model::{ModelConfig, TrainingSetup};
use lumos_trace::{BreakdownExt, ClusterTrace, Dur};
use std::hash::{Hash, Hasher};

use Transform::{
    DataParallel as Dp, HiddenSize as Hidden, Microbatches as Mb, NumLayers as Layers,
    PipelineParallel as Pp, SeqLen as Seq, TensorParallel as Tp,
};

/// The largest gap, in percent, a prediction may have to the
/// ground-truth engine's measurement of its target. The largest gap
/// seen over seeds 1–20 is about 1.1%; twice that fails the run.
pub const TRUTH_TOLERANCE_PCT: f64 = 2.0;

/// One prediction of the round.
pub struct Target {
    /// Index into the bases.
    pub base: usize,
    /// The what-if change.
    pub transforms: Vec<Transform>,
}

/// The `predict` workload's inputs.
pub struct Predict {
    bases: Vec<Base>,
    targets: Vec<Target>,
    /// First-round predictions awaiting their ground truth.
    pending: Vec<(TrainingSetup, Dur)>,
}

/// A prediction as the checks see it.
pub struct Predicted {
    setup: TrainingSetup,
    makespan: Dur,
    trace: ClusterTrace,
}

fn hidden(h: u64) -> Transform {
    Hidden {
        hidden: h,
        ffn: 2 * h,
    }
}

/// The 15B @ 2x2x1 slots (m = 4, 48 layers, hidden 6144, seq 2048).
fn slots_15b(r: &mut Rng) -> Vec<Vec<Transform>> {
    let seq = r.pick(&[1024, 4096]);
    vec![
        r.pick(&[&[Dp { dp: 4 }][..], &[Dp { dp: 2 }, Mb { num: 8 }]])
            .to_vec(),
        vec![
            Pp {
                pp: r.pick(&[4, 8]),
            },
            Mb { num: 8 },
        ],
        vec![Layers {
            layers: r.pick(&[40, 56]),
        }],
        r.pick(&[&[Tp { tp: 4 }, Dp { dp: 2 }][..], &[Tp { tp: 8 }]])
            .to_vec(),
        vec![hidden(r.pick(&[4608, 7680])), Dp { dp: 2 }],
        vec![
            Seq {
                seq_len: r.pick(&[1024, 4096]),
            },
            Pp { pp: 4 },
        ],
        r.pick(&[
            &[Dp { dp: 8 }, Pp { pp: 4 }, Mb { num: 8 }][..],
            &[Dp { dp: 4 }, Pp { pp: 8 }, Mb { num: 16 }],
        ])
        .to_vec(),
        vec![Tp { tp: 4 }, Seq { seq_len: seq }, Dp { dp: 2 }],
    ]
}

/// The 44B @ 4x4x1 slots (m = 8, 48 layers, hidden 12288, seq 2048).
fn slots_44b(r: &mut Rng) -> Vec<Vec<Transform>> {
    let seq = r.pick(&[1024, 4096]);
    vec![
        r.pick(&[&[Dp { dp: 2 }][..], &[Mb { num: 16 }]]).to_vec(),
        vec![Pp {
            pp: r.pick(&[2, 8]),
        }],
        vec![Layers {
            layers: r.pick(&[40, 56]),
        }],
        r.pick(&[
            &[Tp { tp: 2 }, Dp { dp: 2 }][..],
            &[Tp { tp: 8 }, Mb { num: 4 }],
        ])
        .to_vec(),
        vec![hidden(r.pick(&[9216, 15360]))],
        vec![Seq {
            seq_len: r.pick(&[1024, 4096]),
        }],
        r.pick(&[
            &[Dp { dp: 4 }][..],
            &[Pp { pp: 8 }, Dp { dp: 2 }, Mb { num: 16 }],
        ])
        .to_vec(),
        vec![Tp { tp: 2 }, Seq { seq_len: seq }, Dp { dp: 2 }],
    ]
}

/// Edges of an execution graph.
pub fn edge_count(s: &GraphStats) -> usize {
    s.intra_thread + s.inter_thread + s.kernel_launch + s.intra_stream + s.inter_stream
}

/// A digest of a trace's timeline: equal digests mean the same events
/// at the same times on the same ranks.
fn timeline_digest(trace: &ClusterTrace) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for rank in trace.ranks() {
        rank.rank().hash(&mut h);
        for e in rank.events() {
            (e.name.as_ref(), e.ts.as_ns(), e.dur.as_ns()).hash(&mut h);
        }
    }
    h.finish()
}

/// The decomposed prediction pipeline, one span per public call; the
/// result must be bit-identical to `Lumos::predict_with_library`.
///
/// # Errors
///
/// Returns transform, reassembly and simulation failures.
pub fn predict_traced(
    base: &Base,
    transforms: &[Transform],
    rec: &mut Recorder,
) -> Result<(TrainingSetup, Dur, ClusterTrace), String> {
    let lumos = Lumos::new();
    let s = rec.begin();
    let setup = apply_transforms(&base.setup, transforms).map_err(|e| e.to_string())?;
    let spec = plan(&base.setup, &setup);
    let input = reassemble_with_library(&base.artifact.library, &spec, &base.cost)
        .map_err(|e| e.to_string())?;
    rec.end("core.reassemble", s);
    let graph = rec
        .time("core.build_graph", || lumos.build_graph(&input))
        .map_err(|e| e.to_string())?;
    let result = rec
        .time("core.simulate", || simulate(&graph, &lumos.sim))
        .map_err(|e| e.to_string())?;
    let trace = rec.time("core.to_trace", || result.to_trace(&graph, &input.label));
    rec.count("core.events", input.total_events() as f64);
    rec.count("core.graph_edges", edge_count(&graph.stats()) as f64);
    Ok((setup, result.makespan(), trace))
}

fn predict_plain(base: &Base, transforms: &[Transform]) -> Result<Predicted, String> {
    let p = Lumos::new()
        .predict_with_library(&base.artifact.library, &base.setup, transforms, &base.cost)
        .map_err(|e| e.to_string())?;
    Ok(Predicted {
        makespan: p.makespan(),
        setup: p.setup,
        trace: p.replayed.trace,
    })
}

/// Checks that a simulated trace's breakdown parts add up to its
/// makespan (the per-rank mean may round each part down by < 1 ns).
fn check_breakdown(trace: &ClusterTrace, makespan: Dur, c: &mut Checks, rec: &mut Recorder) {
    let b = rec.time("trace.breakdown", || trace.breakdown());
    let slack = trace.world_size() as u64 * 4;
    c.expect(
        makespan.as_ns().abs_diff(b.total().as_ns()) <= slack,
        || {
            format!(
                "{}: breakdown sums to {} but the makespan is {}",
                trace.label,
                b.total(),
                makespan
            )
        },
    );
}

impl Workload for Predict {
    type Out = Predicted;

    fn setup(seed: u64, small: bool, rec: &mut Recorder) -> Result<Self, String> {
        let mut bases = Vec::new();
        let mut targets = Vec::new();
        let mut r = Rng::new(seed, "predict/targets");
        let specs: Vec<(ModelConfig, &str, Vec<Vec<Transform>>)> = if small {
            let s = slots_15b(&mut r);
            vec![(
                ModelConfig::gpt3_15b(),
                "2x2x1",
                vec![s[2].clone(), s[4].clone()],
            )]
        } else {
            vec![
                (ModelConfig::gpt3_15b(), "2x2x1", slots_15b(&mut r)),
                (ModelConfig::gpt3_44b(), "4x4x1", slots_44b(&mut r)),
            ]
        };
        for (i, (model, label, slots)) in specs.into_iter().enumerate() {
            let setup = ground::deployment(model, label);
            let jitter = cluster_jitter(derive(seed, &format!("predict/base/{label}")));
            bases.push(calibrated_base(&setup, jitter, rec)?);
            targets.extend(slots.into_iter().map(|transforms| Target {
                base: i,
                transforms,
            }));
        }
        // Interleave the two bases' targets in a seeded order.
        r.shuffle(&mut targets);
        Ok(Predict {
            bases,
            targets,
            pending: Vec::new(),
        })
    }

    fn round_len(&self) -> usize {
        self.targets.len()
    }

    fn run(&self, i: usize, rec: &mut Recorder) -> Result<Predicted, String> {
        let t = &self.targets[i];
        let base = &self.bases[t.base];
        if rec.is_on() {
            let (setup, makespan, trace) = predict_traced(base, &t.transforms, rec)?;
            Ok(Predicted {
                setup,
                makespan,
                trace,
            })
        } else {
            predict_plain(base, &t.transforms)
        }
    }

    fn check(&mut self, i: usize, out: Predicted, first: bool, c: &mut Checks, rec: &mut Recorder) {
        let t = &self.targets[i];
        let base = &self.bases[t.base];
        let label = out.setup.label();
        let p = out.setup.parallelism;
        c.expect(out.trace.world_size() == p.world_size() as usize, || {
            format!(
                "{label}: predicted trace has {} ranks, want {}",
                out.trace.world_size(),
                p.world_size()
            )
        });
        if rec.is_on() {
            match predict_plain(base, &t.transforms) {
                Ok(plain) => c.expect(
                    plain.makespan == out.makespan
                        && timeline_digest(&plain.trace) == timeline_digest(&out.trace),
                    || format!("{label}: traced pipeline differs from predict_with_library"),
                ),
                Err(e) => c.fail(format!("{label}: {e}")),
            }
        }
        if first || rec.is_on() {
            check_breakdown(&out.trace, out.makespan, c, rec);
        }
        if first {
            self.pending.push((out.setup, out.makespan));
        }
    }

    fn finish(&mut self, c: &mut Checks) {
        for (setup, makespan) in &self.pending {
            match ground::truth(setup) {
                Ok(truth) => {
                    let gap = gap_pct(*makespan, truth);
                    c.expect(gap <= TRUTH_TOLERANCE_PCT, || {
                        format!(
                            "{}: predicted {makespan} is {gap:.2}% from the truth {truth} \
                             (tolerance {TRUTH_TOLERANCE_PCT}%)",
                            setup.label()
                        )
                    });
                    c.gap(gap);
                }
                Err(e) => c.fail(e),
            }
        }
        // More layers, or more micro-batches at a fixed deployment,
        // never shortens the predicted iteration.
        for base in &self.bases {
            let s = &base.setup;
            let m = s.batch.num_microbatches;
            let layers = s.model.num_layers + 2 * s.parallelism.pp;
            let pairs = [
                (vec![], vec![Mb { num: 2 * m }]),
                (vec![], vec![Layers { layers }]),
                (vec![Dp { dp: 2 }], vec![Dp { dp: 2 }, Mb { num: 2 * m }]),
            ];
            for (less, more) in pairs {
                match (predict_plain(base, &less), predict_plain(base, &more)) {
                    (Ok(a), Ok(b)) => c.expect(a.makespan <= b.makespan, || {
                        format!(
                            "{}: {more:?} predicts {} < {} without it",
                            s.label(),
                            b.makespan,
                            a.makespan
                        )
                    }),
                    (Err(e), _) | (_, Err(e)) => c.fail(format!("{}: {e}", s.label())),
                }
            }
        }
    }
}
