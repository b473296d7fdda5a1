//! The benchmark's own tests, at a reduced size (`Config::small`: one
//! set-up, one round, fewer inputs). Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{run, Config, Outcome, WORKLOADS};
use std::path::PathBuf;
use std::time::Instant;

fn small(workload: &str, seed: u64, trace: bool) -> Outcome {
    let cfg = Config {
        workload: workload.to_string(),
        seed,
        seconds: 0.0,
        trace,
        small: true,
        out_dir: std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id())),
    };
    run(&cfg, Instant::now()).unwrap_or_else(|e| panic!("{workload} seed {seed}: {e}"))
}

#[test]
fn same_seed_regenerates_inputs_gaps_and_counts() {
    for w in WORKLOADS {
        let (a, b) = (small(w, 3, true), small(w, 3, true));
        assert!(
            a.correct && b.correct,
            "{w}: {:?} {:?}",
            a.failures,
            b.failures
        );
        assert!(!a.gaps.is_empty(), "{w}: no truth gaps");
        assert_eq!(
            a.gaps, b.gaps,
            "{w}: truth gaps differ between runs of one seed"
        );
        assert_eq!(
            a.counts, b.counts,
            "{w}: per-layer counts differ between runs of one seed"
        );
        assert_eq!(a.attempted, b.attempted, "{w}");
    }
}

#[test]
fn another_seed_draws_valid_inputs() {
    for w in WORKLOADS {
        let o = small(w, 8, false);
        assert!(o.correct, "{w}: {:?}", o.failures);
        assert!(o.attempted > 0, "{w}");
        assert_eq!(o.failed, 0, "{w}");
    }
}

/// The metric names each mode prints are exactly the ones
/// `BENCHMARK.json` declares, with the same units.
#[test]
fn metrics_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json");
    let spec: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(|v| v.as_array())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let printed = |o: &Outcome| -> Vec<(String, String)> {
        o.metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    let sorted = |mut v: Vec<(String, String)>| {
        v.sort();
        v
    };
    assert_eq!(
        sorted(printed(&small("predict", 1, false))),
        sorted(declared("end_to_end"))
    );
    assert_eq!(
        sorted(printed(&small("replay", 1, true))),
        sorted(declared("per_layer"))
    );
}
