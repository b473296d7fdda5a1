//! `perfbench --workload <predict|search|robust|replay> --seed <n>
//! --seconds <s> --trace <0|1>`: runs one workload and prints, as its
//! last line, `{"correct", "attempted", "failed", "metrics"}` — the
//! end-to-end metrics, or with `--trace 1` the per-layer ones (the
//! spans also go to `.bench_out/perfbench-<workload>-seed<n>.json`).
//! Exits 0 when every check passed, 1 when one failed, 2 on bad
//! arguments or a failed set-up.

use perfbench::{run, Config};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg, epoch) {
        Ok(outcome) => {
            eprintln!(
                "perfbench {} seed {}: {} truth gaps, {} failed checks",
                cfg.workload,
                cfg.seed,
                outcome.gaps.len(),
                outcome.failures.len()
            );
            println!("{}", outcome.json_line());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
