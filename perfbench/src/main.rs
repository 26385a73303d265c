//! `perfbench`: the repository benchmark. Drives `credo serve` and
//! `credo route` (with `credo shard-worker`s) as child processes through a
//! closed-loop client, checks every answer it samples against an
//! in-process oracle, and prints one JSON result line.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--target-dir <cargo target dir holding release/credo>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1` is
//! the separate traced run that reports the per-layer metrics. See
//! `perfbench/README.md` for the workloads and every metric.

mod e2e;
mod layers;
mod oracle;
mod procs;
mod stream;

use e2e::{run_e2e, Ctx, Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

/// One measured value, printed as `"name": {"value": v, "unit": u}`.
pub type Metric = (&'static str, f64, &'static str);

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn run_one(ctx: &Ctx, w: &Workload, traced: bool) -> Result<Outcome, String> {
    procs::refuse_leftovers(&ctx.credo)?;
    let (correct, attempted, failed, metrics) = if traced {
        let t = layers::run_traced(ctx, w)?;
        (t.correct, t.attempted, t.failed, t.metrics)
    } else {
        let r = run_e2e(ctx, w)?;
        let metrics = r.report(w);
        (
            r.failed == 0 && r.counts_repeat,
            r.attempted,
            r.failed,
            metrics,
        )
    };
    if !correct {
        eprintln!(
            "{}: INVALID run (failed answers or counts that did not repeat)",
            w.name
        );
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: metrics
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u))
            .collect(),
    })
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn parse_args() -> Result<(Vec<Workload>, Ctx, bool), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut traced = false;
    let mut target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => traced = value()? != "0",
            "--target-dir" => target = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let workloads = match workload.as_deref() {
        Some("all") => WORKLOADS.to_vec(),
        Some(name) => vec![Workload::by_name(name)
            .ok_or(format!("unknown workload {name}; one of {names:?} or all"))?],
        None => return Err(format!("--workload is required: one of {names:?} or all")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let credo = e2e::credo_binary(&PathBuf::from(target))?;
    Ok((
        workloads,
        Ctx {
            credo,
            seed,
            seconds,
        },
        traced,
    ))
}

fn main() -> ExitCode {
    procs::install_signal_handlers();
    let (workloads, ctx, traced) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    let prefix = workloads.len() > 1;
    for w in &workloads {
        match run_one(&ctx, w, traced) {
            Ok(o) => {
                all.correct &= o.correct;
                all.attempted += o.attempted;
                all.failed += o.failed;
                for (name, value, unit) in o.metrics {
                    let name = if prefix {
                        format!("{}.{name}", w.name)
                    } else {
                        name
                    };
                    println!("  {name} = {value:.6} {unit}");
                    all.metrics.push((name, value, unit));
                }
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", json_line(&all));
    ExitCode::SUCCESS
}
