//! CI perf-regression gate: compares the key speedup ratios from a fresh
//! `BENCH_par_speedup.json` (or `BENCH_sched.json`) against the committed
//! baseline under `ci/baselines/`, failing when any ratio regressed by
//! more than the tolerance (default 15%).
//!
//! The gated ratios are relative measurements (Par engine vs the
//! OpenMP-analogue engine; relaxed scheduler vs
//! the barriered plan) plus their geomeans — deliberately not absolute
//! wall clocks, so the gate survives moving between runner machines of
//! different speed. The artifact kind is inferred from the row fields:
//! rows carrying `load_speedup` gate the plan-store artifact
//! (`BENCH_store.json`, mmap-load vs recompile/relower/cold-restart
//! ratios, blessed with a wide tolerance because the store path's tiny
//! denominators are noisy); rows carrying `speedup_vs_barriered` gate
//! the scheduling sweep, where
//! the headline ratios are **update efficiencies** (barriered node
//! updates / variant node updates) — convergence work is immune to
//! machine noise, unlike oversubscribed wall clocks — alongside a
//! wall-clock geomean blessed with a wide tolerance; and rows carrying
//! `dist_efficiency` gate the multi-process serving artifact
//! (`BENCH_dist.json`: structure-determined frontier-compression and
//! deterministic warm-gain ratios, plus a wide-tolerance wall-clock
//! geomean); rows carrying `warm_speedup` gate the warm-start serving
//! artifact (`BENCH_serve.json`: per-delta cold / warm seconds, each a
//! median of repeats, plus their geomean, blessed with a wide tolerance
//! because the warm denominators are sub-millisecond); rows carrying
//! `max_abs_diff_vs_resident` gate the streamed-vs-resident artifact
//! (`BENCH_stream.json`: per graph, resident Par Node seconds over
//! resident-shard Stream Node seconds, plus their geomean, blessed with
//! a wide tolerance because each is one single-run timing ratio).
//!
//! ```text
//! # refresh the artifact, then check it
//! cargo run --release -p credo-bench --bin exp_par_speedup -- --scale quick --max-iters 30
//! cargo run --release -p credo-bench --bin bench_gate -- --check
//!
//! # bless a new baseline after an intentional perf change
//! cargo run --release -p credo-bench --bin bench_gate -- --write-baseline
//! ```

use credo_bench::measure::{check_gates, Gate};
use credo_bench::{flag_present, flag_value};
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// The committed baseline: a named list of speedup ratios and the
/// tolerance they were blessed under.
#[derive(Serialize, Deserialize)]
struct Baseline {
    /// Source artifact the ratios were extracted from.
    source: String,
    /// Worst acceptable relative regression, e.g. 0.15 for 15%.
    tolerance: f64,
    /// `(ratio name, blessed value)` pairs; higher is better for all.
    ratios: Vec<(String, f64)>,
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Extracts the named key ratios from a `BENCH_par_speedup.json` row
/// array, in row order, geomeans last.
fn extract_ratios(rows: &[Value]) -> Result<Vec<(String, f64)>, String> {
    let mut ratios = Vec::new();
    let mut par = Vec::new();
    for row in rows {
        let graph = row
            .get("graph")
            .and_then(Value::as_str)
            .ok_or("row without a 'graph' field")?;
        let engine = row
            .get("engine")
            .and_then(Value::as_str)
            .ok_or("row without an 'engine' field")?;
        if let Some(s) = row.get("speedup_vs_openmp").and_then(Value::as_f64) {
            ratios.push((format!("{engine}/{graph}/vs_openmp"), s));
            par.push(s);
        }
    }
    if par.is_empty() {
        return Err("no rows carry speedup_vs_openmp — wrong or truncated artifact?".into());
    }
    ratios.push(("geomean/vs_openmp".into(), geomean(&par)));
    Ok(ratios)
}

/// Extracts the gated ratios from a `BENCH_sched.json` row array:
/// per-row update efficiency for every relaxed-family scheduler, plus
/// geomeans of update efficiency and wall-clock speedup over the relaxed
/// rows.
fn extract_sched_ratios(rows: &[Value]) -> Result<Vec<(String, f64)>, String> {
    let get_str = |row: &Value, key: &str| -> Result<String, String> {
        Ok(row
            .get(key)
            .and_then(Value::as_str)
            .ok_or_else(|| format!("sched row without a '{key}' field"))?
            .to_string())
    };
    let mut base_updates: std::collections::HashMap<(String, u64), f64> =
        std::collections::HashMap::new();
    for row in rows {
        if get_str(row, "sched")? == "barriered" {
            base_updates.insert(
                (
                    get_str(row, "graph")?,
                    row.get("threads").and_then(Value::as_u64).unwrap_or(0),
                ),
                row.get("node_updates")
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0),
            );
        }
    }
    let mut ratios = Vec::new();
    let (mut eff, mut wall) = (Vec::new(), Vec::new());
    for row in rows {
        let sched = get_str(row, "sched")?;
        if sched == "barriered" {
            continue;
        }
        let graph = get_str(row, "graph")?;
        let threads = row.get("threads").and_then(Value::as_u64).unwrap_or(0);
        let updates = row
            .get("node_updates")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        if let Some(&base) = base_updates.get(&(graph.clone(), threads)) {
            if base > 0.0 && updates > 0.0 {
                let e = base / updates;
                ratios.push((format!("{sched}/{graph}/t{threads}/update_efficiency"), e));
                if sched == "relaxed" {
                    eff.push(e);
                }
            }
        }
        if sched == "relaxed" {
            if let Some(s) = row.get("speedup_vs_barriered").and_then(Value::as_f64) {
                wall.push(s);
            }
        }
    }
    if eff.is_empty() {
        return Err("no relaxed rows with node_updates — wrong or truncated artifact?".into());
    }
    ratios.push(("geomean/relaxed_update_efficiency".into(), geomean(&eff)));
    if !wall.is_empty() {
        ratios.push(("geomean/relaxed_vs_barriered".into(), geomean(&wall)));
    }
    Ok(ratios)
}

/// Extracts the gated ratios from a `BENCH_store.json` row array: each
/// row's cold-vs-store `load_speedup` (compile/lower/first-request paid
/// cold over the store-assisted path) plus their geomean. All relative,
/// so the gate survives runner-speed changes; tolerance is blessed wide
/// because tiny mmap denominators are noisy.
fn extract_store_ratios(rows: &[Value]) -> Result<Vec<(String, f64)>, String> {
    let mut ratios = Vec::new();
    let mut all = Vec::new();
    for row in rows {
        let mode = row
            .get("mode")
            .and_then(Value::as_str)
            .ok_or("store row without a 'mode' field")?;
        let s = row
            .get("load_speedup")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("store row '{mode}' without a 'load_speedup' field"))?;
        ratios.push((format!("store/{mode}/load_speedup"), s));
        all.push(s);
    }
    if all.is_empty() {
        return Err("no rows carry load_speedup — wrong or truncated artifact?".into());
    }
    ratios.push(("geomean/store_load_speedup".into(), geomean(&all)));
    Ok(ratios)
}

/// Extracts the gated ratios from a `BENCH_dist.json` row array: the
/// structure-determined `frontier_ratio` (packed floats / boundary
/// floats shipped per sweep), the deterministic `warm_gain`
/// (cold / warm iterations) and `warm_update_ratio` (full-sweep /
/// actual warm node updates) per row, plus the wall-clock
/// `dist_efficiency` geomean — the latter blessed with a wide tolerance
/// because it divides two small single-machine timings.
fn extract_dist_ratios(rows: &[Value]) -> Result<Vec<(String, f64)>, String> {
    let mut ratios = Vec::new();
    let (mut gains, mut eff) = (Vec::new(), Vec::new());
    for row in rows {
        let graph = row
            .get("graph")
            .and_then(Value::as_str)
            .ok_or("dist row without a 'graph' field")?;
        let workers = row.get("workers").and_then(Value::as_u64).unwrap_or(0);
        if let Some(r) = row.get("frontier_ratio").and_then(Value::as_f64) {
            ratios.push((format!("dist/{graph}/w{workers}/frontier_ratio"), r));
        }
        if let Some(gain) = row.get("warm_gain").and_then(Value::as_f64) {
            ratios.push((format!("dist/{graph}/w{workers}/warm_gain"), gain));
            gains.push(gain);
        }
        if let Some(r) = row.get("warm_update_ratio").and_then(Value::as_f64) {
            ratios.push((format!("dist/{graph}/w{workers}/warm_update_ratio"), r));
        }
        if let Some(e) = row.get("dist_efficiency").and_then(Value::as_f64) {
            eff.push(e);
        }
    }
    if eff.is_empty() {
        return Err("no rows carry dist_efficiency — wrong or truncated artifact?".into());
    }
    if !gains.is_empty() {
        ratios.push(("geomean/dist_warm_gain".into(), geomean(&gains)));
    }
    ratios.push(("geomean/dist_efficiency".into(), geomean(&eff)));
    Ok(ratios)
}

/// Extracts the gated ratios from a `BENCH_serve.json` row array: each
/// delta's `warm_speedup` (median cold seconds / median warm seconds)
/// plus their geomean.
fn extract_serve_ratios(rows: &[Value]) -> Result<Vec<(String, f64)>, String> {
    let mut ratios = Vec::new();
    let mut all = Vec::new();
    for row in rows {
        let graph = row
            .get("graph")
            .and_then(Value::as_str)
            .ok_or("serve row without a 'graph' field")?;
        let delta = row
            .get("delta_nodes")
            .and_then(Value::as_u64)
            .ok_or("serve row without a 'delta_nodes' field")?;
        let s = row
            .get("warm_speedup")
            .and_then(Value::as_f64)
            .ok_or_else(|| {
                format!("serve row '{graph}/d{delta}' without a 'warm_speedup' field")
            })?;
        ratios.push((format!("serve/{graph}/d{delta}/warm_speedup"), s));
        all.push(s);
    }
    if all.is_empty() {
        return Err("no rows carry warm_speedup — wrong or truncated artifact?".into());
    }
    ratios.push(("geomean/serve_warm_speedup".into(), geomean(&all)));
    Ok(ratios)
}

/// Extracts the gated ratios from a `BENCH_stream.json` row array: per
/// graph, the resident Par Node's seconds over the resident-shard Stream
/// Node's (higher means the sharded sweep is closer to the resident
/// one), plus their geomean.
fn extract_stream_ratios(rows: &[Value]) -> Result<Vec<(String, f64)>, String> {
    let seconds = |graph: &str, engine: &str| -> Option<f64> {
        rows.iter()
            .find(|r| {
                r.get("graph").and_then(Value::as_str) == Some(graph)
                    && r.get("engine").and_then(Value::as_str) == Some(engine)
            })
            .and_then(|r| r.get("seconds"))
            .and_then(Value::as_f64)
    };
    let mut graphs: Vec<&str> = Vec::new();
    for row in rows {
        let graph = row
            .get("graph")
            .and_then(Value::as_str)
            .ok_or("stream row without a 'graph' field")?;
        if !graphs.contains(&graph) {
            graphs.push(graph);
        }
    }
    let mut ratios = Vec::new();
    let mut all = Vec::new();
    for graph in graphs {
        let par = seconds(graph, "Par Node");
        let stream = seconds(graph, "Stream Node (resident shards)");
        let (Some(par), Some(stream)) = (par, stream) else {
            return Err(format!(
                "stream graph '{graph}' lacks a Par Node or resident Stream Node row"
            ));
        };
        if stream <= 0.0 {
            return Err(format!("stream graph '{graph}' has a non-positive time"));
        }
        ratios.push((
            format!("stream/{graph}/par_over_stream_resident"),
            par / stream,
        ));
        all.push(par / stream);
    }
    if all.is_empty() {
        return Err("no stream rows — wrong or truncated artifact?".into());
    }
    ratios.push(("geomean/par_over_stream_resident".into(), geomean(&all)));
    Ok(ratios)
}

fn load_fresh(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read fresh artifact {path}: {e}"))?;
    let value: Value =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e:?}"))?;
    let rows = value
        .as_array()
        .ok_or_else(|| format!("{path} is not a JSON array of rows"))?;
    if rows.iter().any(|r| r.get("speedup_vs_barriered").is_some()) {
        extract_sched_ratios(rows)
    } else if rows.iter().any(|r| r.get("load_speedup").is_some()) {
        extract_store_ratios(rows)
    } else if rows.iter().any(|r| r.get("dist_efficiency").is_some()) {
        extract_dist_ratios(rows)
    } else if rows.iter().any(|r| r.get("warm_speedup").is_some()) {
        extract_serve_ratios(rows)
    } else if rows
        .iter()
        .any(|r| r.get("max_abs_diff_vs_resident").is_some())
    {
        extract_stream_ratios(rows)
    } else {
        extract_ratios(rows)
    }
}

fn main() {
    let fresh_path = flag_value("--fresh").unwrap_or_else(|| "BENCH_par_speedup.json".to_string());
    let baseline_path =
        flag_value("--baseline").unwrap_or_else(|| "ci/baselines/par_speedup.json".to_string());
    let tolerance: f64 = flag_value("--tolerance")
        .map(|v| v.parse().expect("--tolerance takes a float"))
        .unwrap_or(0.15);

    let fresh = match load_fresh(&fresh_path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench_gate: {e}");
            std::process::exit(2);
        }
    };

    if flag_present("--write-baseline") {
        let baseline = Baseline {
            source: fresh_path.clone(),
            tolerance,
            ratios: fresh,
        };
        if let Some(dir) = std::path::Path::new(&baseline_path).parent() {
            std::fs::create_dir_all(dir).expect("create baseline directory");
        }
        let json = serde_json::to_string_pretty(&baseline).expect("serialize baseline");
        std::fs::write(&baseline_path, json + "\n").expect("write baseline");
        println!(
            "bench_gate: wrote {} ratios from {fresh_path} to {baseline_path}",
            baseline.ratios.len()
        );
        return;
    }

    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "bench_gate: cannot read baseline {baseline_path}: {e}\n\
                 bless one with: bench_gate --fresh {fresh_path} --write-baseline"
            );
            std::process::exit(2);
        }
    };
    let baseline: Baseline = match serde_json::from_str(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench_gate: cannot parse baseline {baseline_path}: {e:?}");
            std::process::exit(2);
        }
    };
    let tolerance = flag_value("--tolerance")
        .map(|v| v.parse().expect("--tolerance takes a float"))
        .unwrap_or(baseline.tolerance);

    let mut gates = Vec::new();
    let mut missing = Vec::new();
    for (name, blessed) in &baseline.ratios {
        match fresh.iter().find(|(n, _)| n == name) {
            Some((_, value)) => gates.push(Gate {
                name: name.clone(),
                value: *value,
                reference: *blessed,
                tolerance,
                higher_is_better: true,
            }),
            None => missing.push(name.clone()),
        }
    }
    let new: Vec<&str> = fresh
        .iter()
        .map(|(n, _)| n.as_str())
        .filter(|n| !baseline.ratios.iter().any(|(b, _)| b == n))
        .collect();
    if !new.is_empty() {
        println!(
            "note: {} ratio(s) not in the baseline (re-bless to gate them): {}",
            new.len(),
            new.join(", ")
        );
    }

    println!(
        "bench_gate: {} vs {} (tolerance {:.0}%)",
        fresh_path,
        baseline_path,
        tolerance * 100.0
    );
    let verdict = check_gates(&gates);
    if !missing.is_empty() {
        eprintln!(
            "FAIL: {} baseline ratio(s) missing from the fresh artifact: {}",
            missing.len(),
            missing.join(", ")
        );
    }
    match verdict {
        Err(diff) => {
            eprintln!(
                "FAIL: performance regressed more than {:.0}% vs {baseline_path}:\n{diff}",
                tolerance * 100.0
            );
            std::process::exit(1);
        }
        Ok(()) if !missing.is_empty() => std::process::exit(1),
        Ok(()) => println!("OK: all {} gated ratios within tolerance", gates.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(graph: &str, engine: &str, seconds: f64) -> Value {
        serde_json::from_str(&format!(
            r#"{{"graph": "{graph}", "engine": "{engine}", "seconds": {seconds:?},
                "max_abs_diff_vs_resident": 0.0}}"#
        ))
        .unwrap()
    }

    #[test]
    fn stream_rows_gate_par_over_resident_stream_per_graph() {
        let rows = vec![
            row("1kx4k", "Par Node", 1.0),
            row("1kx4k", "Stream Node (resident shards)", 2.0),
            row("1kx4k", "Stream Node (spill)", 5.0),
            row("10kx40k", "Par Node", 4.0),
            row("10kx40k", "Stream Node (resident shards)", 2.0),
        ];
        let ratios = extract_stream_ratios(&rows).unwrap();
        assert_eq!(
            ratios,
            vec![
                ("stream/1kx4k/par_over_stream_resident".to_string(), 0.5),
                ("stream/10kx40k/par_over_stream_resident".to_string(), 2.0),
                ("geomean/par_over_stream_resident".to_string(), 1.0),
            ]
        );
        assert!(
            extract_stream_ratios(&rows[..1]).is_err(),
            "a graph without its stream row"
        );
    }
}
