//! Beyond the paper — native persistent-pool parallel engines vs the
//! §2.4 OpenMP-analogue attempt and the sequential C baselines.
//!
//! The OpenMP-analogue engines reproduce the paper's failed CPU
//! parallelization: threads spawned and joined per parallel region, a
//! CAS-loop `atomic_mul_f32` reduction, and a globally re-sorted work
//! queue. `credo_core::par` drops those self-imposed overheads (one
//! persistent pool, deterministic per-thread scratch reductions, cached
//! shared-potential messages) while keeping the exact Algorithm 1
//! semantics. This experiment measures what that buys on the standard
//! synthetic sizes, and confirms the Par edge engine burns zero CAS
//! retries.
//!
//! `--mode plain|queue|residual` selects the scheduling strategy: a full
//! Jacobi sweep per iteration (default), the §3.5 work queue, or the
//! queue ordered by descending last-update residual (Par engines only —
//! the Seq/OpenMP columns use the plain queue for comparison).
//!
//! `--stream-only` skips the engine table and runs just the
//! streamed-vs-resident section, for exercising the large `--scale full`
//! sizes without paying for the sequential baselines first.

use credo::engines::{
    OpenMpEdgeEngine, OpenMpNodeEngine, ParEdgeEngine, ParNodeEngine, RelaxedNodeEngine,
    SeqEdgeEngine, SeqNodeEngine,
};
use credo::{BpEngine, BpOptions, Paradigm};
use credo_bench::measure::{check_gates, interleaved_medians, Gate};
use credo_bench::report::{fmt_secs, fmt_speedup, save_bench_json, save_json, save_trace, Table};
use credo_bench::runner::{run_clean, run_traced_clean};
use credo_bench::suite::Scale;
use credo_bench::{flag_value, scale_from_args};
use credo_graph::generators::{preferential_attachment, synthetic, GenOptions, PotentialKind};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    graph: String,
    nodes: usize,
    edges: usize,
    paradigm: String,
    engine: String,
    threads: usize,
    seconds: f64,
    iterations: u32,
    converged: bool,
    atomic_retries: u64,
    /// Par-engine wall-clock speedup over the OpenMP-analogue engine of
    /// the same paradigm on the same graph (None for non-Par rows).
    speedup_vs_openmp: Option<f64>,
    /// Mean bytes the compiled plan moves per message on this graph
    /// (None for rows that never touch the packed layout).
    bytes_per_message: Option<f64>,
}

/// CI guard for the zero-cost claim (`--overhead-check`): Par Node at one
/// thread (the plan hot path `credo serve` runs) on the 10k synthetic
/// graph, interleaved median-of-N wall clock, comparing the
/// untraced entry point against (a) a disabled dispatch and (b) an
/// attached recorder whose methods discard everything. Exits non-zero
/// when either traced variant's median is more than 2% slower than the
/// untraced median.
fn overhead_check() {
    struct DiscardRecorder;
    impl credo_trace::Recorder for DiscardRecorder {
        fn new_span(&self, _: &'static str, _: &[credo_trace::Field<'_>]) -> credo_trace::Id {
            credo_trace::Id(0)
        }
        fn record(&self, _: credo_trace::Id, _: &[credo_trace::Field<'_>]) {}
        fn close_span(&self, _: credo_trace::Id) {}
        fn event(&self, _: &'static str, _: &[credo_trace::Field<'_>]) {}
        fn timed_span(
            &self,
            _: &'static str,
            _: &'static str,
            _: f64,
            _: f64,
            _: &[credo_trace::Field<'_>],
        ) {
        }
        fn counter(&self, _: &'static str, _: f64) {}
    }

    let opts = credo_bench::apply_max_iters(BpOptions::default()).with_threads(1);
    let g = synthetic(10_000, 40_000, &GenOptions::new(2).with_seed(42));
    let rounds = 7;
    let disabled_dispatch = credo::Dispatch::none();
    let discard_dispatch = credo::Dispatch::new(std::sync::Arc::new(DiscardRecorder));
    let time = |trace: Option<&credo::Dispatch>| {
        let mut work = g.clone();
        let stats = match trace {
            None => run_clean(&ParNodeEngine, &mut work, &opts),
            Some(t) => run_traced_clean(&ParNodeEngine, &mut work, &opts, t),
        };
        stats.unwrap().reported_time.as_secs_f64()
    };
    // Interleaved median-of-N: drift hits all three variants equally and
    // a single noisy sample on either side cannot decide the verdict.
    let meds = interleaved_medians(
        rounds,
        &mut [
            &mut || time(None),
            &mut || time(Some(&disabled_dispatch)),
            &mut || time(Some(&discard_dispatch)),
        ],
    );
    let (untraced, disabled, discard) = (meds[0], meds[1], meds[2]);
    println!(
        "Par Node (1 thread) 10kx40k median-of-{rounds}: untraced {}, no-op dispatch {} ({:+.2}%), discarding recorder {} ({:+.2}%)",
        fmt_secs(untraced),
        fmt_secs(disabled),
        (disabled / untraced - 1.0) * 100.0,
        fmt_secs(discard),
        (discard / untraced - 1.0) * 100.0,
    );
    let gate = |name: &str, value: f64| Gate {
        name: name.to_string(),
        value,
        reference: untraced,
        tolerance: 0.02,
        higher_is_better: false,
    };
    if let Err(diff) = check_gates(&[
        gate("no-op dispatch vs untraced", disabled),
        gate("discarding recorder vs untraced", discard),
    ]) {
        eprintln!("FAIL: tracing overhead exceeds 2%\n{diff}");
        std::process::exit(1);
    }
    println!("OK: tracing overhead within 2%");
}

/// CI guard for the plan lowering (`--plan-smoke`): on the 100k
/// synthetic graph, interleaved median-of-5 wall clock, the plan (Par
/// Node at one thread) vs the AoS C Node. Exits non-zero when the plan's
/// median is more than 2% slower — lowering must never cost the
/// sequential baseline anything.
fn plan_smoke() {
    let opts = credo_bench::apply_max_iters(BpOptions::default());
    let g = synthetic(100_000, 400_000, &GenOptions::new(2).with_seed(42));
    let rounds = 5;
    let time = |engine: &dyn BpEngine, o: &BpOptions| {
        let mut work = g.clone();
        run_clean(engine, &mut work, o)
            .unwrap()
            .reported_time
            .as_secs_f64()
    };
    let meds = interleaved_medians(
        rounds,
        &mut [
            &mut || time(&ParNodeEngine, &opts.with_threads(1)),
            &mut || time(&SeqNodeEngine, &opts),
        ],
    );
    let (plan, aos) = (meds[0], meds[1]);
    println!(
        "100kx400k median-of-{rounds}: plan (Par Node, 1 thread) {} vs AoS C Node {} ({:+.2}%)",
        fmt_secs(plan),
        fmt_secs(aos),
        (plan / aos - 1.0) * 100.0,
    );
    let gates = [Gate {
        name: "plan (Par Node, 1 thread) vs AoS C Node".into(),
        value: plan,
        reference: aos,
        tolerance: 0.02,
        higher_is_better: false,
    }];
    if let Err(diff) = check_gates(&gates) {
        eprintln!(
            "FAIL: the plan at one thread is more than 2% slower than the AoS C Node\n{diff}"
        );
        std::process::exit(1);
    }
    println!("OK: the plan at one thread is no slower than the AoS C Node");
}

#[derive(Serialize)]
struct SchedRow {
    graph: String,
    nodes: usize,
    edges: usize,
    /// Scheduling strategy: `barriered` (Par Node residual-priority plan),
    /// `relaxed`, `splash`, or `decay` (the relaxed engine's variants).
    sched: String,
    threads: usize,
    seconds: f64,
    iterations: u32,
    node_updates: u64,
    converged: bool,
    /// L-inf distance of the final beliefs from the Seq Node reference.
    max_abs_diff_vs_seq: f64,
    /// Wall-clock speedup over the barriered Par Node run at the same
    /// thread count on the same graph (None for the barriered rows).
    speedup_vs_barriered: Option<f64>,
}

/// Weak-scaling sweep of the relaxed scheduler (`--sched-only`): the
/// barriered residual-priority Par Node plan vs the barrier-free
/// [`RelaxedNodeEngine`] and its splash / weighted-decay variants, across
/// 1..N threads on a uniform and a heavy-tailed (preferential-attachment)
/// graph, writing `BENCH_sched.json`.
///
/// Both generators use weak (contractive) coupling, and a sparse set of
/// observed evidence nodes pins the phase: only then do the asynchronous
/// schedules agree with the Jacobi Seq Node reference to the tolerances
/// asserted here (1e-4 for the residual-ordered schedules, 2e-3 for
/// weighted decay, which trades schedule fidelity for faster
/// convergence). The default attractive potentials admit multiple
/// near-delta fixed points, and on heavy-tailed graphs even weak coupling
/// orders around the hubs — without evidence the whole graph can converge
/// to the mirrored fixed point under a different schedule.
fn sched_section(scale: Scale, max_threads: usize) {
    let weak = |card: u32| PotentialKind::SharedSmoothing(0.6 * (card - 1) as f32 / card as f32);
    let (n_uni, e_uni, n_pa) = match scale {
        Scale::Quick => (2_000, 8_000, 2_000),
        Scale::Default => (10_000, 40_000, 10_000),
        Scale::Full => (100_000, 400_000, 100_000),
    };
    let mut graphs = [
        (
            "uniform",
            synthetic(
                n_uni,
                e_uni,
                &GenOptions::new(2).with_seed(42).with_potentials(weak(2)),
            ),
        ),
        (
            "heavy-tailed",
            preferential_attachment(
                n_pa,
                4,
                &GenOptions::new(2).with_seed(42).with_potentials(weak(2)),
            ),
        ),
    ];
    for (_, g) in &mut graphs {
        for i in (0..g.num_nodes() as u32).step_by(97) {
            g.observe(i, (i % 2) as usize);
        }
    }
    // Tight thresholds: the 1e-4 agreement assertion needs the runs to
    // converge well past the default 1e-3.
    let mut base = credo_bench::apply_max_iters(BpOptions::default());
    base.threshold = 2e-5;
    base.queue_threshold = 2e-5;
    base.max_iterations = base.max_iterations.max(2_000);

    let mut threads: Vec<usize> = vec![1, 2, 4, 8];
    if max_threads > 8 {
        threads.push(max_threads);
    }

    let mut table = Table::new(&[
        "Graph",
        "threads",
        "barriered",
        "relaxed",
        "splash",
        "decay",
        "relaxed x",
        "worst diff",
    ]);
    let mut rows: Vec<SchedRow> = Vec::new();
    for (label, g) in &graphs {
        let meta = g.metadata();
        let name = format!("{label} {}x{}", meta.num_nodes, meta.num_edges);
        let mut reference = g.clone();
        run_clean(&SeqNodeEngine, &mut reference, &base).unwrap();
        let seq_beliefs: Vec<f32> = reference
            .beliefs()
            .iter()
            .flat_map(|b| b.as_slice().iter().copied())
            .collect();
        let linf = |work: &credo_graph::BeliefGraph| {
            work.beliefs()
                .iter()
                .flat_map(|b| b.as_slice().iter().copied())
                .zip(&seq_beliefs)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0f64, f64::max)
        };
        for &t in &threads {
            let scheds: [(&str, &dyn BpEngine, BpOptions); 4] = [
                (
                    "barriered",
                    &ParNodeEngine,
                    base.with_residual_priority().with_threads(t),
                ),
                ("relaxed", &RelaxedNodeEngine, base.with_threads(t)),
                (
                    "splash",
                    &RelaxedNodeEngine,
                    base.with_threads(t).with_splash(8),
                ),
                (
                    "decay",
                    &RelaxedNodeEngine,
                    base.with_threads(t).with_decay(0.5),
                ),
            ];
            let mut secs = [0.0f64; 4];
            let mut worst = 0.0f64;
            for (i, (sched, engine, opts)) in scheds.iter().enumerate() {
                let mut work = g.clone();
                let stats = run_clean(*engine, &mut work, opts).unwrap();
                let diff = linf(&work);
                // Weighted decay trades schedule fidelity for faster
                // convergence (hot nodes are revisited in orders residual
                // BP would never take), so its agreement band is looser
                // than the residual-ordered schedules' 1e-4.
                let tol = if *sched == "decay" { 2e-3 } else { 1e-4 };
                assert!(
                    diff <= tol,
                    "{name} {sched} x{t}: beliefs drifted {diff:e} from Seq Node"
                );
                worst = worst.max(diff);
                secs[i] = stats.reported_time.as_secs_f64();
                rows.push(SchedRow {
                    graph: name.clone(),
                    nodes: meta.num_nodes,
                    edges: meta.num_edges,
                    sched: sched.to_string(),
                    threads: t,
                    seconds: secs[i],
                    iterations: stats.iterations,
                    node_updates: stats.node_updates,
                    converged: stats.converged,
                    max_abs_diff_vs_seq: diff,
                    speedup_vs_barriered: (i > 0).then(|| secs[0] / secs[i]),
                });
            }
            table.row(&[
                name.clone(),
                t.to_string(),
                fmt_secs(secs[0]),
                fmt_secs(secs[1]),
                fmt_secs(secs[2]),
                fmt_secs(secs[3]),
                fmt_speedup(secs[0] / secs[1]),
                format!("{worst:.1e}"),
            ]);
        }
    }
    println!();
    println!("relaxed scheduling weak-scaling sweep (barriered = Par Node residual plan):");
    table.print();
    let relaxed: Vec<f64> = rows
        .iter()
        .filter(|r| r.sched == "relaxed")
        .map(|r| r.speedup_vs_barriered.unwrap())
        .collect();
    let geo = (relaxed.iter().map(|s| s.ln()).sum::<f64>() / relaxed.len() as f64).exp();
    println!(
        "geomean relaxed speedup over barriered: {}",
        fmt_speedup(geo)
    );
    if let Ok(p) = save_json("sched", &rows) {
        println!("JSON: {}", p.display());
    }
    if let Ok(p) = save_bench_json("sched", &rows) {
        println!("JSON: {}", p.display());
    }
}

#[derive(Serialize)]
struct StreamRow {
    graph: String,
    nodes: usize,
    edges: usize,
    engine: String,
    shards: usize,
    threads: usize,
    /// Wall-clock of the two-pass streaming lowering (None for the
    /// resident baseline, whose graph is already in memory).
    lower_seconds: Option<f64>,
    seconds: f64,
    iterations: u32,
    converged: bool,
    /// Largest single shard's resident footprint in spill mode — the
    /// peak arc/potential memory of the streamed run.
    max_shard_bytes: Option<usize>,
    /// L∞ distance of the final beliefs from the resident Par Node run.
    max_abs_diff_vs_resident: f64,
}

/// Streamed-vs-resident comparison: the resident Par Node plan runner
/// against the same graph streamed from its MTX pair into shards —
/// resident shards and disk-spilled shards — writing `BENCH_stream.json`.
fn stream_section(sizes: &[(usize, usize)], threads: usize, opts: &BpOptions) {
    use credo_core::run_sharded;

    const SHARDS: usize = 8;
    let dir = std::env::temp_dir().join(format!("credo-bench-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create stream scratch dir");

    let mut table = Table::new(&[
        "Graph",
        "Par plan",
        "Stream resident",
        "Stream spill",
        "lower",
        "peak shard",
        "max|Δ|",
    ]);
    let mut rows: Vec<StreamRow> = Vec::new();
    let opts = opts.with_threads(threads);
    for &(n, e) in sizes {
        let name = format!("{n}x{e}");
        let g = synthetic(n, e, &GenOptions::new(2).with_seed(42));
        let nodes_path = dir.join(format!("{name}_nodes.mtx"));
        let edges_path = dir.join(format!("{name}_edges.mtx"));
        credo_io::mtx::write_files(&g, &nodes_path, &edges_path).expect("write MTX pair");

        let mut resident = g.clone();
        let s_par = run_clean(&ParNodeEngine, &mut resident, &opts).unwrap();
        let reference: Vec<f32> = resident
            .beliefs()
            .iter()
            .flat_map(|b| b.as_slice().iter().copied())
            .collect();
        let linf = |beliefs: &[f32]| {
            beliefs
                .iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs() as f64)
                .fold(0.0f64, f64::max)
        };

        let t0 = std::time::Instant::now();
        let mut sx =
            credo_stream::lower_files(&nodes_path, &edges_path, SHARDS).expect("stream lowering");
        let lower_res = t0.elapsed().as_secs_f64();
        let (s_res, b_res) = run_sharded(
            "Stream Node",
            &mut sx,
            &opts,
            &credo::Dispatch::none(),
            threads,
            None,
        )
        .unwrap();
        drop(sx);

        let t0 = std::time::Instant::now();
        let mut spilled = credo_stream::lower_files_spill(
            &nodes_path,
            &edges_path,
            SHARDS,
            &dir.join(format!("{name}_shards")),
        )
        .expect("spill lowering");
        let lower_spill = t0.elapsed().as_secs_f64();
        let peak = spilled.max_shard_bytes();
        let (s_spill, b_spill) = run_sharded(
            "Stream Node",
            &mut spilled,
            &opts,
            &credo::Dispatch::none(),
            threads,
            None,
        )
        .unwrap();

        let (d_res, d_spill) = (linf(&b_res), linf(&b_spill));
        let max_diff = d_res.max(d_spill);
        assert!(
            max_diff <= 1e-4,
            "{name}: streamed beliefs drifted {max_diff:e} from resident Par Node"
        );
        table.row(&[
            name.clone(),
            fmt_secs(s_par.reported_time.as_secs_f64()),
            fmt_secs(s_res.reported_time.as_secs_f64()),
            fmt_secs(s_spill.reported_time.as_secs_f64()),
            fmt_secs(lower_spill),
            format!("{} KiB", peak / 1024),
            format!("{max_diff:.1e}"),
        ]);
        for (stats, engine, lower, shard_bytes, diff) in [
            (&s_par, "Par Node".to_string(), None, None, 0.0),
            (
                &s_res,
                "Stream Node (resident shards)".to_string(),
                Some(lower_res),
                None,
                d_res,
            ),
            (
                &s_spill,
                "Stream Node (spill)".to_string(),
                Some(lower_spill),
                Some(peak),
                d_spill,
            ),
        ] {
            rows.push(StreamRow {
                graph: name.clone(),
                nodes: n,
                edges: e,
                engine,
                shards: SHARDS,
                threads,
                lower_seconds: lower,
                seconds: stats.reported_time.as_secs_f64(),
                iterations: stats.iterations,
                converged: stats.converged,
                max_shard_bytes: shard_bytes,
                max_abs_diff_vs_resident: diff,
            });
        }
    }
    println!();
    println!("streamed vs resident ({SHARDS} shards):");
    table.print();
    if let Ok(p) = save_json("stream", &rows) {
        println!("JSON: {}", p.display());
    }
    if let Ok(p) = save_bench_json("stream", &rows) {
        println!("JSON: {}", p.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn main() {
    if credo_bench::flag_present("--overhead-check") {
        return overhead_check();
    }
    if credo_bench::flag_present("--plan-smoke") {
        return plan_smoke();
    }
    let scale = scale_from_args();
    let threads: usize = flag_value("--threads")
        .map(|v| v.parse().expect("--threads takes an integer"))
        .unwrap_or(4);
    // The comparison targets fixed synthetic sizes (the 100k graph is the
    // headline row); `--scale full` extends the sweep upward.
    let mut sizes: Vec<(usize, usize)> = vec![(1_000, 4_000), (10_000, 40_000), (100_000, 400_000)];
    if scale == Scale::Full {
        sizes.push((1_000_000, 4_000_000));
    }
    let mode = flag_value("--mode").unwrap_or_else(|| "plain".to_string());
    let base = match mode.as_str() {
        "plain" => BpOptions::default(),
        "queue" | "residual" => BpOptions::with_work_queue(),
        other => panic!("unknown mode '{other}' (plain|queue|residual)"),
    };
    let opts = credo_bench::apply_max_iters(base);
    // Residual ordering only exists in the Par engines; the baselines fall
    // back to the plain queue so the columns stay comparable.
    let par_opts = if mode == "residual" {
        credo_bench::apply_max_iters(BpOptions::default().with_residual_priority())
    } else {
        opts
    };
    if credo_bench::flag_present("--sched-only") {
        return sched_section(scale, threads);
    }
    if credo_bench::flag_present("--stream-only") {
        return stream_section(&sizes, threads, &opts);
    }
    let prog = credo_bench::progress_from_args();
    credo_bench::progress(
        &prog,
        &format!(
            "Native parallel engines vs OpenMP-analogue vs sequential ({threads} threads, scale: {scale:?}, mode: {mode})"
        ),
    );

    let mut table = Table::new(&[
        "Graph",
        "paradigm",
        "Seq",
        "OpenMP",
        "Par",
        "Par/OpenMP",
        "Par CAS",
        "B/msg",
    ]);
    let mut rows: Vec<Row> = Vec::new();
    for &(n, e) in &sizes {
        let name = format!("{n}x{e}");
        let g = synthetic(n, e, &GenOptions::new(2).with_seed(42));
        let plan = g.compile();
        let bytes_per_message = plan.mean_bytes_per_message(plan.is_shared());
        drop(plan);
        for paradigm in [Paradigm::Edge, Paradigm::Node] {
            let (seq, omp, par): (Box<dyn BpEngine>, Box<dyn BpEngine>, Box<dyn BpEngine>) =
                match paradigm {
                    Paradigm::Edge => (
                        Box::new(SeqEdgeEngine),
                        Box::new(OpenMpEdgeEngine),
                        Box::new(ParEdgeEngine),
                    ),
                    _ => (
                        Box::new(SeqNodeEngine),
                        Box::new(OpenMpNodeEngine),
                        Box::new(ParNodeEngine),
                    ),
                };
            let mut work = g.clone();
            let s_seq = run_clean(seq.as_ref(), &mut work, &opts).unwrap();
            let s_omp = run_clean(omp.as_ref(), &mut work, &opts.with_threads(threads)).unwrap();
            let s_par =
                run_clean(par.as_ref(), &mut work, &par_opts.with_threads(threads)).unwrap();
            let speedup = s_omp.reported_time.as_secs_f64() / s_par.reported_time.as_secs_f64();
            table.row(&[
                name.clone(),
                paradigm.to_string(),
                fmt_secs(s_seq.reported_time.as_secs_f64()),
                fmt_secs(s_omp.reported_time.as_secs_f64()),
                fmt_secs(s_par.reported_time.as_secs_f64()),
                fmt_speedup(speedup),
                s_par.atomic_retries.to_string(),
                format!("{bytes_per_message:.1}"),
            ]);
            for (stats, sp) in [(&s_seq, None), (&s_omp, None), (&s_par, Some(speedup))] {
                rows.push(Row {
                    graph: name.clone(),
                    nodes: n,
                    edges: e,
                    paradigm: paradigm.to_string(),
                    engine: stats.engine.to_string(),
                    threads: if stats.engine.starts_with("C ") {
                        1
                    } else {
                        threads
                    },
                    seconds: stats.reported_time.as_secs_f64(),
                    iterations: stats.iterations,
                    converged: stats.converged,
                    atomic_retries: stats.atomic_retries,
                    speedup_vs_openmp: sp,
                    bytes_per_message: Some(bytes_per_message),
                });
            }
        }
    }
    table.print();

    println!();
    let par_rows: Vec<&Row> = rows
        .iter()
        .filter(|r| r.speedup_vs_openmp.is_some())
        .collect();
    let geo = (par_rows
        .iter()
        .map(|r| r.speedup_vs_openmp.unwrap().ln())
        .sum::<f64>()
        / par_rows.len() as f64)
        .exp();
    println!(
        "geomean Par speedup over OpenMP-analogue: {}",
        fmt_speedup(geo)
    );
    let retries: u64 = par_rows.iter().map(|r| r.atomic_retries).sum();
    println!("total Par CAS retries: {retries} (deterministic reductions use none)");

    // Non-default modes write under a suffixed name so the headline
    // plain-mode artifact is never clobbered.
    let json_name = if mode == "plain" {
        "par_speedup".to_string()
    } else {
        format!("par_speedup_{mode}")
    };
    if let Ok(p) = save_json(&json_name, &rows) {
        println!("JSON: {}", p.display());
    }
    if let Ok(p) = save_bench_json(&json_name, &rows) {
        println!("JSON: {}", p.display());
    }

    // The streamed-vs-resident comparison ignores the scheduling mode
    // (sharded sweeps are always plain Jacobi), so run it once, from the
    // headline plain-mode invocation.
    if mode == "plain" {
        stream_section(&sizes, threads, &opts);
    }

    // `--trace`: capture a full telemetry trace of the headline engines on
    // the 10k graph and park it next to the BENCH_*.json artefact.
    if credo_bench::flag_present("--trace") {
        let buffer = std::sync::Arc::new(credo_trace::TraceBuffer::new());
        let trace = credo::Dispatch::new(buffer.clone());
        let g = synthetic(10_000, 40_000, &GenOptions::new(2).with_seed(42));
        let mut work = g.clone();
        run_traced_clean(&SeqNodeEngine, &mut work, &opts, &trace).unwrap();
        run_traced_clean(
            &ParNodeEngine,
            &mut work,
            &par_opts.with_threads(threads),
            &trace,
        )
        .unwrap();
        if let Ok((chrome, jsonl)) = save_trace(&json_name, &buffer) {
            println!("trace: {}", chrome.display());
            println!("trace: {}", jsonl.display());
        }
    }
}
