//! The workloads, the server-side fleets they start, the closed-loop
//! load generator, and the untraced end-to-end run.

use crate::oracle::{build_graph, Oracle, Posteriors};
use crate::procs::{check_interrupt, cpu_ms, Fleet, Res, TempDir};
use crate::stream::StreamSpec;
use credo_serve::Client;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Front {
    /// `credo serve <spec> --threads 1`.
    Serve,
    /// `credo route <spec> --cache-cap 0` in front of `workers` `credo
    /// shard-worker --threads 1` processes sharing a plan store.
    Route { workers: usize },
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub nodes: usize,
    pub edges: usize,
    pub front: Front,
    /// Observations per request.
    pub observed: usize,
    pub repeats: bool,
    /// Requests after the first answer whose server counters must repeat
    /// exactly on every fleet started in a run.
    pub prefix: u64,
    /// Timed answers compared with the oracle: spread over the run, or
    /// the first ones for route, whose oracle must replay every request
    /// before the last one it checks.
    pub samples: usize,
}

/// Fleets started per run, each timed for an equal share of `--seconds`;
/// `setup_s` is the median of their set-ups.
const FLEETS: usize = 5;

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "serve-warm-churn",
        nodes: 100_000,
        edges: 400_000,
        front: Front::Serve,
        observed: 4,
        repeats: true,
        prefix: 200,
        samples: 8,
    },
    Workload {
        name: "route-warm-churn",
        nodes: 50_000,
        edges: 200_000,
        front: Front::Route { workers: 2 },
        // With 4 observations P(<= 3 sweeps) is about 0.53, so the median
        // request jumped a whole sweep between seeds; with 8 it is 0.18.
        observed: 8,
        repeats: false,
        prefix: 12,
        samples: 96,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    pub fn spec(&self) -> String {
        format!("{}x{}", self.nodes, self.edges)
    }

    pub fn stream(&self, seed: u64) -> StreamSpec {
        StreamSpec {
            seed,
            nodes: self.nodes as u32,
            observed: self.observed,
            repeats: self.repeats,
        }
    }

    pub fn oracle(&self) -> Res<Oracle> {
        let graph = build_graph(self.nodes, self.edges);
        match self.front {
            Front::Serve => Ok(Oracle::cold(graph)),
            Front::Route { workers } => Oracle::sharded(&graph, workers),
        }
    }
}

/// Counters the seeded stream fixes exactly (batch counts are left out:
/// they depend on arrival timing).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Counts {
    pub warm_runs: u64,
    pub cold_runs: u64,
    pub bp_iterations: u64,
    pub cache_hits: u64,
    pub dist_runs: u64,
    pub dist_sweeps: u64,
}

/// One field of the server's metrics JSON.
pub fn stat(json: &str, name: &str) -> u64 {
    let key = format!("\"{name}\":");
    json.find(&key)
        .and_then(|at| {
            let rest = &json[at + key.len()..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        })
        .unwrap_or(0)
}

pub fn fetch_stats(addr: &str) -> Res<String> {
    let mut c = Client::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    let r = c.stats().map_err(|e| format!("stats: {e}"))?;
    Ok(r.stats_json)
}

impl Counts {
    pub fn from_stats(json: &str) -> Counts {
        Counts {
            warm_runs: stat(json, "warm_runs"),
            cold_runs: stat(json, "cold_runs"),
            bp_iterations: stat(json, "warm_iterations") + stat(json, "cold_iterations"),
            cache_hits: stat(json, "cache_hits"),
            dist_runs: stat(json, "dist_runs"),
            dist_sweeps: stat(json, "dist_sweeps"),
        }
    }
}

/// A started fleet answering on `addr`.
pub struct Instance {
    pub fleet: Fleet,
    pub addr: String,
    /// Shard-worker pids (route only).
    pub workers: Vec<u32>,
    pub setup_s: f64,
    pub counts: Counts,
    // Dropped after the fleet (field order), so workers never see their
    // store vanish under them.
    _store: Option<TempDir>,
}

impl Instance {
    /// Asks the front to shut down and reaps the fleet.
    pub fn stop(mut self) -> Res<()> {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        self.fleet.stop(Duration::from_secs(20))
    }
}

/// One closed-loop answer.
pub struct Sample {
    pub index: u64,
    pub latency_ms: f64,
    /// `None` when the request failed (error reply or broken link).
    pub posteriors: Option<Posteriors>,
    pub cached: bool,
}

pub struct Ctx {
    pub credo: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// Starts `w`'s fleet, sends request 0 and checks its answer against
/// `first` (`setup_s` ends at that answer), then drives the count prefix
/// and records the counters it produced.
pub fn start_instance(
    ctx: &Ctx,
    w: &Workload,
    oracle: &Oracle,
    first: &Posteriors,
) -> Res<Instance> {
    check_interrupt()?;
    let stream = w.stream(ctx.seed);
    let spec = w.spec();
    // Declared before the fleet so that, on an early return, the fleet
    // is reaped before its store is removed.
    let mut store = None;
    let t0 = Instant::now();
    let mut fleet = Fleet::default();
    let mut workers = Vec::new();
    let local = "127.0.0.1:0".to_string();
    let addr = match w.front {
        Front::Serve => {
            let args = ["serve", &spec, "--addr", &local, "--threads", "1"];
            fleet.spawn(&ctx.credo, &args.map(String::from))?
        }
        Front::Route { workers: k } => {
            let mut addrs = Vec::new();
            for _ in 0..k {
                let args = ["shard-worker", "--addr", &local, "--threads", "1"];
                addrs.push(fleet.spawn(&ctx.credo, &args.map(String::from))?);
            }
            workers = fleet.pids();
            let dir = TempDir::new("store")?;
            let args = [
                "route".to_string(),
                spec.clone(),
                "--addr".into(),
                local.clone(),
                "--workers".into(),
                addrs.join(","),
                "--threads".into(),
                "1".into(),
                "--store".into(),
                dir.as_str(),
                // Route requests never repeat, so a cache would only fill
                // with 400 KB posterior arrays no one reads, and the
                // router's peak RSS then swung between 125 and 160 MB with
                // how the allocator reused the evicted ones.
                "--cache-cap".into(),
                "0".into(),
            ];
            store = Some(dir);
            fleet.spawn(&ctx.credo, &args)?
        }
    };
    let mut client = Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let resp = client
        .request(&stream.wire(0))
        .map_err(|e| format!("first request: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    if !resp.ok || !oracle.agrees(&resp.posteriors, first) {
        return Err(format!(
            "{}: first answer is wrong ({} {})",
            w.name, resp.error, resp.message
        ));
    }
    drop(client);
    let samples = closed_loop(&addr, 1, Limit::Count(w.prefix), &stream)?;
    if samples.iter().any(|s| s.posteriors.is_none()) {
        return Err(format!("{}: a count-prefix request failed", w.name));
    }
    let counts = Counts::from_stats(&fetch_stats(&addr)?);
    Ok(Instance {
        fleet,
        addr,
        workers,
        setup_s,
        counts,
        _store: store,
    })
}

#[derive(Clone, Copy)]
pub enum Limit {
    /// Exactly this many requests.
    Count(u64),
    /// Keep issuing until this much time has passed.
    Time(Duration),
}

/// The closed loop: one connection, which sends its next request only
/// after the previous answer arrived, from request `start` on.
pub fn closed_loop(addr: &str, start: u64, limit: Limit, stream: &StreamSpec) -> Res<Vec<Sample>> {
    let t0 = Instant::now();
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut out = Vec::new();
    for index in start.. {
        match limit {
            Limit::Count(n) if index >= start + n => break,
            Limit::Time(d) if t0.elapsed() >= d => break,
            _ => {}
        }
        check_interrupt()?;
        let req = stream.wire(index);
        let sent = Instant::now();
        let resp = client.request(&req);
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        let (posteriors, cached) = match resp {
            Ok(r) if r.ok => (Some(r.posteriors), r.cached),
            Ok(r) => {
                eprintln!("request {index} refused: {} {}", r.error, r.message);
                (None, false)
            }
            Err(e) => {
                eprintln!("request {index} failed: {e}");
                // The link is gone; reconnect for the next one.
                client = Client::connect(addr).map_err(|e| format!("reconnect {addr}: {e}"))?;
                (None, false)
            }
        };
        out.push(Sample {
            index,
            latency_ms,
            posteriors,
            cached,
        });
    }
    Ok(out)
}

/// The `q`-quantile (nearest rank) of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Compares sampled answers with the oracle; returns how many disagree.
/// Every sample of a checked index is compared (several fleets replay the
/// same indices). Failed requests are not compared: they count as failed
/// already.
pub fn check_answers(
    w: &Workload,
    stream: &StreamSpec,
    oracle: &mut Oracle,
    samples: &[Sample],
) -> Res<u64> {
    let mut indices: Vec<u64> = samples
        .iter()
        .filter(|s| s.posteriors.is_some())
        .map(|s| s.index)
        .collect();
    indices.sort_unstable();
    indices.dedup();
    let checked: Vec<u64> = if matches!(oracle, Oracle::Sharded { .. }) {
        indices.into_iter().take(w.samples).collect()
    } else {
        let step = (indices.len() / w.samples.max(1)).max(1);
        indices.into_iter().step_by(step).collect()
    };
    let mut wrong = 0;
    for i in checked {
        check_interrupt()?;
        let want = oracle.answer(stream, i)?;
        for s in samples.iter().filter(|s| s.index == i) {
            let Some(got) = &s.posteriors else { continue };
            if matches!(oracle, Oracle::Sharded { .. }) && s.cached {
                // The replay has no cache; a hit would desynchronise it.
                return Err(format!("{}: unexpected cache hit at {i}", w.name));
            }
            if !oracle.agrees(got, &want) {
                eprintln!("{}: request {i} answered wrongly", w.name);
                wrong += 1;
            }
        }
    }
    Ok(wrong)
}

/// What one untraced run measured.
pub struct E2e {
    pub setup_s: Vec<f64>,
    pub latencies: Vec<f64>,
    pub completed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub server_cpu_ms: f64,
    pub generator_cpu_share: f64,
    pub peak_rss_mb: f64,
    pub counts: Counts,
    pub counts_repeat: bool,
}

impl E2e {
    pub fn report(&self, w: &Workload) -> Vec<(&'static str, f64, &'static str)> {
        let ok = self.completed.max(1) as f64;
        let mut setup = self.setup_s.clone();
        setup.sort_by(|a, b| a.total_cmp(b));
        println!(
            "{}: sent {} ok {} failed {} | p99 {:.3} ms over {} samples | generator cpu {:.1}% of a core | setups {:?} s | counts {:?} repeat={}",
            w.name,
            self.attempted,
            self.completed,
            self.failed,
            quantile(&self.latencies, 0.99),
            self.latencies.len(),
            self.generator_cpu_share * 100.0,
            setup,
            self.counts,
            self.counts_repeat,
        );
        vec![
            ("setup_s", median(&self.setup_s), "s"),
            ("throughput_rps", self.completed as f64 / self.wall_s, "1/s"),
            ("latency_p50_ms", quantile(&self.latencies, 0.5), "ms"),
            ("latency_p90_ms", quantile(&self.latencies, 0.9), "ms"),
            ("cpu_ms_per_req", self.server_cpu_ms / ok, "ms"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// Largest share of one core the generator may use before its own load
/// would distort the latencies it measures.
const GENERATOR_CPU_LIMIT: f64 = 0.5;

/// The untraced run: [`FLEETS`] fleets, each set up, checked on its count
/// prefix and timed for its share of `--seconds`, then the answer checks.
pub fn run_e2e(ctx: &Ctx, w: &Workload) -> Res<E2e> {
    let stream = w.stream(ctx.seed);
    let mut oracle = w.oracle()?;
    let first = oracle.answer(&stream, 0)?;
    let segment = Duration::from_secs_f64(ctx.seconds / FLEETS as f64);
    let self_pid = std::process::id();
    let (mut setup_s, mut counts, mut peaks, mut samples) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut wall_s, mut server_cpu_ms, mut generator_cpu_ms) = (0.0, 0.0, 0.0);
    // Every fleet serves one timed segment, so no single process's memory
    // layout or thread placement decides a whole run.
    for _ in 0..FLEETS {
        let inst = start_instance(ctx, w, &oracle, &first)?;
        setup_s.push(inst.setup_s);
        counts.push(inst.counts);
        let cpu0 = inst.fleet.cpu_ms()?;
        let gen0 = cpu_ms(self_pid)?;
        let t0 = Instant::now();
        samples.extend(closed_loop(
            &inst.addr,
            1 + w.prefix,
            Limit::Time(segment),
            &stream,
        )?);
        wall_s += t0.elapsed().as_secs_f64();
        server_cpu_ms += inst.fleet.cpu_ms()? - cpu0;
        generator_cpu_ms += cpu_ms(self_pid)? - gen0;
        peaks.push(inst.fleet.peak_rss_mb()?);
        inst.stop()?;
    }
    let counts_repeat = counts.windows(2).all(|p| p[0] == p[1]);
    let generator_cpu_share = generator_cpu_ms / (wall_s * 1e3);
    if generator_cpu_share > GENERATOR_CPU_LIMIT {
        return Err(format!(
            "generator used {:.0}% of a core; its load would distort the numbers",
            generator_cpu_share * 100.0
        ));
    }
    let wrong = check_answers(w, &stream, &mut oracle, &samples)?;
    let refused = samples.iter().filter(|s| s.posteriors.is_none()).count() as u64;
    let attempted = samples.len() as u64;
    Ok(E2e {
        setup_s,
        latencies: samples
            .iter()
            .filter(|s| s.posteriors.is_some())
            .map(|s| s.latency_ms)
            .collect(),
        completed: attempted - refused,
        attempted,
        failed: refused + wrong,
        wall_s,
        server_cpu_ms,
        generator_cpu_share,
        peak_rss_mb: median(&peaks),
        counts: counts[0],
        counts_repeat,
    })
}

/// `credo` under the build directory the runner used.
pub fn credo_binary(target_dir: &Path) -> Res<PathBuf> {
    let bin = target_dir.join("release").join("credo");
    bin.canonicalize()
        .map_err(|e| format!("{}: {e} (build it with perfbench/run.py)", bin.display()))
}
