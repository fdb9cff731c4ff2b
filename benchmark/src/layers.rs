//! The workloads: set-up, correctness, the timed window, and —
//! with `--trace 1` — the traced window and the per-layer metrics.

use crate::cells::{self, fresh_cell, platform_spec, Workload, HOT_CELLS};
use crate::host::HostProbe;
use crate::serve::{self, closed_loop, request_line, ClientRun, Conn, Daemon, Replayed};
use crate::sim::{self, CellFacts, Pass, Stepwise};
use crate::trace::{Layer, Recorder};
use crate::{
    fastest_mean, median, metric, micro, middle_mean, percentile, timed_reps, Args, Metric, Tally,
};
use hmp_bus::ArbitrationPolicy;
use hmp_platform::{Kernel, System};
use hmp_server::{result_json, spec_digest};
use hmp_sim::TimeSeriesSpec;
use hmp_workloads::{build_programs_for, scenario_lock_kind, RunSpec, Runner};
use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

/// Set-up is repeated this many times per run and the mean of the middle
/// half of its times reported.
const SETUP_REPS: usize = 15;
/// Interleaved rounds of the kernel and observer comparisons.
const AB_ROUNDS: usize = 2;
/// Cells of a simulation workload sent through the server by the traced
/// run's probe (each twice: a miss, then a hit).
const PROBE_CELLS: usize = 8;
/// First fresh cells per client whose results are computed, pinned and
/// checked before the timed window of `serve_mixed`.
const CHECKED_FRESH: u64 = 4;
const CLIENTS: u64 = 2;

type Counts = Vec<(&'static str, u64)>;

fn check_pin(workload: Workload, seed: u64, digest: u64, tally: &mut Tally) {
    println!("# digest {}", hmp_sim::digest::hex16(digest));
    if let Some(pinned) = cells::pinned(workload, seed) {
        tally.require(pinned == digest, || {
            format!("result digest {digest:016x} differs from the pinned {pinned:016x}")
        });
    }
}

/// Sums of the deterministic facts; they must repeat exactly run to run.
fn fact_counts(facts: &[CellFacts], digest: u64) -> Counts {
    let sum = |f: fn(&CellFacts) -> u64| facts.iter().map(f).sum::<u64>();
    vec![
        ("digest", digest),
        ("cells", facts.len() as u64),
        ("cycles", sum(|f| f.cycles)),
        ("bus.grants", sum(|f| f.bus.grants)),
        ("bus.retries", sum(|f| f.bus.retries)),
        ("bus.completions", sum(|f| f.bus.completions)),
        ("bus.drains", sum(|f| f.bus.drains)),
        ("bus.data_cycles", sum(|f| f.bus.data_cycles)),
        ("cpu.reads", sum(|f| f.reads)),
        ("cpu.writes", sum(|f| f.writes)),
        ("cpu.lock_acquires", sum(|f| f.lock_acquires)),
        ("cpu.lock_mem_ops", sum(|f| f.lock_mem_ops)),
        ("cpu.isr_cycles", sum(|f| f.isr_cycles)),
        ("cache.hits", sum(|f| f.cache_hits)),
        ("cache.accesses", sum(|f| f.cache_accesses)),
        ("cache.snoop_hits", sum(|f| f.snoop_hits)),
        ("kernel.iterations", sum(|f| f.iterations)),
        ("kernel.full_steps", sum(|f| f.full_steps)),
        ("kernel.cpu_only_steps", sum(|f| f.cpu_only_steps)),
        ("kernel.warped_cycles", sum(|f| f.warped_cycles)),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whole passes over `cells` until `window` has elapsed (at least one),
/// with a sample of host speed before each.
fn timed_passes(
    runner: &mut Runner,
    cells: &[RunSpec],
    expected: &[String],
    window: Duration,
    probe: &mut HostProbe,
    tally: &mut Tally,
) -> Vec<Pass> {
    let deadline = Instant::now() + window;
    let mut passes = Vec::new();
    loop {
        probe.sample();
        passes.push(sim::user_pass(runner, cells, expected, tally));
        if Instant::now() >= deadline {
            return passes;
        }
    }
}

/// Each cell's time — the `fastest_mean` of its repetitions in the
/// window — with its hit flag.
fn best_cells(passes: &[Pass]) -> Vec<(f64, bool)> {
    let last = passes.last().expect("at least one pass");
    (0..last.cells.len())
        .map(|i| {
            let times: Vec<f64> = passes.iter().map(|p| p.cells[i].0).collect();
            (fastest_mean(&times), last.cells[i].1)
        })
        .collect()
}

/// Seconds of one pass with every cell at its `best_cells` time.
fn best_pass_s(passes: &[Pass]) -> f64 {
    best_cells(passes).iter().map(|c| c.0).sum::<f64>() / 1e3
}

fn latency_metrics(hit_ms: &mut [f64], miss_ms: &mut [f64], out: &mut Vec<Metric>) {
    println!("# samples hit={} miss={}", hit_ms.len(), miss_ms.len());
    out.push(metric("hit_ms_p50", percentile(hit_ms, 0.5), "ms"));
    out.push(metric("hit_ms_p90", percentile(hit_ms, 0.9), "ms"));
    out.push(metric("miss_ms_p50", percentile(miss_ms, 0.5), "ms"));
    out.push(metric("miss_ms_p90", percentile(miss_ms, 0.9), "ms"));
}

/// `paper_grid`, `miss_penalty` and `fabric_telemetry`.
pub fn simulation(
    workload: Workload,
    args: &Args,
    window: Duration,
    tally: &mut Tally,
) -> (Vec<Metric>, Counts) {
    // Set-up: spec generation, then one platform construction per
    // platform shape, in grid order (the runner rebuilds on each change).
    let (setup_s, (cells, mut runner)) = timed_reps(SETUP_REPS, || {
        let cells = cells::grid(workload, args.seed);
        let mut runner = Runner::new();
        let mut shape = None;
        for spec in &cells {
            let key = (spec.platform, scenario_lock_kind(spec.scenario));
            if shape != Some(key) {
                runner.prepare(spec);
                shape = Some(key);
            }
        }
        (cells, runner)
    });
    let (expected, facts) = sim::correctness_pass(&mut runner, &cells, tally);
    let digest = sim::digest(expected.iter().map(String::as_str));
    check_pin(workload, args.seed, digest, tally);
    let mut counts = fact_counts(&facts, digest);

    if !args.trace {
        let mut probe = HostProbe::new();
        let passes = timed_passes(&mut runner, &cells, &expected, window, &mut probe, tally);
        counts.push(("runner.reuses_per_pass", passes[0].reuses));
        let mut per_pass: Vec<f64> = passes
            .iter()
            .map(|p| p.cycles as f64 / p.wall_s / 1e6)
            .collect();
        println!(
            "# passes {} median pass {:.4} Mcycles/s",
            passes.len(),
            median(&mut per_pass)
        );
        // Every timing is divided by the host's slowdown over the window.
        let slowdown = probe.slowdown();
        let best: Vec<(f64, bool)> = best_cells(&passes)
            .into_iter()
            .map(|(ms, hit)| (ms / slowdown, hit))
            .collect();
        let best_s = best.iter().map(|c| c.0).sum::<f64>() / 1e3;
        let pick = |hit: bool| {
            best.iter()
                .filter(|c| c.1 == hit)
                .map(|c| c.0)
                .collect::<Vec<f64>>()
        };
        let (mut hit, mut miss) = (pick(true), pick(false));
        println!(
            "# host slowdown {slowdown:.4}; raw setup_s {setup_s:.6} sim_mcps {:.4}",
            passes[0].cycles as f64 / (best_s * slowdown) / 1e6
        );
        let mut out = vec![
            metric("setup_s", setup_s / slowdown, "s"),
            metric(
                "sim_mcps",
                passes[0].cycles as f64 / best_s / 1e6,
                "Mcycles/s",
            ),
            metric("req_per_s", cells.len() as f64 / best_s, "1/s"),
        ];
        latency_metrics(&mut hit, &mut miss, &mut out);
        out.push(metric("peak_rss_mb", crate::peak_rss_mb(), "MiB"));
        return (out, counts);
    }

    // Traced run: untraced and traced passes alternate over the window,
    // so host drift lands on both alike.
    let epoch = Instant::now();
    let mut rec = Recorder::with_epoch(epoch);
    let mut stepwise = Stepwise::default();
    let deadline = Instant::now() + window;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        untraced.push(sim::user_pass(&mut runner, &cells, &expected, tally));
        let group = (traced.len() * cells.len()) as u64;
        traced.push(sim::traced_pass(
            &mut stepwise,
            &cells,
            &expected,
            &mut rec,
            group,
            tally,
        ));
        if Instant::now() >= deadline {
            break;
        }
    }
    counts.push(("runner.reuses_per_pass", untraced[0].reuses));
    let reuse_frac = ratio(untraced[0].reuses as f64, cells.len() as f64);
    let passes = traced.len();
    let (untraced_s, traced_s) = (best_pass_s(&untraced), best_pass_s(&traced));
    println!(
        "# passes untraced={} traced={passes} best pass ms untraced={:.3} traced={:.3}",
        untraced.len(),
        untraced_s * 1e3,
        traced_s * 1e3
    );
    let overhead = traced_s / untraced_s - 1.0;

    let mut out = sim_layers(
        &cells,
        &expected,
        &facts,
        &rec,
        passes,
        reuse_frac,
        &mut stepwise,
        tally,
    );
    let probe = serve_probe(&cells, &expected, epoch, tally);
    out.extend(server_layers(
        probe.rec.layers(),
        probe.hit_ms,
        probe.miss_ms,
    ));
    out.push(metric("trace.overhead_frac", overhead, "ratio"));
    rec.absorb(probe.rec);
    write_trace(args, &rec);
    (out, counts)
}

fn write_trace(args: &Args, rec: &Recorder) {
    let path =
        crate::state_dir().join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    match rec.write_chrome(&path) {
        Ok(()) => println!("# trace {}", path.display()),
        Err(e) => println!("# trace not written: {e}"),
    }
}

/// Minimum of `AB_ROUNDS` interleaved run-only passes over `a` and `b`.
fn interleaved(
    stepwise: &mut Stepwise,
    a: &[RunSpec],
    b: &[RunSpec],
    expected: &[String],
    tally: &mut Tally,
) -> (f64, f64) {
    let (mut ta, mut tb) = (f64::MAX, f64::MAX);
    for _ in 0..AB_ROUNDS {
        ta = ta.min(sim::run_only_s(stepwise, a, expected, tally));
        tb = tb.min(sim::run_only_s(stepwise, b, expected, tally));
    }
    (ta, tb)
}

/// Per-layer metrics of the simulation stack over `cells`: span self
/// times from `rec` (holding `passes` traced passes), counts from the
/// correctness pass, kernel and observer comparisons, and component
/// timings.
#[allow(clippy::too_many_arguments)]
fn sim_layers(
    cells: &[RunSpec],
    expected: &[String],
    facts: &[CellFacts],
    rec: &Recorder,
    passes: usize,
    reuse_frac: f64,
    stepwise: &mut Stepwise,
    tally: &mut Tally,
) -> Vec<Metric> {
    let layers = rec.layers();
    let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let (run, cell) = (get("run"), get("cell"));
    let sum = |f: fn(&CellFacts) -> u64| facts.iter().map(f).sum::<u64>() as f64;
    let cycles = sum(|f| f.cycles);
    let run_s_per_pass = run.total_ns as f64 / 1e9 / passes as f64;

    let step: Vec<RunSpec> = cells.iter().map(|s| s.with_kernel(Kernel::Step)).collect();
    let (ff_s, step_s) = interleaved(stepwise, cells, &step, expected, tally);
    let armed: Vec<RunSpec> = cells
        .iter()
        .map(|s| {
            s.with_spans(64)
                .with_timeseries(TimeSeriesSpec::with_window(8192))
        })
        .collect();
    let bare: Vec<RunSpec> = cells
        .iter()
        .map(|s| {
            let mut s = *s;
            s.span_capacity = 0;
            s.timeseries = None;
            s
        })
        .collect();
    let (armed_s, bare_s) = interleaved(stepwise, &armed, &bare, expected, tally);

    // Component timings at the shapes the workload runs, weighted by the
    // number of grants (address phases) each shape performed.
    let mut shapes: HashMap<(usize, ArbitrationPolicy), (f64, f64, f64)> = HashMap::new();
    for f in facts {
        let key = (f.masters, f.policy);
        let e = shapes.entry(key).or_insert((0.0, 0.0, 0.0));
        e.0 += f.bus.grants as f64;
    }
    for ((masters, policy), e) in shapes.iter_mut() {
        e.1 = micro::grant_ns(*masters, *policy);
        e.2 = micro::fold_ns(*masters);
    }
    let grants = sum(|f| f.bus.grants);
    let weighted = |pick: fn(&(f64, f64, f64)) -> f64| {
        ratio(shapes.values().map(|e| e.0 * pick(e)).sum::<f64>(), grants)
    };
    let (grant_ns, fold_ns) = (weighted(|e| e.1), weighted(|e| e.2));
    let (probe_ns, snoop_ns) = (micro::probe_ns(), micro::snoop_ns());
    let tick_ns = {
        let spec = &cells[0];
        let (pspec, lay) = platform_spec(spec);
        let programs = build_programs_for(
            spec.scenario,
            spec.strategy,
            &spec.params,
            &lay,
            pspec.cpus.len(),
        );
        let program = programs[0].clone();
        let sys = System::new(&pspec, programs);
        micro::tick_ns(*sys.cpu(0).config(), &program)
    };
    let attributed_ns: f64 = facts
        .iter()
        .map(|f| {
            let (_, g, fold) = shapes[&(f.masters, f.policy)];
            let grants = f.bus.grants as f64;
            let n = f.masters as f64;
            grants * (g + fold + (n - 1.0) * snoop_ns)
                + (f.reads + f.writes) as f64 * probe_ns
                + (f.full_steps + f.cpu_only_steps) as f64 * n * tick_ns
        })
        .sum();

    let k = 1e3 / cycles;
    vec![
        metric("workloads.gen_us", get("gen").self_us(), "us"),
        metric("platform.build_us", get("build").self_us(), "us"),
        metric("platform.reset_us", get("reset").self_us(), "us"),
        metric("mem.reset_us", micro::mem_reset_us(), "us"),
        metric("platform.reuse_frac", reuse_frac, "ratio"),
        metric("platform.run_us", run.self_us(), "us"),
        metric(
            "platform.run_share",
            ratio(run.total_ns as f64, cell.total_ns as f64),
            "ratio",
        ),
        metric(
            "platform.run_mcps",
            cycles / run_s_per_pass / 1e6,
            "Mcycles/s",
        ),
        metric("platform.serialize_us", get("serialize").self_us(), "us"),
        metric("sim.iters_per_kcycle", sum(|f| f.iterations) * k, "count"),
        metric(
            "sim.warped_frac",
            sum(|f| f.warped_cycles) / cycles,
            "ratio",
        ),
        metric(
            "sim.cpu_only_frac",
            sum(|f| f.cpu_only_steps) / cycles,
            "ratio",
        ),
        metric("sim.ff_over_step", step_s / ff_s, "ratio"),
        metric("sim.observer_cost_frac", armed_s / bare_s - 1.0, "ratio"),
        metric("bus.grants_per_kcycle", grants * k, "count"),
        metric(
            "bus.retry_frac",
            ratio(sum(|f| f.bus.retries), grants),
            "ratio",
        ),
        metric(
            "bus.data_busy_frac",
            sum(|f| f.bus.data_cycles) / cycles,
            "ratio",
        ),
        metric("bus.drains_per_kcycle", sum(|f| f.bus.drains) * k, "count"),
        metric("bus.grant_ns", grant_ns, "ns"),
        metric("coherence.fold_ns", fold_ns, "ns"),
        metric("cache.probe_ns", probe_ns, "ns"),
        metric("cache.snoop_ns", snoop_ns, "ns"),
        metric("cpu.tick_ns", tick_ns, "ns"),
        metric(
            "cache.hit_frac",
            ratio(sum(|f| f.cache_hits), sum(|f| f.cache_accesses)),
            "ratio",
        ),
        metric(
            "cache.snoop_hits_per_kcycle",
            sum(|f| f.snoop_hits) * k,
            "count",
        ),
        metric(
            "cpu.isr_frac",
            ratio(
                sum(|f| f.isr_cycles),
                facts
                    .iter()
                    .map(|f| (f.cycles * f.masters as u64) as f64)
                    .sum(),
            ),
            "ratio",
        ),
        metric(
            "cpu.lock_ops_per_acquire",
            ratio(sum(|f| f.lock_mem_ops), sum(|f| f.lock_acquires)),
            "count",
        ),
        metric(
            "platform.attributed_frac",
            attributed_ns / 1e9 / run_s_per_pass,
            "ratio",
        ),
    ]
}

/// Server metrics from the replayed pipeline's spans and the client's
/// latency samples.
fn server_layers(
    layers: BTreeMap<&'static str, Layer>,
    mut hit_ms: Vec<f64>,
    mut miss_ms: Vec<f64>,
) -> Vec<Metric> {
    let get = |name: &str| layers.get(name).cloned().unwrap_or_default();
    let hit_frac = ratio(hit_ms.len() as f64, (hit_ms.len() + miss_ms.len()) as f64);
    let hit_p50 = percentile(&mut hit_ms, 0.5);
    let miss_p50 = percentile(&mut miss_ms, 0.5);
    vec![
        metric("server.parse_us", get("parse").self_us(), "us"),
        metric("server.digest_us", get("digest").self_us(), "us"),
        metric("server.cache_get_us", get("cache_get").self_us(), "us"),
        metric(
            "server.cache_insert_us",
            get("cache_insert").self_us(),
            "us",
        ),
        metric("server.execute_ms", get("execute").total_us() / 1e3, "ms"),
        metric("server.serialize_us", get("serialize").self_us(), "us"),
        metric(
            "server.hit_unattributed_ms",
            hit_p50 - get("replay_hit").total_us() / 1e3,
            "ms",
        ),
        metric(
            "server.miss_unattributed_ms",
            miss_p50 - get("replay_miss").total_us() / 1e3,
            "ms",
        ),
        metric("server.hit_frac", hit_frac, "ratio"),
    ]
}

/// Client latencies of the probe's requests and the replay's spans.
struct Probe {
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    rec: Recorder,
}

/// Sends up to `PROBE_CELLS` evenly spaced cells of a simulation
/// workload to a fresh daemon, each twice (a miss, then a hit), checks
/// the answers, and replays the same requests in-process.
fn serve_probe(cells: &[RunSpec], expected: &[String], epoch: Instant, tally: &mut Tally) -> Probe {
    let mut probe = Probe {
        hit_ms: Vec::new(),
        miss_ms: Vec::new(),
        rec: Recorder::with_epoch(epoch),
    };
    let step = cells.len().div_ceil(PROBE_CELLS);
    let mut requests = Vec::new();
    let served = (|| -> std::io::Result<()> {
        let daemon = Daemon::start()?;
        let mut conn = daemon.connect()?;
        for i in (0..cells.len()).step_by(step) {
            let line = request_line(&cells[i]);
            for want_hit in [false, true] {
                let t = Instant::now();
                let reply = conn.run(&line)?;
                let ms = t.elapsed().as_secs_f64() * 1e3;
                tally.require(
                    reply.error.is_none()
                        && reply.hit == want_hit
                        && reply.result.as_deref() == Some(expected[i].as_str()),
                    || format!("probe cell {i}: server answer differs ({:?})", reply.error),
                );
                if reply.hit {
                    &mut probe.hit_ms
                } else {
                    &mut probe.miss_ms
                }
                .push(ms);
                requests.push(Replayed {
                    line: line.clone(),
                    hit: reply.hit,
                });
            }
        }
        drop(conn);
        daemon.stop()
    })();
    if let Err(e) = served {
        tally.fail(format!("serve probe: {e}"));
    }
    let mismatched = serve::replay(&requests, &[], &mut probe.rec, 1 << 40);
    tally.require(mismatched == 0, || {
        format!("{mismatched} replayed requests resolved unlike the daemon")
    });
    probe
}

/// A daemon with its client connections and the hot set touched.
struct Served {
    daemon: Daemon,
    conns: Vec<Conn>,
    touched: Vec<Option<String>>,
}

fn start_served(hot: &[RunSpec]) -> std::io::Result<Served> {
    let daemon = Daemon::start()?;
    let mut conns = (0..CLIENTS)
        .map(|_| daemon.connect())
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut touched = Vec::with_capacity(hot.len());
    for (i, spec) in hot.iter().enumerate() {
        let n = conns.len();
        let reply = conns[i % n].run(&request_line(spec))?;
        touched.push(reply.result.filter(|_| !reply.hit && reply.error.is_none()));
    }
    Ok(Served {
        daemon,
        conns,
        touched,
    })
}

fn stop_served(served: Served, tally: &mut Tally) {
    drop(served.conns);
    if let Err(e) = served.daemon.stop() {
        tally.fail(format!("daemon shutdown: {e}"));
    }
}

/// The request sequence of one `serve_mixed` client: even requests
/// cycle through the hot set, odd ones are fresh cells of the client's
/// own stream.
fn client_spec(seed: u64, hot: &[RunSpec], stream: u64, k: u64) -> RunSpec {
    if k.is_multiple_of(2) {
        hot[((k / 2 + stream * 4) % HOT_CELLS as u64) as usize]
    } else {
        fresh_cell(seed, stream, k / 2)
    }
}

/// Closed loop of `CLIENTS` connections on `streams` until `window`
/// ends; returns what each client did and the elapsed wall time.
fn run_clients(
    conns: &mut [Conn],
    seed: u64,
    hot: &[RunSpec],
    streams: u64,
    window: Duration,
    epoch: Option<Instant>,
) -> (Vec<(ClientRun, Option<Recorder>)>, f64) {
    let start = Instant::now();
    let deadline = start + window;
    let client_runs = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let stream = streams + c as u64;
                s.spawn(move || {
                    let mut rec = epoch.map(Recorder::with_epoch);
                    let client_run = closed_loop(
                        conn,
                        deadline,
                        |k| client_spec(seed, hot, stream, k),
                        rec.as_mut(),
                        stream << 32,
                    );
                    (client_run, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (client_runs, start.elapsed().as_secs_f64())
}

/// Checks every answer a client got: the expected cache outcome, and
/// result bytes equal to an in-process run. Returns the simulated cycles
/// of the misses.
fn verify_client_run(
    client_run: &ClientRun,
    seed: u64,
    stream: u64,
    expected: &[String],
    verifier: &mut Runner,
    tally: &mut Tally,
) -> u64 {
    for e in &client_run.errors {
        tally.attempted += 1;
        tally.fail(format!("client {stream}: {e}"));
    }
    let mut cycles = 0;
    for d in &client_run.done {
        let want_hit = d.k.is_multiple_of(2);
        let (json, cell_cycles) = if want_hit {
            (
                expected[((d.k / 2 + stream * 4) % HOT_CELLS as u64) as usize].clone(),
                0,
            )
        } else {
            let r = verifier.run(&fresh_cell(seed, stream, d.k / 2));
            (result_json(&r), r.cycles_u64())
        };
        cycles += cell_cycles;
        tally.require(
            d.hit == want_hit && d.result.as_deref() == Some(json.as_str()),
            || {
                format!(
                    "client {stream} request {}: wrong answer (hit={})",
                    d.k, d.hit
                )
            },
        );
    }
    cycles
}

/// `serve_mixed`: an in-process daemon driven by two closed-loop clients.
pub fn serve_mixed(args: &Args, window: Duration, tally: &mut Tally) -> (Vec<Metric>, Counts) {
    let seed = args.seed;
    let hot = cells::hot_set(seed);
    // Set-up: bind, serve, connect the clients, and touch the hot set
    // once so it hits from the first timed request on.
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<Served> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            stop_served(old, tally);
        }
        let t = Instant::now();
        let served = start_served(&hot);
        times.push(t.elapsed().as_secs_f64());
        match served {
            Ok(s) => kept = Some(s),
            Err(e) => tally.fail(format!("daemon set-up: {e}")),
        }
    }
    let setup_s = middle_mean(&mut times);

    // Correctness: the hot set and the first fresh cells of each client,
    // in-process under both kernels; their digest is pinned.
    let mut check: Vec<RunSpec> = hot.clone();
    for c in 0..CLIENTS {
        check.extend((0..CHECKED_FRESH).map(|j| fresh_cell(seed, c, j)));
    }
    let mut verifier = Runner::new();
    let (expected, facts) = sim::correctness_pass(&mut verifier, &check, tally);
    let digest = sim::digest(expected.iter().map(String::as_str));
    check_pin(Workload::ServeMixed, seed, digest, tally);
    let counts = fact_counts(&facts, digest);

    let Some(mut served) = kept else {
        return (Vec::new(), counts);
    };
    for (i, got) in served.touched.iter().enumerate() {
        tally.require(got.as_deref() == Some(expected[i].as_str()), || {
            format!("hot cell {i}: first touch was not a clean miss with the expected result")
        });
    }
    let preload: Vec<(u64, String)> = hot
        .iter()
        .zip(&expected)
        .map(|(spec, json)| (spec_digest(spec), json.clone()))
        .collect();

    let half = if args.trace { window / 2 } else { window };
    let (client_runs, elapsed) = run_clients(&mut served.conns, seed, &hot, 0, half, None);
    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    let mut miss_cycles = 0;
    let mut done = 0;
    for (c, (client_run, _)) in client_runs.iter().enumerate() {
        miss_cycles +=
            verify_client_run(client_run, seed, c as u64, &expected, &mut verifier, tally);
        done += client_run.done.len();
        for d in &client_run.done {
            if d.hit { &mut hit_ms } else { &mut miss_ms }.push(d.ms);
        }
    }
    let req_per_s = done as f64 / elapsed;

    if !args.trace {
        stop_served(served, tally);
        let mut out = vec![
            metric("setup_s", setup_s, "s"),
            metric("sim_mcps", miss_cycles as f64 / elapsed / 1e6, "Mcycles/s"),
            metric("req_per_s", req_per_s, "1/s"),
        ];
        latency_metrics(&mut hit_ms, &mut miss_ms, &mut out);
        out.push(metric("peak_rss_mb", crate::peak_rss_mb(), "MiB"));
        return (out, counts);
    }

    // Traced half: the same loop on fresh streams (the first half's fresh
    // cells are cached now), with request spans, then replayed in-process.
    let epoch = Instant::now();
    let (traced, traced_elapsed) =
        run_clients(&mut served.conns, seed, &hot, CLIENTS, half, Some(epoch));
    stop_served(served, tally);
    let mut rec = Recorder::with_epoch(epoch);
    let mut requests = Vec::new();
    let mut traced_done = 0;
    for (c, (client_run, client_rec)) in traced.into_iter().enumerate() {
        verify_client_run(
            &client_run,
            seed,
            CLIENTS + c as u64,
            &expected,
            &mut verifier,
            tally,
        );
        traced_done += client_run.done.len();
        requests.extend(client_run.done.into_iter().map(|d| Replayed {
            line: d.line,
            hit: d.hit,
        }));
        if let Some(r) = client_rec {
            rec.absorb(r);
        }
    }
    let overhead = req_per_s / (traced_done as f64 / traced_elapsed) - 1.0;
    let mut replay_rec = Recorder::with_epoch(epoch);
    let mismatched = serve::replay(&requests, &preload, &mut replay_rec, 1 << 40);
    tally.require(mismatched == 0, || {
        format!("{mismatched} replayed requests resolved unlike the daemon")
    });

    // The simulation layers, over the checked cells.
    let mut sim_rec = Recorder::with_epoch(epoch);
    let mut stepwise = Stepwise::default();
    const SIM_PASSES: usize = 3;
    for p in 0..SIM_PASSES {
        let group = (2 << 40) + (p * check.len()) as u64;
        sim::traced_pass(&mut stepwise, &check, &expected, &mut sim_rec, group, tally);
    }
    let mut out = sim_layers(
        &check,
        &expected,
        &facts,
        &sim_rec,
        SIM_PASSES,
        0.0,
        &mut stepwise,
        tally,
    );
    out.extend(server_layers(replay_rec.layers(), hit_ms, miss_ms));
    out.push(metric("trace.overhead_frac", overhead, "ratio"));
    rec.absorb(replay_rec);
    rec.absorb(sim_rec);
    write_trace(args, &rec);
    (out, counts)
}
