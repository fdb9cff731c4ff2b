//! Cell execution: the user path through a reused `Runner`, and the
//! decomposed path the traced run uses to time each crate's calls.

use crate::cells::{masters, platform_spec};
use crate::trace::{Recorder, SpanId};
use crate::Tally;
use hmp_bus::{ArbitrationPolicy, BusStats};
use hmp_platform::{Kernel, RunResult, Strategy, System};
use hmp_server::result_json;
use hmp_sim::Fnv64;
use hmp_workloads::{build_programs_for, RunSpec, Runner};
use std::time::Instant;

/// Deterministic facts of one cell, from the correctness pass.
#[derive(Debug, Clone)]
pub struct CellFacts {
    pub masters: usize,
    pub policy: ArbitrationPolicy,
    pub cycles: u64,
    pub bus: BusStats,
    pub reads: u64,
    pub writes: u64,
    pub lock_acquires: u64,
    pub lock_mem_ops: u64,
    pub isr_cycles: u64,
    pub cache_hits: u64,
    pub cache_accesses: u64,
    pub snoop_hits: u64,
    pub iterations: u64,
    pub full_steps: u64,
    pub cpu_only_steps: u64,
    pub warped_cycles: u64,
}

fn stat_sum(r: &RunResult, suffix: &str) -> u64 {
    r.stats
        .iter()
        .filter(|(k, _)| k.ends_with(suffix))
        .map(|(_, v)| v)
        .sum()
}

impl CellFacts {
    fn of(spec: &RunSpec, r: &RunResult) -> CellFacts {
        let sum = |f: fn(&hmp_cpu::CpuCounters) -> u64| r.cpus.iter().map(f).sum::<u64>();
        let hits = stat_sum(r, ".read_hit") + stat_sum(r, ".write_hit");
        let misses =
            stat_sum(r, ".read_miss") + stat_sum(r, ".write_miss") + stat_sum(r, ".write_upgrade");
        let profile = r.profile.as_ref().expect("correctness pass runs profiled");
        CellFacts {
            masters: masters(spec),
            policy: spec.arbitration,
            cycles: r.cycles_u64(),
            bus: r.bus,
            reads: sum(|c| c.reads),
            writes: sum(|c| c.writes),
            lock_acquires: sum(|c| c.lock_acquires),
            lock_mem_ops: sum(|c| c.lock_mem_ops),
            isr_cycles: sum(|c| c.isr_cycles),
            cache_hits: hits,
            cache_accesses: hits + misses,
            snoop_hits: stat_sum(r, ".snoop_hit"),
            iterations: profile.iterations,
            full_steps: profile.full_steps,
            cpu_only_steps: profile.cpu_only_steps,
            warped_cycles: profile.warped_cycles,
        }
    }
}

/// Checks one finished cell: clean completion, and equality with the
/// expected result bytes when they are known.
pub fn check_cell(
    tally: &mut Tally,
    what: &str,
    r: &RunResult,
    json: &str,
    expected: Option<&str>,
) {
    tally.attempted += 1;
    if !r.is_clean_completion() {
        tally.fail(format!(
            "{what}: run did not complete cleanly ({:?})",
            r.outcome
        ));
    } else if expected.is_some_and(|e| e != json) {
        tally.fail(format!("{what}: result differs from the correctness pass"));
    }
}

/// The correctness pass: every cell under a profiled fast-forward run
/// on `runner` (which also warms it) and under `Kernel::Step`, which
/// must give an equal `RunResult`. Returns each cell's result bytes and
/// deterministic facts.
pub fn correctness_pass(
    runner: &mut Runner,
    cells: &[RunSpec],
    tally: &mut Tally,
) -> (Vec<String>, Vec<CellFacts>) {
    let mut step_runner = Runner::new();
    let mut jsons = Vec::with_capacity(cells.len());
    let mut facts = Vec::with_capacity(cells.len());
    for (i, spec) in cells.iter().enumerate() {
        let ff = runner.run(&spec.with_profile());
        let json = result_json(&ff);
        check_cell(tally, &format!("cell {i}"), &ff, &json, None);
        let step = step_runner.run(&spec.with_kernel(Kernel::Step));
        tally.attempted += 1;
        if step != ff {
            tally.fail(format!("cell {i}: Step and FastForward results differ"));
        }
        facts.push(CellFacts::of(spec, &ff));
        jsons.push(json);
    }
    (jsons, facts)
}

/// FNV-1a digest of result bytes in order.
pub fn digest<'a>(jsons: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = Fnv64::new();
    for j in jsons {
        h.write(j.as_bytes());
    }
    h.finish()
}

/// Wall time and per-cell latencies of one timed pass.
pub struct Pass {
    pub wall_s: f64,
    pub cycles: u64,
    /// Per cell, in pass order: prepare + run + serialize in ms, and
    /// whether the runner reused its platform (a hit) or built one.
    pub cells: Vec<(f64, bool)>,
    pub reuses: u64,
}

/// One pass over `cells` through the reused `runner`, the way the figure
/// binaries run a grid. Every result must equal the correctness pass.
pub fn user_pass(
    runner: &mut Runner,
    cells: &[RunSpec],
    expected: &[String],
    tally: &mut Tally,
) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        cycles: 0,
        cells: Vec::with_capacity(cells.len()),
        reuses: 0,
    };
    let reuses = runner.reuses();
    let start = Instant::now();
    for (i, spec) in cells.iter().enumerate() {
        let rebuilds = runner.rebuilds();
        let t = Instant::now();
        let r = runner.run(spec);
        let json = result_json(&r);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        pass.cells.push((ms, runner.rebuilds() == rebuilds));
        pass.cycles += r.cycles_u64();
        check_cell(tally, &format!("cell {i}"), &r, &json, Some(&expected[i]));
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.reuses = runner.reuses() - reuses;
    pass
}

/// `Runner::prepare` + `System::run` taken apart, so each crate's call
/// gets its own span: program generation (hmp-workloads), and platform
/// reset or construction and the run (hmp-platform).
#[derive(Default)]
pub struct Stepwise {
    sys: Option<System>,
}

impl Stepwise {
    pub fn run(
        &mut self,
        spec: &RunSpec,
        rec: &mut Recorder,
        parent: SpanId,
        group: u64,
    ) -> RunResult {
        let (pspec, lay) = platform_spec(spec);
        let gen = || {
            build_programs_for(
                spec.scenario,
                spec.strategy,
                &spec.params,
                &lay,
                pspec.cpus.len(),
            )
        };
        let programs = rec.span("gen", parent, group, gen);
        let reused = match &mut self.sys {
            Some(sys) => {
                let id = rec.open("reset", parent, group);
                let ok = sys.try_reset(&pspec, programs);
                rec.close(id);
                if !ok {
                    rec.rename(id, "shape_check");
                }
                ok
            }
            None => false,
        };
        if !reused {
            let programs = rec.span("gen", parent, group, gen);
            let sys = rec.span("build", parent, group, || System::new(&pspec, programs));
            self.sys = Some(sys);
        }
        let sys = self.sys.as_mut().expect("platform just built or reset");
        sys.set_snoop_logic_enabled(spec.strategy == Strategy::Proposed);
        sys.set_kernel(spec.kernel);
        rec.span("run", parent, group, || sys.run(spec.max_cycles))
    }
}

/// One traced pass: a `cell` span per cell with the stepwise spans under
/// it.
pub fn traced_pass(
    stepwise: &mut Stepwise,
    cells: &[RunSpec],
    expected: &[String],
    rec: &mut Recorder,
    first_group: u64,
    tally: &mut Tally,
) -> Pass {
    let mut pass = Pass {
        wall_s: 0.0,
        cycles: 0,
        cells: Vec::with_capacity(cells.len()),
        reuses: 0,
    };
    let start = Instant::now();
    for (i, spec) in cells.iter().enumerate() {
        let group = first_group + i as u64;
        let t = Instant::now();
        let root = rec.open("cell", 0, group);
        let r = stepwise.run(spec, rec, root, group);
        let json = rec.span("serialize", root, group, || result_json(&r));
        rec.close(root);
        pass.cells.push((t.elapsed().as_secs_f64() * 1e3, false));
        pass.cycles += r.cycles_u64();
        check_cell(
            tally,
            &format!("traced cell {i}"),
            &r,
            &json,
            Some(&expected[i]),
        );
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// Total `System::run` wall time, in seconds, of one pass over `cells`.
/// Kernel and observer variants of a cell must still give the expected
/// result bytes.
pub fn run_only_s(
    stepwise: &mut Stepwise,
    cells: &[RunSpec],
    expected: &[String],
    tally: &mut Tally,
) -> f64 {
    let mut rec = Recorder::new();
    for (i, spec) in cells.iter().enumerate() {
        let r = stepwise.run(spec, &mut rec, 0, 0);
        let json = result_json(&r);
        check_cell(
            tally,
            &format!("run-only cell {i}"),
            &r,
            &json,
            Some(&expected[i]),
        );
    }
    rec.layers()
        .get("run")
        .map_or(0.0, |l| l.total_ns as f64 / 1e9)
}
