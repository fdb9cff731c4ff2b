//! The repository benchmark: four workloads run against the public APIs
//! of `hmp-workloads`, `hmp-platform` and `hmp-server`.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload paper_grid --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with spans around each crate's calls and prints the
//! per-layer metrics instead. Either way the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `README.md` beside this crate for what each workload
//! and metric is for.

mod cells;
mod host;
mod layers;
mod micro;
mod serve;
mod sim;
mod trace;

use cells::Workload;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }

    /// A check that is not an operation of the workload (a pinned digest,
    /// a recorded count) but must hold for the run to be correct.
    pub fn require(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(why());
        }
    }
}

/// Fastest repetitions a time is estimated from.
const FASTEST: usize = 3;

/// The mean of the `FASTEST` smallest values of `v`.
///
/// The host is shared, and interference from other tenants only ever
/// adds time: an identical pass varies by ±30% and the median pass of a
/// run by ±10% from run to run, while the fastest repetitions repeat far
/// better (see README.md, *Noise*). Averaging three of them keeps a
/// single lucky repetition from setting the time.
pub fn fastest_mean(v: &[f64]) -> f64 {
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    let fastest = &sorted[..sorted.len().min(FASTEST)];
    fastest.iter().sum::<f64>() / fastest.len() as f64
}

pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile (`p` in 0..=1); 0 for an empty sample.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: hmp-repo-bench --workload <paper_grid|miss_penalty|fabric_telemetry|serve_mixed> \
     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the benchmark keeps what it writes: recorded counts and traces.
pub fn state_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".state")
}

/// FNV-1a digest of this executable: recorded counts are only compared
/// between runs of the same build.
fn build_id() -> Option<String> {
    let exe = std::fs::read(std::env::current_exe().ok()?).ok()?;
    Some(hmp_sim::digest::hex16(hmp_sim::Fnv64::hash(&exe)))
}

/// Deterministic counts must repeat exactly between runs of the same
/// build on the same workload and seed: the first run records them, and
/// every later run compares.
fn check_counts(args: &Args, counts: &[(&'static str, u64)], tally: &mut Tally) {
    let mut text = String::new();
    for (name, value) in counts {
        let _ = writeln!(text, "{name} {value}");
        println!("# count {name} {value}");
    }
    let Some(build) = build_id() else {
        println!("# counts not recorded: this executable cannot be read");
        return;
    };
    let dir = state_dir().join(build);
    let path = dir.join(format!("{}-{}.counts", args.workload.name(), args.seed));
    match std::fs::read_to_string(&path) {
        Ok(recorded) => {
            println!("# counts compared with {}", path.display());
            tally.require(recorded == text, || {
                format!(
                    "deterministic counts differ from the run recorded in {}",
                    path.display()
                )
            });
        }
        Err(_) => {
            let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &text));
            match written {
                Ok(()) => println!("# counts recorded in {}", path.display()),
                Err(e) => println!("# counts not recorded: {e}"),
            }
        }
    }
}

/// The mean of the middle half of `v`: steadier than the median when
/// the values fall in clusters, as set-up times do (see README.md,
/// *Noise*).
pub fn middle_mean(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let quarter = v.len() / 4;
    let middle = &v[quarter..v.len() - quarter];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Runs `f` `reps` times, dropping each result before the next run
/// starts, and returns the `middle_mean` wall time in seconds and the
/// last result.
pub fn timed_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (
        middle_mean(&mut times),
        last.expect("at least one repetition"),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let window = Duration::from_secs_f64(args.seconds);
    let (metrics, counts) = match args.workload {
        Workload::ServeMixed => layers::serve_mixed(&args, window, &mut tally),
        w => layers::simulation(w, &args, window, &mut tally),
    };
    check_counts(&args, &counts, &mut tally);
    let mut out = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        if !m.value.is_finite() {
            tally.fail(format!("metric {} is not finite", m.name));
        }
        let _ = write!(
            out,
            r#""{}": {{"value": {}, "unit": "{}"}}"#,
            m.name, value, m.unit
        );
        println!("# {:<32} {:>16.6} {}", m.name, value, m.unit);
    }
    for note in &tally.notes {
        println!("# FAILED {note}");
    }
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{out}}}}}"#,
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
}
