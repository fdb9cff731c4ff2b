//! `hmp-server` — the simulation job daemon.
//!
//! Accepts line-delimited JSON jobs over TCP, serves repeats from the
//! content-addressed run cache, and shards each job's misses across a
//! worker pool started for that job. See `DESIGN.md` §8 for the protocol.

use hmp_server::{Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
hmp-server — simulation-as-a-service job daemon

USAGE:
    hmp-server [OPTIONS]

OPTIONS:
    --addr HOST:PORT    Bind address (default 127.0.0.1:7077; port 0 picks a free port)
    --workers N         Worker threads for one job's cache-miss execution
                        (default: HMP_BENCH_WORKERS or the machine's parallelism)
    --cache-dir DIR     On-disk cache directory (default: memory-only)
    --cache-cap N       In-memory cache entry cap, 0 = unbounded (default 1024)
    -h, --help          Print this help

PROTOCOL (one JSON object per line):
    {\"op\":\"ping\"}
    {\"op\":\"run\",\"spec\":{\"scenario\":\"worst\",\"strategy\":\"proposed\"}}
    {\"op\":\"sweep\",\"specs\":[ ... ]}
    {\"op\":\"metrics\"}
    {\"op\":\"shutdown\"}
";

fn parse_args() -> Result<ServerConfig, String> {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or("--workers needs a positive integer")?;
            }
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--cache-cap" => {
                config.cache_cap = value("--cache-cap")?
                    .parse::<usize>()
                    .map_err(|_| "--cache-cap needs a non-negative integer")?;
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("hmp-server: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let server = match Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hmp-server: cannot start on {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "hmp-server listening on {} ({} workers, cache {}, cap {})",
        server.local_addr(),
        config.workers,
        config
            .cache_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "memory-only".to_string()),
        config.cache_cap,
    );
    if let Err(e) = server.serve() {
        eprintln!("hmp-server: accept loop failed: {e}");
        return ExitCode::FAILURE;
    }
    println!("hmp-server: shut down");
    ExitCode::SUCCESS
}
