//! # hmp-server — simulation as a service
//!
//! Every run in this workspace is fully deterministic: the same
//! [`RunSpec`], seed and code version always produce a byte-identical
//! result (the kernel-equivalence suite and the `baselines/` gate pin
//! that). This crate turns that determinism into throughput: a
//! dependency-free daemon that accepts simulation jobs as line-delimited
//! JSON over TCP, canonicalizes each spec into a content digest, answers
//! repeats from an in-memory + on-disk cache, and runs each job's misses
//! through [`hmp_bench::sweep::par_map_with`]. That pool lives for one
//! job: it starts up to `workers` threads, each builds a fresh
//! [`Runner`] and resets it between the job's cells, and the runners are
//! dropped when the job ends, so no platform is reused across requests.
//! `workers` bounds one job's parallelism, not the daemon's: concurrent
//! connections each run a pool of their own. The first write to each
//! memory page of a fresh runner allocates that page; once a runner's
//! pages are mapped, the simulated cycle loop does not allocate (pinned
//! by `server_zero_alloc.rs`).
//!
//! Concurrent clients submitting the identical job coalesce onto one
//! execution (single-flight); everyone gets the same bytes. Server
//! health — hit ratio, queue depth, queue-wait and service-time
//! histograms — is exported in Prometheus-style exposition via the
//! `metrics` op.
//!
//! The protocol, digest definition and cache-invalidation story are
//! documented in `DESIGN.md` §8; `hmp-server-bench` is the load
//! generator that measures cold vs warm throughput and writes
//! `BENCH_SERVER.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod digest;
pub mod metrics;
pub mod proto;
pub mod server;

pub use cache::{CacheTier, RunCache};
pub use digest::{code_fingerprint, job_digest, spec_digest, spec_digest_hex};
pub use metrics::ServerMetrics;
pub use proto::{parse_request, result_json, Request, PROTO_VERSION};
pub use server::{Server, ServerConfig};

use hmp_platform::RunResult;
use hmp_workloads::{RunSpec, Runner};

/// The worker execution path: one cell on one worker's [`Runner`].
///
/// This is the function each job's `par_map_with` pool applies to every
/// cache miss, and the function the counting-allocator test pins: once a
/// runner has warmed (first build + first reset) on cells that write the
/// same memory pages, the steady-state stepping inside this call
/// performs zero heap allocations. Platform construction, program
/// generation, result assembly and JSON rendering allocate outside the
/// simulated cycle loop; inside it, only the first write to a memory
/// page does.
pub fn run_cell(runner: &mut Runner, spec: &RunSpec) -> RunResult {
    runner.run(spec)
}
