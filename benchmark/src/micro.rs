//! Component timings: one public call of a lower crate, repeated in a
//! tight loop from outside the crate. Each returns the median over a few
//! batches of the mean time per call, in nanoseconds.

use hmp_bus::{Arbiter, ArbitrationPolicy, BusOp};
use hmp_cache::{Access, CacheConfig, DataCache, ProtocolKind, SnoopOp};
use hmp_cpu::{Cpu, CpuAction, CpuConfig, MemResult, Program, ReqKind};
use hmp_mem::{Addr, Memory};
use hmp_platform::{AddressPhase, SnoopVerdict};
use hmp_sim::{CounterBank, Cycle, NullObserver};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;

fn per_call_ns(calls: u64, mut batch: impl FnMut(u64)) -> f64 {
    batch(calls / 10); // warm caches and branch predictors
    let mut samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch(calls);
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    crate::median(&mut samples)
}

/// `Memory::reset` on the platform's 4 MiB image, in microseconds.
pub fn mem_reset_us() -> f64 {
    let mut mem = Memory::new(4 << 20);
    per_call_ns(16, |n| {
        for _ in 0..n {
            mem.reset();
            black_box(&mut mem);
        }
    }) / 1e3
}

/// `Arbiter::grant_stamped` with every one of `masters` requesting.
pub fn grant_ns(masters: usize, policy: ArbitrationPolicy) -> f64 {
    let mut arb = Arbiter::with_policy(masters, policy);
    let requesting = vec![true; masters];
    let mut stamps: Vec<u64> = (0..masters as u64).collect();
    per_call_ns(200_000, |n| {
        for i in 0..n {
            let winner = arb.grant_stamped(black_box(&requesting), &stamps);
            // Re-stamp the winner as the newest request, as the bus does
            // when a granted master asks again.
            if let Some(m) = winner {
                stamps[m.0] = masters as u64 + i;
            }
        }
    })
}

/// One address-phase fold: `AddressPhase::absorb` for each of the
/// `masters - 1` snoopers plus `outcome`.
pub fn fold_ns(masters: usize) -> f64 {
    let mut phase = AddressPhase::new();
    let mut counters = CounterBank::new(masters);
    per_call_ns(200_000, |n| {
        for i in 0..n {
            phase.reset();
            for node in 1..masters {
                let verdict = if (i as usize + node).is_multiple_of(4) {
                    SnoopVerdict::Hit { shared: true }
                } else {
                    SnoopVerdict::Miss
                };
                phase.absorb(node, verdict, &mut counters);
            }
            black_box(phase.outcome(&BusOp::ReadLine, 1, 13));
        }
    })
}

/// A MESI data cache holding one line at `addr`, in the state a read
/// fill with the shared signal raised leaves it (Shared).
fn cache_with_line(addr: Addr) -> DataCache {
    let mut cache = DataCache::new(CacheConfig::default(), ProtocolKind::Mesi);
    cache.fill(
        addr,
        [0; 8],
        Access::Read,
        true,
        false,
        Cycle::ZERO,
        &mut NullObserver,
    );
    cache
}

/// `DataCache::probe_read` hitting a resident line.
pub fn probe_ns() -> f64 {
    let addr = Addr::new(0x4000);
    let mut cache = cache_with_line(addr);
    per_call_ns(500_000, |n| {
        for _ in 0..n {
            black_box(cache.probe_read(black_box(addr), false));
        }
    })
}

/// `DataCache::snoop` of a remote read on a Shared line (a hit that
/// leaves the line Shared, so every call does the same work).
pub fn snoop_ns() -> f64 {
    let addr = Addr::new(0x4000);
    let mut cache = cache_with_line(addr);
    per_call_ns(500_000, |n| {
        for i in 0..n {
            black_box(cache.snoop(
                black_box(addr),
                SnoopOp::Read,
                Cycle::new(i),
                &mut NullObserver,
            ));
        }
    })
}

/// `Cpu::tick` with the null observer, running a workload program whose
/// memory requests are answered on the next tick (loads read 0). The
/// program restarts when it halts.
pub fn tick_ns(config: CpuConfig, program: &Program) -> f64 {
    let mut cpu = Cpu::new(0, config, program.clone());
    let mut obs = NullObserver;
    per_call_ns(500_000, |n| {
        for i in 0..n {
            match cpu.tick(Cycle::new(i), &mut obs) {
                CpuAction::Idle => {}
                CpuAction::Issue(req) => match req.kind {
                    ReqKind::Read => cpu.complete_mem(MemResult::Value(0)),
                    ReqKind::Write(_) => cpu.complete_mem(MemResult::Done),
                    ReqKind::Flush | ReqKind::Invalidate => cpu.complete_maintenance(),
                },
                CpuAction::Halted => cpu.reset(program.clone()),
            }
        }
    })
}
