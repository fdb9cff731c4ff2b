//! Host speed: how fast the host runs general-purpose code right now,
//! measured by fixed reference computations that share no code with the
//! repository's crates.
//!
//! The host is shared, and other tenants slow the program on it by up
//! to 1.7× for minutes at a time (see README.md, *Noise*). A whole run
//! can fall in such a phase, so no estimator over one run's own timings
//! can remove it. The references slow down with the program, if less,
//! while no change to the program can move them, so the simulation
//! workloads divide their timings by the references' slowdown.

use crate::fastest_mean;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Each reference's time on an unloaded host (a 2-vCPU 2.0 GHz Xeon VM),
/// in seconds: hash + sort, then small allocations.
const NOMINAL_S: [f64; 2] = [480e-6, 440e-6];
/// Repetitions per sample; a sample keeps the fastest.
const REPS: usize = 3;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Fixed reference workloads and the samples taken of them.
pub struct HostProbe {
    sort_buf: Vec<u64>,
    samples: [Vec<f64>; 2],
}

impl HostProbe {
    pub fn new() -> HostProbe {
        HostProbe {
            sort_buf: Vec::with_capacity(8_000),
            samples: Default::default(),
        }
    }

    /// Hash-map inserts and lookups, then an 8000-element sort.
    fn hash_sort(&mut self) -> u64 {
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut x = 0x1234_5678_9abc_def1u64;
        for i in 0..6_000 {
            map.insert(xorshift(&mut x) & 0xffff, i);
        }
        let mut acc = 0;
        for _ in 0..6_000 {
            acc += map.get(&(xorshift(&mut x) & 0xffff)).copied().unwrap_or(1);
        }
        self.sort_buf.clear();
        self.sort_buf.extend((0..8_000).map(|_| xorshift(&mut x)));
        self.sort_buf.sort_unstable();
        acc ^ self.sort_buf[4_000]
    }

    /// Small allocations: formatted string keys into a B-tree of vectors.
    fn alloc(&mut self) -> u64 {
        let mut map: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        let mut x = 0x5555_1234_9999_0001u64;
        for i in 0..2_000 {
            map.entry(format!("k{}", xorshift(&mut x) % 3_000))
                .or_default()
                .push(i);
        }
        map.values().map(|v| v.len() as u64).sum::<u64>() + map.len() as u64
    }

    /// Times each reference, keeping the fastest of `REPS` repetitions.
    pub fn sample(&mut self) {
        let refs: [fn(&mut HostProbe) -> u64; 2] = [HostProbe::hash_sort, HostProbe::alloc];
        for (k, work) in refs.into_iter().enumerate() {
            let fastest = (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    black_box(work(black_box(&mut *self)));
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            self.samples[k].push(fastest);
        }
    }

    /// How much slower than nominal the host ran the references over
    /// the samples taken: the mean over references of each one's time —
    /// the mean of its fastest samples, as the cells' times are taken —
    /// divided by its nominal time.
    pub fn slowdown(&self) -> f64 {
        let ratios = self
            .samples
            .iter()
            .zip(NOMINAL_S)
            .map(|(s, nominal)| fastest_mean(s) / nominal);
        ratios.sum::<f64>() / NOMINAL_S.len() as f64
    }
}
