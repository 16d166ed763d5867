//! Host-speed calibration.
//!
//! On a shared 2-vCPU host the CPU time of identical work moved by up to
//! 50% between runs minutes apart (co-tenants on sibling hyperthreads and
//! shared caches), and the per-function *minimum* moved by 18% between 10 s
//! stretches of one run. The benchmark therefore interleaves a fixed
//! calibration kernel with the measured work and reports every time scaled
//! to a reference host speed:
//!
//! ```text
//! reported = measured × NOMINAL_S / (calibration kernel time nearby)
//! ```
//!
//! The kernels are the benchmark's own code and call nothing from the
//! repository, so a change to the repository moves the measured work and
//! not the calibration.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;

use crate::probe::thread_cpu;

/// CPU seconds a kernel takes at the reference host speed (roughly its
/// time on an idle 2-vCPU cloud VM).
pub const NOMINAL_S: f64 = 0.002;

/// Elements the mixed kernel sorts and walks: 512 KiB of `u64`.
const ELEMENTS: usize = 1 << 16;

/// Dependent loads of the mixed kernel's pointer-chasing part.
const CHASES: usize = 1 << 16;

/// Entries of the mixed kernel's hashing part.
const HASHED: usize = 1 << 12;

/// Blocks, 64-bit words per block set, and sweeps of the dataflow kernel
/// (three 256 KiB bit-set arrays), sized to take about `NOMINAL_S`.
const BLOCKS: usize = 1 << 10;
const WORDS: usize = 32;
const SWEEPS: usize = 48;

/// Which work the calibration kernel imitates. Host slowdowns do not hit
/// all code alike, so each workload is scaled by the kernel that tracked
/// it best: over a 160 s probe in which raw compile times moved with a
/// 21% (large functions) and 14% (SPEC-like) coefficient of variation
/// between 10 s medians, the dataflow kernel left 2.2% on large functions
/// (the mixed one 7.1%) and the mixed kernel 2.5% on SPEC-like functions
/// (the dataflow one 5.7%).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Fill, sort, hash and pointer-chase a pseudo-random array: the
    /// small-structure work of per-function fixed costs and coalescing.
    Mixed,
    /// Backward liveness-style sweeps of bit sets over a random CFG: the
    /// superlinear analyses of large functions.
    Dataflow,
}

/// A calibration kernel and its preallocated storage (it allocates nothing
/// after construction).
pub struct Calibrator {
    kernel: Kernel,
    data: Vec<u64>,
    table: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>,
    uses: Vec<u64>,
    defs: Vec<u64>,
    live: Vec<u64>,
    succs: Vec<[usize; 2]>,
}

/// The xorshift64 step used for all kernel data.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Calibrator {
    pub fn new(kernel: Kernel) -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut calibrator = Self {
            kernel,
            data: vec![0; ELEMENTS],
            table: HashMap::with_capacity_and_hasher(HASHED, BuildHasherDefault::default()),
            uses: (0..BLOCKS * WORDS)
                .map(|_| xorshift(&mut x) & xorshift(&mut x) & xorshift(&mut x))
                .collect(),
            defs: (0..BLOCKS * WORDS).map(|_| xorshift(&mut x) & xorshift(&mut x)).collect(),
            live: vec![0; BLOCKS * WORDS],
            succs: (0..BLOCKS)
                .map(|b| [(b + 1) % BLOCKS, xorshift(&mut x) as usize % BLOCKS])
                .collect(),
        };
        // The first run pays for page faults; it is not a measurement.
        calibrator.run();
        calibrator
    }

    fn run(&mut self) -> u64 {
        match self.kernel {
            Kernel::Mixed => self.mixed(),
            Kernel::Dataflow => self.dataflow(),
        }
    }

    /// Fills, sorts, hashes and chases through a fixed pseudo-random array.
    fn mixed(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for v in self.data.iter_mut() {
            *v = xorshift(&mut x);
        }
        self.data.sort_unstable();
        self.table.clear();
        for (i, &v) in self.data.iter().step_by(ELEMENTS / HASHED).enumerate() {
            *self.table.entry(v >> 40).or_insert(0) += i as u32;
        }
        let mut index = 0usize;
        let mut acc = 0u64;
        for _ in 0..CHASES {
            index = (self.data[index] % ELEMENTS as u64) as usize;
            acc = acc.wrapping_add(index as u64);
        }
        black_box(acc + self.table.len() as u64)
    }

    /// `live[b] = uses[b] | ((live[s0] | live[s1]) & !defs[b])`, swept
    /// backwards over every block a fixed number of times.
    fn dataflow(&mut self) -> u64 {
        self.live.fill(0);
        let mut out = [0u64; WORDS];
        for _ in 0..SWEEPS {
            for b in (0..BLOCKS).rev() {
                let [s0, s1] = self.succs[b];
                for (w, o) in out.iter_mut().enumerate() {
                    *o = self.live[s0 * WORDS + w] | self.live[s1 * WORDS + w];
                }
                for (w, &o) in out.iter().enumerate() {
                    let i = b * WORDS + w;
                    self.live[i] = self.uses[i] | (o & !self.defs[i]);
                }
            }
        }
        black_box(self.live.iter().fold(0, |acc, &v| acc ^ v))
    }

    /// Runs the kernel once on the calling thread and returns the factor
    /// `NOMINAL_S / its CPU seconds` that scales measured times to the
    /// reference speed.
    pub fn factor(&mut self) -> f64 {
        let start = thread_cpu();
        self.run();
        NOMINAL_S / (thread_cpu() - start).as_secs_f64()
    }
}

/// Measured times of repeated work, scaled block by block: callers record
/// samples, and after every `block_s` seconds of recorded CPU time the
/// kernel runs once and its factor scales the block's samples.
pub struct Scaled<'c, const K: usize> {
    calibrator: &'c mut Calibrator,
    block_s: f64,
    pending: Vec<(usize, [f64; K])>,
    pending_s: f64,
    /// Scaled samples per item, in recording order.
    samples: Vec<Vec<[f64; K]>>,
    /// Every factor applied, in order.
    pub factors: Vec<f64>,
}

impl<'c, const K: usize> Scaled<'c, K> {
    pub fn new(calibrator: &'c mut Calibrator, items: usize, block_s: f64) -> Self {
        Self {
            calibrator,
            block_s,
            pending: Vec::new(),
            pending_s: 0.0,
            samples: vec![Vec::new(); items],
            factors: Vec::new(),
        }
    }

    /// Records the raw sample `values` of `item`, which took `cpu_s` CPU
    /// seconds to measure.
    pub fn record(&mut self, item: usize, values: [f64; K], cpu_s: f64) {
        self.pending.push((item, values));
        self.pending_s += cpu_s;
        if self.pending_s >= self.block_s {
            self.flush();
        }
    }

    /// Scales the pending samples with a fresh calibration.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let factor = self.calibrator.factor();
        self.factors.push(factor);
        for (item, values) in self.pending.drain(..) {
            self.samples[item].push(values.map(|v| v * factor));
        }
        self.pending_s = 0.0;
    }

    /// Per item, the median of each component over its samples.
    pub fn medians(&mut self) -> Vec<[f64; K]> {
        self.flush();
        self.samples
            .iter()
            .map(|samples| {
                std::array::from_fn(|k| {
                    let mut column: Vec<f64> = samples.iter().map(|s| s[k]).collect();
                    crate::stats::sort(&mut column);
                    crate::stats::median(&column)
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_kernels_are_deterministic_and_timed() {
        let _serial = crate::tests::serial();
        for kernel in [Kernel::Mixed, Kernel::Dataflow] {
            let mut calibrator = Calibrator::new(kernel);
            assert_eq!(calibrator.run(), calibrator.run(), "{kernel:?}");
            assert!(calibrator.factor() > 0.0, "{kernel:?}");
        }
    }

    #[test]
    fn samples_are_scaled_by_their_block_factor() {
        let _serial = crate::tests::serial();
        let mut calibrator = Calibrator::new(Kernel::Mixed);
        let mut scaled = Scaled::<2>::new(&mut calibrator, 2, 1.0);
        scaled.record(0, [1.0, 2.0], 0.5);
        scaled.record(1, [3.0, 4.0], 0.6);
        scaled.record(0, [5.0, 6.0], 0.1);
        let medians = scaled.medians();
        assert_eq!(scaled.factors.len(), 2);
        let (f0, f1) = (scaled.factors[0], scaled.factors[1]);
        assert!(f0 > 0.0 && f1 > 0.0);
        assert_eq!(scaled.samples[1], vec![[3.0 * f0, 4.0 * f0]]);
        assert_eq!(medians[0], [(1.0 * f0 + 5.0 * f1) / 2.0, (2.0 * f0 + 6.0 * f1) / 2.0]);
    }
}
