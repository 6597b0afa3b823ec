//! The frozen reference kernel: a fixed amount of work shaped like the
//! program's own (a tree walk over f64 arrays plus hash-map traffic over
//! buffers allocated once), calling no program code. Timing it between
//! requests measures how fast the host runs right now, so request times
//! can be restated at reference speed. Any edit here changes every scaled
//! metric, so the kernel stays frozen.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Nodes of the kernel's tree (a complete binary tree in heap order).
const NODES: usize = 8191;
/// Distinct keys cycled through the hash map per pass.
const KEYS: usize = 2048;
/// Passes over the tree per call.
const PASSES: usize = 4;
/// Calls per sample; the sample is their median.
const CALLS_PER_SAMPLE: usize = 3;

/// Buffers allocated once; every call reuses them.
pub struct RefKernel {
    res: Vec<f64>,
    cap: Vec<f64>,
    down: Vec<f64>,
    delay: Vec<f64>,
    keys: Vec<u64>,
    map: HashMap<u64, f64>,
}

impl Default for RefKernel {
    fn default() -> Self {
        Self::new()
    }
}

impl RefKernel {
    /// Allocates the buffers and fills them deterministically.
    pub fn new() -> Self {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let res = (0..NODES)
            .map(|_| 1.0 + (next() % 1000) as f64 * 1e-3)
            .collect();
        let cap = (0..NODES)
            .map(|_| 0.5 + (next() % 1000) as f64 * 1e-3)
            .collect();
        let keys = (0..KEYS).map(|_| next()).collect();
        RefKernel {
            res,
            cap,
            down: vec![0.0; NODES],
            delay: vec![0.0; NODES],
            keys,
            map: HashMap::with_capacity(KEYS),
        }
    }

    /// One fixed unit of work; returns a checksum so it cannot be elided.
    pub fn work(&mut self) -> f64 {
        let mut sum = 0.0;
        for pass in 0..PASSES {
            // Bottom-up: downstream capacitance of every subtree.
            self.down.copy_from_slice(&self.cap);
            for i in (1..NODES).rev() {
                let parent = (i - 1) / 2;
                self.down[parent] += self.down[i];
            }
            // Top-down: Elmore delay from the root.
            self.delay[0] = self.res[0] * self.down[0];
            for i in 1..NODES {
                let parent = (i - 1) / 2;
                self.delay[i] = self.delay[parent] + self.res[i] * self.down[i];
            }
            self.map.clear();
            for (k, key) in self.keys.iter().enumerate() {
                let node = (*key as usize) % NODES;
                *self.map.entry(key ^ pass as u64).or_insert(0.0) += self.delay[node];
                if let Some(v) = self.map.get(&self.keys[(k * 7) % KEYS]) {
                    sum += *v;
                }
            }
            sum += self.delay[NODES - 1];
        }
        black_box(sum)
    }

    /// One sample: the median time of a few calls, in ms.
    pub fn sample_ms(&mut self) -> f64 {
        let mut times = [0.0; CALLS_PER_SAMPLE];
        for t in &mut times {
            let start = Instant::now();
            black_box(self.work());
            *t = start.elapsed().as_secs_f64() * 1e3;
        }
        times.sort_by(f64::total_cmp);
        times[CALLS_PER_SAMPLE / 2]
    }
}
