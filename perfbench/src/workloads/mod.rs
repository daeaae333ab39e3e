//! The four workloads and the helpers they share.

pub mod simulate;
pub mod store_serve;
pub mod sweep_exact;
pub mod sweep_scale;

use std::path::{Path, PathBuf};

use balance_machine::splitmix64;

/// Seeded input generator: one independent stream per `(seed, stream)`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `stream` of seed `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(splitmix64(seed ^ splitmix64(stream)))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices of `0..n`, in draw order.
    pub fn pick(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k.min(n) {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k.min(n));
        all
    }
}

/// `points` strictly increasing capacities, log-spaced from `2^lo` to
/// `2^hi`. The seed moves every interior point by up to 20% of a step;
/// both ends stay fixed, because the largest and smallest capacity set
/// the memory and much of the cost of a sweep, which must not change
/// with the seed.
#[must_use]
pub fn log_grid(rng: &mut Rng, lo: f64, hi: f64, points: usize) -> Vec<usize> {
    let step = (hi - lo) / (points - 1) as f64;
    let mut grid: Vec<usize> = Vec::with_capacity(points);
    for i in 0..points {
        let jitter = if i == 0 || i + 1 == points {
            0.0
        } else {
            (rng.unit() - 0.5) * 0.4 * step
        };
        let m = 2f64.powf(lo + step * i as f64 + jitter).round() as usize;
        let m = grid.last().map_or(m, |&prev| m.max(prev + 1));
        grid.push(m);
    }
    grid
}

/// A directory owned by this process, removed when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// A fresh, empty `<parent>/work-<pid>-<tag>`.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn fresh(parent: &Path, tag: &str) -> Result<WorkDir, String> {
        let dir = parent.join(format!("work-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Addresses per pre-generated chunk in the per-layer probes.
pub const CHUNK: usize = 1 << 20;

/// Feeds `items` to `consume` in pre-generated chunks of [`CHUNK`]: the
/// generation happens outside `consume`, so a span inside it times the
/// consumer alone.
pub fn in_chunks<T>(items: impl Iterator<Item = T>, mut consume: impl FnMut(&[T])) {
    let mut items = items.peekable();
    let mut buf = Vec::with_capacity(CHUNK);
    while items.peek().is_some() {
        buf.clear();
        buf.extend(items.by_ref().take(CHUNK));
        consume(&buf);
    }
}
