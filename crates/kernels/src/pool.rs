//! A warmed simulator CPU and the frame-range fan-out that runs on it.
//!
//! The block-cached engine shares one write-once block table between CPU
//! clones ([`pcount_isa::Cpu`] is `Send`), so one warmup inference
//! decodes the whole deployed program once and every clone — on any
//! thread — dispatches fully pre-decoded superblocks from its first
//! frame.
//!
//! [`CpuPool::map_in_place`] is the one pooled path: the batch
//! ([`Deployment::run_batch`][crate::Deployment::run_batch]), the
//! supervised stream and the fleet all run through it. It splits the
//! frames into one contiguous range per thread and runs each range as one
//! job on the persistent `pcount-runtime` worker pool, on one clone of
//! the warmed base CPU, so no threads are spawned per call and the
//! collected results are deterministic and order-preserving —
//! bit-identical to the serial [`run_frame`][crate::Deployment::run_frame]
//! loop regardless of the worker count.

use pcount_isa::Cpu;

/// Upper bound on auto-sized pools: every frame range clones the full
/// deployed memory image, and flow batch sizes are modest, so one range
/// per hardware thread on a many-core host would only waste memory.
const MAX_AUTO_CPUS: usize = 8;

/// The pristine warmed CPU every frame range clones, and how many ranges
/// run at once.
///
/// Created by [`Deployment::make_pool`][crate::Deployment::make_pool]
/// *after* a warmup inference populated the shared block table.
#[derive(Debug, Clone)]
pub struct CpuPool {
    base: Cpu,
    threads: usize,
}

impl CpuPool {
    /// A pool running `threads` frame ranges at once on clones of `base`
    /// (`0` = auto: the runtime pool's width, capped at
    /// [`MAX_AUTO_CPUS`] — each range carries a full memory image, and
    /// the flow's batch sizes never keep more ranges busy).
    pub(crate) fn from_base(base: &Cpu, threads: usize) -> Self {
        let threads = if threads > 0 {
            threads
        } else {
            resolve_threads(0).min(MAX_AUTO_CPUS)
        };
        Self {
            base: base.clone(),
            threads,
        }
    }

    /// Number of concurrent frame ranges this pool supports.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The pristine warmed CPU every frame range clones.
    pub fn base(&self) -> &Cpu {
        &self.base
    }

    /// Runs `f(cpu, base, i)` for every `i` in `0..n` across the runtime
    /// pool and returns the results in index order. The indices split
    /// into one contiguous range per thread, and each range runs *in
    /// place* on one clone of the base CPU instead of on a fresh clone
    /// per frame: `f` gets the pristine `base` to restore the clone from
    /// (`Cpu::restore_from`) before each frame. Results are identical for
    /// every pool width as long as `f(_, base, i)` depends only on `i`.
    pub fn map_in_place<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Cpu, &Cpu, usize) -> T + Sync,
    {
        let chunk = n.div_ceil(self.threads).max(1);
        let ranges = n.div_ceil(chunk);
        pcount_runtime::current()
            .map_limited(ranges, self.threads, |w| {
                let mut cpu = self.base.clone();
                (w * chunk..((w + 1) * chunk).min(n))
                    .map(|i| f(&mut cpu, &self.base, i))
                    .collect::<Vec<T>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }
}

pub use pcount_runtime::resolve_threads;
