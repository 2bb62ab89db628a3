//! A pool of warmed simulator CPUs for parallel frame evaluation.
//!
//! The block-cached engine shares its decoded-trace cache between CPU
//! clones through `Arc` snapshots ([`pcount_isa::Cpu`] is `Send`), so one
//! warmup inference decodes the whole deployed program once and every
//! pooled CPU — on any thread — dispatches fully pre-decoded superblocks
//! from the first frame.
//!
//! [`Deployment::run_batch`][crate::Deployment::run_batch] drives the
//! pool through the persistent `pcount-runtime` worker pool: the batch is
//! split into one contiguous frame range per pooled CPU and each range
//! runs as one runtime job, so no threads are spawned per batch and the
//! collected results are deterministic and order-preserving —
//! bit-identical to the serial [`run_frame`][crate::Deployment::run_frame]
//! loop regardless of the worker count. The supervised stream and the
//! fleet run frames in place on the slots instead, through
//! [`CpuPool::map_in_place`].

use pcount_isa::Cpu;

/// Upper bound on auto-sized CPU pools: every pooled CPU clones the full
/// deployed memory image, and flow batch sizes are modest, so cloning
/// one per hardware thread on a many-core host would only waste memory.
const MAX_AUTO_CPUS: usize = 8;

/// A fixed set of warmed, pristine CPUs, one per concurrent frame range,
/// plus the pristine base they were cloned from.
///
/// Created by [`Deployment::make_pool`][crate::Deployment::make_pool];
/// every CPU is a clone of the deployment's base CPU taken *after* a
/// warmup inference populated the shared block cache. The base is kept so
/// a pooled CPU that faulted mid-inference (torn memory image,
/// mid-program PC) can be [`quarantined`][CpuPool::quarantine] — reset to
/// the pristine state — before it is ever reused; corrupted architectural
/// state must never leak into a later frame's inference.
#[derive(Debug, Clone)]
pub struct CpuPool {
    base: Cpu,
    pub(crate) cpus: Vec<Cpu>,
}

impl CpuPool {
    /// Builds a pool of `threads` clones of `base` (`0` = auto: the
    /// runtime pool's width, capped at [`MAX_AUTO_CPUS`] — each pooled
    /// CPU carries a full memory image, and the flow's batch sizes never
    /// keep more ranges busy).
    pub(crate) fn from_base(base: &Cpu, threads: usize) -> Self {
        let threads = if threads > 0 {
            threads
        } else {
            resolve_threads(0).min(MAX_AUTO_CPUS)
        };
        Self {
            base: base.clone(),
            cpus: (0..threads).map(|_| base.clone()).collect(),
        }
    }

    /// Number of concurrent frame ranges this pool supports.
    pub fn threads(&self) -> usize {
        self.cpus.len()
    }

    /// The pristine warmed CPU every pool slot was cloned from.
    pub fn base(&self) -> &Cpu {
        &self.base
    }

    /// Shared reference to pool slot `w` (used by the batch fan-out,
    /// which clones it per frame).
    pub fn cpu(&self, w: usize) -> &Cpu {
        &self.cpus[w]
    }

    /// Splits the pool into the pristine base and the mutable CPU slots,
    /// for callers that drive one slot directly.
    pub fn split_mut(&mut self) -> (&Cpu, &mut [Cpu]) {
        let Self { base, cpus } = self;
        (base, cpus)
    }

    /// Runs `f(cpu, base, i)` for every `i` in `0..n` across the runtime
    /// pool and returns the results in index order. The indices split
    /// into one contiguous range per slot, and each range runs *in place*
    /// on its slot's CPU instead of on a fresh clone per frame: `f` gets
    /// the pristine `base` to restore the slot from between frames. Each
    /// job owns its CPU and its slice of the output, so results are
    /// identical for every pool width as long as `f(_, base, i)` depends
    /// only on `i`.
    pub fn map_in_place<T, F>(&mut self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Cpu, &Cpu, usize) -> T + Sync,
    {
        let Self { base, cpus } = self;
        let base = &*base;
        let chunk = n.div_ceil(cpus.len().max(1)).max(1);
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut jobs: Vec<(&mut Cpu, &mut [Option<T>])> =
            cpus.iter_mut().zip(out.chunks_mut(chunk)).collect();
        pcount_runtime::current().par_chunks_mut(&mut jobs, 1, 0, |w, job| {
            let (cpu, slots) = &mut job[0];
            for (j, slot) in slots.iter_mut().enumerate() {
                *slot = Some(f(cpu, base, w * chunk + j));
            }
        });
        out.into_iter()
            .map(|slot| slot.expect("every index ran"))
            .collect()
    }

    /// Quarantines pool slot `w`: restores its architectural and memory
    /// state from the pristine base (see `Cpu::restore_from`). Must be
    /// called on any slot whose inference faulted before the slot is
    /// reused — a timed-out or faulted frame leaves a torn memory image
    /// and a mid-program PC behind, and reusing that state would perturb
    /// the next frame's logits.
    pub fn quarantine(&mut self, w: usize) {
        let Self { base, cpus } = self;
        cpus[w].restore_from(base);
    }
}

pub use pcount_runtime::resolve_threads;
