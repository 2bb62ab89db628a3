//! Pluggable memory-hierarchy cost models: the seam every instruction
//! fetch and data access is charged through.
//!
//! The flat IBEX cycle table ([`crate::pipeline`]) assumes an ideal
//! memory system: fetch always hits and a load/store always completes in
//! its two-cycle data-interface slot. Real silicon does not work that way
//! — on the MAUPITI chip the instruction stream is fed by a small
//! *prefetch buffer* that must refill through the memory after every
//! taken control transfer, and data accesses go to a *single-port* SRAM
//! whose port is shared with that refill path. [`MemoryModel`] makes the
//! difference explicit:
//!
//! * [`MemoryModel::Flat`] — the ideal memory system. Charges nothing on
//!   top of the flat per-op cycle table, reproducing the historical cycle
//!   counts **bit-identically** in every execution mode. This is the
//!   default.
//! * [`MemoryModel::Maupiti`] — the modelled hierarchy, parameterised by
//!   [`MaupitiMemConfig`]. Every PC redirect (taken branch, jump) flushes
//!   the prefetch buffer and pays [`MaupitiMemConfig::refill_cycles`] of
//!   fetch stall; while the buffer catches back up (the next
//!   [`MaupitiMemConfig::prefetch_entries`] instructions), each data
//!   access steals the SRAM port from the refill stream and pays
//!   [`MaupitiMemConfig::contention_cycles`] of structural stall.
//!   Straight-line code that never redirects the PC therefore runs at
//!   exactly the flat-model speed — the prefetch buffer never misses —
//!   and the extra cycles are strictly monotone in the refill latency.
//!
//! The model is defined over the stream of *retired* instructions, so
//! both engines can implement it exactly: the reference interpreter steps
//! [`MemModelState::step`] once per instruction, while the block-cached
//! engine charges a whole trace execution in one call to
//! [`MemModelState::charge_prefix`] using the per-trace access summaries
//! precomputed on each decoded block (`Block::mem_prefix` /
//! `Block::redirects`), and a fused loop — the SDOTP channel loop and the
//! convolution nest alike — in one call to
//! [`MemModelState::charge_counts`] from the per-path summaries
//! (`fusion::PathCost`) of the paths it ran. The bookkeeping paths are
//! held to identical stall counters by the differential tests in this
//! crate.
//!
//! Stalls are broken out by cause in [`MemStats`], which downstream
//! consumers (`pcount-platform`, `pcount-core`) use to split per-inference
//! energy into core, instruction-memory and data-memory components.

/// Per-cause stall counters of the memory-hierarchy model.
///
/// All counters are zero under [`MemoryModel::Flat`]. Total extra cycles
/// charged on top of the flat per-op table are
/// [`MemStats::stall_cycles`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Prefetch-buffer misses: taken control transfers that forced a
    /// refill of the fetch path.
    pub fetch_misses: u64,
    /// Cycles stalled refilling the prefetch buffer after fetch misses.
    pub imem_stall_cycles: u64,
    /// Data accesses that collided with a prefetch refill on the
    /// single-port SRAM.
    pub contended_accesses: u64,
    /// Cycles lost to those structural port collisions.
    pub dmem_stall_cycles: u64,
}

impl MemStats {
    /// Total stall cycles charged by the memory model (instruction-side
    /// plus data-side).
    pub fn stall_cycles(&self) -> u64 {
        self.imem_stall_cycles + self.dmem_stall_cycles
    }

    /// Adds `other`'s counters into `self`.
    pub fn accumulate(&mut self, other: &MemStats) {
        self.fetch_misses += other.fetch_misses;
        self.imem_stall_cycles += other.imem_stall_cycles;
        self.contended_accesses += other.contended_accesses;
        self.dmem_stall_cycles += other.dmem_stall_cycles;
    }
}

/// Parameters of the MAUPITI memory hierarchy model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MaupitiMemConfig {
    /// Prefetch-buffer depth in instruction words: how many instructions
    /// after a redirect the fetch stream and the data port still contend
    /// while the buffer catches back up.
    pub prefetch_entries: u32,
    /// Fetch-stall cycles charged for every prefetch-buffer miss (taken
    /// control transfer), on top of the pipeline's architectural flush
    /// cycles.
    pub refill_cycles: u32,
    /// Stall cycles charged for every data access that steals the
    /// single SRAM port from an in-flight prefetch refill.
    pub contention_cycles: u32,
}

impl Default for MaupitiMemConfig {
    /// The MAUPITI silicon defaults: a 4-entry prefetch buffer, 2-cycle
    /// refill latency and 1-cycle port-contention penalty.
    fn default() -> Self {
        Self {
            prefetch_entries: 4,
            refill_cycles: 2,
            contention_cycles: 1,
        }
    }
}

/// The memory-hierarchy cost model a [`crate::Cpu`] charges fetches and
/// data accesses through.
///
/// [`MemoryModel::Flat`] assumes ideal memories and charges nothing
/// beyond the flat per-op cycle table, reproducing the historical cycle
/// counts bit-identically; [`MemoryModel::Maupiti`] models an N-entry
/// prefetch buffer that refills after every taken control transfer and a
/// single-port data SRAM whose port contends with that refill stream,
/// with per-cause stall counters in [`MemStats`]. Both execution engines
/// implement the model exactly (it is defined over the retired
/// instruction stream), so the stall breakdown is engine-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum MemoryModel {
    /// Ideal memories: no charge beyond the flat per-op cycle table.
    /// Cycle counts are bit-identical to the historical (pre-seam)
    /// accounting in every execution mode.
    #[default]
    Flat,
    /// Prefetch buffer + single-port SRAM hierarchy.
    Maupiti(MaupitiMemConfig),
}

impl MemoryModel {
    /// The Maupiti hierarchy with its silicon-default parameters.
    pub fn maupiti() -> Self {
        MemoryModel::Maupiti(MaupitiMemConfig::default())
    }

    /// Whether this is the ideal flat model.
    pub fn is_flat(&self) -> bool {
        matches!(self, MemoryModel::Flat)
    }
}

/// Run-time state of the memory model, persisted on the CPU across
/// blocks, runs and engine switches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct MemModelState {
    /// Instructions left in the current post-redirect refill window
    /// (0 = the prefetch buffer is full and nothing contends).
    pub(crate) window_left: u32,
}

impl MemModelState {
    /// Clears the refill window (new program image).
    pub(crate) fn reset(&mut self) {
        *self = Self::default();
    }

    /// Advances the model by one retired instruction (reference
    /// interpreter path) and returns the extra stall cycles to charge.
    ///
    /// `is_mem` flags a data-memory access, `redirect` a taken control
    /// transfer (jump or taken branch).
    #[inline]
    pub(crate) fn step(
        &mut self,
        cfg: &MaupitiMemConfig,
        is_mem: bool,
        redirect: bool,
        stats: &mut MemStats,
    ) -> u64 {
        let mut extra = 0u64;
        if self.window_left > 0 {
            if is_mem {
                stats.contended_accesses += 1;
                stats.dmem_stall_cycles += cfg.contention_cycles as u64;
                extra += cfg.contention_cycles as u64;
            }
            self.window_left -= 1;
        }
        if redirect {
            stats.fetch_misses += 1;
            stats.imem_stall_cycles += cfg.refill_cycles as u64;
            extra += cfg.refill_cycles as u64;
            self.window_left = cfg.prefetch_entries;
        }
        extra
    }

    /// Charges the retired trace segment `[start, n)` of one trace
    /// execution in a single call (block-cached engine path), equivalent
    /// to [`MemModelState::step`] applied to each of the segment's
    /// instructions. `start` is 0 for a whole retired prefix; it is
    /// nonzero only when the engine resumes a trace past a fused loop
    /// whose earlier positions were already charged in bulk.
    ///
    /// `mem_prefix[i]` counts the data accesses among the trace's first
    /// `i` instructions and `redirects` holds the ascending trace
    /// positions of instructions that unconditionally redirect the PC
    /// (followed and terminator jumps) — both precomputed per block.
    /// `exit_redirect` is set when the segment leaves through a taken
    /// side exit (its final instruction is a taken conditional branch).
    /// Returns the extra stall cycles to charge.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn charge_prefix(
        &mut self,
        cfg: &MaupitiMemConfig,
        mem_prefix: &[u32],
        redirects: &[u32],
        start: usize,
        n: usize,
        exit_redirect: bool,
        stats: &mut MemStats,
    ) -> u64 {
        let mut contended = 0u64;
        let mut misses = 0u64;
        let mut pos = start;
        let mut w = self.window_left as usize;
        for &r in redirects {
            let r = r as usize;
            if r < start {
                continue;
            }
            if r >= n {
                break;
            }
            // Window coverage of the segment before this redirect. The
            // redirect instruction itself is never a data access, so the
            // exact boundary does not affect the contention count.
            let wend = (pos + w).min(r);
            if wend > pos {
                contended += (mem_prefix[wend] - mem_prefix[pos]) as u64;
            }
            misses += 1;
            w = cfg.prefetch_entries as usize;
            pos = r + 1;
        }
        let wend = (pos + w).min(n);
        if wend > pos {
            contended += (mem_prefix[wend] - mem_prefix[pos]) as u64;
        }
        w = w.saturating_sub(n - pos);
        if exit_redirect {
            misses += 1;
            w = cfg.prefetch_entries as usize;
        }
        self.window_left = w as u32;
        charge(cfg, misses, contended, stats)
    }

    /// Charges `misses` prefetch-buffer misses and `contended` port
    /// collisions counted over instructions whose last one redirected the
    /// PC, so the refill window is left full. Returns the extra stall
    /// cycles.
    pub(crate) fn charge_counts(
        &mut self,
        cfg: &MaupitiMemConfig,
        misses: u64,
        contended: u64,
        stats: &mut MemStats,
    ) -> u64 {
        self.window_left = cfg.prefetch_entries;
        charge(cfg, misses, contended, stats)
    }
}

/// Adds `misses` prefetch-buffer misses and `contended` port collisions
/// to `stats` and returns their stall cycles.
fn charge(cfg: &MaupitiMemConfig, misses: u64, contended: u64, stats: &mut MemStats) -> u64 {
    let imem = misses * cfg.refill_cycles as u64;
    let dmem = contended * cfg.contention_cycles as u64;
    stats.fetch_misses += misses;
    stats.imem_stall_cycles += imem;
    stats.contended_accesses += contended;
    stats.dmem_stall_cycles += dmem;
    imem + dmem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::PathCost;

    /// Replays `charge_prefix`'s inputs through the per-instruction
    /// `step` machine and checks both paths agree exactly.
    fn assert_paths_agree(
        cfg: &MaupitiMemConfig,
        is_mem: &[bool],
        redirect_at: &[usize],
        seg_start: usize,
        start_window: u32,
        exit_redirect: bool,
    ) {
        let n = is_mem.len();
        let mut mem_prefix = vec![0u32; n + 1];
        for i in 0..n {
            mem_prefix[i + 1] = mem_prefix[i] + is_mem[i] as u32;
        }
        let redirects: Vec<u32> = redirect_at.iter().map(|&r| r as u32).collect();

        let mut fast = MemModelState {
            window_left: start_window,
        };
        let mut fast_stats = MemStats::default();
        let fast_cycles = fast.charge_prefix(
            cfg,
            &mem_prefix,
            &redirects,
            seg_start,
            n,
            exit_redirect,
            &mut fast_stats,
        );

        let mut slow = MemModelState {
            window_left: start_window,
        };
        let mut slow_stats = MemStats::default();
        let mut slow_cycles = 0u64;
        for (i, &mem) in is_mem.iter().enumerate().skip(seg_start) {
            let is_redirect = redirect_at.contains(&i) || (exit_redirect && i == n - 1);
            slow_cycles += slow.step(cfg, mem, is_redirect, &mut slow_stats);
        }
        assert_eq!(fast_cycles, slow_cycles, "cycle charge diverged");
        assert_eq!(fast_stats, slow_stats, "stall counters diverged");
        assert_eq!(fast.window_left, slow.window_left, "carry state diverged");
    }

    #[test]
    fn prefix_charge_matches_per_instruction_stepping() {
        let cfg = MaupitiMemConfig::default();
        // No redirects, cold start: nothing charged.
        assert_paths_agree(&cfg, &[true, true, false, true], &[], 0, 0, false);
        // Carry-in window covers the first accesses only.
        assert_paths_agree(
            &cfg,
            &[true, true, false, true, true, true],
            &[],
            0,
            3,
            false,
        );
        // Mid-prefix redirect opens a fresh window.
        assert_paths_agree(
            &cfg,
            &[true, false, false, true, true, false],
            &[2],
            0,
            0,
            false,
        );
        // Redirect as the last instruction carries a full window out.
        assert_paths_agree(&cfg, &[false, true, false], &[2], 0, 2, false);
        // Taken side exit redirects at the end of the prefix.
        assert_paths_agree(&cfg, &[true, true, false], &[], 0, 4, true);
        // Back-to-back redirects.
        assert_paths_agree(&cfg, &[false, false, true, true], &[0, 1], 0, 1, false);
        // Mid-trace segments (resume past a fused loop): redirects before
        // the segment are out of range and must be ignored.
        assert_paths_agree(&cfg, &[true, true, true, true, true], &[], 2, 4, false);
        assert_paths_agree(&cfg, &[true, false, true, true, false], &[1], 3, 2, true);
        assert_paths_agree(
            &cfg,
            &[true, true, false, true, false, true],
            &[1, 4],
            2,
            3,
            false,
        );
    }

    /// `iters` taken passes over the loop body at trace positions
    /// `[seg_start, n)`, charged the way the engine charges a fused loop
    /// (the first pass from the live window, the rest from a full one,
    /// through `PathCost::contended` and `charge_counts`), must equal
    /// `iters` sequential taken-exit `charge_prefix` calls — cycles,
    /// counters and carry state.
    fn assert_loop_agrees(
        cfg: &MaupitiMemConfig,
        is_mem: &[bool],
        redirect_at: &[usize],
        seg_start: usize,
        start_window: u32,
        iters: u64,
    ) {
        let n = is_mem.len();
        let mut mem_prefix = vec![0u32; n + 1];
        for i in 0..n {
            mem_prefix[i + 1] = mem_prefix[i] + is_mem[i] as u32;
        }
        let redirects: Vec<u32> = redirect_at.iter().map(|&r| r as u32).collect();
        // The pass's summary: one redirect (its taken back edge) and its
        // data accesses at their offsets from the loop head.
        let pass = PathCost {
            misses: 1,
            accesses: (seg_start..n)
                .filter(|&i| is_mem[i])
                .map(|i| 1 << (i - seg_start))
                .sum(),
            ..PathCost::default()
        };

        let mut fast = MemModelState {
            window_left: start_window,
        };
        let mut fast_stats = MemStats::default();
        let mut fast_cycles = 0;
        // The engine charges a fused loop only once an iteration retired.
        if iters > 0 {
            let contended =
                pass.contended(start_window) + pass.contended(cfg.prefetch_entries) * (iters - 1);
            fast_cycles = fast.charge_counts(cfg, pass.misses * iters, contended, &mut fast_stats);
        }

        let mut slow = MemModelState {
            window_left: start_window,
        };
        let mut slow_stats = MemStats::default();
        let mut slow_cycles = 0u64;
        for _ in 0..iters {
            slow_cycles += slow.charge_prefix(
                cfg,
                &mem_prefix,
                &redirects,
                seg_start,
                n,
                true,
                &mut slow_stats,
            );
        }
        assert_eq!(fast_cycles, slow_cycles, "loop cycle charge diverged");
        assert_eq!(fast_stats, slow_stats, "loop stall counters diverged");
        assert_eq!(fast.window_left, slow.window_left, "loop carry diverged");
    }

    #[test]
    fn loop_charge_matches_repeated_prefix_charges() {
        let cfg = MaupitiMemConfig::default();
        // The CNN MAC body shape: two loads early, then ALU + branch.
        let mac = [true, true, false, false, false, false, false];
        for iters in [0, 1, 2, 3, 17, 1000] {
            assert_loop_agrees(&cfg, &mac, &[], 0, 0, iters);
            // Warm carry-in window (mid-run entry).
            assert_loop_agrees(&cfg, &mac, &[], 0, 4, iters);
            assert_loop_agrees(&cfg, &mac, &[], 0, 2, iters);
        }
        // Short single-load body, and a deep window that outlives the body.
        assert_loop_agrees(&cfg, &[true, false, false, false], &[], 0, 3, 5);
        let deep = MaupitiMemConfig {
            prefetch_entries: 16,
            refill_cycles: 7,
            contention_cycles: 3,
        };
        assert_loop_agrees(
            &deep,
            &[true, true, false, false, false, false],
            &[],
            0,
            9,
            12,
        );
        // A loop body embedded mid-trace: only positions past `start`
        // belong to an iteration.
        let embedded = [false, true, false, true, true, false, false, false, false];
        for iters in [1, 2, 5, 40] {
            assert_loop_agrees(&cfg, &embedded, &[], 2, 3, iters);
            assert_loop_agrees(&cfg, &embedded, &[1], 2, 0, iters);
        }
    }

    #[test]
    fn flat_is_the_default_and_maupiti_defaults_are_nonzero() {
        assert!(MemoryModel::default().is_flat());
        let MemoryModel::Maupiti(cfg) = MemoryModel::maupiti() else {
            panic!("maupiti() must select the hierarchy model");
        };
        assert!(cfg.refill_cycles > 0);
        assert!(cfg.contention_cycles > 0);
        assert!(cfg.prefetch_entries > 0);
    }

    #[test]
    fn stats_accumulate_per_cause() {
        let mut a = MemStats {
            fetch_misses: 1,
            imem_stall_cycles: 2,
            contended_accesses: 3,
            dmem_stall_cycles: 4,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.fetch_misses, 2);
        assert_eq!(a.contended_accesses, 6);
        assert_eq!(a.stall_cycles(), 12);
    }
}
