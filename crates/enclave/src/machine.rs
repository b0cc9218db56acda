//! The simulated SGX machine: cores, LLC, untrusted RAM, EPC, driver
//! and host OS, composed into one shared [`SgxMachine`].

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use eleos_sim::alloc::BuddyAllocator;
use eleos_sim::clock::CoreClock;
use eleos_sim::costs::{AccessKind, CostModel, PAGE_SIZE};
use eleos_sim::llc::{CacheCtx, Llc, LlcConfig, Walk};
use eleos_sim::mem::PagedMem;
use eleos_sim::stats::Stats;
use eleos_sim::tlb::Tlb;

use crate::driver::SgxDriver;
use crate::epc::EpcPool;
use crate::host::HostOs;

/// Configuration of a simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// EPC bytes available to applications. The paper's platform has
    /// 128 MiB PRM of which "only about 90 MiB is available" (§2.3);
    /// we default to 93 MiB like the paper's §6 setup notes.
    pub epc_bytes: usize,
    /// Untrusted RAM bytes (lazily materialized).
    pub untrusted_bytes: usize,
    /// Number of simulated cores.
    pub cores: usize,
    /// LLC geometry.
    pub llc: LlcConfig,
    /// TLB entries per core.
    pub tlb_entries: usize,
    /// Cycle cost model.
    pub costs: CostModel,
    /// Driver housekeeping period: every this many hardware faults the
    /// driver's swapper refills the free-frame pool (the paper notes an
    /// asynchronous swapper thread in the driver causes IPIs even for
    /// single-threaded enclaves — Table 2, footnote 3).
    pub swapper_period: u64,
    /// Free-frame low watermark the swapper maintains.
    pub free_watermark: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            epc_bytes: 93 << 20,
            untrusted_bytes: 4 << 30,
            cores: 8,
            llc: LlcConfig::default(),
            tlb_entries: eleos_sim::tlb::DEFAULT_TLB_ENTRIES,
            costs: CostModel::default(),
            swapper_period: 16,
            free_watermark: 32,
        }
    }
}

impl MachineConfig {
    /// A small configuration for unit tests: 64 pages of EPC, tiny LLC.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            epc_bytes: 64 * PAGE_SIZE,
            untrusted_bytes: 32 << 20,
            cores: 4,
            llc: LlcConfig {
                size: 64 << 10,
                ways: 4,
            },
            tlb_entries: 64,
            costs: CostModel::default(),
            swapper_period: 8,
            free_watermark: 4,
        }
    }

    /// A mid-size configuration for integration tests and scaled-down
    /// experiments: `epc_mb` MiB of EPC, proportionate watermark.
    #[must_use]
    pub fn scaled(epc_mb: usize) -> Self {
        Self {
            epc_bytes: epc_mb << 20,
            ..Self::default()
        }
    }
}

/// One simulated core: a cycle clock plus a TLB.
///
/// The TLB sits behind a mutex (rather than being thread-local) so the
/// driver can perform a faithful `ETRACK`: query *which cores actually
/// hold a translation* and IPI exactly those (§3.2.3).
pub struct Core {
    /// Core index.
    pub id: usize,
    /// The core's cycle counter / interrupt line.
    pub clock: Arc<CoreClock>,
    /// The core's TLB.
    pub tlb: Mutex<Tlb>,
}

/// The shared machine.
pub struct SgxMachine {
    /// Configuration the machine was built with.
    pub cfg: MachineConfig,
    /// Machine-wide event counters.
    pub stats: Stats,
    /// Optional event trace (disabled by default).
    pub trace: eleos_sim::trace::Trace,
    /// Shared last-level cache.
    pub llc: Mutex<Llc>,
    /// Untrusted RAM contents.
    pub untrusted: PagedMem,
    untrusted_heap: Mutex<BuddyAllocator>,
    /// EPC frames.
    pub epc: EpcPool,
    /// The SGX driver.
    pub driver: SgxDriver,
    /// The host operating system (sockets).
    pub host: HostOs,
    /// The host filesystem.
    pub fs: crate::fs::HostFs,
    cores: Vec<Arc<Core>>,
    next_enclave_id: AtomicU32,
}

impl SgxMachine {
    /// Builds a machine.
    #[must_use]
    pub fn new(cfg: MachineConfig) -> Arc<Self> {
        let untrusted_cap = (cfg.untrusted_bytes as u64).next_power_of_two();
        let cores = (0..cfg.cores)
            .map(|id| {
                Arc::new(Core {
                    id,
                    clock: CoreClock::new(),
                    tlb: Mutex::new(Tlb::new(cfg.tlb_entries)),
                })
            })
            .collect();
        Arc::new(Self {
            stats: Stats::default(),
            trace: eleos_sim::trace::Trace::default(),
            llc: Mutex::new(Llc::new(&cfg.llc)),
            untrusted: PagedMem::new(untrusted_cap as usize),
            untrusted_heap: Mutex::new(BuddyAllocator::new(untrusted_cap, 16)),
            epc: EpcPool::new(cfg.epc_bytes / PAGE_SIZE),
            driver: SgxDriver::new(&cfg),
            host: HostOs::new(),
            fs: crate::fs::HostFs::new(),
            cores,
            next_enclave_id: AtomicU32::new(1),
            cfg,
        })
    }

    /// Returns core `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn core(&self, id: usize) -> Arc<Core> {
        Arc::clone(&self.cores[id])
    }

    /// Number of cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Allocates `len` bytes of untrusted memory, returning its address.
    pub fn alloc_untrusted(&self, len: usize) -> u64 {
        self.untrusted_heap
            .lock()
            .alloc(len)
            .expect("untrusted memory exhausted")
    }

    /// Frees an untrusted allocation.
    pub fn free_untrusted(&self, addr: u64) {
        self.untrusted_heap
            .lock()
            .free(addr)
            .expect("bad untrusted free");
    }

    /// Allocates a fresh enclave id.
    pub(crate) fn alloc_enclave_id(&self) -> u32 {
        self.next_enclave_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Applies the Eleos CAT partition (75% enclave / 25% RPC ways).
    pub fn enable_cat(&self) {
        self.llc.lock().partition_eleos();
    }

    /// Charges the memory-hierarchy cost of touching
    /// `[paddr, paddr+len)` with access `kind` from cache context
    /// `cctx`, updating the caller's sequential-stream state
    /// `seq_line`. Returns the cycle cost (the caller advances its own
    /// clock).
    pub fn charge_mem(
        &self,
        cctx: CacheCtx,
        seq_line: &mut u64,
        paddr: u64,
        len: usize,
        kind: AccessKind,
    ) -> u64 {
        let walk = self
            .llc
            .lock()
            .walk(cctx, paddr, len, kind, Some((&self.cfg.costs, seq_line)));
        self.count(&walk);
        walk.cycles
    }

    /// Streams `[paddr, paddr+len)` through the LLC *without charging
    /// cycles*: used for data movement whose latency is already folded
    /// into a modelled constant (EWB/ELDU work, AES-NI sealing). The
    /// movement still warms — and pollutes — the cache, which is part
    /// of paging's indirect cost (§2.3), and shows in the LLC counters
    /// like any other access.
    pub fn touch_mem(&self, cctx: CacheCtx, paddr: u64, len: usize, kind: AccessKind) {
        let walk = self.llc.lock().walk(cctx, paddr, len, kind, None);
        self.count(&walk);
    }

    /// Publishes a walk's four LLC counters.
    fn count(&self, walk: &Walk) {
        Stats::add(&self.stats.llc_hits, walk.hits);
        Stats::add(&self.stats.llc_misses, walk.misses);
        Stats::add(&self.stats.llc_misses_epc, walk.misses_epc);
        Stats::add(&self.stats.llc_writebacks, walk.writebacks);
    }

    /// Resets stats, LLC contents and core clocks between experiment
    /// phases (memory *contents* are preserved).
    pub fn reset_measurement(&self) {
        self.stats.reset();
        self.llc.lock().clear();
        for core in &self.cores {
            core.clock.reset();
            core.tlb.lock().flush();
        }
    }

    /// Resets stats and clocks but keeps LLC/TLB state — used after a
    /// warm-up phase (the paper discards the first ten invocations,
    /// §6).
    pub fn reset_counters(&self) {
        self.stats.reset();
        for core in &self.cores {
            core.clock.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_default_machine() {
        let m = SgxMachine::new(MachineConfig::tiny());
        assert_eq!(m.core_count(), 4);
        assert_eq!(m.epc.frame_count(), 64);
    }

    #[test]
    fn untrusted_alloc_roundtrip() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let a = m.alloc_untrusted(100);
        let b = m.alloc_untrusted(100);
        assert_ne!(a, b);
        m.untrusted.write(a, b"hello");
        let mut buf = [0u8; 5];
        m.untrusted.read(a, &mut buf);
        assert_eq!(&buf, b"hello");
        m.free_untrusted(a);
        m.free_untrusted(b);
    }

    #[test]
    fn charge_mem_counts_hits_and_misses() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut seq = u64::MAX - 1;
        let cold = m.charge_mem(CacheCtx::Other, &mut seq, 0x1000, 128, AccessKind::Read);
        let warm = m.charge_mem(CacheCtx::Other, &mut seq, 0x1000, 128, AccessKind::Read);
        assert!(cold > warm, "cold {cold} vs warm {warm}");
        let s = m.stats.snapshot();
        assert_eq!(s.llc_misses, 2);
        assert_eq!(s.llc_hits, 2);
    }

    #[test]
    fn epc_misses_cost_more() {
        use eleos_sim::costs::EPC_BASE;
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut seq = u64::MAX - 1;
        let u = m.charge_mem(CacheCtx::Other, &mut seq, 0x10_0000, 64, AccessKind::Read);
        m.reset_measurement();
        let mut seq = u64::MAX - 1;
        let e = m.charge_mem(
            CacheCtx::Other,
            &mut seq,
            EPC_BASE + 0x10_0000,
            64,
            AccessKind::Read,
        );
        assert!(e > 4 * u, "EPC miss {e} should dwarf untrusted {u}");
    }

    #[test]
    fn touch_mem_counts_epc_misses_and_writebacks() {
        use eleos_sim::costs::EPC_BASE;
        let m = SgxMachine::new(MachineConfig::tiny());
        // Dirty a whole tiny LLC, stream as much clean untrusted memory
        // through it (every dirty line is written back), then as much
        // EPC, none of it charged.
        let lines = (m.cfg.llc.size / 64) as u64;
        let len = m.cfg.llc.size;
        m.touch_mem(CacheCtx::Other, 0, len, AccessKind::Write);
        m.touch_mem(CacheCtx::Other, len as u64, len, AccessKind::Read);
        m.touch_mem(CacheCtx::Other, EPC_BASE, len, AccessKind::Read);
        let s = m.stats.snapshot();
        assert_eq!(s.llc_misses, 3 * lines);
        assert_eq!(s.llc_misses_epc, lines);
        assert_eq!(s.llc_writebacks, lines);
    }

    #[test]
    fn reset_clears_counters_and_clocks() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut seq = 0;
        m.charge_mem(CacheCtx::Other, &mut seq, 0, 64, AccessKind::Write);
        m.core(0).clock.advance(10);
        m.reset_measurement();
        assert_eq!(m.stats.snapshot().llc_misses, 0);
        assert_eq!(m.core(0).clock.now(), 0);
    }
}
