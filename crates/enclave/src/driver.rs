//! The SGX kernel driver: EPC frame allocation, secure paging (EWB /
//! ELDU), TLB shootdowns, and the Eleos extension for coordinated
//! multi-enclave memory allocation (§3.3, §4.1).
//!
//! The driver is deliberately *outside* the trust boundary: it moves
//! sealed bytes and updates page tables, but the sealing itself uses the
//! per-enclave key the way the `EWB`/`ELDU` instructions would — the
//! driver never sees plaintext it could tamper with undetected. A
//! corrupted swap entry fails authentication at load time.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;

use eleos_crypto::Sealer;
use eleos_sim::costs::PAGE_SIZE;
use eleos_sim::stats::Stats;

use crate::enclave::{Enclave, SealedPage};
use crate::epc::{EpcPool, FrameIdx};
use crate::machine::{Core, MachineConfig, SgxMachine};

struct DriverInner {
    free: Vec<FrameIdx>,
    /// FIFO of resident `(page, frame, faulting core)` triples per
    /// enclave — the driver's eviction order, remembering which core
    /// installed each page (its TLB is the shootdown target).
    resident: HashMap<u32, VecDeque<(u64, FrameIdx, usize)>>,
    enclaves: HashMap<u32, Arc<Enclave>>,
    fault_count: u64,
}

/// The driver.
pub struct SgxDriver {
    inner: Mutex<DriverInner>,
    swapper_period: u64,
    free_watermark: usize,
    total_frames: usize,
}

impl SgxDriver {
    pub(crate) fn new(cfg: &MachineConfig) -> Self {
        let total_frames = cfg.epc_bytes / PAGE_SIZE;
        Self {
            inner: Mutex::new(DriverInner {
                free: (0..total_frames as FrameIdx).rev().collect(),
                resident: HashMap::new(),
                enclaves: HashMap::new(),
                fault_count: 0,
            }),
            swapper_period: cfg.swapper_period,
            free_watermark: cfg.free_watermark.min(total_frames / 2),
            total_frames,
        }
    }

    /// Creates and registers an enclave with `linear_bytes` of linear
    /// address space.
    pub fn create_enclave(&self, m: &SgxMachine, linear_bytes: usize) -> Arc<Enclave> {
        let id = m.alloc_enclave_id();
        let e = Arc::new(Enclave::new(id, linear_bytes));
        let mut inner = self.inner.lock();
        inner.enclaves.insert(id, Arc::clone(&e));
        inner.resident.insert(id, VecDeque::new());
        e
    }

    /// Tears an enclave down, releasing all its frames.
    pub fn destroy_enclave(&self, m: &SgxMachine, e: &Arc<Enclave>) {
        let mut inner = self.inner.lock();
        if inner.enclaves.remove(&e.id).is_none() {
            return;
        }
        if let Some(fifo) = inner.resident.remove(&e.id) {
            for (page, frame, _) in fifo {
                let fr = m.epc.frame(frame);
                let mut g = fr.inner.write();
                if g.owner == Some((e.id, page)) {
                    g.owner = None;
                    g.data.clear();
                    e.set_pte(page, None);
                    inner.free.push(frame);
                }
            }
        }
        e.swap.lock().clear();
    }

    /// Number of registered enclaves.
    #[must_use]
    pub fn active_enclaves(&self) -> usize {
        self.inner.lock().enclaves.len()
    }

    /// The Eleos `ioctl` (§4.1): the PRM share currently available to
    /// each enclave, in frames. The driver splits the PRM evenly, so
    /// this is `total / active`.
    #[must_use]
    pub fn available_epc(&self) -> usize {
        let n = self.active_enclaves().max(1);
        self.total_frames / n
    }

    /// Total EPC frames under management.
    #[must_use]
    pub fn total_frames(&self) -> usize {
        self.total_frames
    }

    /// Currently free frames (diagnostics).
    #[must_use]
    pub fn free_frames(&self) -> usize {
        self.inner.lock().free.len()
    }

    /// EPC frames currently resident for `enclave_id` (zero once the
    /// enclave is destroyed) — what the fleet's fair-share pressure
    /// gauge and the contention proptests read.
    #[must_use]
    pub fn resident_frames(&self, enclave_id: u32) -> usize {
        self.inner
            .lock()
            .resident
            .get(&enclave_id)
            .map_or(0, VecDeque::len)
    }

    /// Handles a hardware EPC fault: `enclave` touched linear `page`
    /// and found no resident frame. Charges all direct costs to
    /// `core`'s clock and flushes its TLB (the fault exits the
    /// enclave). Returns once the page is resident.
    pub fn handle_fault(&self, m: &SgxMachine, enclave: &Arc<Enclave>, page: u64, core: &Core) {
        let costs = &m.cfg.costs;
        let mut inner = self.inner.lock();
        if enclave.pte(page).is_some() {
            return; // Another thread faulted it in first.
        }
        Stats::bump(&m.stats.hw_faults);
        m.trace.record(
            core.clock.now(),
            eleos_sim::trace::Event::HwFault {
                core: core.id,
                enclave: enclave.id,
                page,
            },
        );
        inner.fault_count += 1;
        // The fault exits and re-enters the enclave and dispatches into
        // the kernel; the enclave's TLB entries are flushed.
        core.clock
            .advance(costs.exit_roundtrip() + costs.hw_fault_dispatch);
        core.tlb.lock().flush_asid(enclave.asid());
        Stats::bump(&m.stats.tlb_flushes);

        // Periodic housekeeping: the driver's swapper refills the free
        // pool. Its cycles are charged to the faulting core (the model
        // runs it deterministically on the fault path) but its
        // shootdowns behave like the real asynchronous swapper thread:
        // even a single-threaded enclave receives IPIs (Table 2,
        // footnote 3).
        if inner.fault_count.is_multiple_of(self.swapper_period) {
            while inner.free.len() < self.free_watermark {
                if !Self::evict_one(m, &mut inner, core, None) {
                    break;
                }
            }
        }

        // Demand eviction if the pool is empty (the faulting core runs
        // the driver, so it needs no IPI to itself).
        while inner.free.is_empty() {
            if !Self::evict_one(m, &mut inner, core, Some(core.id)) {
                panic!("EPC exhausted and nothing evictable");
            }
        }
        let frame = inner.free.pop().expect("free frame");

        // Install the page: unseal from swap, or supply a zero page.
        let sealed = enclave.swap.lock().remove(&page);
        {
            let fr = m.epc.frame(frame);
            let mut g = fr.inner.write();
            match sealed {
                Some(s) => {
                    let mut buf = s.ct;
                    let aad = Self::page_aad(enclave.id, page);
                    enclave
                        .seal
                        .open(&s.nonce, &aad, buf.as_mut_slice(), &s.tag)
                        .expect("swap page failed authentication: untrusted memory tampered");
                    g.data = buf.into();
                    core.clock.advance(costs.hw_load_page);
                    Stats::bump(&m.stats.hw_loads);
                    Stats::add(&m.stats.sealed_bytes, PAGE_SIZE as u64);
                }
                None => {
                    g.data.clear();
                    core.clock.advance(costs.hw_zero_page);
                }
            }
            g.owner = Some((enclave.id, page));
        }
        enclave.set_pte(page, Some(frame));
        // ELDU streamed the page through the cache: warm the frame's
        // lines so post-fault accesses are not double-charged.
        m.touch_mem(
            eleos_sim::llc::CacheCtx::Other,
            EpcPool::paddr(frame),
            PAGE_SIZE,
            eleos_sim::costs::AccessKind::Write,
        );
        inner
            .resident
            .get_mut(&enclave.id)
            .expect("registered")
            .push_back((page, frame, core.id));
        // Fleet contention telemetry: when siblings are active, record
        // how far this enclave now sits beyond its even PRM split. The
        // fair-share eviction policy pulls the overshoot back, so the
        // peak bounds how unfair the allocator ever got.
        if inner.enclaves.len() > 1 {
            let fair = self.total_frames / inner.enclaves.len();
            let res = inner.resident[&enclave.id].len();
            if res > fair {
                Stats::peak(&m.stats.epc_over_share_peak, (res - fair) as u64);
            }
        }
    }

    /// Evicts one page, preferring the enclave most over its fair
    /// share. `exclude_core` suppresses the shootdown of one core (the
    /// demand-faulting core runs the driver itself and its TLB was
    /// already flushed by the fault); `None` models the asynchronous
    /// swapper, which IPIs even the page's own core. Returns `false`
    /// when nothing is evictable.
    fn evict_one(
        m: &SgxMachine,
        inner: &mut DriverInner,
        requester: &Core,
        exclude_core: Option<usize>,
    ) -> bool {
        let costs = &m.cfg.costs;
        let share = inner.enclaves.len().max(1);
        let fair_share = m.epc.frame_count() / share;
        // Pick the victim enclave: most resident pages above its fair
        // share; ties broken by lowest id for determinism.
        let mut victim_id = None;
        let mut victim_excess = 0isize;
        let mut ids: Vec<u32> = inner.resident.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let res = inner.resident[&id].len() as isize;
            let excess = res - fair_share as isize;
            if res > 0 && (victim_id.is_none() || excess > victim_excess) {
                victim_id = Some(id);
                victim_excess = excess;
            }
        }
        let Some(vid) = victim_id else {
            return false;
        };
        let fifo = inner.resident.get_mut(&vid).expect("victim fifo");
        let Some((page, frame, owner_core)) = fifo.pop_front() else {
            return false;
        };
        let enclave = Arc::clone(inner.enclaves.get(&vid).expect("victim enclave"));

        // Unmap first so no new access can translate to the frame...
        enclave.set_pte(page, None);

        // ...then the ETRACK/IPI flow. Real ETRACK is epoch-based and
        // conservative — the driver cannot inspect remote TLBs — so we
        // shoot down the core that installed the page, which plausibly
        // still caches the translation.
        if Some(owner_core) != exclude_core {
            let core = m.core(owner_core);
            core.tlb.lock().flush_page(enclave.asid(), page);
            core.clock.post_interrupt();
            core.clock.advance(costs.aex_resume);
            Stats::bump(&m.stats.aex);
            requester.clock.advance(costs.ipi_send);
            Stats::bump(&m.stats.ipis);
            m.trace.record(
                requester.clock.now(),
                eleos_sim::trace::Event::Ipi { target: owner_core },
            );
        }

        // EWB: seal the contents out to swap. SGX always writes back,
        // clean or dirty (§3.2.4).
        {
            let fr = m.epc.frame(frame);
            let mut g = fr.inner.write();
            debug_assert_eq!(g.owner, Some((vid, page)));
            // The page's contents leave the frame for swap; a page never
            // written seals as zeros.
            let mut ct = g.data.take().unwrap_or_else(|| Box::new([0u8; PAGE_SIZE]));
            let nonce = enclave.next_nonce();
            let aad = Self::page_aad(vid, page);
            let tag = enclave.seal.seal(&nonce, &aad, ct.as_mut_slice());
            enclave
                .swap
                .lock()
                .insert(page, SealedPage { ct, nonce, tag });
            g.owner = None;
        }
        m.llc
            .lock()
            .invalidate_range(EpcPool::paddr(frame), PAGE_SIZE);
        inner.free.push(frame);
        requester.clock.advance(costs.hw_evict_page);
        Stats::bump(&m.stats.hw_evictions);
        m.trace.record(
            requester.clock.now(),
            eleos_sim::trace::Event::HwEvict { enclave: vid, page },
        );
        Stats::add(&m.stats.sealed_bytes, PAGE_SIZE as u64);
        true
    }

    fn page_aad(enclave_id: u32, page: u64) -> [u8; 12] {
        let mut aad = [0u8; 12];
        aad[..4].copy_from_slice(&enclave_id.to_le_bytes());
        aad[4..].copy_from_slice(&page.to_le_bytes());
        aad
    }
}
