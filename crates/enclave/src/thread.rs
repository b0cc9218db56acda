//! Per-thread execution context: the unit that runs code "on a core",
//! inside or outside an enclave, with all memory traffic charged to the
//! simulated memory hierarchy.

use std::sync::Arc;

use eleos_sim::clock::CoreClock;
use eleos_sim::costs::{AccessKind, PAGE_SIZE};
use eleos_sim::llc::CacheCtx;
use eleos_sim::stats::Stats;

use crate::enclave::Enclave;
use crate::epc::EpcPool;
use crate::machine::{Core, SgxMachine};

/// A simulated thread of execution pinned to one core.
///
/// A `ThreadCtx` bound to an enclave alternates between trusted and
/// untrusted execution via [`enter`](Self::enter)/[`exit`](Self::exit)
/// (or the [`ocall`](Self::ocall) convenience). Access rules mirror
/// SGX: trusted code may touch both enclave and untrusted memory;
/// untrusted code may touch only untrusted memory.
pub struct ThreadCtx {
    /// The machine this thread runs on.
    pub machine: Arc<SgxMachine>,
    /// The core this thread is pinned to.
    pub core: Arc<Core>,
    /// Cache-partition class for CAT accounting.
    pub cache_ctx: CacheCtx,
    enclave: Option<Arc<Enclave>>,
    in_enclave: bool,
    seq_line: u64,
    /// The serve round's crypto batches, while one is open.
    round: Option<CryptoBatch>,
}

/// The running message index of each key's crypto batch within one
/// operation or one serve round ([`ThreadCtx::charge_crypto_in`]).
#[derive(Debug, Default)]
pub struct CryptoBatch {
    /// `(key identity, index of the key's next message)`.
    next: Vec<(usize, usize)>,
}

impl CryptoBatch {
    /// The index of `key`'s next message.
    fn next_of(&mut self, key: usize) -> &mut usize {
        let at = match self.next.iter().position(|&(k, _)| k == key) {
            Some(at) => at,
            None => {
                self.next.push((key, 0));
                self.next.len() - 1
            }
        };
        &mut self.next[at].1
    }
}

impl ThreadCtx {
    /// An untrusted host thread (cache context `Other`).
    #[must_use]
    pub fn untrusted(machine: &Arc<SgxMachine>, core_id: usize) -> Self {
        Self {
            core: machine.core(core_id),
            machine: Arc::clone(machine),
            cache_ctx: CacheCtx::Other,
            enclave: None,
            in_enclave: false,
            seq_line: u64::MAX - 1,
            round: None,
        }
    }

    /// An Eleos RPC worker thread (cache context `Rpc`, CAT-partitioned
    /// when [`SgxMachine::enable_cat`] is on).
    #[must_use]
    pub fn rpc_worker(machine: &Arc<SgxMachine>, core_id: usize) -> Self {
        Self {
            cache_ctx: CacheCtx::Rpc,
            ..Self::untrusted(machine, core_id)
        }
    }

    /// A thread bound to `enclave`, starting outside it.
    #[must_use]
    pub fn for_enclave(machine: &Arc<SgxMachine>, enclave: &Arc<Enclave>, core_id: usize) -> Self {
        Self {
            core: machine.core(core_id),
            machine: Arc::clone(machine),
            cache_ctx: CacheCtx::Enclave,
            enclave: Some(Arc::clone(enclave)),
            in_enclave: false,
            seq_line: u64::MAX - 1,
            round: None,
        }
    }

    /// The bound enclave, if any.
    #[must_use]
    pub fn enclave(&self) -> Option<&Arc<Enclave>> {
        self.enclave.as_ref()
    }

    /// Whether the thread currently executes in trusted mode.
    #[must_use]
    pub fn in_enclave(&self) -> bool {
        self.in_enclave
    }

    /// The core's clock.
    #[must_use]
    pub fn clock(&self) -> &CoreClock {
        &self.core.clock
    }

    /// Current simulated time on this core, in cycles.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.core.clock.now()
    }

    /// Charges `cycles` of pure compute to this core.
    pub fn compute(&self, cycles: u64) {
        self.core.clock.advance(cycles);
    }

    /// Opens a serve round on this thread: until [`Self::close_round`],
    /// each key's seals and opens are one crypto batch, whatever
    /// operation bills them (`docs/crypto-pipeline.md`, "The serve
    /// round"). A round already open stays open.
    pub fn open_round(&mut self) {
        self.round.get_or_insert_with(CryptoBatch::default);
    }

    /// Closes the serve round, if one is open.
    pub fn close_round(&mut self) {
        self.round = None;
    }

    /// Bills `lens`, the byte length of each message sealed or opened
    /// under `key`, as one crypto batch — or, in a serve round, as the
    /// next messages of the round's batch for `key`.
    pub fn charge_crypto<K: ?Sized>(&mut self, key: &K, lens: impl IntoIterator<Item = usize>) {
        if self.round.is_some() {
            self.charge_crypto_in(&mut CryptoBatch::default(), key, lens);
        } else {
            self.bill_crypto(0, lens);
        }
    }

    /// Bills `lens` under `key` as the next messages of `batch`, the
    /// batch of an operation that bills piece by piece (a bypass
    /// cursor, a write-through, a shared-region call) — or, in a serve
    /// round, of the round's batch for `key`, leaving `batch` alone.
    ///
    /// The **single** place `CostModel::crypto_batch_fixed` is billed
    /// from, shared by the wire codec, SUVM, the shared region and the
    /// snapshot codec: a batch's first message pays the full
    /// `crypto_fixed` set-up (key schedule, GHASH table) and every
    /// later one a quarter of it, and only the first counts a crypto
    /// batch. Keys are told apart by identity — the address of the
    /// key object — so two keys are two batches and a rotated key
    /// starts a new one. Also bumps the `crypto_batches` /
    /// `crypto_msgs` / `crypto_setup_cycles` stats so experiments can
    /// report the amortization.
    pub fn charge_crypto_in<K: ?Sized>(
        &mut self,
        batch: &mut CryptoBatch,
        key: &K,
        lens: impl IntoIterator<Item = usize>,
    ) {
        let key = std::ptr::from_ref(key).cast::<()>().addr();
        let first = *self.round.as_mut().unwrap_or(&mut *batch).next_of(key);
        let n = self.bill_crypto(first, lens);
        *self.round.as_mut().unwrap_or(batch).next_of(key) += n;
    }

    /// Bills `lens` as messages `first, first + 1, …` of one batch and
    /// returns how many there were.
    fn bill_crypto(&mut self, first: usize, lens: impl IntoIterator<Item = usize>) -> usize {
        let machine = Arc::clone(&self.machine);
        let costs = &machine.cfg.costs;
        let (mut n, mut setup) = (0, 0u64);
        for (i, len) in (first..).zip(lens) {
            let fixed = costs.crypto_batch_fixed(i);
            setup += fixed;
            self.compute(fixed + (costs.crypto_cpb * len as f64) as u64);
            n += 1;
        }
        if n == 0 {
            return 0;
        }
        if first == 0 {
            Stats::bump(&machine.stats.crypto_batches);
        }
        Stats::add(&machine.stats.crypto_msgs, n as u64);
        Stats::add(&machine.stats.crypto_setup_cycles, setup);
        n
    }

    /// Bills each of `lens` as a crypto batch of its own, in a serve
    /// round or not. Kept only for `bench/`'s probes, which pin this
    /// shape; `amortize` must be `false`. Bill a batch with
    /// [`Self::charge_crypto`].
    #[doc(hidden)]
    pub fn charge_crypto_batch(&mut self, lens: impl IntoIterator<Item = usize>, amortize: bool) {
        assert!(!amortize, "bill an amortized batch with charge_crypto");
        for len in lens {
            self.bill_crypto(0, [len]);
        }
    }

    /// EENTER: transitions to trusted execution.
    ///
    /// # Panics
    /// Panics if no enclave is bound or the thread is already inside.
    pub fn enter(&mut self) {
        assert!(!self.in_enclave, "nested EENTER");
        let e = self.enclave.as_ref().expect("no enclave bound");
        self.core.clock.advance(self.machine.cfg.costs.eenter);
        Stats::bump(&self.machine.stats.enclave_enters);
        self.machine.trace.record(
            self.core.clock.now(),
            eleos_sim::trace::Event::EnclaveEnter {
                core: self.core.id,
                enclave: e.id,
            },
        );
        e.core_set.join(self.core.id, Arc::clone(&self.core.clock));
        self.in_enclave = true;
    }

    /// EEXIT: transitions to untrusted execution, flushing the
    /// enclave's TLB entries on this core (the mandatory flush of
    /// §2.2.1).
    pub fn exit(&mut self) {
        assert!(self.in_enclave, "EEXIT while outside");
        let e = self.enclave.as_ref().expect("enclave bound");
        self.core.clock.advance(self.machine.cfg.costs.eexit);
        Stats::bump(&self.machine.stats.enclave_exits);
        Stats::bump(&self.machine.stats.tlb_flushes);
        self.machine.trace.record(
            self.core.clock.now(),
            eleos_sim::trace::Event::EnclaveExit {
                core: self.core.id,
                enclave: e.id,
            },
        );
        self.core.tlb.lock().flush_asid(e.asid());
        e.core_set.leave(self.core.id);
        self.in_enclave = false;
    }

    /// Performs an OCALL: exits the enclave, runs `f` in untrusted
    /// mode, re-enters. This is the Intel-SDK path Eleos's RPC
    /// replaces; its direct cost is ~8k cycles (§2.2).
    pub fn ocall<R>(&mut self, f: impl FnOnce(&mut ThreadCtx) -> R) -> R {
        Stats::bump(&self.machine.stats.ocalls);
        self.core.clock.advance(self.machine.cfg.costs.ocall_sdk);
        self.exit();
        let r = f(self);
        self.enter();
        r
    }

    /// Runs `f` in trusted mode (an ECALL).
    pub fn ecall<R>(&mut self, f: impl FnOnce(&mut ThreadCtx) -> R) -> R {
        self.enter();
        let r = f(self);
        self.exit();
        r
    }

    /// Observes a pending IPI, performing the AEX effects (enclave TLB
    /// flush). The cycle cost was already charged by the sender.
    fn poll_interrupt(&mut self) {
        if self.core.clock.take_interrupt() {
            if let Some(e) = &self.enclave {
                if self.in_enclave {
                    self.core.tlb.lock().flush_asid(e.asid());
                    Stats::bump(&self.machine.stats.tlb_flushes);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Untrusted memory.
    // ------------------------------------------------------------------

    fn untrusted_access(&mut self, addr: u64, len: usize, kind: AccessKind, charged: bool) {
        self.poll_interrupt();
        if !charged || len == 0 {
            return;
        }
        let mut cycles = 0u64;
        // Page walks for untrusted pages (ASID 0), not flushed by exits.
        let first_page = addr / PAGE_SIZE as u64;
        let last_page = (addr + len as u64 - 1) / PAGE_SIZE as u64;
        {
            let mut tlb = self.core.tlb.lock();
            for vpn in first_page..=last_page {
                if tlb.access(0, vpn) {
                    Stats::bump(&self.machine.stats.tlb_hits);
                } else {
                    Stats::bump(&self.machine.stats.tlb_misses);
                    cycles += self.machine.cfg.costs.tlb_walk;
                }
            }
        }
        cycles += self
            .machine
            .charge_mem(self.cache_ctx, &mut self.seq_line, addr, len, kind);
        self.core.clock.advance(cycles);
    }

    /// Reads untrusted memory with full cost accounting.
    pub fn read_untrusted(&mut self, addr: u64, buf: &mut [u8]) {
        self.untrusted_access(addr, buf.len(), AccessKind::Read, true);
        self.machine.untrusted.read(addr, buf);
    }

    /// Writes untrusted memory with full cost accounting.
    pub fn write_untrusted(&mut self, addr: u64, buf: &[u8]) {
        self.untrusted_access(addr, buf.len(), AccessKind::Write, true);
        self.machine.untrusted.write(addr, buf);
    }

    /// Reads untrusted memory without charging cycles — for
    /// runtime-internal moves whose latency is already modelled (e.g.
    /// a seal operation charged at AES-NI rates). The bytes still
    /// stream through the LLC.
    pub fn read_untrusted_raw(&mut self, addr: u64, buf: &mut [u8]) {
        self.poll_interrupt();
        self.machine
            .touch_mem(self.cache_ctx, addr, buf.len(), AccessKind::Read);
        self.machine.untrusted.read(addr, buf);
    }

    /// Raw counterpart of [`Self::write_untrusted`].
    pub fn write_untrusted_raw(&mut self, addr: u64, buf: &[u8]) {
        self.poll_interrupt();
        self.machine
            .touch_mem(self.cache_ctx, addr, buf.len(), AccessKind::Write);
        self.machine.untrusted.write(addr, buf);
    }

    // ------------------------------------------------------------------
    // Enclave memory.
    // ------------------------------------------------------------------

    /// Reads enclave-linear memory (trusted mode only).
    pub fn read_enclave(&mut self, vaddr: u64, buf: &mut [u8]) {
        self.enclave_access(vaddr, AccessKind::Read, true, buf);
    }

    /// Writes enclave-linear memory (trusted mode only).
    pub fn write_enclave(&mut self, vaddr: u64, buf: &[u8]) {
        let mut data = buf;
        self.enclave_access_mut(vaddr, buf.len(), AccessKind::Write, true, &mut data);
    }

    /// Reads enclave memory without LLC/TLB charges (still faults if
    /// the page is non-resident — hardware residency is not optional).
    pub fn read_enclave_raw(&mut self, vaddr: u64, buf: &mut [u8]) {
        self.enclave_access(vaddr, AccessKind::Read, false, buf);
    }

    /// Raw counterpart of [`Self::write_enclave`].
    pub fn write_enclave_raw(&mut self, vaddr: u64, buf: &[u8]) {
        let mut data = buf;
        self.enclave_access_mut(vaddr, buf.len(), AccessKind::Write, false, &mut data);
    }

    /// Fills enclave memory with `byte`.
    pub fn fill_enclave(&mut self, vaddr: u64, len: usize, byte: u8) {
        // Reuse the write path with a bounded stack buffer per page.
        let chunk = [byte; PAGE_SIZE];
        let mut done = 0usize;
        while done < len {
            let n = (len - done).min(PAGE_SIZE);
            self.write_enclave(vaddr + done as u64, &chunk[..n]);
            done += n;
        }
    }

    /// Shared read path: splits the span into pages and copies from the
    /// resident frames.
    fn enclave_access(&mut self, vaddr: u64, kind: AccessKind, charged: bool, buf: &mut [u8]) {
        assert_eq!(kind, AccessKind::Read);
        assert!(self.in_enclave, "enclave memory access from untrusted mode");
        let e = Arc::clone(self.enclave.as_ref().expect("enclave bound"));
        let len = buf.len();
        let mut off = 0usize;
        while off < len {
            let addr = vaddr + off as u64;
            let page = addr / PAGE_SIZE as u64;
            let in_page = (addr % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(len - off);
            let dst = &mut buf[off..off + n];
            self.page_read(&e, page, in_page, kind, charged, dst);
            off += n;
        }
    }

    /// Shared write path (separate because the frame lock is exclusive).
    fn enclave_access_mut(
        &mut self,
        vaddr: u64,
        len: usize,
        kind: AccessKind,
        charged: bool,
        data: &mut &[u8],
    ) {
        assert_eq!(kind, AccessKind::Write);
        assert!(self.in_enclave, "enclave memory access from untrusted mode");
        let e = Arc::clone(self.enclave.as_ref().expect("enclave bound"));
        let mut off = 0usize;
        while off < len {
            let addr = vaddr + off as u64;
            let page = addr / PAGE_SIZE as u64;
            let in_page = (addr % PAGE_SIZE as u64) as usize;
            let n = (PAGE_SIZE - in_page).min(len - off);
            let src = &data[off..off + n];
            self.page_write(&e, page, in_page, n, charged, src);
            off += n;
        }
    }

    fn translate_and_charge(
        &mut self,
        e: &Arc<Enclave>,
        page: u64,
        in_page: usize,
        n: usize,
        kind: AccessKind,
        charged: bool,
    ) -> u32 {
        loop {
            self.poll_interrupt();
            if charged {
                let hit = self.core.tlb.lock().access(e.asid(), page);
                let c = &self.machine.cfg.costs;
                if hit {
                    Stats::bump(&self.machine.stats.tlb_hits);
                } else {
                    Stats::bump(&self.machine.stats.tlb_misses);
                    self.core.clock.advance(c.tlb_walk + c.epcm_check);
                }
            }
            match e.pte(page) {
                Some(frame) => {
                    let paddr = EpcPool::paddr(frame) + in_page as u64;
                    if charged {
                        let cycles = self.machine.charge_mem(
                            self.cache_ctx,
                            &mut self.seq_line,
                            paddr,
                            n,
                            kind,
                        );
                        self.core.clock.advance(cycles);
                    } else {
                        // Raw runtime move: no cycle charge, but the
                        // bytes stream through the LLC.
                        self.machine.touch_mem(self.cache_ctx, paddr, n, kind);
                    }
                    return frame;
                }
                None => {
                    self.machine
                        .driver
                        .handle_fault(&self.machine, e, page, &self.core);
                }
            }
        }
    }

    fn page_read(
        &mut self,
        e: &Arc<Enclave>,
        page: u64,
        in_page: usize,
        kind: AccessKind,
        charged: bool,
        dst: &mut [u8],
    ) {
        loop {
            let frame = self.translate_and_charge(e, page, in_page, dst.len(), kind, charged);
            let fr = self.machine.epc.frame(frame);
            let g = fr.inner.read();
            if g.owner != Some((e.id, page)) {
                continue; // Evicted between translate and lock; retry.
            }
            dst.copy_from_slice(&g.data[in_page..in_page + dst.len()]);
            return;
        }
    }

    fn page_write(
        &mut self,
        e: &Arc<Enclave>,
        page: u64,
        in_page: usize,
        n: usize,
        charged: bool,
        src: &[u8],
    ) {
        loop {
            let frame = self.translate_and_charge(e, page, in_page, n, AccessKind::Write, charged);
            let fr = self.machine.epc.frame(frame);
            let mut g = fr.inner.write();
            if g.owner != Some((e.id, page)) {
                continue;
            }
            g.data[in_page..in_page + n].copy_from_slice(src);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;

    fn setup() -> (Arc<SgxMachine>, Arc<Enclave>) {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 16 * PAGE_SIZE);
        (m, e)
    }

    #[test]
    fn a_serve_round_bills_one_batch_per_key() {
        let (m, e) = setup();
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        let fixed = m.cfg.costs.crypto_fixed;
        let (a, b) = ([0u8; 16], [0u8; 16]);
        let billed = |t: &mut ThreadCtx, f: &dyn Fn(&mut ThreadCtx)| {
            let s0 = m.stats.snapshot();
            f(t);
            let d = m.stats.snapshot() - s0;
            [d.crypto_batches, d.crypto_msgs, d.crypto_setup_cycles]
        };
        let script = |t: &mut ThreadCtx| {
            t.charge_crypto(&a, [64, 64]);
            t.charge_crypto(&b, [64]);
            t.charge_crypto(&a, [64]);
        };
        // Outside a round each call is a batch of its own.
        let outside = [3, 4, 3 * fixed + fixed / 4];
        assert_eq!(billed(&mut t, &script), outside);
        // In a round each key is one batch, told apart by identity:
        // two keys of equal bytes are two batches.
        t.open_round();
        assert_eq!(billed(&mut t, &script), [2, 4, 2 * fixed + 2 * (fixed / 4)]);
        // An operation's pieces join the round's batch for their key.
        let piece = |t: &mut ThreadCtx| t.charge_crypto_in(&mut CryptoBatch::default(), &a, [64]);
        assert_eq!(billed(&mut t, &piece), [0, 1, fixed / 4]);
        t.close_round();
        assert_eq!(billed(&mut t, &script), outside);
        // Outside a round an operation's pieces are one batch.
        let piecewise = |t: &mut ThreadCtx| {
            let mut op = CryptoBatch::default();
            t.charge_crypto_in(&mut op, &a, [64]);
            t.charge_crypto(&a, [64]);
            t.charge_crypto_in(&mut op, &a, [64]);
        };
        assert_eq!(billed(&mut t, &piecewise), [2, 3, 2 * fixed + fixed / 4]);
    }

    #[test]
    fn enter_exit_charges_and_flushes() {
        let (m, e) = setup();
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        assert!(t.in_enclave());
        let after_enter = t.now();
        assert_eq!(after_enter, m.cfg.costs.eenter);
        t.exit();
        assert_eq!(t.now(), m.cfg.costs.eenter + m.cfg.costs.eexit);
        assert_eq!(m.stats.snapshot().tlb_flushes, 1);
    }

    #[test]
    fn enclave_memory_roundtrip() {
        let (m, e) = setup();
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let addr = e.alloc(100);
        t.write_enclave(addr, b"trusted bytes");
        let mut buf = [0u8; 13];
        t.read_enclave(addr, &mut buf);
        assert_eq!(&buf, b"trusted bytes");
        assert!(m.stats.snapshot().hw_faults >= 1, "first touch faults");
        t.exit();
    }

    #[test]
    #[should_panic(expected = "untrusted mode")]
    fn enclave_access_from_outside_denied() {
        let (m, e) = setup();
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        let mut buf = [0u8; 4];
        t.read_enclave(e.alloc(16), &mut buf);
    }

    #[test]
    fn untrusted_memory_accessible_from_enclave() {
        let (m, e) = setup();
        let addr = m.alloc_untrusted(64);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        t.write_untrusted(addr, b"shared");
        t.exit();
        let mut check = ThreadCtx::untrusted(&m, 1);
        let mut buf = [0u8; 6];
        check.read_untrusted(addr, &mut buf);
        assert_eq!(&buf, b"shared");
    }

    #[test]
    fn ocall_roundtrip_cost() {
        let (m, e) = setup();
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let before = t.now();
        let v = t.ocall(|_host| 41 + 1);
        assert_eq!(v, 42);
        let direct = t.now() - before;
        assert_eq!(direct, m.cfg.costs.ocall_total());
        assert_eq!(m.stats.snapshot().ocalls, 1);
        t.exit();
    }

    #[test]
    fn paging_beyond_epc_works() {
        // Enclave linear space (16 pages) exceeding a tiny EPC slice
        // still reads back correctly after evictions.
        let m = SgxMachine::new(MachineConfig {
            epc_bytes: 8 * PAGE_SIZE,
            ..MachineConfig::tiny()
        });
        let e = m.driver.create_enclave(&m, 32 * PAGE_SIZE);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        for page in 0..32u64 {
            let val = [page as u8 + 1; 64];
            t.write_enclave(page * PAGE_SIZE as u64, &val);
        }
        for page in 0..32u64 {
            let mut buf = [0u8; 64];
            t.read_enclave(page * PAGE_SIZE as u64, &mut buf);
            assert_eq!(buf, [page as u8 + 1; 64], "page {page} corrupted");
        }
        t.exit();
        let s = m.stats.snapshot();
        assert!(s.hw_evictions > 0, "evictions must have happened");
        assert!(s.hw_loads > 0, "sealed pages must have been reloaded");
    }

    #[test]
    fn fault_costs_match_paper_scale() {
        let m = SgxMachine::new(MachineConfig {
            epc_bytes: 8 * PAGE_SIZE,
            ..MachineConfig::tiny()
        });
        let e = m.driver.create_enclave(&m, 64 * PAGE_SIZE);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        // Touch all pages once (zero-fill faults), then sweep again to
        // force seal/unseal faults.
        for page in 0..64u64 {
            t.write_enclave(page * PAGE_SIZE as u64, &[1u8; 8]);
        }
        let s0 = m.stats.snapshot();
        let c0 = t.now();
        for page in 0..64u64 {
            let mut b = [0u8; 8];
            t.read_enclave(page * PAGE_SIZE as u64, &mut b);
        }
        let s1 = m.stats.snapshot();
        let faults = (s1 - s0).hw_faults;
        assert!(faults >= 56, "sweep should fault on most pages: {faults}");
        let per_fault = (t.now() - c0) / faults;
        // Paper §2.3: ~40k cycles per observed fault (we include
        // eviction, load, exit and the emergent TLB/LLC costs).
        assert!(
            (25_000..=55_000).contains(&per_fault),
            "per-fault cost {per_fault} out of range"
        );
        t.exit();
    }

    #[test]
    fn fill_enclave_sets_every_byte() {
        let (m, e) = setup();
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let addr = e.alloc(3 * PAGE_SIZE);
        t.fill_enclave(addr, 3 * PAGE_SIZE, 0xcd);
        let mut buf = vec![0u8; 3 * PAGE_SIZE];
        t.read_enclave(addr, &mut buf);
        assert!(buf.iter().all(|&b| b == 0xcd));
        let _ = m;
        t.exit();
    }

    #[test]
    fn ecall_runs_trusted_and_returns_outside() {
        let (_m, e) = setup();
        let mut t = ThreadCtx::for_enclave(&_m, &e, 0);
        assert!(!t.in_enclave());
        let inside = t.ecall(|c| c.in_enclave());
        assert!(inside);
        assert!(!t.in_enclave());
    }

    #[test]
    #[should_panic(expected = "nested EENTER")]
    fn nested_enter_rejected() {
        let (m, e) = setup();
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        t.enter();
    }

    #[test]
    #[should_panic(expected = "EEXIT while outside")]
    fn exit_outside_rejected() {
        let (m, e) = setup();
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.exit();
    }

    #[test]
    fn raw_accesses_charge_nothing_but_move_data() {
        let (m, e) = setup();
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let addr = e.alloc(64);
        t.write_enclave(addr, b"warm"); // fault + charges
        let before = t.now();
        let mut b = [0u8; 4];
        t.read_enclave_raw(addr, &mut b);
        t.write_enclave_raw(addr, b"cold");
        t.read_enclave_raw(addr, &mut b);
        assert_eq!(&b, b"cold");
        assert_eq!(t.now(), before, "raw ops must not charge cycles");
        t.exit();
    }

    #[test]
    fn tampered_swap_is_detected() {
        let m = SgxMachine::new(MachineConfig {
            epc_bytes: 4 * PAGE_SIZE,
            ..MachineConfig::tiny()
        });
        let e = m.driver.create_enclave(&m, 16 * PAGE_SIZE);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        for page in 0..16u64 {
            t.write_enclave(page * PAGE_SIZE as u64, &[7u8; 16]);
        }
        // Corrupt whatever is in swap, then touch everything: the load
        // of a tampered page must panic with an authentication failure.
        {
            let mut swap = e.swap.lock();
            assert!(!swap.is_empty(), "something must be swapped");
            for sealed in swap.values_mut() {
                sealed.ct[0] ^= 0xff;
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for page in 0..16u64 {
                let mut b = [0u8; 1];
                t.read_enclave(page * PAGE_SIZE as u64, &mut b);
            }
        }));
        assert!(result.is_err(), "tampering must be detected");
    }
}
