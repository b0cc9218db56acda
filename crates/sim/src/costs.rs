//! The SGX cost model, calibrated from Eleos §2 (EuroSys'17).
//!
//! Every latency the paper measures on Skylake SGX1 hardware is captured
//! here as a named constant with the paper's value as default. The
//! simulator charges these costs; the `repro costs` harness re-measures
//! the aggregate quantities (exit round trip, hardware fault total, SUVM
//! fault latency) inside the simulator and `EXPERIMENTS.md` records them
//! against the paper.
//!
//! All values are CPU cycles unless stated otherwise.

/// Cache line size in bytes.
pub const LINE: usize = 64;
/// Page size in bytes (both hardware and the default SUVM page size).
pub const PAGE_SIZE: usize = 4096;

/// The simulated core frequency used to convert cycles to seconds when
/// reporting throughput (i7-6700 base clock).
pub const CPU_HZ: f64 = 3.4e9;

/// Cycle costs of the simulated machine and SGX implementation.
#[derive(Debug, Clone)]
pub struct CostModel {
    // --- Enclave transition costs (paper §2.2) ---
    /// `EEXIT`: leaving the enclave.
    pub eexit: u64,
    /// `EENTER`: (re-)entering the enclave.
    pub eenter: u64,
    /// SDK OCALL marshalling on top of the raw instructions.
    pub ocall_sdk: u64,
    /// An ordinary (non-enclave) system call trap + return.
    pub syscall: u64,
    /// Asynchronous enclave exit (AEX) + resume, charged to a core that
    /// receives an IPI during TLB shootdown.
    pub aex_resume: u64,
    /// Sending one inter-processor interrupt from the driver.
    pub ipi_send: u64,

    // --- Memory hierarchy ---
    /// LLC hit.
    pub llc_hit: u64,
    /// LLC miss served from untrusted DRAM (random access).
    pub dram_miss: u64,
    /// Multiplier applied to a *sequential* miss (row-buffer hits and
    /// prefetching make streaming much cheaper than pointer chasing).
    pub dram_seq_factor: f64,
    /// Memory-level-parallelism discount for the second and later
    /// misses *within one bulk access* (a memcpy-style span): their
    /// latencies overlap, unlike independent strided accesses (which
    /// is what Table 1 measures).
    pub mlp_factor: f64,
    /// Multiplier for an LLC read miss to EPC (Table 1: 5.6x).
    pub epc_read_factor: f64,
    /// Multiplier for a *sequential* LLC write miss to EPC (Table 1: 6.8x).
    pub epc_write_seq_factor: f64,
    /// Multiplier for a *random* LLC write miss to EPC (Table 1: 8.9x).
    pub epc_write_rand_factor: f64,
    /// TLB miss page-walk.
    pub tlb_walk: u64,
    /// Additional EPCM check on an enclave page-walk.
    pub epcm_check: u64,
    /// Cost of touching a resident line that hits in L1/L2 (charged per
    /// line for all simulated accesses; the LLC/DRAM costs are added on
    /// top when the LLC misses).
    pub l12_access: u64,

    // --- Hardware EPC paging (paper §2.3) ---
    /// Driver work to evict one EPC page (`EWB` + bookkeeping): ~12k.
    pub hw_evict_page: u64,
    /// Driver work to page one EPC page back in (`ELDU` + bookkeeping):
    /// the paper measures evict+load at ~25k, so load is the remainder.
    pub hw_load_page: u64,
    /// Kernel page-fault entry/exit and driver dispatch overhead beyond
    /// the EEXIT/EENTER pair and the EWB/ELDU work. Calibrated so the
    /// total observed hardware fault cost lands at the paper's ~40k
    /// (25k driver + 7k exit + ~8k indirect; part of the indirect cost
    /// emerges from the simulated TLB flush and LLC pollution).
    pub hw_fault_dispatch: u64,
    /// Supplying a zero-filled EPC page on first touch (EAUG-style),
    /// cheaper than unsealing a swapped page.
    pub hw_zero_page: u64,

    // --- Crypto (AES-NI rates, §4.1) ---
    /// Sealing/unsealing cycles per byte (AES-GCM at AES-NI speed).
    pub crypto_cpb: f64,
    /// Fixed setup cost per seal/unseal operation (key schedule reuse,
    /// nonce handling, tag arithmetic).
    pub crypto_fixed: u64,

    // --- SUVM software paging ---
    /// Page-table hash lookup on the SUVM fault path.
    pub suvm_lookup: u64,
    /// Spointer software translation on a *linked* access (§3.2.2: the
    /// page-cache pointer is cached in the spointer).
    pub spointer_linked: u64,
    /// Spointer link/unlink bookkeeping (refcount update + PT lookup).
    pub spointer_link: u64,

    // --- RPC (§3.1) ---
    /// Enqueue + polling handoff of one RPC job (cache-line transfers
    /// between the enclave thread and the worker thread).
    pub rpc_roundtrip: u64,
    /// Incremental cost of posting one *additional* in-flight job from
    /// the same caller: the slot claim and descriptor store, without a
    /// fresh handoff stall (the worker is already polling, and line
    /// transfers for back-to-back posts pipeline).
    pub rpc_post: u64,

    // --- Session lifecycle (attestation + key rotation) ---
    /// One attestation handshake: producing the `EREPORT`-style
    /// evidence structure (MAC over enclave identity + session nonce)
    /// inside the enclave, in the ballpark of the measured EREPORT
    /// latency plus one AES-CMAC pass. Paid once per session, never on
    /// the per-request path.
    pub session_handshake: u64,
    /// One session key-epoch rotation: deriving the next epoch key
    /// through the sealer seam (a block-cipher KDF pass) and expanding
    /// its AES key schedule — roughly four `crypto_fixed` setups.
    /// Rotation is double-buffered, so this is the *only* cost; the
    /// serving path never stalls to drain the old epoch.
    pub session_rekey: u64,

    // --- Storage engine maintenance (runs only at sub-batch fences) ---
    /// Fixed bookkeeping for one slab-rebalancer move (registry
    /// re-class, free-list strip, chunk re-carve) on top of the
    /// simulated copies of relocated live items, which are charged
    /// through the data space like any other access.
    pub slab_move: u64,

    // --- Background maintenance plane (off the serving path) ---
    /// One failure-detector heartbeat probe: reading a replica's pump
    /// counter and comparing it against the last observation — a pair
    /// of uncontended cache-line loads plus the branch.
    pub maint_heartbeat: u64,
    /// Fixed descriptor/reassembly bookkeeping per delta-snapshot
    /// chunk staged on (or reaped off) the cross-enclave channel, on
    /// top of the charged untrusted-memory traffic.
    pub maint_chunk: u64,
    /// Per-item bookkeeping of the copy-on-write delta scan (stamp
    /// compare + log append) on top of the data-space reads, which are
    /// charged like any other access.
    pub snapshot_delta_item: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            eexit: 3_300,
            eenter: 3_800,
            ocall_sdk: 800,
            syscall: 250,
            aex_resume: 4_000,
            ipi_send: 1_500,

            llc_hit: 40,
            dram_miss: 200,
            dram_seq_factor: 0.3,
            mlp_factor: 0.3,
            epc_read_factor: 5.6,
            epc_write_seq_factor: 6.8,
            epc_write_rand_factor: 8.9,
            tlb_walk: 100,
            epcm_check: 60,
            l12_access: 4,

            hw_evict_page: 12_000,
            hw_load_page: 13_000,
            hw_fault_dispatch: 3_000,
            hw_zero_page: 3_000,

            crypto_cpb: 1.7,
            crypto_fixed: 400,

            suvm_lookup: 220,
            spointer_linked: 6,
            spointer_link: 120,

            rpc_roundtrip: 600,
            rpc_post: 150,

            session_handshake: 9_000,
            session_rekey: 1_600,

            slab_move: 300,

            maint_heartbeat: 40,
            maint_chunk: 250,
            snapshot_delta_item: 30,
        }
    }
}

impl CostModel {
    /// Direct cost of one enclave exit + re-entry (paper: ~7k).
    #[must_use]
    pub fn exit_roundtrip(&self) -> u64 {
        self.eexit + self.eenter
    }

    /// Total direct cost of an SDK OCALL (paper: ~8k).
    #[must_use]
    pub fn ocall_total(&self) -> u64 {
        self.exit_roundtrip() + self.ocall_sdk
    }

    /// Cycles to seal or unseal `bytes` bytes with AES-GCM at AES-NI
    /// rates, as a standalone operation (a batch of one:
    /// `crypto_batched(0, bytes)`).
    #[must_use]
    pub fn crypto(&self, bytes: usize) -> u64 {
        self.crypto_batched(0, bytes)
    }

    /// Fixed setup cycles for message `index` of a setup-amortized
    /// batch: the first message pays the full `crypto_fixed` (key
    /// schedule + GHASH table), follow-ons a quarter of it (the state
    /// is already hot).
    ///
    /// This is the one shared amortization contract: the wire codec and
    /// SUVM (a page's units, a bypass cursor's unseals, a
    /// write-through's opens and re-seals, a write-back drain, or in a
    /// serve round all of a key's messages) charge through it, via
    /// `ThreadCtx::charge_crypto_in`.
    #[must_use]
    pub fn crypto_batch_fixed(&self, index: usize) -> u64 {
        if index == 0 {
            self.crypto_fixed
        } else {
            self.crypto_fixed / 4
        }
    }

    /// Cycles to seal or unseal `bytes` bytes as message `index` of a
    /// setup-amortized batch.
    #[must_use]
    pub fn crypto_batched(&self, index: usize, bytes: usize) -> u64 {
        self.crypto_batch_fixed(index) + (self.crypto_cpb * bytes as f64) as u64
    }

    /// LLC miss penalty for the given target and access.
    ///
    /// Sequential misses pay the discounted streaming cost; the
    /// Table-1 EPC multipliers then apply on top, so the *relative*
    /// EPC-vs-untrusted cost matches the paper for both patterns.
    #[inline]
    #[must_use]
    pub fn miss_cost(&self, domain: Domain, kind: AccessKind, sequential: bool) -> u64 {
        let base = if sequential {
            self.dram_miss as f64 * self.dram_seq_factor
        } else {
            self.dram_miss as f64
        };
        let factor = match (domain, kind) {
            (Domain::Untrusted, _) => 1.0,
            (Domain::Epc, AccessKind::Read) => self.epc_read_factor,
            (Domain::Epc, AccessKind::Write) => {
                if sequential {
                    self.epc_write_seq_factor
                } else {
                    self.epc_write_rand_factor
                }
            }
        };
        (base * factor) as u64
    }
}

/// Which physical region an address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Ordinary untrusted DRAM.
    Untrusted,
    /// Processor-reserved memory holding EPC pages (MEE-protected).
    Epc,
}

/// Read or write, for cost classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Base physical address of the EPC region in the simulated address map.
pub const EPC_BASE: u64 = 0x40_0000_0000;

/// Classifies a simulated physical address.
#[inline]
#[must_use]
pub fn domain_of(paddr: u64) -> Domain {
    if paddr >= EPC_BASE {
        Domain::Epc
    } else {
        Domain::Untrusted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_aggregates() {
        let c = CostModel::default();
        // §2.2: exit+reenter ~7k, OCALL ~8k.
        assert!((6_500..=7_500).contains(&c.exit_roundtrip()));
        assert!((7_500..=8_500).contains(&c.ocall_total()));
        // §2.3: driver evict+load ~25k.
        assert_eq!(c.hw_evict_page + c.hw_load_page, 25_000);
    }

    #[test]
    fn crypto_scales_with_size() {
        let c = CostModel::default();
        let page = c.crypto(4096);
        let sub = c.crypto(1024);
        assert!(page > sub);
        // A 4 KiB unseal should land near the paper's 8.5k-cycle
        // read-fault cost (the fault also pays lookup + copies).
        assert!((6_000..=9_000).contains(&page), "page crypto = {page}");
    }

    #[test]
    fn batched_crypto_amortizes_setup() {
        let c = CostModel::default();
        // A batch of one is exactly the standalone cost.
        assert_eq!(c.crypto_batched(0, 4096), c.crypto(4096));
        assert_eq!(c.crypto_batch_fixed(0), c.crypto_fixed);
        // Follow-on messages pay a quarter of the setup.
        assert_eq!(c.crypto_batch_fixed(1), c.crypto_fixed / 4);
        assert_eq!(c.crypto_batch_fixed(63), c.crypto_fixed / 4);
        assert!(c.crypto_batched(1, 4096) < c.crypto(4096));
        // The per-byte cost is unaffected by batching.
        assert_eq!(
            c.crypto_batched(1, 4096) - c.crypto_batch_fixed(1),
            c.crypto(4096) - c.crypto_fixed
        );
    }

    #[test]
    fn miss_costs_ordered() {
        let c = CostModel::default();
        let u = c.miss_cost(Domain::Untrusted, AccessKind::Read, false);
        let er = c.miss_cost(Domain::Epc, AccessKind::Read, false);
        let ewr = c.miss_cost(Domain::Epc, AccessKind::Write, false);
        assert!(u < er && er < ewr);
        assert_eq!(er, (200.0 * 5.6) as u64);
    }

    #[test]
    fn sequential_misses_are_discounted_uniformly() {
        // Table 1 reports the same EPC/untrusted *ratio* for
        // sequential and random reads; the absolute sequential cost is
        // lower for both.
        let c = CostModel::default();
        let u_seq = c.miss_cost(Domain::Untrusted, AccessKind::Read, true);
        let u_rand = c.miss_cost(Domain::Untrusted, AccessKind::Read, false);
        let e_seq = c.miss_cost(Domain::Epc, AccessKind::Read, true);
        let e_rand = c.miss_cost(Domain::Epc, AccessKind::Read, false);
        assert!(u_seq < u_rand && e_seq < e_rand);
        let r_seq = e_seq as f64 / u_seq as f64;
        let r_rand = e_rand as f64 / u_rand as f64;
        assert!((r_seq - r_rand).abs() < 0.3, "{r_seq} vs {r_rand}");
    }

    #[test]
    fn domain_classification() {
        assert_eq!(domain_of(0), Domain::Untrusted);
        assert_eq!(domain_of(EPC_BASE - 1), Domain::Untrusted);
        assert_eq!(domain_of(EPC_BASE), Domain::Epc);
        assert_eq!(domain_of(EPC_BASE + 123), Domain::Epc);
    }
}
