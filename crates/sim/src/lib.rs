//! Cycle-accounting machine model underlying the Eleos reproduction.
//!
//! No SGX hardware is available in this environment, so the entire SGX
//! substrate is simulated (see `DESIGN.md` §1 for the substitution
//! argument). This crate provides the hardware-neutral pieces:
//!
//! - [`costs`]: the cost model, calibrated from the measurements in
//!   Eleos §2 (exit latencies, EPC paging costs, Table-1 LLC factors);
//! - [`clock`]: per-core cycle counters that other threads can charge
//!   remotely (IPIs), and core-set tracking for shootdowns;
//! - [`llc`]: a set-associative LLC with CAT way partitioning and MEE
//!   integrity-tree pollution;
//! - [`tlb`]: per-core TLBs that enclave exits flush;
//! - [`mem`]: lock-sharded byte storage backing simulated regions;
//! - [`alloc`]: the memsys5-style buddy allocator used by the SUVM
//!   backing store;
//! - [`stats`]: machine-wide event counters the experiments report.
//!
//! The SGX-specific composition (EPC, enclaves, driver, host OS) lives
//! in `eleos-enclave`; the Eleos runtime (RPC + SUVM) in `eleos-rpc`
//! and `eleos-core`.

#![forbid(unsafe_code)]

pub mod alloc;
pub mod clock;
pub mod costs;
pub mod llc;
pub mod mem;
pub mod stats;
pub mod tlb;
pub mod trace;

pub use alloc::{AllocError, BuddyAllocator};
pub use clock::{CoreClock, CoreSet};
pub use costs::{domain_of, AccessKind, CostModel, Domain, CPU_HZ, EPC_BASE, LINE, PAGE_SIZE};
pub use llc::{CacheCtx, Llc, LlcConfig};
pub use mem::PagedMem;
pub use stats::{Stats, StatsSnapshot};
pub use tlb::Tlb;
pub use trace::{Event, Trace, TraceHistogram};
