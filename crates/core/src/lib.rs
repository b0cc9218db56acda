//! **Eleos** — ExitLess OS services for SGX enclaves.
//!
//! This crate is the paper's primary contribution (Orenbach et al.,
//! EuroSys 2017): **Secure User-managed Virtual Memory (SUVM)**, an
//! application-level paging system that runs entirely inside the
//! enclave, eliminating the enclave exits that dominate the cost of
//! SGX hardware paging. Together with the exit-less RPC of `eleos-rpc`
//! it removes both classes of exits that §2 of the paper identifies as
//! the root cause of in-enclave slowdowns.
//!
//! - [`Suvm`] — the runtime: [`Suvm::malloc`]/[`Suvm::free`], bulk
//!   `memcpy`/`memset`/`memcmp`, the in-enclave fault path, a
//!   user-selectable eviction policy ([`EvictPolicy`]: one CLOCK hand,
//!   with or without the second chance) over one sealed buddy-allocated
//!   backing store with clean-page write-back elision, direct sub-page
//!   access to the backing store (§3.2.4) chosen per access
//!   ([`Access`]), the pinned record
//!   cursor ([`SpanCursor`]) that translates once per page, and the
//!   periodic free-pool/ballooning pass the untrusted runtime calls
//!   ([`Suvm::swapper_tick`], §3.3);
//! - [`spointer::SPtr`] — secure active pointers with software address
//!   translation cached per page (§3.2.2);
//! - [`shared::SharedRegion`] — inter-enclave shared secure memory
//!   under its own key domain (the paper's §8 sketch);
//! - [`snapshot::Snapshot`] — sealed, authenticated state transfer;
//! - [`config::SuvmConfig`] — the expert tuning surface.
//!
//! # Examples
//!
//! ```
//! use eleos_core::{Suvm, SuvmConfig};
//! use eleos_core::spointer::SPtr;
//! use eleos_enclave::machine::{MachineConfig, SgxMachine};
//! use eleos_enclave::thread::ThreadCtx;
//!
//! let machine = SgxMachine::new(MachineConfig::tiny());
//! let enclave = machine.driver.create_enclave(&machine, 96 * 4096);
//! let mut t = ThreadCtx::for_enclave(&machine, &enclave, 0);
//! let suvm = Suvm::new(&t, SuvmConfig::tiny());
//!
//! t.enter();
//! let sva = suvm.malloc(4096);
//! let p: SPtr<u64> = SPtr::new(&suvm, sva);
//! p.set(&mut t, 0xfeed);
//! assert_eq!(p.get(&mut t), 0xfeed);
//! suvm.free(sva);
//! t.exit();
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod shared;
pub mod snapshot;
pub mod spointer;
pub mod suvm;
pub mod table;

pub use config::{EvictPolicy, SuvmConfig};
pub use snapshot::{Snapshot, SnapshotBuilder, SnapshotError};
pub use spointer::{Plain, SPtr};
pub use suvm::span::{Access, SpanCursor};
pub use suvm::{Suvm, Sva};
