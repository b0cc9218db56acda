//! SGX enclave substrate for the Eleos reproduction.
//!
//! This crate composes the `eleos-sim` machine model into a functional
//! SGX system: a shared [`machine::SgxMachine`] with an EPC frame pool
//! ([`epc`]), hardware-paged enclaves ([`enclave`]), the kernel driver
//! with secure paging and TLB shootdowns ([`driver`]), per-thread
//! execution contexts with EENTER/EEXIT/OCALL semantics ([`thread`])
//! and a host OS with sockets and syscalls ([`host`]).
//!
//! Everything the paper's §2 measures is reproducible on top of this
//! substrate: exit costs, EPC-paging costs (with *real* AES-GCM sealing
//! of evicted pages, so tampering with swap is genuinely detected), LLC
//! pollution by syscalls, and the TLB flushes that penalize
//! pointer-chasing enclave workloads.
//!
//! # Examples
//!
//! ```
//! use eleos_enclave::machine::{MachineConfig, SgxMachine};
//! use eleos_enclave::thread::ThreadCtx;
//!
//! let machine = SgxMachine::new(MachineConfig::tiny());
//! let enclave = machine.driver.create_enclave(&machine, 64 * 4096);
//! let mut thread = ThreadCtx::for_enclave(&machine, &enclave, 0);
//!
//! thread.enter();
//! let secret = enclave.alloc(64);
//! thread.write_enclave(secret, b"in-enclave state");
//! let mut buf = [0u8; 16];
//! thread.read_enclave(secret, &mut buf);
//! assert_eq!(&buf, b"in-enclave state");
//! thread.exit();
//! ```

#![forbid(unsafe_code)]

pub mod driver;
pub mod enclave;
pub mod epc;
pub mod fs;
pub mod host;
pub mod machine;
pub mod thread;

pub use driver::SgxDriver;
pub use enclave::Enclave;
pub use epc::EpcPool;
pub use fs::{FileFd, FsError, HostFs};
pub use host::{Fd, HostOs};
pub use machine::{Core, MachineConfig, SgxMachine};
pub use thread::{CryptoBatch, ThreadCtx};
