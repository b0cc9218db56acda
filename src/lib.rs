//! # Eleos-rs — ExitLess OS Services for SGX Enclaves
//!
//! A from-scratch Rust reproduction of *Eleos: ExitLess OS Services for
//! SGX Enclaves* (Orenbach, Lifshits, Minkin, Silberstein — EuroSys
//! 2017), including every substrate the paper depends on: a
//! cycle-accounting SGX machine model (EPC, driver, LLC with CAT, TLBs,
//! host OS), exit-less RPC, Secure User-managed Virtual Memory (SUVM)
//! with spointers, and the paper's three evaluation servers.
//!
//! This crate is a facade re-exporting the workspace:
//!
//! - [`sim`] — machine model: cost model, LLC+CAT, TLBs, buddy
//!   allocator, stats;
//! - [`crypto`] — AES-128/256, CTR, GHASH, GCM (NIST-vector tested);
//! - [`enclave`] — EPC, enclaves, the SGX driver, EENTER/EEXIT/OCALL
//!   thread contexts, host OS with sockets;
//! - [`rpc`] — the exit-less RPC service (§3.1);
//! - [`suvm`] — SUVM: in-enclave paging with spointers, clean-page
//!   elision, direct sub-page access, ballooning (§3.2–3.3);
//! - [`apps`] — the parameter server, memcached-style KVS and LBP
//!   face-verification server of the evaluation (§2, §5).
//!
//! # Examples
//!
//! Secure memory far beyond the page cache, paged without a single
//! enclave exit:
//!
//! ```
//! use eleos::enclave::machine::{MachineConfig, SgxMachine};
//! use eleos::enclave::thread::ThreadCtx;
//! use eleos::suvm::{Suvm, SuvmConfig};
//!
//! let machine = SgxMachine::new(MachineConfig::tiny());
//! let enclave = machine.driver.create_enclave(&machine, 4 << 20);
//! let mut t = ThreadCtx::for_enclave(&machine, &enclave, 0);
//! let suvm = Suvm::new(&t, SuvmConfig::tiny());
//!
//! t.enter();
//! let buf = suvm.malloc(1 << 20); // 16x the tiny EPC++ cache
//! suvm.write(&mut t, buf + 777_000, b"sealed when evicted");
//! let mut out = [0u8; 19];
//! suvm.read(&mut t, buf + 777_000, &mut out);
//! assert_eq!(&out, b"sealed when evicted");
//! assert_eq!(machine.stats.snapshot().enclave_exits, 0);
//! t.exit();
//! ```
//!
//! See `examples/` for runnable end-to-end servers, and
//! `crates/bench/src/bin/repro.rs` for the per-figure reproduction
//! harness (`cargo run --release -p eleos-bench --bin repro -- all`).

#![forbid(unsafe_code)]

pub use eleos_apps as apps;
pub use eleos_core as suvm;
pub use eleos_crypto as crypto;
pub use eleos_enclave as enclave;
pub use eleos_rpc as rpc;
pub use eleos_sim as sim;
