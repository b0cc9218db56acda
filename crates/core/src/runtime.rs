//! The assembled Eleos runtime — "ease-of-use" is an explicit §3
//! design goal ("Eleos is intended for use by application developers
//! ... it only introduces two new memory management functions, while
//! RPC services are integrated transparently").
//!
//! [`Eleos::builder`] wires the full stack in one place: machine,
//! enclave, exit-less RPC workers with the standard syscalls, SUVM,
//! CAT partitioning and (optionally) the background swapper. What the
//! SDK's `enclave_create` + OCALL tables + the Eleos untrusted runtime
//! do together, condensed:
//!
//! ```
//! use eleos_core::runtime::Eleos;
//!
//! let rt = Eleos::builder().epc_mb(16).suvm_mb(4).build();
//! let mut t = rt.thread(0);
//! t.enter();
//! let buf = rt.suvm.malloc(1 << 20);
//! rt.suvm.write(&mut t, buf, b"hello exit-less world");
//! let mut out = [0u8; 21];
//! rt.suvm.read(&mut t, buf, &mut out);
//! assert_eq!(&out, b"hello exit-less world");
//! t.exit();
//! ```

use std::sync::Arc;
use std::time::Duration;

use eleos_enclave::enclave::Enclave;
use eleos_enclave::machine::{MachineConfig, SgxMachine};
use eleos_enclave::thread::ThreadCtx;
use eleos_rpc::{with_fs, with_syscalls, RpcService};

use crate::config::SuvmConfig;
use crate::suvm::Suvm;
use crate::swapper::Swapper;

/// Builder for [`Eleos`].
pub struct EleosBuilder {
    machine_cfg: MachineConfig,
    suvm_cfg: SuvmConfig,
    enclave_bytes: usize,
    rpc_workers: usize,
    cat: bool,
    swapper_interval: Option<Duration>,
}

impl Default for EleosBuilder {
    fn default() -> Self {
        Self {
            machine_cfg: MachineConfig::default(),
            suvm_cfg: SuvmConfig::default(),
            enclave_bytes: 1 << 30,
            rpc_workers: 1,
            cat: true,
            swapper_interval: None,
        }
    }
}

impl EleosBuilder {
    /// Overrides the machine configuration wholesale.
    #[must_use]
    pub fn machine(mut self, cfg: MachineConfig) -> Self {
        self.machine_cfg = cfg;
        self
    }

    /// Shorthand: EPC capacity in MiB.
    #[must_use]
    pub fn epc_mb(mut self, mb: usize) -> Self {
        self.machine_cfg.epc_bytes = mb << 20;
        self
    }

    /// Overrides the SUVM configuration wholesale.
    #[must_use]
    pub fn suvm(mut self, cfg: SuvmConfig) -> Self {
        self.suvm_cfg = cfg;
        self
    }

    /// Shorthand: EPC++ capacity in MiB (the backing store is sized at
    /// 16x unless overridden via [`Self::suvm`]).
    #[must_use]
    pub fn suvm_mb(mut self, mb: usize) -> Self {
        self.suvm_cfg.epcpp_bytes = mb << 20;
        self.suvm_cfg.backing_bytes = (mb << 24).next_power_of_two();
        self
    }

    /// Enclave linear address space in bytes.
    #[must_use]
    pub fn enclave_bytes(mut self, bytes: usize) -> Self {
        self.enclave_bytes = bytes;
        self
    }

    /// Number of RPC worker threads (default 1, on the last cores).
    #[must_use]
    pub fn rpc_workers(mut self, n: usize) -> Self {
        self.rpc_workers = n;
        self
    }

    /// Enables/disables the 75/25 CAT partition (default on).
    #[must_use]
    pub fn cat(mut self, on: bool) -> Self {
        self.cat = on;
        self
    }

    /// Runs the background EPC++ swapper every `interval` (default:
    /// off — call [`Suvm::swapper_tick`] manually or enable this for
    /// multi-enclave deployments).
    #[must_use]
    pub fn swapper(mut self, interval: Duration) -> Self {
        self.swapper_interval = Some(interval);
        self
    }

    /// Assembles the runtime.
    #[must_use]
    pub fn build(self) -> Eleos {
        let machine = SgxMachine::new(self.machine_cfg);
        if self.cat {
            machine.enable_cat();
        }
        let enclave = machine.driver.create_enclave(&machine, self.enclave_bytes);
        let worker_cores: Vec<usize> = (0..self.rpc_workers)
            .map(|i| machine.core_count() - 1 - (i % machine.core_count()))
            .collect();
        let rpc = Arc::new(
            with_fs(
                with_syscalls(RpcService::builder(&machine), &machine),
                &machine,
            )
            .workers(self.rpc_workers, &worker_cores)
            .build(),
        );
        let t0 = ThreadCtx::for_enclave(&machine, &enclave, 0);
        let suvm = Suvm::new(&t0, self.suvm_cfg);
        let swapper = self
            .swapper_interval
            .map(|iv| Swapper::spawn(&machine, &suvm, machine.core_count() - 2, iv));
        Eleos {
            machine,
            enclave,
            rpc,
            suvm,
            swapper,
        }
    }
}

/// A fully wired Eleos runtime: one enclave with exit-less syscalls
/// and SUVM.
pub struct Eleos {
    /// The simulated machine.
    pub machine: Arc<SgxMachine>,
    /// The application enclave.
    pub enclave: Arc<Enclave>,
    /// Exit-less RPC service (socket + filesystem syscalls registered).
    pub rpc: Arc<RpcService>,
    /// The SUVM instance.
    pub suvm: Arc<Suvm>,
    swapper: Option<Swapper>,
}

impl Eleos {
    /// Starts a builder.
    #[must_use]
    pub fn builder() -> EleosBuilder {
        EleosBuilder::default()
    }

    /// An application thread bound to the enclave on `core` (call
    /// [`ThreadCtx::enter`] to go trusted).
    #[must_use]
    pub fn thread(&self, core: usize) -> ThreadCtx {
        ThreadCtx::for_enclave(&self.machine, &self.enclave, core)
    }

    /// Stops the background swapper (also happens on drop).
    pub fn shutdown(mut self) {
        if let Some(s) = self.swapper.take() {
            s.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_wires_the_full_stack() {
        let rt = Eleos::builder()
            .epc_mb(8)
            .suvm_mb(2)
            .enclave_bytes(64 << 20)
            .rpc_workers(2)
            .build();
        let mut t = rt.thread(0);
        t.enter();
        // SUVM works.
        let buf = rt.suvm.malloc(8 << 20);
        rt.suvm.write(&mut t, buf + 12345, b"runtime");
        let mut out = [0u8; 7];
        rt.suvm.read(&mut t, buf + 12345, &mut out);
        assert_eq!(&out, b"runtime");
        // Exit-less file I/O works through the prewired RPC.
        let os = eleos_rpc::IoPath::Rpc(Arc::clone(&rt.rpc));
        let path = rt.machine.alloc_untrusted(16);
        t.write_untrusted(path, b"/rt");
        let fd = os.call(&mut t, eleos_rpc::funcs::OPEN, [path, 3, 0, 0]);
        assert_eq!(os.call(&mut t, eleos_rpc::funcs::CLOSE, [fd, 0, 0, 0]), 0);
        assert_eq!(rt.machine.stats.snapshot().enclave_exits, 0);
        t.exit();
        rt.shutdown();
    }

    #[test]
    fn builder_with_swapper_balloons() {
        let rt = Eleos::builder()
            .epc_mb(8)
            .suvm_mb(6)
            .enclave_bytes(32 << 20)
            .swapper(Duration::from_millis(1))
            .build();
        // A second enclave halves the share; the swapper should shrink
        // EPC++ shortly.
        let _e2 = rt.machine.driver.create_enclave(&rt.machine, 1 << 20);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let target_ok = loop {
            let share = rt.machine.driver.available_epc_for(rt.enclave.id) * 4096;
            if rt.suvm.frame_limit() * 4096 <= share {
                break true;
            }
            if std::time::Instant::now() > deadline {
                break false;
            }
            std::thread::yield_now();
        };
        assert!(target_ok, "swapper never applied the reduced share");
        rt.shutdown();
    }
}
