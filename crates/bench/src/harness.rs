//! Shared machinery for the reproduction experiments.
//!
//! Experiments run at a configurable **scale**: scale 1 is the paper's
//! hardware (93 MiB usable PRM, 8 MiB LLC, 100k-request runs, 450–500
//! MB datasets); scale `f` divides every capacity and dataset by `f`
//! so the *regimes* (fits-in-LLC / fits-in-EPC / exceeds-EPC) are
//! preserved while the simulation finishes quickly. The default repro
//! scale is 4; `repro --full` runs scale 1.

use std::sync::Arc;

use eleos_apps::io::{IoPath, ServerIo, ServerIoConfig};
use eleos_apps::loadgen::attest_session;
use eleos_apps::param_server::{ParamServer, TableKind};
use eleos_apps::space::DataSpace;
use eleos_apps::wire::Session;
use eleos_core::{Suvm, SuvmConfig};
use eleos_enclave::host::Fd;
use eleos_enclave::machine::{MachineConfig, SgxMachine};
use eleos_enclave::thread::ThreadCtx;
use eleos_rpc::{with_syscalls, RpcService};
use eleos_sim::costs::CPU_HZ;
use eleos_sim::llc::LlcConfig;
use eleos_sim::stats::StatsSnapshot;

/// Experiment scale divisor (power of two).
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub usize);

impl Scale {
    /// The paper's scale.
    pub const FULL: Scale = Scale(1);

    /// Parses `--full` / `--scale N` style arguments.
    #[must_use]
    pub fn from_args(args: &[String]) -> Scale {
        if args.iter().any(|a| a == "--full") {
            return Scale::FULL;
        }
        if let Some(i) = args.iter().position(|a| a == "--scale") {
            let f: usize = args
                .get(i + 1)
                .and_then(|s| s.parse().ok())
                .expect("--scale requires a power-of-two integer");
            assert!(f.is_power_of_two(), "--scale must be a power of two");
            return Scale(f);
        }
        Scale(4)
    }

    /// Scales a byte size.
    #[must_use]
    pub fn bytes(&self, full: usize) -> usize {
        (full / self.0).max(4096)
    }

    /// Scales an operation count.
    #[must_use]
    pub fn ops(&self, full: usize) -> usize {
        (full / self.0).max(64)
    }
}

/// Builds the paper's §6 machine at the given scale.
#[must_use]
pub fn paper_machine(scale: Scale) -> Arc<SgxMachine> {
    SgxMachine::new(MachineConfig {
        epc_bytes: scale.bytes(93 << 20),
        untrusted_bytes: 4 << 30,
        llc: LlcConfig {
            size: scale.bytes(8 << 20),
            ways: 16,
        },
        ..MachineConfig::default()
    })
}

/// The paper's SUVM configuration (EPC++ 60 MiB) at scale, sealing
/// whole pages: the EPC++ rows. Rigs that bypass EPC++ (direct,
/// adaptive) override `sub_page_size`.
#[must_use]
pub fn paper_suvm_config(scale: Scale, backing_bytes: usize) -> SuvmConfig {
    SuvmConfig {
        sub_page_size: SuvmConfig::default().page_size,
        epcpp_bytes: scale.bytes(60 << 20),
        backing_bytes: backing_bytes.next_power_of_two(),
        headroom_bytes: scale.bytes(16 << 20),
        ..SuvmConfig::default()
    }
}

/// Converts cycles to seconds.
#[must_use]
pub fn secs(cycles: u64) -> f64 {
    cycles as f64 / CPU_HZ
}

/// Throughput in operations per second, optionally capped by a network
/// link (Fig 10's native server is NIC-bound).
#[must_use]
pub fn throughput(ops: u64, cycles: u64, bytes_per_op: u64, link_gbps: Option<f64>) -> f64 {
    let t = ops as f64 / secs(cycles.max(1));
    match link_gbps {
        Some(gbps) => t.min(gbps * 1e9 / 8.0 / bytes_per_op as f64),
        None => t,
    }
}

/// How a server reaches its data and the OS — the paper's
/// configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No SGX: untrusted data, direct syscalls.
    Native,
    /// Vanilla SGX (or Graphene): enclave data, OCALL syscalls.
    SgxOcall,
    /// Eleos RPC only: enclave data, exit-less syscalls.
    EleosRpc,
    /// Eleos RPC + SUVM (+ CAT), every access through EPC++.
    EleosSuvm,
    /// Eleos RPC + SUVM with direct sub-page access.
    EleosSuvmDirect,
    /// Eleos RPC + SUVM choosing EPC++ or direct access per access —
    /// not a paper row: what the servers run.
    EleosSuvmAdaptive,
}

impl Mode {
    /// Output label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Native => "native",
            Mode::SgxOcall => "sgx",
            Mode::EleosRpc => "eleos-rpc",
            Mode::EleosSuvm => "eleos-suvm",
            Mode::EleosSuvmDirect => "eleos-direct",
            Mode::EleosSuvmAdaptive => "eleos-adaptive",
        }
    }

    /// Whether the mode runs inside an enclave.
    #[must_use]
    pub fn enclaved(&self) -> bool {
        !matches!(self, Mode::Native)
    }
}

/// A fully wired server harness: machine, optional enclave/SUVM/RPC,
/// socket and measurement thread context.
pub struct Rig {
    /// The machine.
    pub machine: Arc<SgxMachine>,
    /// The enclave, in enclaved modes.
    pub enclave: Option<Arc<eleos_enclave::enclave::Enclave>>,
    /// The SUVM instance, in SUVM modes.
    pub suvm: Option<Arc<Suvm>>,
    /// The RPC service, in Eleos modes.
    pub rpc: Option<Arc<RpcService>>,
    /// The wire session, attested at rig construction (the handshake
    /// runs once, before any measured request).
    pub session: Arc<Session>,
    /// The server socket.
    pub fd: Fd,
    /// Mode this rig was built for.
    pub mode: Mode,
}

/// Worker core for RPC threads (the paper dedicates a core to the
/// worker, §3.1).
pub const RPC_CORE: usize = 7;
/// Cores handed to RPC workers, in assignment order (the paper's
/// topology dedicates the high cores to the untrusted side).
pub const RPC_WORKER_CORES: [usize; 4] = [RPC_CORE, 6, 5, 4];
/// Socket staging capacity.
pub const SOCKET_STAGING: usize = 4 << 20;

impl Rig {
    /// Builds a rig for `mode` with a single RPC worker. `data_bytes`
    /// sizes the enclave linear space and SUVM backing store; `cat`
    /// applies the 75/25 LLC partition.
    #[must_use]
    pub fn new(scale: Scale, mode: Mode, data_bytes: usize, cat: bool) -> Rig {
        Rig::with_workers(scale, mode, data_bytes, cat, 1)
    }

    /// Builds a rig for `mode` with `workers` RPC lanes, each on its
    /// own core, so two sockets' scatter-gather jobs run side by side.
    #[must_use]
    pub fn with_workers(
        scale: Scale,
        mode: Mode,
        data_bytes: usize,
        cat: bool,
        workers: usize,
    ) -> Rig {
        assert!(
            (1..=RPC_WORKER_CORES.len()).contains(&workers),
            "workers must be 1..={}",
            RPC_WORKER_CORES.len()
        );
        let machine = paper_machine(scale);
        if cat {
            machine.enable_cat();
        }
        let enclave = mode.enclaved().then(|| {
            machine
                .driver
                .create_enclave(&machine, data_bytes * 2 + (64 << 20))
        });
        let suvm = match mode {
            Mode::EleosSuvm | Mode::EleosSuvmDirect | Mode::EleosSuvmAdaptive => {
                let e = enclave.as_ref().expect("suvm needs an enclave");
                let ctx = ThreadCtx::for_enclave(&machine, e, 0);
                let mut cfg = paper_suvm_config(scale, data_bytes * 2);
                if mode != Mode::EleosSuvm {
                    cfg.sub_page_size = 1024;
                }
                Some(Suvm::new(&ctx, cfg))
            }
            _ => None,
        };
        let rpc = match mode {
            Mode::Native | Mode::SgxOcall => None,
            _ => Some(Arc::new(
                with_syscalls(RpcService::builder(&machine), &machine)
                    .workers(workers, &RPC_WORKER_CORES[..workers])
                    .build(),
            )),
        };
        // Every rig session starts with the attestation handshake: the
        // load generator verifies the serving identity's evidence
        // before pushing a single request. Benches reset counters
        // before their measured phase, so the one-time handshake cost
        // never pollutes a steady-state number.
        let session = Arc::new(Session::handshake([0x42; 16], [0xA7; 16]));
        let mut ut = ThreadCtx::untrusted(&machine, 0);
        attest_session(&mut ut, &session);
        let fd = machine.host.socket(&ut, SOCKET_STAGING);
        Rig {
            machine,
            enclave,
            suvm,
            rpc,
            session,
            fd,
            mode,
        }
    }

    /// The data space applications should put their sensitive data in.
    #[must_use]
    pub fn data_space(&self) -> DataSpace {
        match self.mode {
            Mode::Native => DataSpace::Untrusted(Arc::clone(&self.machine)),
            Mode::SgxOcall | Mode::EleosRpc => {
                DataSpace::Enclave(Arc::clone(self.enclave.as_ref().expect("enclaved")))
            }
            Mode::EleosSuvm => DataSpace::suvm_cached(self.suvm.as_ref().expect("suvm")),
            Mode::EleosSuvmDirect => DataSpace::suvm_direct(self.suvm.as_ref().expect("suvm")),
            Mode::EleosSuvmAdaptive => DataSpace::suvm(self.suvm.as_ref().expect("suvm")),
        }
    }

    /// The syscall path for this mode.
    #[must_use]
    pub fn io_path(&self) -> IoPath {
        match self.mode {
            Mode::Native => IoPath::Native,
            Mode::SgxOcall => IoPath::Ocall,
            _ => IoPath::Rpc(Arc::clone(self.rpc.as_ref().expect("rpc"))),
        }
    }

    /// A measurement thread on `core`, entered if the mode is
    /// enclaved.
    #[must_use]
    pub fn thread(&self, core: usize) -> ThreadCtx {
        let mut t = match &self.enclave {
            Some(e) => ThreadCtx::for_enclave(&self.machine, e, core),
            None => ThreadCtx::untrusted(&self.machine, core),
        };
        if self.mode.enclaved() {
            t.enter();
        }
        t
    }

    /// A `ServerIo` bound to this rig's socket with an explicit config
    /// (batch depth, crypto mode).
    #[must_use]
    pub fn server_io_cfg(&self, ctx: &ThreadCtx, cfg: ServerIoConfig) -> ServerIo {
        cfg.build(ctx, &[self.fd], self.io_path(), Arc::clone(&self.session))
    }

    /// A second socket (for multi-threaded servers).
    #[must_use]
    pub fn extra_socket(&self) -> Fd {
        let ut = ThreadCtx::untrusted(&self.machine, 0);
        self.machine.host.socket(&ut, SOCKET_STAGING)
    }

    /// A shard set of `n` fresh sockets (one per serving pipeline).
    /// Shard 0 reuses the rig's main socket so single-shard sets are
    /// the classic rig.
    #[must_use]
    pub fn socket_set(&self, n: usize) -> Vec<Fd> {
        assert!(n > 0, "a socket set needs at least one shard");
        let mut fds = vec![self.fd];
        fds.extend((1..n).map(|_| self.extra_socket()));
        fds
    }

    /// A sharded `ServerIo` over a socket set (one pipeline per
    /// socket, see [`ServerIoConfig::build`]) with an explicit config.
    #[must_use]
    pub fn server_io_sharded(&self, ctx: &ThreadCtx, fds: &[Fd], cfg: ServerIoConfig) -> ServerIo {
        cfg.build(ctx, fds, self.io_path(), Arc::clone(&self.session))
    }
}

/// Result of a parameter-server measurement run.
pub struct PsRun {
    /// Requests served.
    pub ops: u64,
    /// End-to-end cycles on the serving core.
    pub e2e_cycles: u64,
    /// Cycles inside the update loops only.
    pub inner_cycles: u64,
    /// Stats delta over the measured phase.
    pub stats: StatsSnapshot,
}

/// Builds, populates, warms and measures a parameter server under
/// the rig's mode, one request per receive/send (the per-message
/// entry points — the paper's server). `gen` produces request
/// plaintexts.
pub fn run_param_server(
    rig: &Rig,
    kind: TableKind,
    n_keys: u64,
    n_requests: usize,
    warmup: usize,
    gen: impl FnMut() -> Vec<u8>,
) -> PsRun {
    let cfg = ServerIoConfig::with_buf_len(64 << 10);
    measure_param_server(rig, kind, n_keys, n_requests, warmup, cfg, false, gen)
}

/// Like [`run_param_server`], but serves requests in pipelined batches
/// of `batch` ([`ServerIo::serve`]): on the RPC path each recv/send
/// stage is one amortized ring submission instead of a round-trip per
/// request.
#[allow(clippy::too_many_arguments)]
pub fn run_param_server_batched(
    rig: &Rig,
    kind: TableKind,
    n_keys: u64,
    n_requests: usize,
    warmup: usize,
    batch: usize,
    gen: impl FnMut() -> Vec<u8>,
) -> PsRun {
    let cfg = ServerIoConfig::with_buf_len(64 << 10).batch(batch);
    measure_param_server(rig, kind, n_keys, n_requests, warmup, cfg, true, gen)
}

/// The one measurement behind both entry points: `pipelined` serves a
/// sub-batch per step ([`ServerIo::serve`]), otherwise a message
/// ([`ServerIo::serve_one`], which the warm-up always uses).
#[allow(clippy::too_many_arguments)]
fn measure_param_server(
    rig: &Rig,
    kind: TableKind,
    n_keys: u64,
    n_requests: usize,
    warmup: usize,
    cfg: ServerIoConfig,
    pipelined: bool,
    mut gen: impl FnMut() -> Vec<u8>,
) -> PsRun {
    let mut ctx = rig.thread(0);
    let mut server = ParamServer::new(rig.data_space(), kind, n_keys);
    server.init(&mut ctx);
    if kind == TableKind::OpenAddressing {
        server.populate_bulk(&mut ctx, n_keys);
    } else {
        server.populate(&mut ctx, n_keys);
    }
    let io = rig.server_io_cfg(&ctx, cfg);
    // The serve-loop closure: one request through `process`, adding
    // the serving clock across the call — the paper's "in-enclave
    // execution time" (Figs 2 and 6), which excludes the direct costs
    // of exits and system calls — to `inner`.
    fn timed<'a>(
        server: &'a mut ParamServer,
        inner: &'a mut u64,
    ) -> impl FnMut(&mut ThreadCtx, &[u8]) -> Vec<u8> + 'a {
        move |ctx, plain| {
            let t0 = ctx.now();
            let reply = server.process(ctx, plain);
            *inner += ctx.now() - t0;
            reply
        }
    }
    let mut inner = 0u64;

    // Warm-up (paper: first ten invocations discarded).
    let ut = ThreadCtx::untrusted(&rig.machine, 0);
    for _ in 0..warmup {
        rig.machine
            .host
            .push_request(&ut, rig.fd, &rig.session.encrypt(&gen()));
        let served = io.serve_one(&mut ctx, timed(&mut server, &mut inner));
        assert!(served, "warmup request");
    }

    rig.machine.reset_counters();
    let s0 = rig.machine.stats.snapshot();
    let c0 = ctx.now();
    inner = 0;
    let mut served = 0usize;
    while served < n_requests {
        // Keep the socket fed in chunks without overrunning staging.
        let chunk = (n_requests - served).min(256);
        for _ in 0..chunk {
            rig.machine
                .host
                .push_request(&ut, rig.fd, &rig.session.encrypt(&gen()));
        }
        let mut drained = 0usize;
        while drained < chunk {
            let step = timed(&mut server, &mut inner);
            let n = if pipelined {
                io.serve(&mut ctx, step)
            } else {
                usize::from(io.serve_one(&mut ctx, step))
            };
            assert!(n > 0, "queued requests must be served");
            drained += n;
        }
        served += chunk;
    }
    let run = PsRun {
        ops: served as u64,
        e2e_cycles: ctx.now() - c0,
        inner_cycles: inner,
        stats: rig.machine.stats.snapshot() - s0,
    };
    if ctx.in_enclave() {
        ctx.exit();
    }
    run
}

/// Prints an experiment header.
pub fn header(id: &str, title: &str, paper: &str) {
    println!();
    println!("== {id}: {title}");
    println!("   paper: {paper}");
}

/// Formats a ratio as `N.NNx`.
#[must_use]
pub fn x(r: f64) -> String {
    format!("{r:.2}x")
}

/// Formats ops/s with a k/M suffix.
#[must_use]
pub fn kops(t: f64) -> String {
    if t >= 1e6 {
        format!("{:.2}M", t / 1e6)
    } else {
        format!("{:.1}k", t / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        let none: Vec<String> = vec![];
        assert_eq!(Scale::from_args(&none).0, 4);
        let full = vec!["--full".to_string()];
        assert_eq!(Scale::from_args(&full).0, 1);
        let s8 = vec!["--scale".to_string(), "8".to_string()];
        assert_eq!(Scale::from_args(&s8).0, 8);
    }

    #[test]
    fn scale_floors() {
        let s = Scale(16);
        assert_eq!(s.bytes(8 << 20), 512 << 10);
        assert_eq!(s.bytes(4096), 4096);
        assert_eq!(s.ops(100), 64);
    }

    #[test]
    fn throughput_capping() {
        // 1000 ops in 3.4e9 cycles = 1 second -> 1000 ops/s.
        let t = throughput(1000, CPU_HZ as u64, 1_000_000, None);
        assert!((t - 1000.0).abs() < 1.0);
        // 10 Gb/s over 1 MB/op caps at 1250 ops/s; uncapped is higher.
        let t = throughput(10_000, CPU_HZ as u64, 1_000_000, Some(10.0));
        assert!((t - 1250.0).abs() < 1.0);
    }

    #[test]
    fn rig_modes_assemble() {
        let scale = Scale(16);
        for mode in [Mode::Native, Mode::SgxOcall, Mode::EleosSuvm] {
            let rig = Rig::new(scale, mode, 1 << 20, false);
            assert_eq!(rig.mode.enclaved(), mode != Mode::Native);
            let mut t = rig.thread(0);
            let space = rig.data_space();
            let a = space.alloc(64);
            space.write(&mut t, a, b"rig");
            let mut b = [0u8; 3];
            space.read(&mut t, a, &mut b);
            assert_eq!(&b, b"rig");
            if t.in_enclave() {
                t.exit();
            }
        }
    }

    #[test]
    fn rig_with_workers_spins_up_the_pool() {
        // Two jobs of no socket in one batch: the second takes the lane
        // the first left free, so each lane's core reads a descriptor.
        let rig = Rig::with_workers(Scale(16), Mode::EleosRpc, 1 << 20, false, 2);
        let svc = rig.rpc.as_ref().expect("rpc mode");
        let e = rig.enclave.as_ref().expect("an enclaved mode");
        let mut t = ThreadCtx::for_enclave(&rig.machine, e, 0);
        t.enter();
        let rets = svc
            .submit_batch(&mut t, &[(99, [0; 4]); 2])
            .wait_all(&mut t);
        t.exit();
        assert_eq!(rets, [eleos_rpc::ERR_UNREGISTERED; 2]);
        for &core in &RPC_WORKER_CORES[..2] {
            assert!(rig.machine.core(core).clock.now() > 0, "lane core {core}");
        }
    }

    #[test]
    fn param_server_small_run() {
        let rig = Rig::new(Scale(16), Mode::SgxOcall, 1 << 20, false);
        let mut load = eleos_apps::loadgen::ParamLoad::new(1, 1000, 4, None);
        let run = run_param_server(&rig, TableKind::OpenAddressing, 1000, 100, 10, move || {
            load.next_plain()
        });
        assert_eq!(run.ops, 100);
        assert!(run.e2e_cycles > run.inner_cycles);
        assert!(run.stats.enclave_exits >= 200, "2 ocalls per request");
    }
}
