//! Builds the system under test from the public APIs of the serving
//! crates: machine, enclave(s), SUVM, RPC service, wire session,
//! sockets, store and server I/O — with the product defaults wherever
//! one exists, so a later change to a default is measured as what users
//! get.

use std::sync::Arc;

use eleos_apps::fleet_io::{FleetConfig, FleetKvs, MaintenanceConfig};
use eleos_apps::io::{IoPath, ServerIo, ServerIoConfig};
use eleos_apps::kvs::{build_get, build_set, Kvs};
use eleos_apps::loadgen::attest_session;
use eleos_apps::space::DataSpace;
use eleos_apps::wire::{Session, EPOCH_OFFSET, NONCE_LEN};
use eleos_core::{Suvm, SuvmConfig};
use eleos_crypto::gcm::AesGcm128;
use eleos_crypto::Sealer;
use eleos_enclave::enclave::Enclave;
use eleos_enclave::host::Fd;
use eleos_enclave::machine::{MachineConfig, SgxMachine};
use eleos_enclave::thread::ThreadCtx;
use eleos_rpc::{with_syscalls, RpcService, UntrustedFn};
use eleos_sim::llc::LlcConfig;

use crate::gen::{key_bytes, value_bytes, Request};
use crate::workload::{
    Spec, BATCH_MAX, BATCH_MIN, EPCPP_BYTES, EPC_BYTES, FLEET_REPLICAS, FLEET_SHARDS,
    HEADROOM_BYTES, IO_BUF_BYTES, LLC_BYTES, LLC_WAYS, LOADGEN_CORE, MAINT_CORE, SERVE_CORE,
    SOCKET_STAGING,
};

/// RPC function id of the probes' no-op (outside the syscall ids).
pub const RPC_NOOP: u64 = 1_000;

/// The client side: machine, attested wire session, sockets and the
/// load generator's untrusted thread.
pub struct Host {
    pub machine: Arc<SgxMachine>,
    pub session: Arc<Session>,
    pub fds: Vec<Fd>,
    ut: ThreadCtx,
    key_len: usize,
}

impl Host {
    fn new(spec: &Spec, sockets: usize) -> Self {
        let machine = SgxMachine::new(MachineConfig {
            epc_bytes: EPC_BYTES,
            llc: LlcConfig {
                size: LLC_BYTES,
                ways: LLC_WAYS,
            },
            ..MachineConfig::default()
        });
        if spec.suvm {
            machine.enable_cat();
        }
        let session = Arc::new(Session::handshake([0x42; 16], [0xa7; 16]));
        let mut ut = ThreadCtx::untrusted(&machine, LOADGEN_CORE);
        attest_session(&mut ut, &session);
        let fds = machine.host.socket_set(&ut, sockets, SOCKET_STAGING);
        Self {
            machine,
            session,
            fds,
            ut,
            key_len: spec.key_len,
        }
    }

    /// Encrypts `req` and queues it on socket `sock`, stamped as having
    /// arrived at `due` on the serving core's clock. `ver` is the
    /// version a SET's value is generated at.
    pub fn send(&self, sock: usize, req: &Request, ver: u32, due: u64) {
        let key = key_bytes(req.key, self.key_len);
        let plain = match req.set_len {
            Some(len) => build_set(&key, &value_bytes(req.key, ver, len as usize)),
            None => build_get(&key),
        };
        self.machine.host.push_request_at(
            &self.ut,
            self.fds[sock],
            &self.session.encrypt(&plain),
            due,
        );
    }

    /// Pops the oldest reply off socket `sock`'s transmit log and
    /// decrypts it. The outer `None` means the log is empty; the inner
    /// one a reply the client cannot open (`Session::decrypt` would
    /// panic on it, and a bad reply is a failed op, not a crash).
    pub fn reply(&self, sock: usize) -> Option<Option<Vec<u8>>> {
        let msg = self.machine.host.pop_response(self.fds[sock])?;
        let epoch = self.session.epoch().to_le_bytes();
        let opens = msg.len() >= NONCE_LEN && msg[EPOCH_OFFSET..NONCE_LEN] == epoch;
        Some(opens.then(|| self.session.decrypt(&msg)))
    }
}

/// One enclave serving one socket: the three closed-loop workloads and
/// the paper-baseline reference rig.
pub struct Single {
    /// The serving thread, entered, on [`SERVE_CORE`].
    pub ctx: ThreadCtx,
    pub kvs: Kvs,
    pub io: ServerIo,
    pub enclave: Arc<Enclave>,
    pub suvm: Option<Arc<Suvm>>,
    /// `None` on the reference rig (OCALL syscalls).
    pub rpc: Option<Arc<RpcService>>,
}

fn rpc_service(machine: &Arc<SgxMachine>) -> Arc<RpcService> {
    // The builder's default is the product's: one worker on the
    // machine's last core.
    let builder = RpcService::builder(machine).register(RPC_NOOP, UntrustedFn::new(|_, _| 0));
    Arc::new(with_syscalls(builder, machine).build())
}

fn io_config() -> ServerIoConfig {
    // async_send(false): every reply is on the transmit log when the
    // serve call returns, so it can be popped and checked right away.
    ServerIoConfig::with_buf_len(IO_BUF_BYTES)
        .adaptive(BATCH_MIN, BATCH_MAX)
        .async_send(false)
}

fn fill(spec: &Spec, ctx: &mut ThreadCtx, kvs: &mut Kvs) {
    for i in 0..spec.n_keys {
        kvs.set(
            ctx,
            &key_bytes(i, spec.key_len),
            &value_bytes(i, 1, spec.value_len as usize),
        );
    }
    assert_eq!(kvs.len(), u64::from(spec.n_keys), "the fill must not evict");
}

fn buckets(spec: &Spec) -> u64 {
    (u64::from(spec.n_keys) * 2).max(1024)
}

impl Single {
    /// Builds and fills the server. `reference` swaps in the paper's
    /// baseline: OCALL syscalls and KV data in enclave linear memory
    /// under SGX hardware paging, everything else equal.
    pub fn build(spec: &Spec, reference: bool) -> (Host, Single) {
        let host = Host::new(spec, 1);
        let machine = &host.machine;
        let data_bytes = spec.dataset_bytes() * 2;
        let enclave = machine
            .driver
            .create_enclave(machine, data_bytes * 2 + (64 << 20));
        let mut ctx = ThreadCtx::for_enclave(machine, &enclave, SERVE_CORE);
        let suvm = (spec.suvm && !reference).then(|| {
            Suvm::new(
                &ctx,
                SuvmConfig {
                    epcpp_bytes: EPCPP_BYTES,
                    backing_bytes: (data_bytes * 2).next_power_of_two(),
                    headroom_bytes: HEADROOM_BYTES,
                    ..SuvmConfig::default()
                },
            )
        });
        let rpc = (!reference).then(|| rpc_service(machine));
        let data = match &suvm {
            Some(s) => DataSpace::suvm(s),
            None => DataSpace::Enclave(Arc::clone(&enclave)),
        };
        // The paper's memcached port keeps item metadata in clear
        // untrusted memory when the data is paged (§5.1).
        let meta = if spec.suvm {
            DataSpace::Untrusted(Arc::clone(machine))
        } else {
            data.clone()
        };
        let mut kvs = Kvs::new(meta, data, spec.mem_limit, buckets(spec));
        ctx.enter();
        kvs.init(&mut ctx);
        fill(spec, &mut ctx, &mut kvs);
        let path = match &rpc {
            Some(r) => IoPath::Rpc(Arc::clone(r)),
            None => IoPath::Ocall,
        };
        let io = io_config().build(&ctx, &host.fds, path, Arc::clone(&host.session));
        let single = Single {
            ctx,
            kvs,
            io,
            enclave,
            suvm,
            rpc,
        };
        (host, single)
    }
}

/// The replicated tier of `fleet-open`: two enclave replicas
/// multiplexed on [`SERVE_CORE`] over four sockets, maintenance plane
/// on [`MAINT_CORE`].
pub fn build_fleet(spec: &'static Spec) -> (Host, FleetKvs) {
    let host = Host::new(spec, FLEET_SHARDS);
    let rpc = rpc_service(&host.machine);
    let sealer: Arc<dyn Sealer> = Arc::new(AesGcm128::new(&[0x2a; 16]));
    let cfg = FleetConfig {
        linear_bytes: 4 << 20,
        mem_limit: spec.mem_limit,
        buckets: buckets(spec),
        ..FleetConfig::small(FLEET_REPLICAS)
    }
    .with_maintenance(MaintenanceConfig {
        core: MAINT_CORE,
        ..MaintenanceConfig::default()
    });
    let fk = FleetKvs::new(
        &host.machine,
        &host.fds,
        io_config().shards(FLEET_SHARDS),
        IoPath::Rpc(rpc),
        Arc::clone(&host.session),
        sealer,
        cfg,
        |ctx, kvs| fill(spec, ctx, kvs),
    );
    (host, fk)
}
