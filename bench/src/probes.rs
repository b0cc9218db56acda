//! Isolated layer probes: at the end of a workload's traced run, on its
//! warm rig, a short loop over one lower layer's public function gives
//! that layer's cost per call on both clocks. A probe says what a call
//! costs on its own; the spans and counters say how often the workload
//! makes it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use eleos_apps::kvs::Kvs;
use eleos_apps::space::DataSpace;
use eleos_crypto::gcm::AesGcm128;
use eleos_crypto::Sealer;
use eleos_enclave::thread::ThreadCtx;
use eleos_rpc::EnclaveChannel;

use crate::gen::{key_bytes, value_bytes, Rng};
use crate::rig::{Host, Single, RPC_NOOP};
use crate::workload::{ProbeSet, Spec, EPCPP_BYTES, LLC_BYTES, PROBE_CORE};

const PAGE: usize = 4096;

/// Cost of one call, per clock.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub name: &'static str,
    pub sim_cycles: f64,
    pub host_ns: f64,
}

/// Every probe name, in report order. A workload reports 0 for the
/// probes it does not run.
pub const NAMES: [&str; 12] = [
    "rpc.call",
    "rpc.batch8",
    "enclave.ocall",
    "crypto.wire_batch8",
    "sim.mem_access",
    "core.suvm_hit",
    "core.suvm_fault_clean",
    "enclave.epc_fault",
    "crypto.gcm_page",
    "core.suvm_fault_dirty",
    "rpc.channel_chunk",
    "core.snapshot_item",
];

/// Runs `f(i)` for `i in 0..iters` and reports the mean cost of one of
/// the `per_iter` calls each iteration makes.
fn time(
    name: &'static str,
    ctx: &mut ThreadCtx,
    iters: u64,
    per_iter: u64,
    mut f: impl FnMut(&mut ThreadCtx, u64),
) -> Probe {
    let c0 = ctx.now();
    let t0 = Instant::now();
    for i in 0..iters {
        f(ctx, i);
    }
    let calls = (iters * per_iter) as f64;
    Probe {
        name,
        sim_cycles: (ctx.now() - c0) as f64 / calls,
        host_ns: t0.elapsed().as_nanos() as f64 / calls,
    }
}

/// A random page-aligned offset inside a `region`-byte span.
fn random_page(rng: &mut Rng, region: usize) -> u64 {
    rng.below((region / PAGE) as u64) * PAGE as u64
}

/// `kvs-resident`: the RPC ring, the OCALL it replaces, wire crypto and
/// the memory hierarchy.
fn resident(host: &Host, s: &mut Single, out: &mut Vec<Probe>) {
    let rpc = Arc::clone(s.rpc.as_ref().expect("the resident rig serves over RPC"));
    out.push(time("rpc.call", &mut s.ctx, 2_000, 1, |ctx, _| {
        black_box(rpc.call(ctx, RPC_NOOP, [0; 4]));
    }));
    let jobs = [(RPC_NOOP, [0u64; 4]); 8];
    out.push(time("rpc.batch8", &mut s.ctx, 500, 8, |ctx, _| {
        black_box(rpc.submit_batch(ctx, &jobs).wait_all(ctx));
    }));
    out.push(time("enclave.ocall", &mut s.ctx, 2_000, 1, |ctx, _| {
        ctx.ocall(|_| ());
    }));
    let msgs: Vec<Vec<u8>> = (0..8).map(|_| host.session.encrypt(&[0u8; 64])).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
    out.push(time("crypto.wire_batch8", &mut s.ctx, 500, 1, |ctx, _| {
        black_box(host.session.decrypt_batch_in_enclave(ctx, &refs, true));
    }));
    // One line per access, striding a page plus a line so consecutive
    // accesses share neither, over twice the LLC.
    let region = 2 * LLC_BYTES;
    let base = s.enclave.alloc(region);
    s.ctx.fill_enclave(base, region, 0x5a);
    let mut line = [0u8; 64];
    out.push(time("sim.mem_access", &mut s.ctx, 20_000, 1, |ctx, i| {
        let off = (i * (PAGE as u64 + 64)) % (region as u64 - 64);
        ctx.read_enclave(base + off, &mut line);
    }));
}

/// A written-out SUVM region of four times EPC++, for the fault probes.
fn suvm_region(s: &mut Single) -> (Arc<eleos_core::Suvm>, u64, usize) {
    let suvm = Arc::clone(s.suvm.as_ref().expect("the SUVM rigs page through SUVM"));
    let region = 4 * EPCPP_BYTES;
    let base = suvm.malloc(region);
    let page = [0xa5u8; PAGE];
    for off in (0..region).step_by(PAGE) {
        suvm.write(&mut s.ctx, base + off as u64, &page);
    }
    (suvm, base, region)
}

/// `kvs-paging`: SUVM hits and clean faults, the hardware fault they
/// replace, and the page seal underneath both.
fn paging(seed: u64, s: &mut Single, out: &mut Vec<Probe>) {
    let (suvm, base, region) = suvm_region(s);
    let mut page = [0u8; PAGE];
    out.push(time("core.suvm_hit", &mut s.ctx, 5_000, 1, |ctx, i| {
        suvm.read(ctx, base + (i % 16) * PAGE as u64, &mut page);
    }));
    // The region was written once and is read-only from here on, so
    // nearly every victim is clean and the eviction skips the seal.
    let mut rng = Rng::new(seed);
    for _ in 0..2 * EPCPP_BYTES / PAGE {
        suvm.read(&mut s.ctx, base + random_page(&mut rng, region), &mut page);
    }
    out.push(time(
        "core.suvm_fault_clean",
        &mut s.ctx,
        3_000,
        1,
        |ctx, _| {
            suvm.read(ctx, base + random_page(&mut rng, region), &mut page);
        },
    ));

    let linear = s.enclave.alloc(region);
    s.ctx.fill_enclave(linear, region, 0x3c);
    out.push(time("enclave.epc_fault", &mut s.ctx, 1_000, 1, |ctx, _| {
        ctx.read_enclave(linear + random_page(&mut rng, region), &mut page);
    }));

    let cipher = AesGcm128::new(&[0x11; 16]);
    out.push(time("crypto.gcm_page", &mut s.ctx, 1_000, 1, |ctx, i| {
        let mut nonce = [0u8; 12];
        nonce[..8].copy_from_slice(&i.to_le_bytes());
        ctx.charge_crypto_batch([PAGE], false);
        black_box(cipher.seal(&nonce, &[], &mut page));
    }));
}

/// `kvs-churn`: a fault whose victim is dirty and must be sealed.
fn churn(seed: u64, s: &mut Single, out: &mut Vec<Probe>) {
    let (suvm, base, region) = suvm_region(s);
    let page = [0x77u8; PAGE];
    let mut rng = Rng::new(seed);
    out.push(time(
        "core.suvm_fault_dirty",
        &mut s.ctx,
        3_000,
        1,
        |ctx, _| {
            suvm.write(ctx, base + random_page(&mut rng, region), &page);
        },
    ));
}

/// `fleet-open`: the cross-enclave channel and the snapshot path the
/// maintenance plane streams deltas through. The fleet's replicas are
/// private to it, so these run in a probe enclave of their own on the
/// fleet's machine.
fn fleet(spec: &Spec, host: &Host, out: &mut Vec<Probe>) {
    let machine = &host.machine;
    let enclave = machine.driver.create_enclave(machine, 1 << 20);
    let mut ctx = ThreadCtx::for_enclave(machine, &enclave, PROBE_CORE);
    ctx.enter();

    let chan = EnclaveChannel::new(machine, 64 << 10);
    let chunk = [0x42u8; PAGE];
    out.push(time("rpc.channel_chunk", &mut ctx, 2_000, 1, |ctx, _| {
        chan.send(ctx, 1, &chunk);
        black_box(chan.recv(ctx));
    }));

    const ITEMS: u32 = 1_024;
    let space = DataSpace::Untrusted(Arc::clone(machine));
    let mut from = Kvs::new(space.clone(), space.clone(), 8 << 20, 2_048);
    from.init(&mut ctx);
    for i in 0..ITEMS {
        let value = value_bytes(i, 1, spec.value_len as usize);
        from.set(&mut ctx, &key_bytes(i, spec.key_len), &value);
    }
    let sealer = AesGcm128::new(&[0x2a; 16]);
    out.push(time(
        "core.snapshot_item",
        &mut ctx,
        4,
        u64::from(ITEMS),
        |ctx, i| {
            let snap = from.snapshot_since(ctx, &sealer, 9, i + 1, 0);
            let mut to = Kvs::new(space.clone(), space.clone(), 8 << 20, 2_048);
            to.init(ctx);
            assert_eq!(to.restore(ctx, &sealer, &snap), u64::from(ITEMS));
        },
    ));
    ctx.exit();
}

/// Runs the probes that belong to `spec`'s rig.
pub fn run(spec: &Spec, seed: u64, host: &Host, single: Option<&mut Single>) -> Vec<Probe> {
    let mut out = Vec::new();
    match (spec.probes, single) {
        (ProbeSet::RpcAndMemory, Some(s)) => resident(host, s, &mut out),
        (ProbeSet::CleanPaging, Some(s)) => paging(seed, s, &mut out),
        (ProbeSet::DirtyPaging, Some(s)) => churn(seed, s, &mut out),
        (ProbeSet::FleetPlumbing, _) => fleet(spec, host, &mut out),
        (set, None) => unreachable!("{set:?} probes a single-enclave rig"),
    }
    // The report looks probes up by name; one it does not know would
    // silently read as 0.
    assert!(out.iter().all(|p| NAMES.contains(&p.name)));
    out
}
