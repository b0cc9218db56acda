//! Figure 6: what the exit-less RPC recovers — direct exit costs
//! (6a), LLC pollution via CAT partitioning (6b), and TLB flushes
//! (6c).

use eleos_apps::loadgen::ParamLoad;
use eleos_apps::param_server::TableKind;

use crate::harness::{header, run_param_server, run_param_server_batched, x, Mode, Rig, Scale};

/// End-to-end cycles per request for one mode.
fn e2e_per_req(
    scale: Scale,
    mode: Mode,
    data_bytes: usize,
    keys_per_req: usize,
    n_requests: usize,
) -> f64 {
    let rig = Rig::new(scale, mode, data_bytes, false);
    let n_keys = (data_bytes / 32) as u64;
    let mut load = ParamLoad::new(13, n_keys, keys_per_req, None);
    let run = run_param_server(
        &rig,
        TableKind::OpenAddressing,
        n_keys,
        n_requests,
        n_requests / 10,
        move || load.next_plain(),
    );
    run.e2e_cycles as f64 / run.ops as f64
}

/// End-to-end cycles per request when the server pipelines requests
/// in batches of `batch` over real batched ring submission.
fn e2e_per_req_batched(
    scale: Scale,
    mode: Mode,
    data_bytes: usize,
    batch: usize,
    n_requests: usize,
) -> f64 {
    let rig = Rig::new(scale, mode, data_bytes, false);
    let n_keys = (data_bytes / 32) as u64;
    let mut load = ParamLoad::new(13, n_keys, 1, None);
    let run = run_param_server_batched(
        &rig,
        TableKind::OpenAddressing,
        n_keys,
        n_requests,
        n_requests / 10,
        batch,
        move || load.next_plain(),
    );
    run.e2e_cycles as f64 / run.ops as f64
}

/// Runs Figure 6a: eliminating EENTER/EEXIT costs.
pub fn run_6a(scale: Scale) {
    header(
        "fig6a",
        "slowdown vs untrusted, OCALL vs exit-less RPC (2MB server), batched wire crypto",
        "RPC ~6x better for single-update requests, parity at 64 updates",
    );
    let data = scale.bytes(2 << 20);
    let n = scale.ops(100_000);
    println!(
        "   {:<10} {:>10} {:>10} {:>12}",
        "keys/req", "sgx", "eleos-rpc", "rpc gain"
    );
    for keys in [1usize, 8, 16, 32, 64] {
        let n_req = (n / keys).max(64);
        let native = e2e_per_req(scale, Mode::Native, data, keys, n_req);
        let ocall = e2e_per_req(scale, Mode::SgxOcall, data, keys, n_req);
        let rpc = e2e_per_req(scale, Mode::EleosRpc, data, keys, n_req);
        println!(
            "   {:<10} {:>10} {:>10} {:>12}",
            keys,
            x(ocall / native),
            x(rpc / native),
            x(ocall / rpc)
        );
    }

    // Batched-submission sweep: the same 1-update requests, but the
    // server pipelines recv/process/send in batches so each I/O stage
    // is a single amortized ring submission. The sync row (batch 1)
    // pays a full rpc_roundtrip per syscall; deeper batches pay it
    // once and rpc_post thereafter, and the wire crypto pays its setup
    // once per batch (quarter-rate for follow-ons).
    println!("   batched submission sweep (1 key/req, cycles/req):");
    println!("   {:<10} {:>14} {:>12}", "batch", "c/req", "vs batch=1");
    let n_req = n.max(256);
    let mut sync = None;
    for batch in [1usize, 4, 8, 16, 32, 64] {
        let c_req = e2e_per_req_batched(scale, Mode::EleosRpc, data, batch, n_req);
        let sync = *sync.get_or_insert(c_req);
        println!("   {:<10} {:>14.0} {:>12}", batch, c_req, x(sync / c_req));
    }
}

/// In-enclave cycles per key with RPC syscalls, CAT on or off.
fn rpc_inner_per_key(
    scale: Scale,
    cat: bool,
    data_bytes: usize,
    hot_bytes: usize,
    keys_per_req: usize,
    n_requests: usize,
) -> f64 {
    let rig = Rig::new(scale, Mode::EleosRpc, data_bytes, cat);
    let n_keys = (data_bytes / 32) as u64;
    let hot_keys = (hot_bytes / 32) as u64;
    let warmup = crate::experiments::fig2::warmup_for(hot_keys, keys_per_req, n_requests);
    let mut load = ParamLoad::new(17, n_keys, keys_per_req, Some(hot_keys));
    let run = run_param_server(
        &rig,
        TableKind::OpenAddressing,
        n_keys,
        n_requests,
        warmup,
        move || load.next_plain(),
    );
    run.inner_cycles as f64 / (run.ops as f64 * keys_per_req as f64)
}

/// Runs Figure 6b: CAT partitioning against I/O pollution.
pub fn run_6b(scale: Scale) {
    header(
        "fig6b",
        "LLC partitioning (75% enclave / 25% RPC worker), 64MB server, hot 8MB",
        "CAT saves over 25% of in-enclave time for larger I/O buffers",
    );
    let data = scale.bytes(64 << 20);
    let hot = scale.bytes(2 << 20); // fits the enclave LLC partition
    let n = scale.ops(100_000);
    println!(
        "   {:<10} {:>14} {:>14} {:>10}",
        "keys/req", "no-CAT c/key", "CAT c/key", "saved"
    );
    for keys in [1usize, 8, 16, 32, 64] {
        let n_req = (n / keys).max(64);
        let off = rpc_inner_per_key(scale, false, data, hot, keys, n_req);
        let on = rpc_inner_per_key(scale, true, data, hot, keys, n_req);
        println!(
            "   {:<10} {:>14.0} {:>14.0} {:>9.1}%",
            keys,
            off,
            on,
            100.0 * (off - on) / off
        );
    }
}

/// Runs Figure 6c: exit-less syscalls eliminate the TLB flushes that
/// penalize pointer chasing.
pub fn run_6c(scale: Scale) {
    header(
        "fig6c",
        "chaining server (2MB): in-enclave time, OCALL vs RPC",
        "RPC up to 5.5x faster in-enclave (no TLB flush per request)",
    );
    let data = scale.bytes(2 << 20);
    let n_keys = (data / 32) as u64;
    let n = scale.ops(100_000);
    println!(
        "   {:<10} {:>14} {:>14} {:>10}",
        "keys/req", "ocall c/req", "rpc c/req", "speedup"
    );
    for keys in [1usize, 2, 4, 8, 16, 32] {
        let n_req = (n / keys).max(64);
        let mut per_mode = Vec::new();
        for mode in [Mode::SgxOcall, Mode::EleosRpc] {
            let rig = Rig::new(scale, mode, data, false);
            let mut load = ParamLoad::new(19, n_keys, keys, None);
            let run = run_param_server(
                &rig,
                TableKind::Chaining,
                n_keys,
                n_req,
                n_req / 10,
                move || load.next_plain(),
            );
            per_mode.push(run.inner_cycles as f64 / run.ops as f64);
        }
        println!(
            "   {:<10} {:>14.0} {:>14.0} {:>10}",
            keys,
            per_mode[0],
            per_mode[1],
            x(per_mode[0] / per_mode[1])
        );
    }
}
