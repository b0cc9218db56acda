//! RPC ring microbenchmark: caller cycles/op for synchronous `call()`
//! vs batched `submit_batch()` at increasing in-flight depth, on the
//! real polling ring.

use std::sync::Arc;

use eleos_enclave::machine::SgxMachine;
use eleos_enclave::thread::ThreadCtx;
use eleos_rpc::{RpcService, UntrustedFn};

use crate::harness::{header, paper_machine, x, Scale, RPC_CORE};

/// Function id for the benchmark no-op host call.
const NOP: u64 = 100;
/// Host-side work per call, cycles (a small memcpy-ish service body).
const NOP_CYCLES: u64 = 200;

fn service(machine: &Arc<SgxMachine>) -> RpcService {
    RpcService::builder(machine)
        .register(
            NOP,
            UntrustedFn::new(|ctx, _args| {
                ctx.compute(NOP_CYCLES);
                0
            }),
        )
        .workers(1, &[RPC_CORE])
        .build()
}

/// Caller cycles/op for `n` synchronous calls.
fn sync_cycles_per_op(machine: &Arc<SgxMachine>, svc: &RpcService, n: usize) -> f64 {
    let e = machine.driver.create_enclave(machine, 1 << 20);
    let mut t = ThreadCtx::for_enclave(machine, &e, 0);
    t.enter();
    let c0 = t.now();
    for _ in 0..n {
        svc.call(&mut t, NOP, [0; 4]);
    }
    let d = t.now() - c0;
    t.exit();
    d as f64 / n as f64
}

/// Caller cycles/op for `n` calls issued as batches of `depth`.
fn batched_cycles_per_op(
    machine: &Arc<SgxMachine>,
    svc: &RpcService,
    n: usize,
    depth: usize,
) -> f64 {
    let e = machine.driver.create_enclave(machine, 1 << 20);
    let mut t = ThreadCtx::for_enclave(machine, &e, 0);
    t.enter();
    let reqs = vec![(NOP, [0u64; 4]); depth];
    let c0 = t.now();
    let mut done = 0usize;
    while done < n {
        let take = (n - done).min(depth);
        svc.submit_batch(&mut t, &reqs[..take]).wait_all(&mut t);
        done += take;
    }
    let d = t.now() - c0;
    t.exit();
    d as f64 / n as f64
}

/// Runs the sweep and prints a table.
pub fn run(scale: Scale) {
    header(
        "rpc_bench",
        "caller cycles/op, sync call() vs submit_batch() in-flight depth",
        "batching amortizes the ring handoff; deeper is strictly cheaper",
    );
    let machine = paper_machine(scale);
    let svc = service(&machine);
    let n = scale.ops(20_000);
    let sync = sync_cycles_per_op(&machine, &svc, n);
    println!("   {:<10} {:>14} {:>10}", "depth", "cycles/op", "vs sync");
    println!("   {:<10} {:>14.0} {:>10}", "sync", sync, x(1.0));
    for depth in [4usize, 8, 16, 32, 64] {
        let b = batched_cycles_per_op(&machine, &svc, n, depth);
        println!("   {:<10} {:>14.0} {:>10}", depth, b, x(sync / b));
    }
}
