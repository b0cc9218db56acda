//! RPC ring microbenchmark: caller cycles/op for synchronous `call()`
//! vs batched `submit_batch()` at increasing in-flight depth, on the
//! real polling ring. The run checks its own header claim
//! (`check_claims`) and panics — exit 101 — when it fails.

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

/// The in-flight depths of the sweep.
const DEPTHS: [usize; 5] = [4, 8, 16, 32, 64];
/// How far above the cheapest depth a deeper one may cost. Depths 32
/// and 64 measure 1.9–3.8 % over depth 16 across 50 runs at
/// `--scale 16` (430–436 and 434–438 against 422 cycles/op).
const PAST_MIN_SLACK: f64 = 1.05;

/// Checks the header's claims on one run: `sync` is `call()`'s
/// cycles/op and `batched` the `(depth, cycles/op)` rows in sweep
/// order.
///
/// # Panics
/// Panics — so `repro` exits non-zero — on the first claim that does
/// not hold, naming it.
fn check_claims(sync: f64, batched: &[(usize, f64)]) {
    for &(depth, cpo) in batched {
        assert!(
            cpo < sync,
            "depth {depth}: {cpo:.0} cycles/op does not beat call()'s {sync:.0}"
        );
    }
    for w in batched.windows(2) {
        let ((shallow, a), (deep, b)) = (w[0], w[1]);
        assert!(
            deep > 16 || b <= a,
            "depth {deep}: {b:.0} cycles/op exceeds depth {shallow}'s {a:.0}"
        );
    }
    let (at, min) = batched
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("the sweep ran at least one depth");
    for &(depth, cpo) in batched.iter().filter(|&&(depth, _)| depth > at) {
        assert!(
            cpo <= min * PAST_MIN_SLACK,
            "depth {depth}: {cpo:.0} cycles/op more than {:.0}% over depth {at}'s {min:.0}",
            (PAST_MIN_SLACK - 1.0) * 100.0
        );
    }
}

/// Runs the sweep, prints a table and checks the header's claims
/// (`check_claims`).
pub fn run(scale: Scale) {
    header(
        "rpc_bench",
        "caller cycles/op, sync call() vs submit_batch() in-flight depth",
        "batching amortizes the ring handoff: every depth beats call(), the cost falls \
         through depth 16 and stays within 5% of its minimum past it",
    );
    let machine = paper_machine(scale);
    let svc = service(&machine);
    let n = scale.ops(20_000);
    let sync = sync_cycles_per_op(&machine, &svc, n);
    println!("   {:<10} {:>14} {:>10}", "depth", "cycles/op", "vs sync");
    println!("   {:<10} {:>14.0} {:>10}", "sync", sync, x(1.0));
    let batched: Vec<(usize, f64)> = DEPTHS
        .iter()
        .map(|&depth| {
            let b = batched_cycles_per_op(&machine, &svc, n, depth);
            println!("   {:<10} {:>14.0} {:>10}", depth, b, x(sync / b));
            (depth, b)
        })
        .collect();
    check_claims(sync, &batched);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The commonest run at the commit that added the check (depths 32
    /// and 64 vary from run to run: 430–436 and 434–438).
    const MEASURED: [(usize, f64); 5] = [
        (4, 507.0),
        (8, 451.0),
        (16, 422.0),
        (32, 430.0),
        (64, 434.0),
    ];

    #[test]
    fn the_measured_run_passes() {
        check_claims(888.0, &MEASURED);
    }

    #[test]
    #[should_panic(expected = "depth 4: 900 cycles/op does not beat call()'s 888")]
    fn a_batch_that_loses_to_call_fails_the_run() {
        let mut run = MEASURED;
        run[0].1 = 900.0;
        check_claims(888.0, &run);
    }

    #[test]
    #[should_panic(expected = "depth 16: 460 cycles/op exceeds depth 8's 451")]
    fn a_rise_before_depth_16_fails_the_run() {
        let mut run = MEASURED;
        run[2].1 = 460.0;
        check_claims(888.0, &run);
    }

    #[test]
    #[should_panic(expected = "depth 64: 450 cycles/op more than 5% over depth 16's 422")]
    fn a_deep_batch_far_above_the_minimum_fails_the_run() {
        let mut run = MEASURED;
        run[4].1 = 450.0;
        check_claims(888.0, &run);
    }
}
