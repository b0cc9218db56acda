//! Paging microbenchmark for SUVM: eviction policy x write-back batch
//! size, on a dirty-heavy random access mix over a working set ~4x
//! EPC++. Exits non-zero unless every policy's batch >= 8 cells beat
//! its inline cell; writes no file.
//!
//! The serving thread's cycles/op is the figure of merit: with
//! `wb_batch = 0` every fault seals its victim inline (full GCM setup
//! per page); with `wb_batch >= 1` faults only detach victims onto the
//! write-back queue and the drain — here driven deterministically from
//! a second thread context on another core, standing in for the
//! swapper — seals them in batches that amortize the GCM setup.

use eleos_core::{EvictPolicy, Suvm, SuvmConfig};
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::costs::PAGE_SIZE;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::harness::{header, paper_machine, x, Scale};

/// Serving-thread ops between swapper ticks (batched configs only).
const TICK_EVERY: usize = 64;

/// One measured cell of the sweep.
struct Cell {
    policy: &'static str,
    batch: usize,
    cycles_per_op: f64,
    major_faults: u64,
    evictions: u64,
    wb_pages: u64,
    wb_rescues: u64,
    wb_queue_peak: u64,
}

/// Runs one policy/batch configuration and measures the serving core.
fn run_cell(scale: Scale, policy: EvictPolicy, batch: usize, ops: usize) -> Cell {
    let epcpp = scale.bytes(24 << 20).next_power_of_two();
    let buf = epcpp * 4;
    let cfg = SuvmConfig {
        sub_page_size: 4096, // EPC++-only rig: whole-page seals
        epcpp_bytes: epcpp,
        backing_bytes: buf * 2,
        policy,
        wb_batch: batch,
        ..SuvmConfig::default()
    };
    let m = paper_machine(scale);
    let e = m.driver.create_enclave(&m, cfg.epcpp_bytes * 2 + (8 << 20));
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let s = Suvm::new(&t0, cfg);
    let mut ctx = ThreadCtx::for_enclave(&m, &e, 0);
    ctx.enter();
    // The swapper's context lives on another core: drain cycles land on
    // its counter, not the serving thread's.
    let mut sw = ThreadCtx::for_enclave(&m, &e, 1);
    sw.enter();
    let base = s.malloc(buf);
    let pages = (buf / PAGE_SIZE) as u64;
    let addr_of = |p: u64| base + p * PAGE_SIZE as u64;

    let page = vec![0xabu8; PAGE_SIZE];
    for p in 0..pages {
        s.write(&mut ctx, addr_of(p), &page);
    }
    let mut rng = StdRng::seed_from_u64(23);
    let mut buf4k = vec![0u8; PAGE_SIZE];
    // 60/40 write/read mix: dirty victims keep the write-back path hot.
    let mut access = |s: &Suvm, ctx: &mut ThreadCtx, rng: &mut StdRng| {
        let p = rng.random_range(0..pages);
        if rng.random_range(0..10) < 6 {
            s.write(ctx, addr_of(p), &page);
        } else {
            s.read(ctx, addr_of(p), &mut buf4k);
        }
    };
    for _ in 0..ops / 4 {
        access(&s, &mut ctx, &mut rng);
    }
    if batch > 0 {
        s.swapper_tick(&mut sw);
    }
    m.reset_counters();
    let s0 = m.stats.snapshot();
    let c0 = ctx.now();
    for i in 0..ops {
        access(&s, &mut ctx, &mut rng);
        if batch > 0 && i % TICK_EVERY == TICK_EVERY - 1 {
            s.swapper_tick(&mut sw);
        }
    }
    let cycles = ctx.now() - c0;
    let d = m.stats.snapshot() - s0;
    ctx.exit();
    sw.exit();
    Cell {
        policy: policy.label(),
        batch,
        cycles_per_op: cycles as f64 / ops as f64,
        major_faults: d.suvm_major_faults,
        evictions: d.suvm_evictions,
        wb_pages: d.suvm_wb_pages,
        wb_rescues: d.suvm_wb_rescues,
        wb_queue_peak: d.suvm_wb_queue_peak,
    }
}

/// Runs the sweep and prints a table. `quick` trims the batch axis
/// for CI smoke runs.
///
/// # Panics
/// Panics — so `repro` exits non-zero — when a batch >= 8 cell does
/// not beat its policy's inline cell, the claim the header prints.
pub fn run(scale: Scale, quick: bool) {
    header(
        "paging_bench",
        "eviction policy x write-back batch, dirty-heavy 4x EPC++",
        "batched async write-back amortizes GCM setup: batch>=8 beats inline eviction",
    );
    let policies = [EvictPolicy::Clock, EvictPolicy::Fifo];
    let batches: &[usize] = if quick { &[0, 8] } else { &[0, 4, 8, 16] };
    let ops = scale.ops(if quick { 8_000 } else { 20_000 });
    println!(
        "   {:<7} {:>5} {:>12} {:>9} {:>8} {:>8} {:>9} {:>8} {:>9}",
        "policy",
        "batch",
        "cycles/op",
        "vs inl.",
        "faults",
        "evict",
        "wb_pages",
        "rescue",
        "wb_peak"
    );
    let mut losers: Vec<String> = Vec::new();
    for policy in policies {
        let mut inline_cpo = 0.0f64;
        for &batch in batches {
            let c = run_cell(scale, policy, batch, ops);
            if batch == 0 {
                inline_cpo = c.cycles_per_op;
            }
            println!(
                "   {:<7} {:>5} {:>12.0} {:>9} {:>8} {:>8} {:>9} {:>8} {:>9}",
                c.policy,
                c.batch,
                c.cycles_per_op,
                x(inline_cpo / c.cycles_per_op),
                c.major_faults,
                c.evictions,
                c.wb_pages,
                c.wb_rescues,
                c.wb_queue_peak
            );
            if batch >= 8 && c.cycles_per_op >= inline_cpo {
                losers.push(format!("{} batch {batch}", c.policy));
            }
        }
    }

    assert!(
        losers.is_empty(),
        "cells that do not beat their policy's inline eviction: {losers:?}"
    );
}
