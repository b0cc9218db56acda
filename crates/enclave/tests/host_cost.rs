//! What one simulated memory touch costs the *host*, taken apart
//! (ROADMAP N6): the TLB lookup, the LLC charge of one line and of a
//! 4 KiB span, one shared-counter add and the byte copy, each timed alone on one warm machine with the e2e
//! bench's geometry. It times and checks nothing, so it is ignored by
//! default; `scripts/ci.sh` prints its table:
//!
//! ```text
//! cargo test --release -p eleos-enclave --test host_cost -- --ignored --nocapture
//! ```

use std::hint::black_box;
use std::time::Instant;

use eleos_enclave::machine::{MachineConfig, SgxMachine};
use eleos_sim::costs::{AccessKind, EPC_BASE, LINE, PAGE_SIZE};
use eleos_sim::llc::{CacheCtx, LlcConfig};
use eleos_sim::stats::Stats;

/// The e2e bench's LLC (`bench/src/workload.rs`).
const LLC_BYTES: usize = 1 << 20;

/// Median over seven rounds of `iters` calls of `f`, in ns per call,
/// after one untimed round. `f(i)` sees the same `i` every round.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    const ROUNDS: usize = 7;
    (0..iters).for_each(&mut f);
    let mut rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            (0..iters).for_each(&mut f);
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[ROUNDS / 2]
}

#[test]
#[ignore = "host timing, not a check: run with --ignored --nocapture"]
fn host_ns_per_memory_model_step() {
    let m = SgxMachine::new(MachineConfig {
        epc_bytes: (93 << 20) / 8,
        llc: LlcConfig {
            size: LLC_BYTES,
            ways: 16,
        },
        ..MachineConfig::default()
    });
    let entries = m.cfg.tlb_entries as u64;
    let mut rows: Vec<(String, f64)> = Vec::new();

    {
        let core = m.core(0);
        let mut tlb = core.tlb.lock();
        // Every access hits: the TLB holds exactly these pages.
        for vpn in 0..entries {
            tlb.access(1, vpn);
        }
        let hit = ns_per_call(64 * entries, |i| {
            assert!(tlb.access(1, black_box(i % entries)));
        });
        rows.push((format!("`Tlb::access` hit, {entries} entries"), hit));
        // Every access misses and evicts: a cyclic sweep over twice the
        // capacity always finds its page least recently used.
        let miss = ns_per_call(32 * entries, |i| {
            assert!(!tlb.access(1, black_box((1 << 20) | (i % (2 * entries)))));
        });
        rows.push((format!("`Tlb::access` miss, {entries} entries"), miss));
    }

    // One line per call, striding a page plus a line over twice the LLC
    // (the `sim.mem_access` probe's pattern) for the miss.
    let mut seq = u64::MAX - 1;
    let mut charge_line = |off: u64| {
        black_box(m.charge_mem(
            CacheCtx::Enclave,
            &mut seq,
            EPC_BASE + off,
            LINE,
            AccessKind::Read,
        ));
    };
    let hit = ns_per_call(200_000, |_| charge_line(0));
    rows.push(("`charge_mem`, one line, hit".into(), hit));
    let region = 2 * LLC_BYTES as u64 - LINE as u64;
    let s0 = m.stats.snapshot();
    let mut off = 0u64;
    let miss = ns_per_call(20_000, |_| {
        off = (off + (PAGE_SIZE + LINE) as u64) % region;
        charge_line(off);
    });
    let d = m.stats.snapshot() - s0;
    assert!(d.llc_misses >= 99 * d.llc_hits, "the sweep must miss: {d}");
    rows.push(("`charge_mem`, one line, miss".into(), miss));

    // A 4 KiB span per call: the raw page moves of SUVM's fault and
    // eviction path. The all-miss rows sweep pages over twice the LLC.
    let page = |i: u64| EPC_BASE + (i * PAGE_SIZE as u64) % (2 * LLC_BYTES as u64);
    let s0 = m.stats.snapshot();
    let miss = ns_per_call(2_000, |i| {
        m.touch_mem(CacheCtx::Enclave, page(i), PAGE_SIZE, AccessKind::Read);
    });
    let d = m.stats.snapshot() - s0;
    assert!(d.llc_misses >= 99 * d.llc_hits, "the sweep must miss: {d}");
    rows.push(("`touch_mem`, 4 KiB, all miss".into(), miss));
    let hit = ns_per_call(20_000, |_| {
        m.touch_mem(CacheCtx::Enclave, EPC_BASE, PAGE_SIZE, AccessKind::Read);
    });
    rows.push(("`touch_mem`, 4 KiB, all hit".into(), hit));
    let s0 = m.stats.snapshot();
    let miss = ns_per_call(2_000, |i| {
        black_box(m.charge_mem(
            CacheCtx::Enclave,
            &mut seq,
            page(i),
            PAGE_SIZE,
            AccessKind::Read,
        ));
    });
    let d = m.stats.snapshot() - s0;
    assert!(d.llc_misses >= 99 * d.llc_hits, "the sweep must miss: {d}");
    rows.push(("`charge_mem`, 4 KiB, all miss".into(), miss));

    for n in [1u64, 0] {
        let add = ns_per_call(1_000_000, |_| Stats::add(&m.stats.llc_hits, black_box(n)));
        rows.push((format!("`Stats::add`, n = {n}"), add));
    }

    let addr = m.alloc_untrusted(PAGE_SIZE);
    m.untrusted.write(addr, &[0x5a; PAGE_SIZE]);
    let mut buf = [0u8; 1024];
    let copy = ns_per_call(200_000, |_| m.untrusted.read(addr, black_box(&mut buf)));
    rows.push(("`PagedMem::read`, 1 KiB".into(), copy));

    println!("| step | host ns / call |");
    println!("|---|---:|");
    for (step, ns) in rows {
        println!("| {step} | {ns:.1} |");
    }
}
