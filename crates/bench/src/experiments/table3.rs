//! Table 3: direct sub-page backing-store access vs EPC++ page-cache
//! access, for short random reads without locality — and the
//! per-access choice between them beside the paper's two columns.

use eleos_core::{Access, Suvm};
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::costs::PAGE_SIZE;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::harness::{header, paper_machine, paper_suvm_config, Scale};

/// Access sizes swept (bytes). Sub-pages are 1 KiB, pages 4 KiB, as in
/// the paper's §6.1.2.
const SIZES: [usize; 4] = [16, 256, 2048, 4096];

fn one_mode(scale: Scale, buf_bytes: usize, size: usize, n: usize, access: Access) -> f64 {
    let m = paper_machine(scale);
    let e = m
        .driver
        .create_enclave(&m, scale.bytes(70 << 20) * 2 + (16 << 20));
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    // Only the instances that bypass EPC++ seal sub-pages; the EPC++
    // baseline uses whole-page seals (one tag per page), as in the
    // paper's comparison.
    let mut cfg = paper_suvm_config(scale, buf_bytes);
    if access != Access::Cached {
        cfg.sub_page_size = 1024;
    }
    let suvm = Suvm::new(&t0, cfg);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let sva = suvm.malloc(buf_bytes);
    // Populate: every page gets written, so evictions seal it (as
    // sub-pages) into the backing store.
    let page = vec![3u8; PAGE_SIZE];
    for off in (0..buf_bytes).step_by(PAGE_SIZE) {
        suvm.write(&mut t, sva + off as u64, &page);
    }
    // Drain the populate-phase dirty pages so the measured phase sees
    // the read-only steady state (clean evictions only).
    while suvm.evict_one(&mut t) {}
    let mut rng = StdRng::seed_from_u64(23);
    let slots = (buf_bytes / size) as u64;
    let mut buf = vec![0u8; size];
    // Warm pass.
    for _ in 0..n / 4 {
        let off = rng.random_range(0..slots) * size as u64;
        suvm.span(sva + off, access).read(&mut t, &mut buf);
    }
    m.reset_counters();
    let mut rng = StdRng::seed_from_u64(29);
    let c0 = t.now();
    for _ in 0..n {
        let off = rng.random_range(0..slots) * size as u64;
        suvm.span(sva + off, access).read(&mut t, &mut buf);
    }
    let per = (t.now() - c0) as f64 / n as f64;
    t.exit();
    per
}

/// Runs Table 3.
pub fn run(scale: Scale) {
    header(
        "table3",
        "direct access (1KB sub-pages) vs EPC++ (4KB pages), random reads",
        "+58% @16B, +41% @256B, -3% @2KB, -17% @4KB",
    );
    let buf = scale.bytes(200 << 20);
    let n = scale.ops(40_000);
    println!(
        "   {:<12} {:>14} {:>14} {:>10} {:>16}",
        "bytes/access", "epc++ c/acc", "direct c/acc", "speedup", "adaptive c/acc"
    );
    for size in SIZES {
        let epcpp = one_mode(scale, buf, size, n, Access::Cached);
        let direct = one_mode(scale, buf, size, n, Access::Direct);
        let adaptive = one_mode(scale, buf, size, n, Access::Adaptive);
        println!(
            "   {:<12} {:>14.0} {:>14.0} {:>9.0}% {:>16.0}",
            size,
            epcpp,
            direct,
            100.0 * (epcpp - direct) / epcpp,
            adaptive
        );
    }
}
