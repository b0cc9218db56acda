//! Ablations of the design choices DESIGN.md calls out, beyond the
//! paper's headline figures.

use eleos_core::{Suvm, SuvmConfig};
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::costs::PAGE_SIZE;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::harness::{header, kops, paper_machine, paper_suvm_config, throughput, x, Scale};

fn random_read_run(scale: Scale, cfg: SuvmConfig, buf_bytes: usize, ops: usize) -> (f64, u64, u64) {
    let m = paper_machine(scale);
    let e = m.driver.create_enclave(&m, cfg.epcpp_bytes * 2 + (8 << 20));
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let s = Suvm::new(&t0, cfg);
    let mut ctx = ThreadCtx::for_enclave(&m, &e, 0);
    ctx.enter();
    let base = s.malloc(buf_bytes);
    let pages = (buf_bytes / PAGE_SIZE) as u64;
    // Populate so evictions have real content.
    let page = vec![9u8; PAGE_SIZE];
    for p in 0..pages {
        s.write(&mut ctx, base + p * PAGE_SIZE as u64, &page);
    }
    let mut rng = StdRng::seed_from_u64(3);
    let mut buf = vec![0u8; PAGE_SIZE];
    for _ in 0..ops / 4 {
        let p = rng.random_range(0..pages);
        s.read(&mut ctx, base + p * PAGE_SIZE as u64, &mut buf);
    }
    m.reset_counters();
    let s0 = m.stats.snapshot();
    let c0 = ctx.now();
    for _ in 0..ops {
        let p = rng.random_range(0..pages);
        s.read(&mut ctx, base + p * PAGE_SIZE as u64, &mut buf);
    }
    let d = m.stats.snapshot() - s0;
    let thr = throughput(ops as u64, ctx.now() - c0, PAGE_SIZE as u64, None);
    ctx.exit();
    (thr, d.suvm_major_faults, d.hw_faults)
}

/// Clean-page write-back elision on/off (§3.2.4: "up to 1.7x").
pub fn run_clean_skip(scale: Scale) {
    header(
        "ablate_clean",
        "clean-page write-back elision (read-dominated, 200MB buffer)",
        "skipping the write-back of clean pages boosts reads up to ~1.7x",
    );
    let buf = scale.bytes(200 << 20);
    let ops = scale.ops(40_000);
    let (on, _, _) = random_read_run(scale, paper_suvm_config(scale, buf), buf, ops);
    let (off, _, _) = random_read_run(
        scale,
        SuvmConfig {
            clean_skip: false,
            ..paper_suvm_config(scale, buf)
        },
        buf,
        ops,
    );
    println!(
        "   elision on {:>10}/s   off {:>10}/s   gain {}",
        kops(on),
        kops(off),
        x(on / off)
    );
}

/// Sub-page size sweep for 16-byte direct reads.
pub fn run_subpage_sweep(scale: Scale) {
    header(
        "ablate_subpage",
        "direct-access sub-page size for 16B random reads",
        "smaller sub-pages cost less crypto per access but more metadata/tags",
    );
    let buf = scale.bytes(100 << 20);
    let ops = scale.ops(20_000);
    println!("   {:<10} {:>14}", "sub-page", "cycles/access");
    for sub in [256usize, 512, 1024, 2048] {
        let m = paper_machine(scale);
        let cfg = SuvmConfig {
            sub_page_size: sub,
            ..paper_suvm_config(scale, buf)
        };
        let e = m.driver.create_enclave(&m, cfg.epcpp_bytes * 2 + (8 << 20));
        let t0 = ThreadCtx::for_enclave(&m, &e, 0);
        let s = Suvm::new(&t0, cfg);
        let mut ctx = ThreadCtx::for_enclave(&m, &e, 0);
        ctx.enter();
        let base = s.malloc(buf);
        let pages = (buf / PAGE_SIZE) as u64;
        let page = vec![5u8; PAGE_SIZE];
        for p in 0..pages {
            s.write(&mut ctx, base + p * PAGE_SIZE as u64, &page);
        }
        // Push everything out so direct reads hit the backing store.
        while s.evict_one(&mut ctx) {}
        let mut rng = StdRng::seed_from_u64(11);
        let mut buf16 = [0u8; 16];
        m.reset_counters();
        let c0 = ctx.now();
        for _ in 0..ops {
            let off = rng.random_range(0..(buf as u64 - 16) / 16) * 16;
            s.read_direct(&mut ctx, base + off, &mut buf16);
        }
        println!(
            "   {:<10} {:>14.0}",
            sub,
            (ctx.now() - c0) as f64 / ops as f64
        );
        ctx.exit();
    }
}

/// Key-distribution ablation: production KVS traffic is skewed, and a
/// skewed stream lets EPC++ capture the hot head — the SUVM advantage
/// over "every access faults" grows with the skew.
pub fn run_zipf_sweep(scale: Scale) {
    use eleos_apps::loadgen::Zipf;
    header(
        "ablate_zipf",
        "key-distribution skew vs SUVM fault rate (200MB working set)",
        "uniform traffic faults on most accesses; Zipf(0.99) mostly hits EPC++",
    );
    let buf = scale.bytes(200 << 20);
    let ops = scale.ops(40_000);
    println!(
        "   {:<14} {:>12} {:>12} {:>10}",
        "distribution", "reads/s", "suvm faults", "fault rate"
    );
    for (name, alpha) in [
        ("uniform", 0.0),
        ("zipf(0.6)", 0.6),
        ("zipf(0.99)", 0.99),
        ("zipf(1.2)", 1.2),
    ] {
        let m = paper_machine(scale);
        let cfg = paper_suvm_config(scale, buf);
        let e = m.driver.create_enclave(&m, cfg.epcpp_bytes * 2 + (8 << 20));
        let t0 = ThreadCtx::for_enclave(&m, &e, 0);
        let s = Suvm::new(&t0, cfg);
        let mut ctx = ThreadCtx::for_enclave(&m, &e, 0);
        ctx.enter();
        let base = s.malloc(buf);
        let pages = (buf / PAGE_SIZE) as u64;
        let zipf = Zipf::new(pages as usize, alpha);
        let page = vec![9u8; PAGE_SIZE];
        for p in 0..pages {
            s.write(&mut ctx, base + p * PAGE_SIZE as u64, &page);
        }
        let mut rng = StdRng::seed_from_u64(41);
        let mut buf4k = vec![0u8; PAGE_SIZE];
        for _ in 0..ops / 4 {
            let p = zipf.sample(&mut rng) as u64;
            s.read(&mut ctx, base + p * PAGE_SIZE as u64, &mut buf4k);
        }
        m.reset_counters();
        let s0 = m.stats.snapshot();
        let c0 = ctx.now();
        for _ in 0..ops {
            let p = zipf.sample(&mut rng) as u64;
            s.read(&mut ctx, base + p * PAGE_SIZE as u64, &mut buf4k);
        }
        let d = m.stats.snapshot() - s0;
        println!(
            "   {:<14} {:>12} {:>12} {:>9.0}%",
            name,
            kops(throughput(
                ops as u64,
                ctx.now() - c0,
                PAGE_SIZE as u64,
                None
            )),
            d.suvm_major_faults,
            100.0 * d.suvm_major_faults as f64 / ops as f64
        );
        ctx.exit();
    }
}

/// Eviction-policy ablation: the paper's §3.2.2 promise that user code
/// controls the eviction policy, exercised on a hot/cold mix where
/// reuse matters.
pub fn run_policy_sweep(scale: Scale) {
    use eleos_core::EvictPolicy;
    header(
        "ablate_policy",
        "EPC++ eviction policy on a 60/40 hot/cold random-read mix",
        "recency-aware CLOCK retains the hot set; FIFO churns it",
    );
    let buf = scale.bytes(200 << 20);
    let ops = scale.ops(40_000);
    println!(
        "   {:<12} {:>12} {:>12}",
        "policy", "reads/s", "suvm faults"
    );
    for policy in [EvictPolicy::Clock, EvictPolicy::Fifo] {
        let m = paper_machine(scale);
        let cfg = SuvmConfig {
            policy,
            ..paper_suvm_config(scale, buf)
        };
        let e = m.driver.create_enclave(&m, cfg.epcpp_bytes * 2 + (8 << 20));
        let t0 = ThreadCtx::for_enclave(&m, &e, 0);
        let s = Suvm::new(&t0, cfg);
        let mut ctx = ThreadCtx::for_enclave(&m, &e, 0);
        ctx.enter();
        let base = s.malloc(buf);
        let pages = (buf / PAGE_SIZE) as u64;
        let hot_pages = (s.frame_limit() as u64 * 7 / 10).max(1);
        let page = vec![9u8; PAGE_SIZE];
        for p in 0..pages {
            s.write(&mut ctx, base + p * PAGE_SIZE as u64, &page);
        }
        let mut rng = StdRng::seed_from_u64(31);
        let mut buf4k = vec![0u8; PAGE_SIZE];
        let mut access = |s: &Suvm, ctx: &mut ThreadCtx, rng: &mut StdRng| {
            let p = if rng.random_range(0..10) < 6 {
                rng.random_range(0..hot_pages)
            } else {
                rng.random_range(0..pages)
            };
            s.read(ctx, base + p * PAGE_SIZE as u64, &mut buf4k);
        };
        for _ in 0..ops / 4 {
            access(&s, &mut ctx, &mut rng);
        }
        m.reset_counters();
        let s0 = m.stats.snapshot();
        let c0 = ctx.now();
        for _ in 0..ops {
            access(&s, &mut ctx, &mut rng);
        }
        let d = m.stats.snapshot() - s0;
        println!(
            "   {:<12} {:>12} {:>12}",
            policy.label(),
            kops(throughput(
                ops as u64,
                ctx.now() - c0,
                PAGE_SIZE as u64,
                None
            )),
            d.suvm_major_faults
        );
        ctx.exit();
    }
}

/// SUVM page-size sweep (§3.4: "increasing the page size may be
/// useful to reduce the memory consumption of SUVM page tables...";
/// smaller pages waste less crypto on small random accesses).
pub fn run_pagesize_sweep(scale: Scale) {
    header(
        "ablate_pagesize",
        "SUVM page size for 64B random accesses, out-of-core working set",
        "small pages fault cheaply but cache less per fault; 4KB is the paper's default",
    );
    let buf = scale.bytes(100 << 20);
    let ops = scale.ops(20_000);
    println!(
        "   {:<10} {:>14} {:>12}",
        "page size", "cycles/access", "faults"
    );
    for page_size in [1024usize, 2048, 4096, 8192, 16384] {
        let m = paper_machine(scale);
        let cfg = SuvmConfig {
            page_size,
            sub_page_size: page_size,
            ..paper_suvm_config(scale, buf)
        };
        let e = m.driver.create_enclave(&m, cfg.epcpp_bytes * 2 + (8 << 20));
        let t0 = ThreadCtx::for_enclave(&m, &e, 0);
        let s = Suvm::new(&t0, cfg);
        let mut ctx = ThreadCtx::for_enclave(&m, &e, 0);
        ctx.enter();
        let base = s.malloc(buf);
        // Populate at page granularity.
        let chunk = vec![1u8; page_size];
        for off in (0..buf).step_by(page_size) {
            s.write(&mut ctx, base + off as u64, &chunk);
        }
        let mut rng = StdRng::seed_from_u64(17);
        let mut small = [0u8; 64];
        let slots = (buf / 64) as u64;
        for _ in 0..ops / 4 {
            let off = rng.random_range(0..slots) * 64;
            s.read(&mut ctx, base + off, &mut small);
        }
        m.reset_counters();
        let st0 = m.stats.snapshot();
        let c0 = ctx.now();
        for _ in 0..ops {
            let off = rng.random_range(0..slots) * 64;
            s.read(&mut ctx, base + off, &mut small);
        }
        let d = m.stats.snapshot() - st0;
        println!(
            "   {:<10} {:>14.0} {:>12}",
            page_size,
            (ctx.now() - c0) as f64 / ops as f64,
            d.suvm_major_faults
        );
        ctx.exit();
    }
}

/// EPC++ capacity sweep for a fixed out-of-core working set.
pub fn run_epcpp_sweep(scale: Scale) {
    header(
        "ablate_epcpp",
        "EPC++ size vs throughput, 100MB random-read working set",
        "larger page caches fault less until the working set fits",
    );
    let buf = scale.bytes(100 << 20);
    let ops = scale.ops(40_000);
    println!(
        "   {:<10} {:>12} {:>12} {:>10}",
        "epc++", "reads/s", "suvm faults", "hw faults"
    );
    for mb in [15usize, 30, 45, 60, 75] {
        let cfg = SuvmConfig {
            epcpp_bytes: scale.bytes(mb << 20),
            ..paper_suvm_config(scale, buf)
        };
        let (thr, sf, hf) = random_read_run(scale, cfg, buf, ops);
        println!(
            "   {:<10} {:>12} {:>12} {:>10}",
            format!("{mb}MB"),
            kops(thr),
            sf,
            hf
        );
    }
}
