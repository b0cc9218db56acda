//! Figure 7 and Table 2: SUVM vs native SGX paging under page-fault
//! intensive random access, single- and multi-threaded.

use std::sync::Arc;

use eleos_core::{Suvm, SuvmConfig};
use eleos_enclave::enclave::Enclave;
use eleos_enclave::machine::SgxMachine;
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::costs::PAGE_SIZE;
use eleos_sim::stats::StatsSnapshot;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::harness::{header, kops, paper_machine, paper_suvm_config, throughput, x, Scale};

/// Which paging system serves the buffer.
enum Backend {
    Sgx(Arc<Enclave>, u64),
    Suvm(Arc<Enclave>, Arc<Suvm>, u64),
}

struct RunOut {
    ops: u64,
    max_cycles: u64,
    stats: StatsSnapshot,
}

/// Runs `threads` workers doing 4 KiB random accesses over the buffer.
fn random_access(
    m: &Arc<SgxMachine>,
    backend: &Backend,
    buf_bytes: usize,
    ops_per_thread: usize,
    threads: usize,
    write: bool,
    warm: bool,
) -> RunOut {
    let pages = (buf_bytes / PAGE_SIZE) as u64;
    let run_phase = |measure: bool, ops: usize| -> RunOut {
        let mut handles = Vec::new();
        for th in 0..threads {
            let m = Arc::clone(m);
            let (enclave, suvm, base) = match backend {
                Backend::Sgx(e, b) => (Arc::clone(e), None, *b),
                Backend::Suvm(e, s, b) => (Arc::clone(e), Some(Arc::clone(s)), *b),
            };
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + th as u64 + if measure { 7 } else { 0 });
                let mut ctx = ThreadCtx::for_enclave(&m, &enclave, th);
                ctx.enter();
                let mut buf = vec![0u8; PAGE_SIZE];
                for _ in 0..ops {
                    let page = rng.random_range(0..pages);
                    let addr = base + page * PAGE_SIZE as u64;
                    match (&suvm, write) {
                        (Some(s), false) => s.read(&mut ctx, addr, &mut buf),
                        (Some(s), true) => s.write(&mut ctx, addr, &buf),
                        (None, false) => ctx.read_enclave(addr, &mut buf),
                        (None, true) => ctx.write_enclave(addr, &buf),
                    }
                }
                ctx.exit();
                ctx.now()
            }));
        }
        let cycles: Vec<u64> = handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect();
        RunOut {
            ops: (ops * threads) as u64,
            max_cycles: cycles.into_iter().max().unwrap_or(1),
            stats: m.stats.snapshot(),
        }
    };

    if warm {
        run_phase(false, ops_per_thread / 4 + 16);
    }
    m.reset_counters();
    let s0 = m.stats.snapshot();
    let mut out = run_phase(true, ops_per_thread);
    out.stats = out.stats - s0;
    out
}

fn build_sgx(m: &Arc<SgxMachine>, buf_bytes: usize) -> Backend {
    let e = m.driver.create_enclave(m, buf_bytes + (16 << 20));
    let base = e.alloc(buf_bytes);
    Backend::Sgx(e, base)
}

/// Writes every page once so all later faults go through the sealed
/// path (the paper accesses an initialized array).
fn populate(m: &Arc<SgxMachine>, backend: &Backend, buf_bytes: usize) {
    let page = vec![0x6eu8; PAGE_SIZE];
    match backend {
        Backend::Sgx(e, base) => {
            let mut ctx = ThreadCtx::for_enclave(m, e, 0);
            ctx.enter();
            for off in (0..buf_bytes).step_by(PAGE_SIZE) {
                ctx.write_enclave(base + off as u64, &page);
            }
            ctx.exit();
        }
        Backend::Suvm(e, s, base) => {
            let mut ctx = ThreadCtx::for_enclave(m, e, 0);
            ctx.enter();
            for off in (0..buf_bytes).step_by(PAGE_SIZE) {
                s.write(&mut ctx, base + off as u64, &page);
            }
            ctx.exit();
        }
    }
}

fn build_suvm(
    m: &Arc<SgxMachine>,
    scale: Scale,
    buf_bytes: usize,
    cfg: Option<SuvmConfig>,
) -> Backend {
    // The enclave itself stays small: EPC++ plus headroom, so the
    // hardware never pages (that is SUVM's job).
    let cfg = cfg.unwrap_or_else(|| paper_suvm_config(scale, buf_bytes));
    let e = m.driver.create_enclave(m, cfg.epcpp_bytes * 2 + (8 << 20));
    let t = ThreadCtx::for_enclave(m, &e, 0);
    let s = Suvm::new(&t, cfg);
    let base = s.malloc(buf_bytes);
    Backend::Suvm(e, s, base)
}

/// Runs Figure 7a (1 thread) or 7b (4 threads).
pub fn run_fig7(scale: Scale, threads: usize) {
    let id = if threads == 1 { "fig7a" } else { "fig7b" };
    let policy = SuvmConfig::default().policy.label();
    header(
        id,
        &format!(
            "SUVM speedup over SGX paging, 4K random accesses, {threads} thread(s), \
             {policy} eviction"
        ),
        "reads up to ~5.5x, writes ~3x; speedup higher with 4 threads (no shootdowns)",
    );
    let sizes_mb = [60usize, 100, 200, 400, 800, 1600];
    let ops = scale.ops(100_000) / threads;
    println!(
        "   {:<10} {:>6} {:>12} {:>12} {:>9} {:>12} {:>12}",
        "buffer", "op", "sgx acc/s", "suvm acc/s", "speedup", "sgx faults", "suvm faults"
    );
    for mb in sizes_mb {
        let buf = scale.bytes(mb << 20);
        // One machine+backend per paging system, populated once and
        // reused for the read and write passes.
        let mut results = Vec::new();
        for suvm in [false, true] {
            let m = paper_machine(scale);
            let backend = if suvm {
                build_suvm(&m, scale, buf, None)
            } else {
                build_sgx(&m, buf)
            };
            populate(&m, &backend, buf);
            let mut per_op = Vec::new();
            for write in [false, true] {
                let out = random_access(&m, &backend, buf, ops, threads, write, true);
                let thr = throughput(out.ops, out.max_cycles, PAGE_SIZE as u64, None);
                let faults = if suvm {
                    out.stats.suvm_major_faults
                } else {
                    out.stats.hw_faults
                };
                per_op.push((thr, faults));
            }
            results.push(per_op);
        }
        for (i, write) in [false, true].into_iter().enumerate() {
            println!(
                "   {:<10} {:>6} {:>12} {:>12} {:>9} {:>12} {:>12}",
                format!("{mb}MB"),
                if write { "write" } else { "read" },
                kops(results[0][i].0),
                kops(results[1][i].0),
                x(results[1][i].0 / results[0][i].0),
                results[0][i].1,
                results[1][i].1
            );
        }
    }
}

/// Runs Table 2: IPIs and faults, SGX vs SUVM, 1 vs 4 threads.
pub fn run_table2(scale: Scale) {
    header(
        "table2",
        "IPIs and page faults: 4K random reads from a 200MB buffer",
        "SGX: ~50k IPIs (1 thr) growing to ~78k (4 thr); SUVM: ~100 IPIs; \
         SGX ~116k faults vs SUVM ~151k faults",
    );
    let buf = scale.bytes(200 << 20);
    println!(
        "   {:<8} {:>10} {:>12} {:>10} {:>12} {:>9}",
        "threads", "sgx IPIs", "sgx faults", "suvm IPIs", "suvm faults", "speedup"
    );
    for threads in [1usize, 4] {
        let ops = scale.ops(100_000) / threads;
        let mut rows = Vec::new();
        for suvm in [false, true] {
            let m = paper_machine(scale);
            let backend = if suvm {
                build_suvm(&m, scale, buf, None)
            } else {
                build_sgx(&m, buf)
            };
            let out = random_access(&m, &backend, buf, ops, threads, false, true);
            let thr = throughput(out.ops, out.max_cycles, PAGE_SIZE as u64, None);
            let faults = if suvm {
                out.stats.suvm_major_faults
            } else {
                out.stats.hw_faults
            };
            rows.push((out.stats.ipis, faults, thr));
        }
        println!(
            "   {:<8} {:>10} {:>12} {:>10} {:>12} {:>9}",
            threads,
            rows[0].0,
            rows[0].1,
            rows[1].0,
            rows[1].1,
            x(rows[1].2 / rows[0].2)
        );
    }
}
