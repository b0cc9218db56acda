//! Figure 9: coordinated EPC++ allocation across enclaves. Two
//! enclaves share the PRM; a correctly ballooned EPC++ avoids hardware
//! thrashing, an oversized one causes it.

use std::sync::Arc;

use eleos_core::{Suvm, SuvmConfig};
use eleos_enclave::machine::SgxMachine;
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::costs::PAGE_SIZE;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::harness::{header, kops, paper_machine, paper_suvm_config, throughput, x, Scale};

enum Cfg {
    Sgx,
    Suvm { epcpp_bytes: usize, balloon: bool },
}

/// Two enclaves, each with one thread doing 4 KiB random reads over
/// its own `buf_bytes` array; returns combined throughput.
fn two_enclaves(scale: Scale, cfg: &Cfg, buf_bytes: usize, ops: usize) -> (f64, u64) {
    let m: Arc<SgxMachine> = paper_machine(scale);
    let mut handles = Vec::new();
    for idx in 0..2usize {
        let m = Arc::clone(&m);
        let (epcpp, balloon, sgx) = match cfg {
            Cfg::Sgx => (0, false, true),
            Cfg::Suvm {
                epcpp_bytes,
                balloon,
            } => (*epcpp_bytes, *balloon, false),
        };
        handles.push(std::thread::spawn(move || {
            let pages = (buf_bytes / PAGE_SIZE) as u64;
            let mut rng = StdRng::seed_from_u64(idx as u64 + 5);
            if sgx {
                let e = m.driver.create_enclave(&m, buf_bytes + (16 << 20));
                let mut ctx = ThreadCtx::for_enclave(&m, &e, idx);
                ctx.enter();
                let base = e.alloc(buf_bytes);
                let mut buf = vec![0u8; PAGE_SIZE];
                for _ in 0..ops {
                    let p = rng.random_range(0..pages);
                    ctx.read_enclave(base + p * PAGE_SIZE as u64, &mut buf);
                }
                ctx.exit();
                (ctx.now(), 0u64)
            } else {
                let cfg = SuvmConfig {
                    epcpp_bytes: epcpp,
                    ..paper_suvm_config(scale, buf_bytes)
                };
                let e = m.driver.create_enclave(&m, cfg.epcpp_bytes * 2 + (8 << 20));
                let t0 = ThreadCtx::for_enclave(&m, &e, idx);
                let s = Suvm::new(&t0, cfg);
                let mut ctx = ThreadCtx::for_enclave(&m, &e, idx);
                ctx.enter();
                let base = s.malloc(buf_bytes);
                let mut buf = vec![0u8; PAGE_SIZE];
                for i in 0..ops {
                    if balloon && i % 512 == 0 {
                        // The swapper applies the driver's share.
                        s.swapper_tick(&mut ctx);
                    }
                    let p = rng.random_range(0..pages);
                    s.read(&mut ctx, base + p * PAGE_SIZE as u64, &mut buf);
                }
                ctx.exit();
                (ctx.now(), s.major_faults())
            }
        }));
    }
    let results: Vec<(u64, u64)> = handles
        .into_iter()
        .map(|h| h.join().expect("enclave thread"))
        .collect();
    let max = results.iter().map(|r| r.0).max().unwrap_or(1);
    let _suvm_faults: u64 = results.iter().map(|r| r.1).sum();
    let hw_faults = m.stats.snapshot().hw_faults;
    (
        throughput(2 * ops as u64, max, PAGE_SIZE as u64, None),
        hw_faults,
    )
}

/// Runs Figure 9.
pub fn run(scale: Scale) {
    let policy = SuvmConfig::default().policy.label();
    header(
        "fig9",
        &format!("two enclaves: EPC++ sizing vs PRM share (93MB total), {policy} eviction"),
        "misconfigured EPC++ (50MB each) up to 3.4x slower than correct (30MB each); \
         ballooning (our swapper) recovers the correct size automatically",
    );
    // Correct: two 30MB EPC++ fit the PRM. Incorrect: two oversize
    // EPC++ pools overcommit it (the paper's 50MB each, plus enclave
    // code/heap/metadata, exceeds 93MB; we oversize the pool itself so
    // the same overcommit holds at every scale).
    let correct = scale.bytes(30 << 20);
    let incorrect = scale.bytes(70 << 20);
    let ops = scale.ops(40_000);
    println!(
        "   {:<10} {:>12} {:>14} {:>16} {:>14}",
        "array", "sgx", "suvm-correct", "suvm-misconfig", "suvm-balloon"
    );
    for mb in [40usize, 60, 80] {
        let buf = scale.bytes(mb << 20);
        let (t_sgx, _) = two_enclaves(scale, &Cfg::Sgx, buf, ops);
        let (t_ok, f_ok) = two_enclaves(
            scale,
            &Cfg::Suvm {
                epcpp_bytes: correct,
                balloon: false,
            },
            buf,
            ops,
        );
        let (t_bad, f_bad) = two_enclaves(
            scale,
            &Cfg::Suvm {
                epcpp_bytes: incorrect,
                balloon: false,
            },
            buf,
            ops,
        );
        let (t_fix, _) = two_enclaves(
            scale,
            &Cfg::Suvm {
                epcpp_bytes: incorrect,
                balloon: true,
            },
            buf,
            ops,
        );
        println!(
            "   {:<10} {:>12} {:>14} {:>9} ({:>4}) {:>14}",
            format!("{mb}MB x2"),
            kops(t_sgx),
            kops(t_ok),
            kops(t_bad),
            x(t_ok / t_bad),
            kops(t_fix)
        );
        let _ = (f_ok, f_bad);
    }
}
