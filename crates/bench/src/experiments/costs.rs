//! Direct-cost microbenchmarks (paper §2.2, §2.3 and §6.1.2): the
//! cycle costs of SGX transitions and of hardware vs SUVM page faults,
//! re-measured inside the simulator and compared with the paper.

use eleos_core::{Suvm, SuvmConfig};
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::costs::PAGE_SIZE;

use crate::harness::{header, paper_machine, Scale};

/// Runs and prints all cost microbenchmarks.
pub fn run(scale: Scale) {
    header(
        "costs",
        "direct costs of SGX transitions and page faults",
        "EEXIT+EENTER ~7,100; OCALL ~8,000; syscall ~250; hw fault ~40,000; \
         SUVM fault ~8,500 (read) / ~14,000 (write) cycles",
    );
    let m = paper_machine(scale);
    let e = m.driver.create_enclave(&m, 64 << 20);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);

    // Enter/exit pair.
    let c0 = t.now();
    let iters = 100;
    for _ in 0..iters {
        t.enter();
        t.exit();
    }
    let roundtrip = (t.now() - c0) / iters;

    // OCALL.
    t.enter();
    let c0 = t.now();
    for _ in 0..iters {
        t.ocall(|_| ());
    }
    let ocall = (t.now() - c0) / iters;
    t.exit();

    // Plain syscall (recv on an empty socket).
    let fd = m.host.socket(&t, 4096);
    let buf = m.alloc_untrusted(64);
    let c0 = t.now();
    for _ in 0..iters {
        let _ = m.host.recv(&mut t, fd, buf, 64);
    }
    let syscall = (t.now() - c0) / iters;

    // Hardware fault, steady state (random sweep beyond EPC).
    let pages = (m.cfg.epc_bytes / PAGE_SIZE) * 2;
    let e2 = m.driver.create_enclave(&m, pages * PAGE_SIZE * 2);
    let mut t = ThreadCtx::for_enclave(&m, &e2, 0);
    t.enter();
    let base = e2.alloc(pages * PAGE_SIZE);
    for p in 0..pages as u64 {
        t.write_enclave(base + p * PAGE_SIZE as u64, &[1u8; 8]);
    }
    let s0 = m.stats.snapshot();
    let c0 = t.now();
    for p in 0..pages as u64 {
        let mut b = [0u8; 8];
        t.read_enclave(base + p * PAGE_SIZE as u64, &mut b);
    }
    let d = m.stats.snapshot() - s0;
    let hw_fault = (t.now() - c0) / d.hw_faults.max(1);
    t.exit();

    // SUVM faults (read-only and write steady states).
    let e3 = m.driver.create_enclave(&m, 64 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e3, 0);
    let suvm = Suvm::new(
        &t0,
        SuvmConfig {
            sub_page_size: PAGE_SIZE, // EPC++-only rig: whole-page seals
            epcpp_bytes: 64 * PAGE_SIZE,
            backing_bytes: 4 << 20,
            ..SuvmConfig::default()
        },
    );
    let mut t = ThreadCtx::for_enclave(&m, &e3, 0);
    t.enter();
    let n_pages = 256u64;
    let a = suvm.malloc((n_pages as usize) * PAGE_SIZE);
    for p in 0..n_pages {
        suvm.write(&mut t, a + p * PAGE_SIZE as u64, &[1u8; PAGE_SIZE]);
    }
    // Read steady state.
    for p in 0..n_pages {
        let mut b = [0u8; 8];
        suvm.read(&mut t, a + p * PAGE_SIZE as u64, &mut b);
    }
    let s0 = m.stats.snapshot();
    let c0 = t.now();
    for p in 0..n_pages {
        let mut b = [0u8; 8];
        suvm.read(&mut t, a + p * PAGE_SIZE as u64, &mut b);
    }
    let d = m.stats.snapshot() - s0;
    let suvm_read = (t.now() - c0) / d.suvm_major_faults.max(1);

    for p in 0..n_pages {
        suvm.write(&mut t, a + p * PAGE_SIZE as u64, &[2u8; 8]);
    }
    let s0 = m.stats.snapshot();
    let c0 = t.now();
    for p in 0..n_pages {
        suvm.write(&mut t, a + p * PAGE_SIZE as u64, &[3u8; 8]);
    }
    let d = m.stats.snapshot() - s0;
    let suvm_write = (t.now() - c0) / d.suvm_major_faults.max(1);
    t.exit();

    println!("   {:<28} {:>10} {:>10}", "operation", "measured", "paper");
    for (name, got, paper) in [
        ("EEXIT+EENTER round trip", roundtrip, 7_100),
        ("OCALL (SDK path)", ocall, 8_000),
        ("plain syscall", syscall, 250),
        ("hw EPC fault (total)", hw_fault, 40_000),
        ("SUVM fault, read", suvm_read, 8_500),
        ("SUVM fault, write", suvm_write, 14_000),
    ] {
        println!("   {name:<28} {got:>10} {paper:>10}");
    }
    println!(
        "   hw/SUVM fault ratio: read {:.1}x, write {:.1}x (paper: ~5x / ~3x)",
        hw_fault as f64 / suvm_read as f64,
        hw_fault as f64 / suvm_write as f64
    );
}
