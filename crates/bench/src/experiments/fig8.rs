//! Figure 8: spointer overhead for page-fault-free accesses — the
//! cost of software address translation when the data is resident.

use eleos_core::{SPtr, Suvm, SuvmConfig};
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::costs::PAGE_SIZE;

use crate::harness::{header, paper_machine, Scale};

/// Element sizes swept (bytes).
const SIZES: [usize; 5] = [8, 64, 256, 1024, 4096];

fn measure(scale: Scale, array_bytes: usize) {
    let m = paper_machine(scale);
    let e = m.driver.create_enclave(&m, array_bytes * 4 + (16 << 20));
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    // EPC++ sized to hold the whole array: no major faults after the
    // prefetch pass.
    let suvm = Suvm::new(
        &t0,
        SuvmConfig {
            sub_page_size: 4096, // EPC++-only rig: whole-page seals
            epcpp_bytes: (array_bytes * 2).next_power_of_two(),
            backing_bytes: (array_bytes * 2).next_power_of_two(),
            ..SuvmConfig::default()
        },
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let sva = suvm.malloc(array_bytes);
    // Prefetch the array into EPC++. The plain-access baseline reads
    // the EPC++ region itself — the very same resident enclave pages,
    // minus the spointer machinery — so the two passes are physically
    // identical.
    let page = vec![1u8; PAGE_SIZE];
    for off in (0..array_bytes).step_by(PAGE_SIZE) {
        suvm.write(&mut t, sva + off as u64, &page);
    }
    let (plain, _) = suvm.epcpp_span();

    println!(
        "   {:<8} {:>7} {:>12} {:>12} {:>10}",
        "size", "op", "sptr c/el", "plain c/el", "overhead"
    );
    for size in SIZES {
        for write in [false, true] {
            let n = (array_bytes / size).min(scale.ops(200_000));
            let mut buf = vec![0u8; size];
            // Spointer pass: sequential elements, linked fast path,
            // one link per page. Lap 0 warms the LLC into this
            // pattern's steady state; lap 1 is measured.
            let mut sptr = 0.0;
            for lap in 0..2 {
                let mut p: SPtr<u8> = SPtr::new(&suvm, sva);
                let c0 = t.now();
                for _ in 0..n {
                    if write {
                        p.set_bytes(&mut t, &buf);
                    } else {
                        p.get_bytes(&mut t, &mut buf);
                    }
                    p.add(size as u64);
                    if p.sva() + size as u64 > sva + array_bytes as u64 {
                        p = SPtr::new(&suvm, sva);
                    }
                }
                if lap == 1 {
                    sptr = (t.now() - c0) as f64 / n as f64;
                }
            }
            // Plain enclave-memory pass, same two-lap scheme.
            let mut base = 0.0;
            for lap in 0..2 {
                let mut off = 0u64;
                let c0 = t.now();
                for _ in 0..n {
                    if write {
                        t.write_enclave(plain + off, &buf);
                    } else {
                        t.read_enclave(plain + off, &mut buf);
                    }
                    off += size as u64;
                    if off + size as u64 > array_bytes as u64 {
                        off = 0;
                    }
                }
                if lap == 1 {
                    base = (t.now() - c0) as f64 / n as f64;
                }
            }
            println!(
                "   {:<8} {:>7} {:>12.1} {:>12.1} {:>9.1}%",
                size,
                if write { "write" } else { "read" },
                sptr,
                base,
                100.0 * (sptr - base) / base
            );
        }
    }
    t.exit();
}

/// Runs Figure 8a: the array fits in the LLC (the worst case for
/// spointers — cheap accesses make the translation relatively big).
pub fn run_8a(scale: Scale) {
    header(
        "fig8a",
        "spointer overhead, fault-free, data in LLC (2MB)",
        "up to ~22% (reads) / ~25% (writes) over plain accesses",
    );
    measure(scale, scale.bytes(2 << 20));
}

/// Runs Figure 8b: the array fits in PRM but not the LLC.
pub fn run_8b(scale: Scale) {
    header(
        "fig8b",
        "spointer overhead, fault-free, data in PRM (60MB)",
        "below ~20% once LLC misses dominate",
    );
    measure(scale, scale.bytes(60 << 20));
}
