//! The paper's headline claims, as executable assertions.
//!
//! Each test reconstructs one quantitative claim from Eleos (EuroSys
//! 2017) on a scaled-down machine and asserts the *shape* (ordering /
//! direction / rough magnitude). These are the guardrails that keep
//! the reproduction honest as the code evolves.

use std::sync::Arc;

use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::sim::costs::PAGE_SIZE;
use eleos::sim::llc::LlcConfig;
use eleos::suvm::{Suvm, SuvmConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A 1/16-scale paper machine.
fn machine() -> Arc<SgxMachine> {
    SgxMachine::new(MachineConfig {
        epc_bytes: 93 << 16, // 93 MiB / 16
        untrusted_bytes: 512 << 20,
        llc: LlcConfig {
            size: 8 << 16,
            ways: 16,
        },
        ..MachineConfig::default()
    })
}

fn suvm_on(m: &Arc<SgxMachine>, epcpp: usize, backing: usize) -> (Arc<Suvm>, ThreadCtx) {
    let epcpp = (epcpp / PAGE_SIZE).max(2) * PAGE_SIZE;
    let e = m.driver.create_enclave(m, epcpp * 2 + (4 << 20));
    let t0 = ThreadCtx::for_enclave(m, &e, 0);
    let s = Suvm::new(
        &t0,
        SuvmConfig {
            sub_page_size: PAGE_SIZE, // the paper's EPC++ rows seal whole pages
            epcpp_bytes: epcpp,
            backing_bytes: backing.next_power_of_two(),
            headroom_bytes: 1 << 20,
            ..SuvmConfig::default()
        },
    );
    let mut t = ThreadCtx::for_enclave(m, &e, 0);
    t.enter();
    (s, t)
}

/// Random 4 KiB reads over `buf` pages; returns cycles per access.
fn random_reads_suvm(s: &Arc<Suvm>, t: &mut ThreadCtx, base: u64, pages: u64, ops: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(5);
    let mut buf = vec![0u8; PAGE_SIZE];
    let c0 = t.now();
    for _ in 0..ops {
        let p = rng.random_range(0..pages);
        s.read(t, base + p * PAGE_SIZE as u64, &mut buf);
    }
    (t.now() - c0) as f64 / ops as f64
}

fn random_reads_hw(m: &Arc<SgxMachine>, pages: u64, ops: usize) -> f64 {
    let e = m
        .driver
        .create_enclave(m, (pages as usize) * PAGE_SIZE + (4 << 20));
    let mut t = ThreadCtx::for_enclave(m, &e, 1);
    t.enter();
    let base = e.alloc((pages as usize) * PAGE_SIZE);
    for p in 0..pages {
        t.write_enclave(base + p * PAGE_SIZE as u64, &[1u8; PAGE_SIZE]);
    }
    let mut rng = StdRng::seed_from_u64(5);
    let mut buf = vec![0u8; PAGE_SIZE];
    let c0 = t.now();
    for _ in 0..ops {
        let p = rng.random_range(0..pages);
        t.read_enclave(base + p * PAGE_SIZE as u64, &mut buf);
    }
    let per = (t.now() - c0) as f64 / ops as f64;
    t.exit();
    // Release this enclave's PRM share so later phases are not
    // throttled by a dead tenant.
    m.driver.destroy_enclave(m, &e);
    per
}

/// §1/§6.1.2: "handling EPC page faults in software inside the enclave
/// is 3× to 4× faster than SGX hardware-implemented page faults" —
/// end to end, SUVM beats hardware paging by >2× out of core.
#[test]
fn claim_suvm_beats_hardware_paging_out_of_core() {
    let m = machine();
    // Working set ~3.4x the EPC.
    let pages = (m.cfg.epc_bytes / PAGE_SIZE) as u64 * 17 / 5;
    let hw = random_reads_hw(&m, pages, 1500);

    let (s, mut t) = suvm_on(
        &m,
        m.cfg.epc_bytes * 6 / 10,
        (pages as usize) * PAGE_SIZE * 2,
    );
    let base = s.malloc((pages as usize) * PAGE_SIZE);
    for p in 0..pages {
        s.write(&mut t, base + p * PAGE_SIZE as u64, &[1u8; PAGE_SIZE]);
    }
    let sw = random_reads_suvm(&s, &mut t, base, pages, 1500);
    t.exit();
    assert!(
        hw > 2.0 * sw,
        "software paging must win by >2x out of core: hw {hw:.0} vs suvm {sw:.0} cycles/access"
    );
}

/// §2.2/§3.1: an exit-less call is several times cheaper than an
/// OCALL, whose direct cost is ~8k cycles.
#[test]
fn claim_rpc_is_several_times_cheaper_than_ocall() {
    let m = machine();
    let svc = eleos::rpc::RpcService::builder(&m)
        .register(1, eleos::rpc::UntrustedFn::new(|_c, _a| 0))
        .workers(1, &[7])
        .build();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    svc.call(&mut t, 1, [0; 4]);
    let c0 = t.now();
    for _ in 0..50 {
        svc.call(&mut t, 1, [0; 4]);
    }
    let rpc = (t.now() - c0) / 50;
    let c0 = t.now();
    for _ in 0..50 {
        t.ocall(|_| ());
    }
    let ocall = (t.now() - c0) / 50;
    t.exit();
    assert!((7_000..=9_000).contains(&ocall), "OCALL ~8k: {ocall}");
    assert!(ocall >= 4 * rpc, "rpc {rpc} vs ocall {ocall}");
}

/// Table 1: EPC LLC misses cost several times more than untrusted
/// ones, and random writes are the worst case.
#[test]
fn claim_epc_miss_premium_ordering() {
    use eleos::sim::costs::{AccessKind, CostModel, Domain};
    let c = CostModel::default();
    let u_r = c.miss_cost(Domain::Untrusted, AccessKind::Read, false);
    let e_r = c.miss_cost(Domain::Epc, AccessKind::Read, false);
    let e_ws = c.miss_cost(Domain::Epc, AccessKind::Write, true);
    let e_wr = c.miss_cost(Domain::Epc, AccessKind::Write, false);
    assert!(e_r as f64 >= 5.0 * u_r as f64);
    assert!(e_wr > e_ws, "random writes are the worst case");
    assert!(e_wr as f64 / u_r as f64 >= 8.0);
}

/// §3.2.4: clean pages skip the write-back, making read-dominated
/// paging measurably faster than with forced write-back.
#[test]
fn claim_clean_page_elision_helps_reads() {
    let m = machine();
    let pages = 1024u64;
    let run = |clean_skip: bool| {
        let e = m.driver.create_enclave(&m, 8 << 20);
        let t0 = ThreadCtx::for_enclave(&m, &e, 2);
        let s = Suvm::new(
            &t0,
            SuvmConfig {
                sub_page_size: PAGE_SIZE, // the paper's EPC++ rows seal whole pages
                epcpp_bytes: 256 * PAGE_SIZE,
                backing_bytes: 16 << 20,
                clean_skip,
                ..SuvmConfig::default()
            },
        );
        let mut t = ThreadCtx::for_enclave(&m, &e, 2);
        t.enter();
        let base = s.malloc((pages as usize) * PAGE_SIZE);
        for p in 0..pages {
            s.write(&mut t, base + p * PAGE_SIZE as u64, &[1u8; 64]);
        }
        let per = random_reads_suvm(&s, &mut t, base, pages, 1200);
        t.exit();
        per
    };
    let with = run(true);
    let without = run(false);
    assert!(
        without > 1.15 * with,
        "elision must help: {with:.0} vs {without:.0} cycles/access"
    );
}

/// §3.2.2/Fig 8: fault-free spointer accesses cost at most ~30% over
/// plain enclave accesses.
#[test]
fn claim_spointer_overhead_is_bounded() {
    use eleos::suvm::spointer::SPtr;
    let m = machine();
    let (s, mut t) = suvm_on(&m, 512 * PAGE_SIZE, 8 << 20);
    let sva = s.malloc(256 * PAGE_SIZE);
    for p in 0..256u64 {
        s.write(&mut t, sva + p * PAGE_SIZE as u64, &[1u8; PAGE_SIZE]);
    }
    let (plain_base, _) = s.epcpp_span();
    let mut buf = [0u8; 64];
    // Warm + measure spointer walk.
    for lap in 0..2 {
        let mut p: SPtr<u8> = SPtr::new(&s, sva);
        let c0 = t.now();
        for _ in 0..(256 * PAGE_SIZE / 64) {
            p.get_bytes(&mut t, &mut buf);
            p.add(64);
            if p.sva() + 64 > sva + (256 * PAGE_SIZE) as u64 {
                p = SPtr::new(&s, sva);
            }
        }
        if lap == 1 {
            let sptr = (t.now() - c0) as f64;
            // Plain pass over the same physical pages.
            let mut off = 0u64;
            let c0 = t.now();
            for _ in 0..(256 * PAGE_SIZE / 64) {
                t.read_enclave(plain_base + off, &mut buf);
                off = (off + 64) % (256 * PAGE_SIZE) as u64;
            }
            let plain = (t.now() - c0) as f64;
            let overhead = (sptr - plain) / plain;
            assert!(
                overhead < 0.30 && overhead > -0.05,
                "spointer overhead {:.1}% out of Fig 8's envelope",
                100.0 * overhead
            );
        }
    }
    t.exit();
}

/// §6.1.2/Fig 9: oversubscribing EPC++ across enclaves causes hardware
/// thrashing that correct sizing avoids.
#[test]
fn claim_epcpp_overcommit_thrashes() {
    let m = machine();
    let epc = m.cfg.epc_bytes;
    let run = |epcpp: usize| {
        let mut handles = Vec::new();
        for idx in 0..2 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let epcpp = (epcpp / PAGE_SIZE).max(2) * PAGE_SIZE;
                let e = m.driver.create_enclave(&m, epcpp * 2 + (2 << 20));
                let t0 = ThreadCtx::for_enclave(&m, &e, idx);
                let s = Suvm::new(
                    &t0,
                    SuvmConfig {
                        sub_page_size: PAGE_SIZE, // the paper's EPC++ rows seal whole pages
                        epcpp_bytes: epcpp,
                        backing_bytes: 32 << 20,
                        headroom_bytes: 1 << 20,
                        ..SuvmConfig::default()
                    },
                );
                let mut t = ThreadCtx::for_enclave(&m, &e, idx);
                t.enter();
                let pages = (epcpp / PAGE_SIZE) as u64 + 512;
                let base = s.malloc((pages as usize) * PAGE_SIZE);
                let per = random_reads_suvm(&s, &mut t, base, pages, 1000);
                t.exit();
                per
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("enclave thread"))
            .sum::<f64>()
            / 2.0
    };
    let correct = run(epc / 3);
    let overcommitted = run(epc * 7 / 10); // 2 x 0.7 = 1.4x the PRM
    assert!(
        overcommitted > 1.2 * correct,
        "overcommit must thrash: correct {correct:.0} vs over {overcommitted:.0}"
    );
}

/// Security corollary of §3.2.5, end to end: no plaintext byte of a
/// SUVM working set larger than EPC++ is ever observable in untrusted
/// memory.
#[test]
fn claim_out_of_core_data_stays_sealed() {
    let m = SgxMachine::new(MachineConfig {
        epc_bytes: 4 << 20,
        untrusted_bytes: 64 << 20,
        ..MachineConfig::tiny()
    });
    let (s, mut t) = suvm_on(&m, 1 << 20, 16 << 20);
    let marker = b"CLAIM-MARKER-abcdefgh-01234567";
    let base = s.malloc(8 << 20);
    for p in 0..2048u64 {
        s.write(&mut t, base + p * PAGE_SIZE as u64 + 17, marker);
    }
    while s.evict_one(&mut t) {}
    let mut raw = vec![0u8; 32 << 20];
    m.untrusted.read(0, &mut raw);
    assert!(
        !raw.windows(marker.len()).any(|w| w == marker),
        "plaintext leaked to untrusted memory"
    );
    t.exit();
}
