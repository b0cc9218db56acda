//! Driver-level integration tests: fair-share eviction, enclave
//! teardown, swap correctness under pressure, and shootdown effects.

use std::sync::Arc;

use eleos_enclave::machine::{MachineConfig, SgxMachine};
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::costs::PAGE_SIZE;

fn machine(epc_pages: usize) -> Arc<SgxMachine> {
    SgxMachine::new(MachineConfig {
        epc_bytes: epc_pages * PAGE_SIZE,
        ..MachineConfig::tiny()
    })
}

#[test]
fn eviction_targets_the_enclave_over_its_fair_share() {
    let m = machine(64);
    let hog = m.driver.create_enclave(&m, 256 * PAGE_SIZE);
    let modest = m.driver.create_enclave(&m, 256 * PAGE_SIZE);

    // The hog touches 48 pages (over its 32-frame fair share); the
    // modest enclave touches 8.
    let mut th = ThreadCtx::for_enclave(&m, &hog, 0);
    th.enter();
    let hb = hog.alloc(64 * PAGE_SIZE);
    for p in 0..48u64 {
        th.write_enclave(hb + p * PAGE_SIZE as u64, &[1u8; 8]);
    }
    th.exit();
    let mut tm = ThreadCtx::for_enclave(&m, &modest, 1);
    tm.enter();
    let mb = modest.alloc(64 * PAGE_SIZE);
    for p in 0..8u64 {
        tm.write_enclave(mb + p * PAGE_SIZE as u64, &[2u8; 8]);
    }
    // Push the system into eviction: the hog keeps faulting.
    th.enter();
    for p in 0..48u64 {
        let mut b = [0u8; 8];
        th.read_enclave(hb + p * PAGE_SIZE as u64, &mut b);
    }
    th.exit();
    // The modest enclave should still be fully resident.
    assert_eq!(
        modest.resident_pages(),
        8,
        "fair-share eviction must spare the under-share enclave"
    );
    tm.exit();
}

#[test]
fn destroyed_enclaves_release_their_frames() {
    let m = machine(32);
    let before = m.driver.free_frames();
    let e = m.driver.create_enclave(&m, 64 * PAGE_SIZE);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let b = e.alloc(16 * PAGE_SIZE);
    for p in 0..16u64 {
        t.write_enclave(b + p * PAGE_SIZE as u64, &[1u8; 8]);
    }
    t.exit();
    assert!(m.driver.free_frames() < before);
    m.driver.destroy_enclave(&m, &e);
    assert_eq!(m.driver.free_frames(), before, "frames leaked on destroy");
    assert_eq!(m.driver.active_enclaves(), 0);
}

#[test]
fn ioctl_share_tracks_enclave_count() {
    let m = machine(60);
    let e1 = m.driver.create_enclave(&m, PAGE_SIZE);
    assert_eq!(m.driver.available_epc(), 60);
    let e2 = m.driver.create_enclave(&m, PAGE_SIZE);
    assert_eq!(m.driver.available_epc(), 30);
    let e3 = m.driver.create_enclave(&m, PAGE_SIZE);
    assert_eq!(m.driver.available_epc(), 20);
    m.driver.destroy_enclave(&m, &e2);
    assert_eq!(m.driver.available_epc(), 30);
    m.driver.destroy_enclave(&m, &e1);
    m.driver.destroy_enclave(&m, &e3);
}

#[test]
fn heavy_swap_churn_preserves_every_page() {
    // 3 enclaves, each with a working set bigger than its share,
    // interleaved: contents must survive arbitrary EWB/ELDU churn.
    let m = machine(48);
    let enclaves: Vec<_> = (0..3)
        .map(|_| m.driver.create_enclave(&m, 256 * PAGE_SIZE))
        .collect();
    let mut threads: Vec<_> = enclaves
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mut t = ThreadCtx::for_enclave(&m, e, i);
            t.enter();
            t
        })
        .collect();
    let bases: Vec<u64> = enclaves.iter().map(|e| e.alloc(40 * PAGE_SIZE)).collect();
    for round in 0..3u64 {
        for (i, t) in threads.iter_mut().enumerate() {
            for p in 0..40u64 {
                let tag = [(i as u8 + 1) * 10 + (p % 7) as u8 + round as u8; 16];
                t.write_enclave(bases[i] + p * PAGE_SIZE as u64, &tag);
            }
        }
        for (i, t) in threads.iter_mut().enumerate() {
            for p in (0..40u64).rev() {
                let mut b = [0u8; 16];
                t.read_enclave(bases[i] + p * PAGE_SIZE as u64, &mut b);
                assert_eq!(
                    b,
                    [(i as u8 + 1) * 10 + (p % 7) as u8 + round as u8; 16],
                    "enclave {i} page {p} round {round}"
                );
            }
        }
    }
    let s = m.stats.snapshot();
    assert!(s.hw_evictions > 100, "churn must page heavily");
    for t in &mut threads {
        t.exit();
    }
}

#[test]
fn shootdown_interrupt_flushes_victim_tlb() {
    let m = machine(16);
    let e = m.driver.create_enclave(&m, 128 * PAGE_SIZE);
    // Thread on core 0 warms its TLB, then a fault storm from core 1
    // evicts pages installed by core 0, posting IPIs to it.
    let mut t0 = ThreadCtx::for_enclave(&m, &e, 0);
    t0.enter();
    let b = e.alloc(64 * PAGE_SIZE);
    for p in 0..8u64 {
        t0.write_enclave(b + p * PAGE_SIZE as u64, &[1u8; 8]);
    }
    let mut t1 = ThreadCtx::for_enclave(&m, &e, 1);
    t1.enter();
    for p in 8..64u64 {
        t1.write_enclave(b + p * PAGE_SIZE as u64, &[2u8; 8]);
    }
    let ipis = m.stats.snapshot().ipis;
    assert!(ipis > 0, "evicting core-0 pages must IPI core 0");
    let clock0_before = t0.now();
    // Core 0's next access observes the interrupt (AEX cost was
    // already charged remotely by the driver).
    let mut buf = [0u8; 8];
    t0.read_enclave(b, &mut buf);
    assert!(t0.now() > clock0_before);
    t0.exit();
    t1.exit();
}

#[test]
fn swap_is_per_enclave_isolated() {
    // Two enclaves writing the same page numbers must never observe
    // each other's data, even with constant swapping.
    let m = machine(8);
    let e1 = m.driver.create_enclave(&m, 64 * PAGE_SIZE);
    let e2 = m.driver.create_enclave(&m, 64 * PAGE_SIZE);
    let mut t1 = ThreadCtx::for_enclave(&m, &e1, 0);
    let mut t2 = ThreadCtx::for_enclave(&m, &e2, 1);
    t1.enter();
    t2.enter();
    let b1 = e1.alloc(16 * PAGE_SIZE);
    let b2 = e2.alloc(16 * PAGE_SIZE);
    assert_eq!(b1, b2, "same linear addresses in both enclaves");
    for p in 0..16u64 {
        t1.write_enclave(b1 + p * PAGE_SIZE as u64, &[0x11u8; 32]);
        t2.write_enclave(b2 + p * PAGE_SIZE as u64, &[0x22u8; 32]);
    }
    for p in 0..16u64 {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        t1.read_enclave(b1 + p * PAGE_SIZE as u64, &mut a);
        t2.read_enclave(b2 + p * PAGE_SIZE as u64, &mut b);
        assert_eq!(a, [0x11u8; 32]);
        assert_eq!(b, [0x22u8; 32]);
    }
    t1.exit();
    t2.exit();
}

/// EPC frames holding contents of their own.
fn frames_with_contents(m: &SgxMachine) -> usize {
    (0..m.epc.frame_count() as u32)
        .filter(|&i| m.epc.frame(i).inner.read().data.is_present())
        .count()
}

#[test]
fn a_frame_holds_contents_only_once_written() {
    let m = machine(32);
    let e = m.driver.create_enclave(&m, 64 * PAGE_SIZE);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let b = e.alloc(4 * PAGE_SIZE);
    let mut buf = [0xffu8; 64];
    t.read_enclave(b + 100, &mut buf);
    assert_eq!(buf, [0u8; 64]);
    assert_eq!(
        m.stats.snapshot().hw_faults,
        1,
        "the read faulted a page in"
    );
    assert_eq!(frames_with_contents(&m), 0, "a read allocates nothing");
    t.write_enclave(b + 100, b"first write");
    assert_eq!(frames_with_contents(&m), 1);
    t.exit();
}

#[test]
fn ewb_and_destroy_drop_contents_and_eldu_restores_the_page() {
    let m = machine(16);
    let e = m.driver.create_enclave(&m, 64 * PAGE_SIZE);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let b = e.alloc(48 * PAGE_SIZE);
    let page = |p: u64| -> Vec<u8> { (0..PAGE_SIZE as u64).map(|i| (i * 7 + p) as u8).collect() };
    for p in 0..8u64 {
        t.write_enclave(b + p * PAGE_SIZE as u64, &page(p));
    }
    assert_eq!(frames_with_contents(&m), 8);
    // Reading 32 pages never written evicts the 8 written ones (EWB):
    // they leave their frames for swap.
    let mut buf = vec![0u8; PAGE_SIZE];
    for p in 8..40u64 {
        t.read_enclave(b + p * PAGE_SIZE as u64, &mut buf);
    }
    assert!(m.stats.snapshot().hw_evictions >= 8);
    assert_eq!(frames_with_contents(&m), 0, "EWB drops the contents");
    // ELDU brings each page back byte for byte.
    for p in 0..8u64 {
        t.read_enclave(b + p * PAGE_SIZE as u64, &mut buf);
        assert_eq!(buf, page(p), "page {p}");
    }
    assert_eq!(frames_with_contents(&m), 8);
    t.exit();
    m.driver.destroy_enclave(&m, &e);
    assert_eq!(frames_with_contents(&m), 0, "destroy drops the contents");
}

#[test]
fn a_default_machine_holds_no_frame_contents_or_untrusted_leaf() {
    let m = SgxMachine::new(MachineConfig::default());
    assert_eq!(frames_with_contents(&m), 0);
    assert_eq!(m.untrusted.leaves(), 0);
    let a = m.alloc_untrusted(64);
    m.untrusted.write(a, b"first access");
    assert_eq!(m.untrusted.leaves(), 1);
}
