//! Unit tests for the SUVM runtime.

use super::span::Access;
use super::*;
use eleos_enclave::machine::MachineConfig;
use eleos_sim::costs::PAGE_SIZE;

fn setup(cfg: SuvmConfig) -> (Arc<SgxMachine>, Arc<Suvm>, ThreadCtx) {
    let m = SgxMachine::new(MachineConfig::scaled(4));
    let e = m
        .driver
        .create_enclave(&m, 2 * cfg.epcpp_bytes.max(1 << 20));
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    let suvm = Suvm::new(&t, cfg);
    t.enter();
    (m, suvm, t)
}

#[test]
fn malloc_write_read_roundtrip() {
    let (_m, s, mut t) = setup(SuvmConfig::tiny());
    let a = s.malloc(10_000);
    let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
    s.write(&mut t, a, &data);
    let mut out = vec![0u8; data.len()];
    s.read(&mut t, a, &mut out);
    assert_eq!(out, data);
    s.free(a);
    t.exit();
}

#[test]
fn working_set_larger_than_epcpp_survives_eviction() {
    let (m, s, mut t) = setup(SuvmConfig::tiny()); // 16 frames
    let total = 64 * 4096; // 64 pages, 4x EPC++
    let a = s.malloc(total);
    for page in 0..64u64 {
        let val = vec![page as u8 + 1; 128];
        s.write(&mut t, a + page * 4096, &val);
    }
    for page in 0..64u64 {
        let mut buf = vec![0u8; 128];
        s.read(&mut t, a + page * 4096, &mut buf);
        assert_eq!(buf, vec![page as u8 + 1; 128], "page {page}");
    }
    let st = m.stats.snapshot();
    assert!(st.suvm_evictions > 0, "evictions must occur");
    assert!(st.suvm_major_faults >= 64, "refaults expected");
    assert_eq!(st.enclave_exits, 0, "SUVM paging must be exit-less");
    assert_eq!(st.hw_faults + 1, st.hw_faults + 1); // touch field
    t.exit();
}

#[test]
fn suvm_paging_causes_no_enclave_exits_but_hw_paging_does() {
    // Same working set through SUVM vs plain enclave memory, with
    // EPC smaller than the set: SUVM exits = 0, HW faults > 0.
    let m = SgxMachine::new(MachineConfig {
        epc_bytes: 32 * PAGE_SIZE,
        ..MachineConfig::tiny()
    });
    let e = m.driver.create_enclave(&m, 256 * PAGE_SIZE);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    let suvm = Suvm::new(
        &t,
        SuvmConfig {
            epcpp_bytes: 8 * 4096,
            backing_bytes: 1 << 20,
            ..SuvmConfig::tiny()
        },
    );
    t.enter();
    let a = suvm.malloc(64 * 4096);
    let s0 = m.stats.snapshot();
    for page in 0..64u64 {
        suvm.write(&mut t, a + page * 4096, &[1u8; 64]);
    }
    let d = m.stats.snapshot() - s0;
    assert!(d.suvm_evictions > 0);
    assert_eq!(d.enclave_exits, 0);
    t.exit();
}

#[test]
fn clean_pages_skip_writeback() {
    let (m, s, mut t) = setup(SuvmConfig::tiny()); // 16 frames
    let a = s.malloc(64 * 4096);
    // Populate all pages (dirty), cycling through EPC++.
    for page in 0..64u64 {
        s.write(&mut t, a + page * 4096, &[3u8; 32]);
    }
    let s0 = m.stats.snapshot();
    // Read-only sweep: evictions during this phase are of clean
    // pages and must skip the write-back.
    for _ in 0..2 {
        for page in 0..64u64 {
            let mut b = [0u8; 32];
            s.read(&mut t, a + page * 4096, &mut b);
            assert_eq!(b, [3u8; 32]);
        }
    }
    let d = m.stats.snapshot() - s0;
    assert!(d.suvm_clean_skips > 0, "clean evictions must skip seal");
    t.exit();
}

#[test]
fn clean_skip_disabled_always_writes_back() {
    let cfg = SuvmConfig {
        clean_skip: false,
        ..SuvmConfig::tiny()
    };
    let (m, s, mut t) = setup(cfg);
    let a = s.malloc(64 * 4096);
    for page in 0..64u64 {
        s.write(&mut t, a + page * 4096, &[3u8; 32]);
    }
    let s0 = m.stats.snapshot();
    for page in 0..64u64 {
        let mut b = [0u8; 32];
        s.read(&mut t, a + page * 4096, &mut b);
    }
    let d = m.stats.snapshot() - s0;
    assert_eq!(d.suvm_clean_skips, 0);
    t.exit();
}

#[test]
fn direct_read_matches_cached_read() {
    let cfg = SuvmConfig {
        sub_page_size: 1024,
        ..SuvmConfig::tiny()
    };
    let (_m, s, mut t) = setup(cfg);
    let a = s.malloc(64 * 4096);
    let data: Vec<u8> = (0..64 * 4096u32).map(|i| (i % 239) as u8).collect();
    s.write(&mut t, a, &data);
    // Force everything out of EPC++.
    while s.evict_one(&mut t) {}
    assert_eq!(s.resident_pages(), 0);
    // Direct reads at various offsets/sizes, including misaligned
    // spans across sub-pages (beyond the paper's prototype).
    for &(off, len) in &[
        (0usize, 16usize),
        (100, 256),
        (1000, 2048),
        (4000, 200),
        (5000, 9000),
    ] {
        let mut buf = vec![0u8; len];
        s.read_direct(&mut t, a + off as u64, &mut buf);
        assert_eq!(buf, &data[off..off + len], "off={off} len={len}");
    }
    assert_eq!(
        s.resident_pages(),
        0,
        "direct reads must not populate EPC++"
    );
    t.exit();
}

#[test]
fn direct_write_read_roundtrip() {
    let cfg = SuvmConfig {
        sub_page_size: 1024,
        ..SuvmConfig::tiny()
    };
    let (_m, s, mut t) = setup(cfg);
    let a = s.malloc(16 * 4096);
    s.write(&mut t, a, &vec![9u8; 16 * 4096]);
    while s.evict_one(&mut t) {}
    // Misaligned direct write spanning two sub-pages.
    s.write_direct(&mut t, a + 1000, b"direct-write-payload");
    let mut buf = vec![0u8; 30];
    s.read_direct(&mut t, a + 995, &mut buf);
    assert_eq!(&buf[..5], &[9u8; 5]);
    assert_eq!(&buf[5..25], b"direct-write-payload");
    assert_eq!(&buf[25..], &[9u8; 5]);
    // And the cached path agrees.
    let mut buf2 = vec![0u8; 30];
    s.read(&mut t, a + 995, &mut buf2);
    assert_eq!(buf, buf2);
    t.exit();
}

#[test]
fn resize_shrink_and_grow() {
    let (_m, s, mut t) = setup(SuvmConfig::tiny()); // 16 frames
    let a = s.malloc(16 * 4096);
    for page in 0..16u64 {
        s.write(&mut t, a + page * 4096, &[1u8; 16]);
    }
    s.resize(&mut t, 4);
    assert_eq!(s.frame_limit(), 4);
    assert!(s.resident_pages() <= 4, "shrink must evict");
    // Data still correct through the smaller cache.
    for page in 0..16u64 {
        let mut b = [0u8; 16];
        s.read(&mut t, a + page * 4096, &mut b);
        assert_eq!(b, [1u8; 16]);
    }
    s.resize(&mut t, 16);
    assert_eq!(s.frame_limit(), 16);
    for page in 0..16u64 {
        let mut b = [0u8; 16];
        s.read(&mut t, a + page * 4096, &mut b);
        assert_eq!(b, [1u8; 16]);
    }
    t.exit();
}

#[test]
fn swapper_tick_clamps_the_watermark_to_half_the_pool() {
    // A pool no larger than the watermark: refilling to the configured
    // 8 free frames would evict the whole cache on every tick.
    for wb_batch in [0usize, 2] {
        let (_m, s, mut t) = setup(SuvmConfig {
            epcpp_bytes: 8 * 4096,
            free_watermark: 8,
            wb_batch,
            ..SuvmConfig::tiny()
        });
        let a = s.malloc(8 * 4096);
        for page in 0..6u64 {
            s.write(&mut t, a + page * 4096, &[1u8; 16]);
        }
        assert_eq!(s.resident_pages(), 6);
        s.swapper_tick(&mut t);
        assert_eq!(
            s.resident_pages(),
            4,
            "half the frames stay resident (wb_batch {wb_batch})"
        );
        t.exit();
    }
    // A pool well above the watermark is untouched by the clamp.
    let (_m, s, mut t) = setup(SuvmConfig::tiny()); // 16 frames, watermark 2
    let a = s.malloc(16 * 4096);
    for page in 0..16u64 {
        s.write(&mut t, a + page * 4096, &[1u8; 16]);
    }
    assert_eq!(s.resident_pages(), 16);
    s.swapper_tick(&mut t);
    assert_eq!(
        s.resident_pages(),
        14,
        "the tick frees exactly the watermark"
    );
    t.exit();
}

#[test]
fn memset_memcmp_memcpy() {
    let (_m, s, mut t) = setup(SuvmConfig::tiny());
    let a = s.malloc(8192);
    let b = s.malloc(8192);
    s.memset(&mut t, a, 8192, 0x5a);
    s.memcpy(&mut t, b, a, 8192);
    assert_eq!(s.memcmp(&mut t, a, b, 8192), core::cmp::Ordering::Equal);
    s.write(&mut t, b + 5000, &[0x5b]);
    assert_eq!(s.memcmp(&mut t, a, b, 8192), core::cmp::Ordering::Less);
    t.exit();
}

#[test]
fn free_decommits_whole_pages() {
    let (_m, s, mut t) = setup(SuvmConfig::tiny());
    let a = s.malloc(4 * 4096);
    s.write(&mut t, a, &[1u8; 4 * 4096]);
    let resident_before = s.resident_pages();
    assert!(resident_before >= 4);
    s.free(a);
    assert!(s.resident_pages() < resident_before);
    t.exit();
}

#[test]
fn fault_costs_match_paper() {
    // Read faults ~8.5k cycles, write(evict-dirty)+load ~14k (§6.1.2).
    let (m, s, mut t) = setup(SuvmConfig::tiny()); // 16 frames
    let a = s.malloc(64 * 4096);
    // Populate (all dirty).
    for page in 0..64u64 {
        s.write(&mut t, a + page * 4096, &[1u8; 4096]);
    }
    // Read-only steady state: faults pay load only (victims clean
    // after first lap).
    for page in 0..64u64 {
        let mut b = [0u8; 8];
        s.read(&mut t, a + page * 4096, &mut b);
    }
    let s0 = m.stats.snapshot();
    let c0 = t.now();
    for page in 0..64u64 {
        let mut b = [0u8; 8];
        s.read(&mut t, a + page * 4096, &mut b);
    }
    let d = m.stats.snapshot() - s0;
    let per_read_fault = (t.now() - c0) / d.suvm_major_faults.max(1);
    assert!(
        (6_000..=12_000).contains(&per_read_fault),
        "read fault cost {per_read_fault}"
    );

    // Write steady state: fault pays evict(dirty)+load.
    for page in 0..64u64 {
        s.write(&mut t, a + page * 4096, &[2u8; 4096]);
    }
    let s0 = m.stats.snapshot();
    let c0 = t.now();
    for page in 0..64u64 {
        s.write(&mut t, a + page * 4096, &[3u8; 8]);
    }
    let d = m.stats.snapshot() - s0;
    let per_write_fault = (t.now() - c0) / d.suvm_major_faults.max(1);
    assert!(
        (11_000..=20_000).contains(&per_write_fault),
        "write fault cost {per_write_fault}"
    );
    t.exit();
}

#[test]
fn all_eviction_policies_preserve_data() {
    use crate::config::EvictPolicy;
    for policy in [EvictPolicy::Clock, EvictPolicy::Fifo] {
        let (m, s, mut t) = setup(SuvmConfig {
            policy,
            ..SuvmConfig::tiny()
        });
        let a = s.malloc(64 * 4096);
        for page in 0..64u64 {
            s.write(&mut t, a + page * 4096, &[page as u8 + 1; 64]);
        }
        for page in 0..64u64 {
            let mut b = [0u8; 64];
            s.read(&mut t, a + page * 4096, &mut b);
            assert_eq!(b, [page as u8 + 1; 64], "{policy:?} page {page}");
        }
        assert!(m.stats.snapshot().suvm_evictions > 0, "{policy:?}");
        t.exit();
    }
}

/// One seeded 400-op read/write/pin workload over 64 pages through the
/// 16-frame `SuvmConfig::tiny()` cache — sealing 1 KiB sub-pages when
/// `access` is one that can bypass EPC++. Returns `[ThreadCtx::now(),
/// suvm_major_faults, suvm_evictions, suvm_clean_skips, suvm_wb_pages,
/// sealed_bytes]` at the end of the run.
fn pinned_workload(
    policy: crate::config::EvictPolicy,
    wb_batch: usize,
    access: Access,
) -> [u64; 6] {
    let run = pinned_run(policy, wb_batch, access, |_, _, _| {});
    run[..6].try_into().unwrap()
}

/// [`pinned_workload`] followed by `tail` (given the workload's 64-page
/// region). Returns its six values plus `suvm_wb_rescues` and
/// `suvm_wb_queue_peak`.
fn pinned_run(
    policy: crate::config::EvictPolicy,
    wb_batch: usize,
    access: Access,
    tail: impl FnOnce(&Suvm, &mut ThreadCtx, Sva),
) -> [u64; 8] {
    use crate::spointer::SPtr;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    const SPAN: u64 = 64 * 4096;
    let (m, s, mut t) = setup(SuvmConfig {
        policy,
        wb_batch,
        sub_page_size: if access == Access::Cached { 4096 } else { 1024 },
        ..SuvmConfig::tiny()
    });
    let a = s.malloc(SPAN as usize);
    let mut rng = StdRng::seed_from_u64(17);
    let mut linked: Option<SPtr<u64>> = None;
    for i in 0..400u64 {
        let at = rng.random_range(0..SPAN - 64);
        match rng.random_range(0..10) {
            0..=4 if access == Access::Cached => s.write(&mut t, a + at, &[i as u8; 64]),
            0..=4 => s.write_direct(&mut t, a + at, &[i as u8; 64]),
            5..=8 => s.span(a + at, access).read(&mut t, &mut [0u8; 64]),
            _ => {
                // A linked spointer keeps its page pinned until the
                // next one replaces it.
                let p = SPtr::<u64>::new(&s, a + at / 8 * 8);
                let _ = p.get(&mut t);
                linked = Some(p);
            }
        }
        if wb_batch > 0 && i % 16 == 15 {
            s.drain_writeback(&mut t, wb_batch);
        }
    }
    drop(linked);
    s.check_consistency();
    tail(&s, &mut t, a);
    s.check_consistency();
    let st = m.stats.snapshot();
    let out = [
        t.now(),
        st.suvm_major_faults,
        st.suvm_evictions,
        st.suvm_clean_skips,
        st.suvm_wb_pages,
        st.sealed_bytes,
        st.suvm_wb_rescues,
        st.suvm_wb_queue_peak,
    ];
    t.exit();
    out
}

/// Every other way a frame leaves EPC++, after the seeded workload
/// over region `a`: a pin rescuing a parked frame (batched mode only),
/// a quiesce, a `free` of a region holding resident dirty and clean
/// pages, a balloon down and back up, and one swapper tick over a
/// refilled cache.
fn release_paths_tail(s: &Suvm, t: &mut ThreadCtx, a: Sva) {
    let batched = s.cfg.wb_batch > 0;
    for page in 0..64u64 {
        if s.writeback_queue_len() > 0 {
            break;
        }
        s.write(t, a + page * 4096, &[0xa5; 64]);
    }
    let parked = s.wb.lock().back().map(|&(_, page)| page);
    assert_eq!(parked.is_some(), batched, "a dirty victim is parked");
    if let Some(page) = parked {
        let rescues = s.machine.stats.snapshot().suvm_wb_rescues;
        s.read(t, page * 4096, &mut [0u8; 8]);
        assert_eq!(s.machine.stats.snapshot().suvm_wb_rescues, rescues + 1);
    }
    let b = s.malloc(8 * 4096);
    s.write(t, b, &[7u8; 8 * 4096]);
    assert!(s.quiesce(t) >= 8);
    for page in 0..8u64 {
        if page < 4 {
            s.read(t, b + page * 4096, &mut [0u8; 8]);
        } else {
            s.write(t, b + page * 4096, &[8u8; 64]);
        }
    }
    let resident = s.resident_pages();
    s.free(b);
    assert_eq!(s.resident_pages(), resident - 8, "free decommits b");
    s.resize(t, 4);
    s.resize(t, 16);
    for page in 0..20u64 {
        s.write(t, a + page * 4096, &[0x5a; 64]);
    }
    s.swapper_tick(t);
}

/// The unit-speed guard for the paging layer: the constants of the
/// three `Cached` rows were measured at `a8bd3ad`, before the store /
/// sealer / victim-scan refactor, so any charge that refactor moved
/// shows up here; the `Adaptive` row was pinned when the rule landed.
#[test]
fn paging_cycles_are_pinned() {
    use crate::config::EvictPolicy;
    assert_eq!(
        pinned_workload(EvictPolicy::Clock, 0, Access::Cached),
        [3_659_563, 311, 295, 93, 0, 1_839_104]
    );
    assert_eq!(
        pinned_workload(EvictPolicy::Clock, 8, Access::Cached),
        [3_863_268, 337, 330, 119, 211, 1_982_464]
    );
    assert_eq!(
        pinned_workload(EvictPolicy::Fifo, 0, Access::Cached),
        [3_718_467, 315, 299, 93, 0, 1_871_872]
    );
    assert_eq!(
        pinned_workload(EvictPolicy::Clock, 0, Access::Adaptive),
        [2_134_896, 97, 81, 11, 0, 799_744]
    );
    // Pinned at `6da10e1`, before the eviction layer's release paths
    // were folded into one: the FIFO hand under batched write-back, and
    // every other way a frame leaves EPC++ under both write-back modes.
    assert_eq!(
        pinned_run(EvictPolicy::Fifo, 8, Access::Cached, |_, _, _| {}),
        [3_905_646, 336, 334, 116, 218, 2_007_040, 18, 18]
    );
    assert_eq!(
        pinned_run(EvictPolicy::Clock, 0, Access::Cached, release_paths_tail),
        [5_015_277, 408, 386, 95, 16, 2_568_192, 0, 16]
    );
    assert_eq!(
        pinned_run(EvictPolicy::Clock, 8, Access::Cached, release_paths_tail),
        [4_258_386, 373, 353, 120, 233, 2_187_264, 24, 18]
    );
}

#[test]
fn clock_keeps_hot_pages_over_fifo() {
    use crate::config::EvictPolicy;
    // A hot page touched between every cold access: CLOCK's second
    // chance should retain it far more often than FIFO.
    let faults_on_hot = |policy| {
        let (m, s, mut t) = setup(SuvmConfig {
            policy,
            ..SuvmConfig::tiny() // 16 frames
        });
        let a = s.malloc(64 * 4096);
        s.memset(&mut t, a, 64 * 4096, 1);
        let s0 = m.stats.snapshot();
        let mut hot_faults = 0u64;
        for i in 0..400u64 {
            // Hot page 0.
            let before = m.stats.snapshot().suvm_major_faults;
            let mut b = [0u8; 8];
            s.read(&mut t, a, &mut b);
            hot_faults += m.stats.snapshot().suvm_major_faults - before;
            // Cold sweep.
            let cold = 1 + (i % 63);
            s.read(&mut t, a + cold * 4096, &mut b);
        }
        let _ = s0;
        t.exit();
        hot_faults
    };
    let clock = faults_on_hot(EvictPolicy::Clock);
    let fifo = faults_on_hot(EvictPolicy::Fifo);
    assert!(
        clock < fifo,
        "CLOCK ({clock} hot faults) must beat FIFO ({fifo})"
    );
}

#[test]
fn tampered_backing_store_detected() {
    let (m, s, mut t) = setup(SuvmConfig::tiny());
    let a = s.malloc(32 * 4096);
    for page in 0..32u64 {
        s.write(&mut t, a + page * 4096, &[7u8; 64]);
    }
    // Find a sealed page and flip a ciphertext byte in the
    // untrusted backing store.
    let mut tampered = false;
    for page in 0..32u64 {
        if s.store.seals.get(page + s.page_of(a)).has_copy() {
            let addr = s.store.addr_of(s.page_of(a) + page, 100);
            let mut b = [0u8; 1];
            m.untrusted.read(addr, &mut b);
            m.untrusted.write(addr, &[b[0] ^ 0xff]);
            tampered = true;
            break;
        }
    }
    assert!(tampered, "no sealed page found to tamper with");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        for page in 0..32u64 {
            let mut b = [0u8; 1];
            s.read(&mut t, a + page * 4096, &mut b);
        }
    }));
    assert!(result.is_err(), "tampering must be detected");
}

#[test]
fn multithreaded_suvm_consistency() {
    let m = SgxMachine::new(MachineConfig::scaled(4));
    let e = m.driver.create_enclave(&m, 4 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let s = Suvm::new(
        &t0,
        SuvmConfig {
            epcpp_bytes: 8 * 4096,
            backing_bytes: 1 << 20,
            ..SuvmConfig::tiny()
        },
    );
    // 4 threads, each owns a disjoint 16-page region, hammering
    // through an 8-frame cache.
    let region = s.malloc(64 * 4096);
    let mut handles = Vec::new();
    for thread in 0..4u64 {
        let m = Arc::clone(&m);
        let e = Arc::clone(&e);
        let s = Arc::clone(&s);
        handles.push(std::thread::spawn(move || {
            let mut t = ThreadCtx::for_enclave(&m, &e, thread as usize);
            t.enter();
            let base = region + thread * 16 * 4096;
            for round in 0..8u64 {
                for page in 0..16u64 {
                    let val = [(thread * 31 + page + round) as u8; 32];
                    s.write(&mut t, base + page * 4096, &val);
                }
                for page in 0..16u64 {
                    let mut b = [0u8; 32];
                    s.read(&mut t, base + page * 4096, &mut b);
                    assert_eq!(
                        b,
                        [(thread * 31 + page + round) as u8; 32],
                        "thread {thread} page {page} round {round}"
                    );
                }
            }
            t.exit();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn metadata_pressure_slows_faults_when_over_headroom() {
    // Identical workloads; the second instance's headroom is tiny, so
    // its sealed-page metadata "outgrows the EPC" and fault paths pay
    // the modelled hardware cost (§4.1/§4.2 — Fig 7's >1GB droop).
    let fault_cost = |headroom: usize| {
        let (m, s, mut t) = setup(SuvmConfig {
            headroom_bytes: headroom,
            ..SuvmConfig::tiny()
        });
        let a = s.malloc(256 * 4096);
        for p in 0..256u64 {
            s.write(&mut t, a + p * 4096, &[1u8; 32]);
        }
        // Read steady state over sealed pages.
        for p in 0..256u64 {
            let mut b = [0u8; 8];
            s.read(&mut t, a + p * 4096, &mut b);
        }
        let s0 = m.stats.snapshot();
        let c0 = t.now();
        for p in 0..256u64 {
            let mut b = [0u8; 8];
            s.read(&mut t, a + p * 4096, &mut b);
        }
        let d = m.stats.snapshot() - s0;
        let per = (t.now() - c0) / d.suvm_major_faults.max(1);
        t.exit();
        per
    };
    let roomy = fault_cost(1 << 20);
    let squeezed = fault_cost(1 << 10); // 1 KiB "headroom": heavy pressure
    assert!(
        squeezed > roomy + 5_000,
        "metadata pressure must surface: {squeezed} vs {roomy}"
    );
}

#[test]
fn batched_writeback_detaches_then_drains() {
    let (m, s, mut t) = setup(SuvmConfig {
        wb_batch: 4,
        ..SuvmConfig::tiny() // 16 frames
    });
    let a = s.malloc(64 * 4096);
    for page in 0..64u64 {
        s.write(&mut t, a + page * 4096, &[page as u8 + 1; 64]);
    }
    let st = m.stats.snapshot();
    assert!(st.suvm_wb_queued > 0, "dirty victims must be queued");
    assert!(st.suvm_wb_batches > 0, "queue must have been drained");
    assert!(st.suvm_wb_pages > 0);
    assert!(st.suvm_wb_queue_peak > 0);
    // Queue may hold leftovers (possibly stale entries that seal
    // nothing); drain until it is empty, then the structure must be
    // consistent and the data intact.
    while s.writeback_queue_len() > 0 {
        s.drain_writeback(&mut t, 4);
    }
    s.check_consistency();
    for page in 0..64u64 {
        let mut b = [0u8; 64];
        s.read(&mut t, a + page * 4096, &mut b);
        assert_eq!(b, [page as u8 + 1; 64], "page {page}");
    }
    t.exit();
}

#[test]
fn quiesce_seals_every_dirty_page_and_is_idempotent() {
    // Regardless of write-back mode: after quiesce the backing store
    // holds every write sealed, nothing is dirty, and the data
    // survives refaulting (a snapshot fence for failover).
    for wb_batch in [0usize, 4] {
        let (_m, s, mut t) = setup(SuvmConfig {
            wb_batch,
            ..SuvmConfig::tiny()
        });
        let a = s.malloc(16 * 4096);
        for page in 0..8u64 {
            s.write(&mut t, a + page * 4096, &[page as u8 + 1; 64]);
        }
        let sealed = s.quiesce(&mut t);
        assert_eq!(
            sealed, 8,
            "every dirty resident page sealed (wb_batch {wb_batch})"
        );
        assert_eq!(s.writeback_queue_len(), 0);
        s.check_consistency();
        assert_eq!(
            s.quiesce(&mut t),
            0,
            "a quiesced instance has nothing dirty"
        );
        for page in 0..8u64 {
            let mut b = [0u8; 64];
            s.read(&mut t, a + page * 4096, &mut b);
            assert_eq!(b, [page as u8 + 1; 64], "page {page}");
        }
        t.exit();
    }
}

#[test]
fn pin_rescues_queued_frame_before_drain() {
    let (m, s, mut t) = setup(SuvmConfig {
        wb_batch: 16,
        clean_skip: true,
        ..SuvmConfig::tiny()
    });
    let a = s.malloc(16 * 4096);
    // Dirty every resident page, then detach victims onto the queue
    // without draining.
    for page in 0..8u64 {
        s.write(&mut t, a + page * 4096, &[9u8; 32]);
    }
    let (_freed, queued) = s.detach_victims(&mut t, 8);
    assert!(queued > 0, "dirty pages must be parked");
    let before = m.stats.snapshot();
    // Touch a queued page: the access must rescue it (no refault) and
    // the later drain must skip it.
    let mut b = [0u8; 32];
    s.read(&mut t, a, &mut b);
    assert_eq!(b, [9u8; 32]);
    let mid = m.stats.snapshot();
    assert_eq!(
        mid.suvm_major_faults, before.suvm_major_faults,
        "a queued page is still resident — no refault"
    );
    assert!(mid.suvm_wb_rescues > before.suvm_wb_rescues);
    let drained = s.drain_writeback(&mut t, 16);
    assert!(
        drained < queued,
        "the rescued page must be skipped at drain time"
    );
    s.check_consistency();
    t.exit();
}

#[test]
fn batched_writeback_amortizes_seal_setup() {
    // Seal 8 dirty pages inline vs in one drained batch; the batch
    // charges the full GCM setup once and a quarter for the rest.
    let run = |wb_batch: usize| {
        let (m, s, mut t) = setup(SuvmConfig {
            wb_batch,
            ..SuvmConfig::tiny()
        });
        let a = s.malloc(16 * 4096);
        for page in 0..8u64 {
            s.write(&mut t, a + page * 4096, &[3u8; 64]);
        }
        let c0 = t.now();
        if wb_batch > 0 {
            let (_f, q) = s.detach_victims(&mut t, 8);
            assert_eq!(q, 8);
            assert_eq!(s.drain_writeback(&mut t, 8), 8);
        } else {
            for _ in 0..8 {
                assert!(s.evict_one(&mut t));
            }
        }
        let cycles = t.now() - c0;
        let st = m.stats.snapshot();
        assert_eq!(st.suvm_evictions, 8);
        t.exit();
        cycles
    };
    let inline = run(0);
    let batched = run(8);
    // 7 pages * (400 - 100) = 2100 cycles saved on the seal setup.
    assert!(
        batched < inline,
        "batched drain must be cheaper: {batched} vs {inline}"
    );
    assert!(inline - batched >= 2_000, "{inline} vs {batched}");
}

/// Page-table lookups so far: every `fault_in_and_pin`/direct lookup
/// ends in exactly one hit or one major fault.
fn lookups(m: &SgxMachine) -> u64 {
    let s = m.stats.snapshot();
    s.suvm_major_faults + s.suvm_hits
}

fn pins(s: &Suvm) -> u32 {
    s.frames
        .iter()
        .map(|f| f.pinned.load(Ordering::Acquire))
        .sum()
}

#[test]
fn span_cursor_translates_once_per_page() {
    let (m, s, mut t) = setup(SuvmConfig::tiny());
    let a = s.malloc(4 * 4096);
    let data: Vec<u8> = (0..4 * 4096u32).map(|i| (i % 233) as u8).collect();
    s.write(&mut t, a, &data);
    while s.evict_one(&mut t) {}

    // Header and tail on one page: one lookup (the fault); the tail
    // goes through the same pin.
    let before = lookups(&m);
    let mut head = [0u8; 8];
    let mut tail = vec![0u8; 1000];
    {
        let mut span = s.span(a + 100, Access::Cached);
        span.read(&mut t, &mut head);
        assert_eq!(pins(&s), 1, "the cursor holds its page pinned");
        span.read(&mut t, &mut tail);
    }
    assert_eq!(lookups(&m) - before, 1, "same-page tail = one lookup");
    assert_eq!(&head[..], &data[100..108]);
    assert_eq!(tail, &data[108..1108]);
    assert_eq!(pins(&s), 0, "dropping the cursor unpins");

    // A record straddling a page boundary: two lookups, the first
    // page's pin released when the cursor moves on.
    let before = lookups(&m);
    let mut tail = vec![0u8; 600];
    {
        let mut span = s.span(a + 2 * 4096 - 300, Access::Cached);
        span.read(&mut t, &mut head);
        span.read(&mut t, &mut tail);
        assert_eq!(pins(&s), 1, "only the current page stays pinned");
    }
    assert_eq!(lookups(&m) - before, 2, "straddling record = two lookups");
    let at = 2 * 4096 - 300;
    assert_eq!(&head[..], &data[at..at + 8]);
    assert_eq!(tail, &data[at + 8..at + 608]);
    assert_eq!(pins(&s), 0);

    // Reads never dirty a page: everything touched evicts clean.
    assert!(s.frames.iter().all(|f| !f.dirty.load(Ordering::Acquire)));
    let skips = m.stats.snapshot().suvm_clean_skips;
    while s.evict_one(&mut t) {}
    assert_eq!(m.stats.snapshot().suvm_clean_skips - skips, 3);
    s.check_consistency();
    t.exit();
}

#[test]
fn direct_span_cursor_unseals_each_sub_page_once() {
    let cfg = SuvmConfig {
        sub_page_size: 1024,
        ..SuvmConfig::tiny()
    };
    let (m, s, mut t) = setup(cfg);
    let a = s.malloc(4 * 4096);
    let data: Vec<u8> = (0..4 * 4096u32).map(|i| (i % 229) as u8).collect();
    s.write(&mut t, a, &data);
    while s.evict_one(&mut t) {}
    let costs = &m.cfg.costs;
    let unseal = costs.crypto_fixed + (costs.crypto_cpb * 1024.0) as u64;

    // An 8-byte header and a 1 000-byte tail from offset 100: the
    // record covers sub-pages 0 and 1, so exactly two unseals — the
    // header's sub-page is not opened again for the tail.
    let direct0 = m.stats.snapshot().suvm_direct_accesses;
    let mut head = [0u8; 8];
    let mut tail = vec![0u8; 1000];
    let mut span = s.span(a + 100, Access::Direct);
    let c0 = t.now();
    span.read(&mut t, &mut head);
    let c1 = t.now();
    span.read(&mut t, &mut tail);
    let c2 = t.now();
    drop(span);
    assert_eq!(&head[..], &data[100..108]);
    assert_eq!(tail, &data[108..1108]);
    assert!(c1 - c0 >= costs.suvm_lookup + unseal);
    assert!(
        c2 - c1 >= unseal && c2 - c1 < 2 * unseal,
        "the tail unseals only the sub-page the header did not: {} cycles",
        c2 - c1
    );
    assert_eq!(m.stats.snapshot().suvm_direct_accesses - direct0, 1);
    assert_eq!(s.resident_pages(), 0, "direct cursors never fill EPC++");

    // A resident page is served (and pinned) from the cache instead.
    s.write(&mut t, a + 4096, b"fresh");
    let mut buf = [0u8; 5];
    {
        let mut span = s.span(a + 4096, Access::Direct);
        span.read(&mut t, &mut buf);
        assert_eq!(pins(&s), 1);
    }
    assert_eq!(&buf, b"fresh");
    assert_eq!(pins(&s), 0);
    t.exit();
}

/// A 16-frame rig sealing 1 KiB sub-pages, holding `pages` written
/// pages of a recognisable pattern, all evicted.
fn cold_sub_page_rig(pages: usize) -> (Arc<SgxMachine>, Arc<Suvm>, ThreadCtx, Sva, Vec<u8>) {
    let (m, s, mut t) = setup(SuvmConfig {
        sub_page_size: 1024,
        ..SuvmConfig::tiny()
    });
    let a = s.malloc(pages * 4096);
    let data: Vec<u8> = (0..pages as u32 * 4096).map(|i| (i % 227) as u8).collect();
    s.write(&mut t, a, &data);
    while s.evict_one(&mut t) {}
    (m, s, t, a, data)
}

/// `[crypto_batches, crypto_msgs, crypto_setup_cycles, sealed_bytes]`
/// billed since `s0`.
fn crypto_since(m: &SgxMachine, s0: eleos_sim::stats::StatsSnapshot) -> [u64; 4] {
    let d = m.stats.snapshot() - s0;
    [
        d.crypto_batches,
        d.crypto_msgs,
        d.crypto_setup_cycles,
        d.sealed_bytes,
    ]
}

#[test]
fn bypass_crypto_is_counted_and_costs_what_it_did() {
    // Each operation's units are one crypto batch: the second pays a
    // follow-on's set-up.
    let (m, s, mut t, a, data) = cold_sub_page_rig(4);
    let fixed = m.cfg.costs.crypto_fixed;

    // A read over sub-pages 0 and 1: two unseals, one batch.
    let (s0, c0) = (m.stats.snapshot(), t.now());
    let mut buf = vec![0u8; 1008];
    s.read_direct(&mut t, a + 100, &mut buf);
    assert_eq!(buf, &data[100..1108]);
    assert_eq!(t.now() - c0, 5_708);
    assert_eq!(crypto_since(&m, s0), [1, 2, fixed + fixed / 4, 2 * 1024]);

    // A write-through inside one sub-page: its open and its re-seal.
    let (s0, c0) = (m.stats.snapshot(), t.now());
    s.write_direct(&mut t, a + 5000, b"twenty-byte payload!");
    assert_eq!(t.now() - c0, 5_708);
    assert_eq!(crypto_since(&m, s0), [1, 2, fixed + fixed / 4, 2 * 1024]);
    assert_eq!(s.resident_pages(), 0);
    t.exit();
}

#[test]
fn a_bypass_cursor_bills_its_unseals_as_one_batch() {
    let (m, s, mut t, a, data) = cold_sub_page_rig(4);
    let fixed = m.cfg.costs.crypto_fixed;
    // A header in sub-page 3 of page 1, then a body running on into
    // sub-page 0 of page 2: three unseals through one cursor.
    let at = 4096 + 3 * 1024 + 1000;
    let (mut head, mut body) = ([0u8; 8], vec![0u8; 100]);
    let s0 = m.stats.snapshot();
    let mut span = s.span(a + at, Access::Direct);
    span.read(&mut t, &mut head);
    assert_eq!(crypto_since(&m, s0), [1, 1, fixed, 1024]);
    span.read(&mut t, &mut body);
    drop(span);
    assert_eq!(head, data[at as usize..at as usize + 8]);
    assert_eq!(body, &data[at as usize + 8..at as usize + 108]);
    assert_eq!(
        crypto_since(&m, s0),
        [1, 2, fixed + fixed / 4, 2 * 1024],
        "the body's unseal follows the header's"
    );
    t.exit();
}

#[test]
fn a_fault_bills_its_page_and_its_victims_page_as_one_batch_each() {
    let (m, s, mut t, a, data) = cold_sub_page_rig(20);
    let fixed = m.cfg.costs.crypto_fixed;
    let page_batch = fixed + 3 * (fixed / 4);

    // A clean fault opens the page's four 1 KiB units as one batch.
    let s0 = m.stats.snapshot();
    let mut buf = [0u8; 8];
    s.read(&mut t, a + 100, &mut buf);
    assert_eq!(buf, data[100..108]);
    assert_eq!(crypto_since(&m, s0), [1, 4, page_batch, 4096]);

    // Fill the 16 frames with dirty pages; the next fault seals its
    // victim's four units as one batch, then opens its own.
    for page in 0..16u64 {
        s.write(&mut t, a + page * 4096, &[page as u8; 8]);
    }
    let s0 = m.stats.snapshot();
    s.read(&mut t, a + 16 * 4096 + 100, &mut buf);
    assert_eq!(buf, data[16 * 4096 + 100..16 * 4096 + 108]);
    assert_eq!(m.stats.snapshot().suvm_evictions - s0.suvm_evictions, 1);
    assert_eq!(crypto_since(&m, s0), [2, 8, 2 * page_batch, 2 * 4096]);
    t.exit();
}

#[test]
fn a_write_through_across_two_sub_pages_bills_one_batch_of_four() {
    let (m, s, mut t, a, mut data) = cold_sub_page_rig(4);
    let fixed = m.cfg.costs.crypto_fixed;
    let payload = [0xeeu8; 48];
    let s0 = m.stats.snapshot();
    s.write_direct(&mut t, a + 1000, &payload);
    // Two opens and two re-seals, in one batch.
    assert_eq!(
        crypto_since(&m, s0),
        [1, 4, fixed + 3 * (fixed / 4), 4 * 1024]
    );
    assert_eq!(s.resident_pages(), 0);
    data[1000..1048].copy_from_slice(&payload);
    let mut buf = vec![0u8; 4096];
    s.read_direct(&mut t, a, &mut buf);
    assert_eq!(buf, &data[..4096]);
    t.exit();
}

#[test]
fn two_bypass_reads_in_a_serve_round_are_one_batch() {
    // Two reads of two sub-pages each, on two cold pages: in a serve
    // round one SUVM batch of four, outside one a batch per cursor.
    let reads = |round: bool| {
        let (m, s, mut t, a, data) = cold_sub_page_rig(4);
        let s0 = m.stats.snapshot();
        if round {
            t.open_round();
        }
        for page in [1u64, 2] {
            let at = page * 4096 + 1000;
            let mut buf = vec![0u8; 100];
            s.span(a + at, Access::Adaptive).read(&mut t, &mut buf);
            assert_eq!(buf, &data[at as usize..at as usize + 100]);
        }
        t.close_round();
        assert_eq!(s.resident_pages(), 0, "both reads bypassed EPC++");
        t.exit();
        (crypto_since(&m, s0), m.cfg.costs.crypto_fixed)
    };
    let (billed, fixed) = reads(true);
    assert_eq!(billed, [1, 4, fixed + 3 * (fixed / 4), 4 * 1024]);
    let (billed, fixed) = reads(false);
    assert_eq!(billed, [2, 4, 2 * (fixed + fixed / 4), 4 * 1024]);
}

#[test]
fn faults_and_inline_evictions_in_a_serve_round_join_its_batch() {
    // Two faults on a full cache of dirty pages: each seals its
    // victim's four units and opens its own four. In a serve round
    // they are one SUVM batch of 16; outside one, four batches of four.
    let faults = |round: bool| {
        let (m, s, mut t, a, data) = cold_sub_page_rig(20);
        for page in 0..16u64 {
            s.write(&mut t, a + page * 4096, &[page as u8; 8]);
        }
        let s0 = m.stats.snapshot();
        if round {
            t.open_round();
        }
        for page in [16u64, 17] {
            let mut buf = [0u8; 8];
            let at = (page * 4096 + 100) as usize;
            s.read(&mut t, a + at as u64, &mut buf);
            assert_eq!(buf, data[at..at + 8]);
        }
        t.close_round();
        let evictions = m.stats.snapshot().suvm_evictions - s0.suvm_evictions;
        assert_eq!(evictions, 2);
        t.exit();
        (crypto_since(&m, s0), m.cfg.costs.crypto_fixed)
    };
    let (billed, fixed) = faults(true);
    assert_eq!(billed, [1, 16, fixed + 15 * (fixed / 4), 16 * 1024]);
    let (billed, fixed) = faults(false);
    assert_eq!(billed, [4, 16, 4 * (fixed + 3 * (fixed / 4)), 16 * 1024]);
}

#[test]
fn a_whole_page_fault_costs_what_it_did() {
    // One seal unit per page: each batch is a batch of one, so the
    // cycles are those measured before SUVM billed per operation.
    let (m, s, mut t) = setup(SuvmConfig::tiny());
    let fixed = m.cfg.costs.crypto_fixed;
    let a = s.malloc(20 * 4096);
    s.write(&mut t, a, &[9u8; 20 * 4096]);
    while s.evict_one(&mut t) {}

    let (s0, c0) = (m.stats.snapshot(), t.now());
    let mut buf = [0u8; 8];
    s.read(&mut t, a + 100, &mut buf);
    assert_eq!(buf, [9u8; 8]);
    assert_eq!(t.now() - c0, 7_627);
    assert_eq!(crypto_since(&m, s0), [1, 1, fixed, 4096]);

    for page in 0..16u64 {
        s.write(&mut t, a + page * 4096, &[page as u8; 8]);
    }
    let (s0, c0) = (m.stats.snapshot(), t.now());
    s.write(&mut t, a + 16 * 4096, &[1u8; 8]);
    assert_eq!(t.now() - c0, 14_990);
    assert_eq!(crypto_since(&m, s0), [2, 2, 2 * fixed, 2 * 4096]);
    t.exit();
}

#[test]
fn direct_write_to_a_never_sealed_page_takes_the_cached_path() {
    // It used to seal four zero sub-pages and write a page of
    // ciphertext to the backing store without charging either.
    let payload = b"twenty-byte payload!";
    let cost = |direct: bool| {
        let (_m, s, mut t, ..) = cold_sub_page_rig(4);
        let b = s.malloc(4096);
        let c0 = t.now();
        if direct {
            s.write_direct(&mut t, b + 1000, payload);
        } else {
            s.write(&mut t, b + 1000, payload);
        }
        let cycles = t.now() - c0;
        assert_eq!(s.resident_pages(), 1, "the page was faulted in");
        assert!(s.frames.iter().any(|f| f.dirty.load(Ordering::Acquire)));
        for access in [Access::Cached, Access::Direct, Access::Adaptive] {
            let mut buf = [0u8; 22];
            s.span(b + 999, access).read(&mut t, &mut buf);
            assert_eq!((buf[0], &buf[1..21], buf[21]), (0, &payload[..], 0));
        }
        t.exit();
        cycles
    };
    assert_eq!(cost(true), cost(false));
}

#[test]
fn adaptive_reads_bypass_cold_pages_and_cache_reused_ones() {
    let (m, s, mut t, a, data) = cold_sub_page_rig(64);
    let f0 = m.stats.snapshot().suvm_major_faults;
    let faults = || m.stats.snapshot().suvm_major_faults - f0;
    let read = |t: &mut ThreadCtx, page: u64| {
        let mut buf = [0u8; 64];
        let at = page * 4096 + 2000;
        s.span(a + at, Access::Adaptive).read(t, &mut buf);
        assert_eq!(buf, data[at as usize..at as usize + 64], "page {page}");
    };
    // 16 frames of four sub-pages: a page re-read fewer than 4 read
    // misses after its last one is worth a frame.
    read(&mut t, 0);
    assert_eq!((faults(), s.resident_pages()), (0, 0), "first touch");
    read(&mut t, 0);
    assert_eq!(
        (faults(), s.resident_pages()),
        (1, 1),
        "re-read at distance 1"
    );
    read(&mut t, 0);
    assert_eq!(faults(), 1, "now a hit");
    // Page 1, then three other cold pages: its next miss is the 4th
    // after its last one — outside the window.
    for page in [1, 2, 3, 4, 1] {
        read(&mut t, page);
    }
    assert_eq!((faults(), s.resident_pages()), (1, 1));
    // ... and two after that one is inside it.
    for page in [5, 6, 1] {
        read(&mut t, page);
    }
    assert_eq!((faults(), s.resident_pages()), (2, 2));
    // The window follows the ballooned frame limit: 8 frames, 2 misses.
    s.resize(&mut t, 8);
    for page in [10, 11, 10] {
        read(&mut t, page);
    }
    assert_eq!(faults(), 2, "distance 2 no longer qualifies");
    read(&mut t, 10);
    assert_eq!(faults(), 3);
    // A write is no reuse: it neither reads nor sets the stamp.
    read(&mut t, 20);
    s.write_direct(&mut t, a + 21 * 4096, b"w");
    s.write_direct(&mut t, a + 21 * 4096 + 1, b"w");
    read(&mut t, 21);
    assert_eq!(faults(), 3, "writes did not make page 21 look reused");
    t.exit();

    // With one unit per page there is nothing to bypass to: adaptive
    // is the cached path.
    let (m, s, mut t) = setup(SuvmConfig::tiny());
    let a = s.malloc(4 * 4096);
    s.write(&mut t, a, &[7u8; 4 * 4096]);
    while s.evict_one(&mut t) {}
    let mut buf = [0u8; 8];
    s.span(a, Access::Adaptive).read(&mut t, &mut buf);
    s.span(a + 4096, Access::Direct).read(&mut t, &mut buf);
    s.write_direct(&mut t, a + 2 * 4096, b"x");
    let st = m.stats.snapshot();
    assert_eq!((st.suvm_major_faults, st.suvm_direct_accesses), (4 + 3, 0));
    t.exit();
}
