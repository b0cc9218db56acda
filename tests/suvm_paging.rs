//! Property and equivalence tests for SUVM paging: every eviction
//! policy must satisfy the same invariants —
//!
//! - SUVM contents always match a flat shadow memory;
//! - a pinned (spointer-linked) page is never evicted;
//! - clean pages with a valid sealed copy are never re-sealed;
//! - the inverse page table and the frame metadata stay consistent
//!   (`Suvm::check_consistency`);
//!
//! and the per-access rule tracks the better of the two forced modes.

use std::sync::Arc;

use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::suvm::spointer::SPtr;
use eleos::suvm::{Access, EvictPolicy, Suvm, SuvmConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Working-set span: 16 pages through an 8-frame EPC++, so eviction is
/// constant.
const SPAN: usize = 64 << 10;

fn rig(policy: EvictPolicy) -> (Arc<SgxMachine>, Arc<Suvm>, ThreadCtx) {
    let m = SgxMachine::new(MachineConfig {
        epc_bytes: 2 << 20,
        ..MachineConfig::tiny()
    });
    let e = m.driver.create_enclave(&m, 16 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let s = Suvm::new(
        &t0,
        SuvmConfig {
            epcpp_bytes: 8 * 4096,
            backing_bytes: 1 << 20,
            policy,
            ..SuvmConfig::tiny()
        },
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    (m, s, t)
}

/// One step of the random paging workload.
#[derive(Debug, Clone)]
enum Op {
    Write { at: usize, data: Vec<u8> },
    Read { at: usize, len: usize },
    Pin { at: usize },
    Unpin,
    EvictOne,
    Resize { frames: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SPAN, prop::collection::vec(any::<u8>(), 1..300))
            .prop_map(|(at, data)| Op::Write { at, data }),
        (0..SPAN, 1usize..300).prop_map(|(at, len)| Op::Read { at, len }),
        (0..SPAN).prop_map(|at| Op::Pin { at }),
        Just(Op::Unpin),
        Just(Op::EvictOne),
        (4usize..9).prop_map(|frames| Op::Resize { frames }),
    ]
}

/// Runs `ops` against one configuration, checking every invariant the
/// paging architecture promises independent of policy.
fn run_model(policy: EvictPolicy, ops: &[Op]) {
    let (m, s, mut t) = rig(policy);
    let sva = s.malloc(SPAN);
    // Populate every page so each one has real content and, once
    // evicted, a sealed copy (a never-written zero-fill page has
    // nothing to elide).
    let fill = vec![0x5au8; SPAN];
    s.write(&mut t, sva, &fill);
    let mut shadow = fill;
    let mut pinned: Option<(SPtr<u64>, usize)> = None;
    for op in ops {
        match op {
            Op::Write { at, data } => {
                let at = (*at).min(SPAN - data.len());
                s.write(&mut t, sva + at as u64, data);
                shadow[at..at + data.len()].copy_from_slice(data);
            }
            Op::Read { at, len } => {
                let at = (*at).min(SPAN - len);
                let mut buf = vec![0u8; *len];
                s.read(&mut t, sva + at as u64, &mut buf);
                prop_assert_eq!(&buf, &shadow[at..at + len]);
            }
            Op::Pin { at } => {
                let at = (at / 8 * 8).min(SPAN - 8);
                let p = SPtr::<u64>::new(&s, sva + at as u64);
                let want = u64::from_le_bytes(shadow[at..at + 8].try_into().unwrap());
                prop_assert_eq!(p.get(&mut t), want);
                pinned = Some((p, at));
            }
            Op::Unpin => pinned = None,
            Op::EvictOne => {
                s.evict_one(&mut t);
            }
            Op::Resize { frames } => s.resize(&mut t, *frames),
        }
        if let Some((p, at)) = &pinned {
            // The linked page must still be resident: re-reading through
            // the spointer may not take a major fault.
            let before = s.major_faults();
            let want = u64::from_le_bytes(shadow[*at..*at + 8].try_into().unwrap());
            prop_assert_eq!(p.get(&mut t), want, "pinned page corrupted");
            prop_assert_eq!(s.major_faults(), before, "pinned page was evicted");
        }
        s.check_consistency();
    }
    drop(pinned);
    // Quiesce: push everything out, then verify the whole span against
    // the shadow through the sealed path.
    while s.evict_one(&mut t) {}
    s.check_consistency();
    let mut back = vec![0u8; SPAN];
    s.read(&mut t, sva, &mut back);
    prop_assert_eq!(&back, &shadow);
    // Everything is now clean with a valid sealed copy, so a second
    // full eviction must elide every write-back (§3.2.4) regardless of
    // policy.
    let s0 = m.stats.snapshot();
    while s.evict_one(&mut t) {}
    let d = m.stats.snapshot() - s0;
    prop_assert!(d.suvm_evictions > 0, "quiesced cache should have pages");
    prop_assert_eq!(
        d.suvm_evictions,
        d.suvm_clean_skips,
        "clean pages must never be re-sealed"
    );
    s.check_consistency();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The policy-independent invariants hold under arbitrary
    /// fault/evict/pin/resize interleavings, for both eviction
    /// policies.
    #[test]
    fn paging_invariants_hold_across_policies(
        ops in prop::collection::vec(op_strategy(), 1..28),
    ) {
        for policy in [EvictPolicy::Clock, EvictPolicy::Fifo] {
            run_model(policy, &ops);
        }
    }
}

/// Draws a page from a percentage and a uniformly random page.
type Pick = fn(u64, u64) -> u64;

/// Mean cycles per `len`-byte read of a page drawn by `pick` (from two
/// random words), after a warm-up, under each of `Cached`, `Direct`
/// and `Adaptive` in turn: 2 048 written-and-evicted pages behind a
/// 256-frame EPC++ sealing 1 KiB sub-pages, everything evicted again
/// between two runs. The forced modes leave no stamp behind, so the
/// adaptive run starts as cold as they did.
fn read_costs(len: usize, pick: Pick) -> [f64; 3] {
    const PAGES: u64 = 2048;
    let m = SgxMachine::new(MachineConfig {
        epc_bytes: 8 << 20,
        untrusted_bytes: 64 << 20,
        ..MachineConfig::tiny()
    });
    let e = m.driver.create_enclave(&m, 16 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let s = Suvm::new(
        &t0,
        SuvmConfig {
            sub_page_size: 1024,
            epcpp_bytes: 256 * 4096,
            backing_bytes: 16 << 20,
            headroom_bytes: 4 << 20,
            ..SuvmConfig::tiny()
        },
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let sva = s.malloc(PAGES as usize * 4096);
    for page in 0..PAGES {
        s.write(&mut t, sva + page * 4096, &[page as u8; 4096]);
    }
    let costs = [Access::Cached, Access::Direct, Access::Adaptive].map(|access| {
        while s.evict_one(&mut t) {}
        let mut rng = StdRng::seed_from_u64(41);
        let mut buf = vec![0u8; len];
        let mut run = |t: &mut ThreadCtx, reads: u64| {
            let c0 = t.now();
            for _ in 0..reads {
                let page = pick(rng.random_range(0..100), rng.random_range(0..PAGES));
                let at = rng.random_range(0..4096 / len as u64) * len as u64;
                s.span(sva + page * 4096 + at, access).read(t, &mut buf);
                assert_eq!(buf[0], page as u8);
            }
            (t.now() - c0) as f64 / reads as f64
        };
        run(&mut t, 2_000);
        run(&mut t, 4_000)
    });
    s.check_consistency();
    t.exit();
    costs
}

/// The per-access rule against the two construction-time modes it
/// replaced. Forced-direct never caches a hot page, forced-cached
/// faults on every cold one; adaptive must stay near the better of the
/// two wherever one of them is right, within 10 % of it on a uniform
/// and a Zipf-like skewed stream, match the cache on a hot set that
/// fits it, and beat both where the stream mixes the two.
#[test]
fn adaptive_tracks_the_better_forced_mode() {
    const HOT: u64 = 128;
    let streams: [(&str, Pick); 4] = [
        ("uniform", |_, page| page),
        ("hot set", |_, page| page % HOT),
        (
            "90/10 mix",
            |pct, page| if pct < 90 { page % HOT } else { page },
        ),
        // page³ / 2048²: a long tail over every page, the head hot.
        ("skew", |_, page| page * page * page / (2048 * 2048)),
    ];
    for len in [64usize, 1024] {
        for (name, pick) in streams {
            let [cached, direct, adaptive] = read_costs(len, pick);
            let cell = format!(
                "{len} B {name}: cached {cached:.0} direct {direct:.0} adaptive {adaptive:.0}"
            );
            println!("{cell}");
            let best = cached.min(direct);
            assert!(adaptive <= 1.25 * best, "{cell}");
            if name == "uniform" || name == "skew" {
                assert!(adaptive <= 1.10 * best, "{cell}");
            }
            if name == "hot set" {
                assert!(adaptive <= 1.01 * cached, "{cell}");
            }
            if (len, name) == (64, "90/10 mix") {
                assert!(adaptive < best, "{cell}");
            }
        }
    }
}
