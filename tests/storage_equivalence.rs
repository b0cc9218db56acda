//! Shadow-model suite for the pluggable storage engines:
//!
//! - every engine (static slab, slab + rebalancer, segment store)
//!   behaves exactly like a plain `HashMap` with TTL deadlines under
//!   random SET/SET_TTL/GET/DELETE/ADVANCE/FENCE sequences — with the
//!   kv pool in plain untrusted memory and again behind a tiny SUVM
//!   page cache (constant paging pressure), sealing whole pages (every
//!   miss faults) and 1 KiB sub-pages (cold reads and writes bypass
//!   the cache);
//! - the slab rebalancer is reply-transparent: for any fence schedule
//!   and delete pattern, a rebalancing store returns byte-identical
//!   GET results to a static one, even while whole slabs (and the live
//!   items on them) migrate between classes;
//! - plus a deterministic non-vacuity check that the transparency
//!   scaffold really does move slabs;
//! - a delta round's bounded walk is the full walk filtered: for any
//!   `base`, `for_each_since(base)` visits exactly the items, values,
//!   stamps and deadlines — in the same order — that `for_each_since(0)`
//!   visits stamped `>= base`, on every engine, through evictions, slab
//!   relocations, segment merges, spills, TTL expiry and restore merges
//!   carrying older stamps.

use std::collections::HashMap;
use std::sync::Arc;

use eleos::apps::kvs::Kvs;
use eleos::apps::space::DataSpace;
use eleos::apps::storage::{
    build_engine, EngineConfig, RebalanceConfig, SegmentConfig, StorageEngine,
};
use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::sim::costs::CPU_HZ;
use eleos::suvm::{Suvm, SuvmConfig};
use proptest::prelude::*;

/// Mirrors the engines' second clock (`storage::now_secs`).
fn now_secs(t: &ThreadCtx) -> u32 {
    (t.now() as f64 / CPU_HZ) as u32
}

fn engines() -> Vec<EngineConfig> {
    vec![
        EngineConfig::Slab { rebalance: None },
        EngineConfig::Slab {
            rebalance: Some(RebalanceConfig::default()),
        },
        EngineConfig::Segment(SegmentConfig::default()),
    ]
}

/// One step of the random workload against the shadow model.
#[derive(Clone, Copy, Debug)]
enum Op {
    Set {
        k: u16,
        vlen: usize,
    },
    SetTtl {
        k: u16,
        vlen: usize,
        ttl: u32,
    },
    Get {
        k: u16,
    },
    Delete {
        k: u16,
    },
    /// Advance the clock by whole seconds (lets deadlines lapse).
    Advance {
        secs: u32,
    },
    /// A sub-batch fence: engine maintenance may run here.
    Fence,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The vendored proptest has no weighted oneof: duplicate entries
    // approximate a 3:3:3:2:1:1 set/set_ttl/get/delete/advance/fence
    // mix.
    prop_oneof![
        (0u16..40, 1usize..400).prop_map(|(k, vlen)| Op::Set { k, vlen }),
        (0u16..40, 1usize..400).prop_map(|(k, vlen)| Op::Set { k, vlen }),
        (0u16..40, 1usize..400).prop_map(|(k, vlen)| Op::Set { k, vlen }),
        (0u16..40, 1usize..400, 1u32..6).prop_map(|(k, vlen, ttl)| Op::SetTtl { k, vlen, ttl }),
        (0u16..40, 1usize..400, 1u32..6).prop_map(|(k, vlen, ttl)| Op::SetTtl { k, vlen, ttl }),
        (0u16..40, 1usize..400, 1u32..6).prop_map(|(k, vlen, ttl)| Op::SetTtl { k, vlen, ttl }),
        (0u16..40).prop_map(|k| Op::Get { k }),
        (0u16..40).prop_map(|k| Op::Get { k }),
        (0u16..40).prop_map(|k| Op::Get { k }),
        (0u16..40).prop_map(|k| Op::Delete { k }),
        (0u16..40).prop_map(|k| Op::Delete { k }),
        (1u32..4).prop_map(|secs| Op::Advance { secs }),
        Just(Op::Fence),
    ]
}

/// Runs `ops` against a store built on `cfg` and checks every reply
/// against a `HashMap` shadow carrying `(value, deadline_secs)`.
///
/// The working set (≤ 40 keys x ≤ 400 B) stays far below the 8 MiB
/// pool, so evictions never fire and the model is exact. Expiry is the
/// one engine freedom: a GET of a lapsed item must miss (and both
/// sides drop it), while a DELETE of a lapsed-but-unobserved item may
/// report either outcome (the slab store still holds it; the segment
/// store may have reclaimed its whole segment at a fence).
fn check_engine(cfg: &EngineConfig, paging: Option<usize>, ops: &[Op]) {
    let m = SgxMachine::new(MachineConfig {
        epc_bytes: 2 << 20,
        untrusted_bytes: 64 << 20,
        ..MachineConfig::tiny()
    });
    let e = m.driver.create_enclave(&m, 32 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let suvm = paging.map(|sub_page_size| {
        Suvm::new(
            &t0,
            SuvmConfig {
                sub_page_size,
                epcpp_bytes: 8 * 4096, // tiny cache: constant eviction
                backing_bytes: 16 << 20,
                ..SuvmConfig::tiny()
            },
        )
    });
    let data = match &suvm {
        Some(s) => DataSpace::suvm(s),
        None => DataSpace::Untrusted(Arc::clone(&m)),
    };
    let mut kvs = Kvs::with_engine(
        DataSpace::Untrusted(Arc::clone(&m)),
        data,
        8 << 20,
        256,
        cfg,
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    kvs.init(&mut t);

    let mut shadow: HashMap<Vec<u8>, (Vec<u8>, u32)> = HashMap::new();
    for &op in ops {
        match op {
            Op::Set { k, vlen } => {
                let key = format!("k{k}").into_bytes();
                let value = vec![(k % 251) as u8; vlen];
                kvs.set(&mut t, &key, &value);
                shadow.insert(key, (value, 0));
            }
            Op::SetTtl { k, vlen, ttl } => {
                let key = format!("k{k}").into_bytes();
                let value = vec![(k % 251) as u8 ^ 0x5a; vlen];
                let deadline = now_secs(&t) + ttl;
                kvs.set_with_ttl(&mut t, &key, &value, ttl);
                shadow.insert(key, (value, deadline));
            }
            Op::Get { k } => {
                let key = format!("k{k}").into_bytes();
                let now = now_secs(&t);
                let got = kvs.get(&mut t, &key);
                match shadow.get(&key) {
                    Some((_, d)) if *d != 0 && now >= *d => {
                        prop_assert_eq!(got, None, "lapsed item served ({:?})", cfg.label());
                        shadow.remove(&key);
                    }
                    Some((v, _)) => {
                        prop_assert_eq!(got.as_ref(), Some(v), "wrong value ({:?})", cfg.label());
                    }
                    None => {
                        prop_assert_eq!(got, None, "ghost item ({:?})", cfg.label());
                    }
                }
            }
            Op::Delete { k } => {
                let key = format!("k{k}").into_bytes();
                let now = now_secs(&t);
                let got = kvs.delete(&mut t, &key);
                match shadow.remove(&key) {
                    Some((_, d)) if d != 0 && now >= d => {} // either outcome is fine
                    Some(_) => prop_assert!(got, "live item not deleted ({:?})", cfg.label()),
                    None => prop_assert!(!got, "phantom delete ({:?})", cfg.label()),
                }
            }
            Op::Advance { secs } => {
                t.compute((secs as f64 * CPU_HZ) as u64);
            }
            Op::Fence => {
                kvs.fence(&mut t);
            }
        }
    }
    // Final sweep: every shadow entry still unexpired reads back
    // exactly; every lapsed one misses.
    let keys: Vec<Vec<u8>> = shadow.keys().cloned().collect();
    for key in keys {
        let now = now_secs(&t);
        let got = kvs.get(&mut t, &key);
        let (v, d) = &shadow[&key];
        if *d != 0 && now >= *d {
            prop_assert_eq!(got, None, "lapsed item served at sweep ({:?})", cfg.label());
        } else {
            prop_assert_eq!(got.as_ref(), Some(v), "sweep diverged ({:?})", cfg.label());
        }
    }
    t.exit();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every engine matches the TTL'd `HashMap` shadow, with the kv
    /// pool in untrusted memory and again behind a thrashing SUVM
    /// page cache, without and with sub-pages to bypass it to.
    #[test]
    fn engines_match_shadow_model(ops in prop::collection::vec(op_strategy(), 1..100)) {
        for cfg in engines() {
            for paging in [None, Some(4096), Some(1024)] {
                check_engine(&cfg, paging, &ops);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Rebalancer transparency
// ---------------------------------------------------------------------

/// Builds a store whose small class is mostly free (fill then delete
/// by `del_seed`) — the donor — then writes large items with fences at
/// the positions `fence_at` selects. Returns every GET result: small
/// survivors first, then all large keys.
///
/// The working set stays below the 32 MiB limit, so no evictions fire
/// and any divergence is the rebalancer's fault alone.
fn run_transparency(
    rebalance: Option<RebalanceConfig>,
    background: bool,
    del_seed: u64,
    fence_at: &[bool],
) -> (Arc<SgxMachine>, Vec<Option<Vec<u8>>>) {
    const SMALL: u64 = 9_000;
    const LARGE: u64 = 1_600;
    let m = SgxMachine::new(MachineConfig::scaled(8));
    let space = DataSpace::Untrusted(Arc::clone(&m));
    let mut kvs = Kvs::with_engine(
        space.clone(),
        space,
        32 << 20,
        4096,
        &EngineConfig::Slab { rebalance },
    );
    let e = m.driver.create_enclave(&m, 1 << 20);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    kvs.init(&mut t);
    // Background: `Kvs::fence` stops calling the maintenance tick and
    // a thread on a second core calls it instead, at the same fence
    // points — the same relocation code, billed elsewhere.
    let mut mt = background.then(|| {
        kvs.set_background(true);
        let mut mt = ThreadCtx::for_enclave(&m, &e, 1);
        mt.enter();
        mt
    });
    for i in 0..SMALL {
        kvs.set(
            &mut t,
            format!("sm-{i}").as_bytes(),
            &[(i % 251) as u8; 180],
        );
    }
    // Scatter deletes: ~85% of the small class becomes free chunks,
    // leaving feasible donor slabs with a few live items to relocate.
    let mut x = del_seed | 1;
    let mut survivors = Vec::new();
    for i in 0..SMALL {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if x % 100 < 85 {
            kvs.delete(&mut t, format!("sm-{i}").as_bytes());
        } else {
            survivors.push(i);
        }
    }
    for i in 0..LARGE {
        kvs.set(
            &mut t,
            format!("lg-{i}").as_bytes(),
            &[(i % 251) as u8; 1200],
        );
        if *fence_at
            .get(i as usize % fence_at.len().max(1))
            .unwrap_or(&false)
            || (i + 1).is_multiple_of(64)
        {
            kvs.fence(&mut t);
            if let Some(mt) = mt.as_mut() {
                kvs.maintenance_tick(mt);
            }
        }
    }
    let mut replies = Vec::new();
    for &i in &survivors {
        replies.push(kvs.get(&mut t, format!("sm-{i}").as_bytes()));
    }
    for i in 0..LARGE {
        replies.push(kvs.get(&mut t, format!("lg-{i}").as_bytes()));
    }
    if let Some(mut mt) = mt {
        mt.exit();
    }
    t.exit();
    (m, replies)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any fence schedule and delete pattern, the rebalancing
    /// store returns byte-identical GET results to the static one —
    /// slab migration is invisible to clients.
    #[test]
    fn rebalancer_is_reply_transparent(
        del_seed in any::<u64>(),
        fence_at in prop::collection::vec(any::<bool>(), 1..48),
    ) {
        let (_m0, baseline) = run_transparency(None, false, del_seed, &fence_at);
        let (_m1, rebal) =
            run_transparency(Some(RebalanceConfig::default()), false, del_seed, &fence_at);
        prop_assert_eq!(baseline, rebal);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Who calls the maintenance tick is invisible: the rebalancer
    /// run inline by the serving fence and the same rebalancer run
    /// from a second core at the same fence points make the same
    /// moves and return byte-identical GET results, for any fence
    /// schedule and delete pattern (and `rebalancer_is_reply_transparent`
    /// ties both to the static baseline). Only the stall differs.
    #[test]
    fn background_rebalancer_is_reply_transparent(
        del_seed in any::<u64>(),
        fence_at in prop::collection::vec(any::<bool>(), 1..48),
    ) {
        let rebalance = Some(RebalanceConfig::default());
        let (m0, inline) = run_transparency(rebalance.clone(), false, del_seed, &fence_at);
        let (m1, background) = run_transparency(rebalance, true, del_seed, &fence_at);
        prop_assert_eq!(inline, background);
        let (st0, st1) = (m0.stats.snapshot(), m1.stats.snapshot());
        prop_assert_eq!(
            (st0.slab_moves, st0.slab_items_relocated),
            (st1.slab_moves, st1.slab_items_relocated)
        );
        prop_assert_eq!(
            st1.maint_stall_cycles, 0,
            "background relocation stalled a serving fence"
        );
    }
}

/// Non-vacuity: the transparency scaffold actually migrates slabs
/// (live small items relocate, the freed slab is adopted by the large
/// class), so the proptest above exercises relocation, not a no-op.
#[test]
fn transparency_scaffold_moves_slabs() {
    let (m, _) = run_transparency(Some(RebalanceConfig::default()), false, 0x5eed, &[true]);
    let st = m.stats.snapshot();
    assert!(st.slab_moves > 0, "no slab moves: the proptest is vacuous");
    assert!(
        st.slab_items_relocated > 0,
        "no live items relocated: donor slabs were already empty"
    );
    assert!(
        st.maint_stall_cycles > 0,
        "synchronous rebalance fences must record their stall"
    );
}

/// Non-vacuity for the background leg: the maintenance ticks really
/// relocate slabs, and none of that work lands on the serving fence.
#[test]
fn background_transparency_scaffold_moves_slabs_off_the_fence() {
    let (m, _) = run_transparency(Some(RebalanceConfig::default()), true, 0x5eed, &[true]);
    let st = m.stats.snapshot();
    assert!(st.slab_moves > 0, "background ticks moved no slabs");
    assert!(st.slab_items_relocated > 0, "no live items relocated");
    assert_eq!(
        st.maint_stall_cycles, 0,
        "background relocation must not stall serving fences"
    );
}

// ---------------------------------------------------------------------
// The bounded walk equals the filtered full walk
// ---------------------------------------------------------------------

/// Keys of the stamp runs: `[b'k', 0..KEYS]`.
const KEYS: u8 = 36;

/// One step against a bare engine, with explicit write stamps.
#[derive(Clone, Copy, Debug)]
enum StampOp {
    /// SET at the current stamp. `band` picks a small, mid or large
    /// value (see [`value_len`]); `ttl = 0` never expires.
    Set {
        k: u8,
        band: u8,
        len: u16,
        ttl: u32,
    },
    /// A restore merge's SET: an item logged `back` intervals ago,
    /// applied last-writer-wins as `Kvs::try_restore` applies it.
    Merge {
        k: u8,
        band: u8,
        len: u16,
        back: u64,
    },
    Get {
        k: u8,
    },
    Delete {
        k: u8,
    },
    Advance {
        secs: u32,
    },
    /// Opens the next write interval (the fleet's `set_write_version`).
    Interval,
    /// A fence with its maintenance tick inline.
    Fence,
    /// Compares the walks at a base `pick` spread over the stamps.
    Walk {
        pick: u8,
    },
}

fn set_op(k: u8, band: u8, ttl: u32) -> StampOp {
    StampOp::Set {
        k,
        band,
        len: u16::from(k) * 977,
        ttl,
    }
}

fn stamp_op_strategy() -> impl Strategy<Value = StampOp> {
    let set = |ttl: std::ops::Range<u32>| {
        (0..KEYS, 0u8..3, any::<u16>(), ttl).prop_map(|(k, band, len, ttl)| StampOp::Set {
            k,
            band,
            len,
            ttl,
        })
    };
    // Duplicates weight the mix, as in `op_strategy`.
    prop_oneof![
        set(0..1),
        set(0..1),
        set(0..1),
        set(1..4),
        (0..KEYS, 0u8..3, any::<u16>(), 1u64..4).prop_map(|(k, band, len, back)| StampOp::Merge {
            k,
            band,
            len,
            back
        }),
        (0..KEYS).prop_map(|k| StampOp::Get { k }),
        (0..KEYS).prop_map(|k| StampOp::Delete { k }),
        (0..KEYS).prop_map(|k| StampOp::Delete { k }),
        (1u32..3).prop_map(|secs| StampOp::Advance { secs }),
        Just(StampOp::Interval),
        Just(StampOp::Interval),
        Just(StampOp::Fence),
        any::<u8>().prop_map(|pick| StampOp::Walk { pick }),
    ]
}

/// The engines over pools small enough to evict, relocate, merge and
/// spill: four 1 MiB slabs for three classes of 10 000+ (small), 10
/// (mid) and 4 (large) chunks per slab, and sixteen 4 KiB segments.
fn small_pool_engines() -> [(EngineConfig, u64); 3] {
    [
        (EngineConfig::Slab { rebalance: None }, 4 << 20),
        (
            EngineConfig::Slab {
                rebalance: Some(RebalanceConfig::default()),
            },
            4 << 20,
        ),
        (
            EngineConfig::Segment(SegmentConfig {
                segment_bytes: 4 << 10,
                ttl_bounds: vec![2, 8],
                merge_segments: 3,
            }),
            64 << 10,
        ),
    ]
}

/// A value length in `band`: small values in the smallest slab class,
/// then the slab engine's 103 496- and 252 696-byte classes, or values
/// below one 4 KiB segment and spills over two or three.
fn value_len(cfg: &EngineConfig, band: u8, len: u16) -> usize {
    let len = usize::from(len);
    match (cfg, band) {
        (_, 0) => 1 + len % 80,
        (EngineConfig::Slab { .. }, 1) => 83_000 + len % 20_000,
        (EngineConfig::Slab { .. }, _) => 203_000 + len % 49_000,
        (EngineConfig::Segment(_), 1) => 500 + len % 1_500,
        (EngineConfig::Segment(_), _) => 5_000 + len % 7_000,
    }
}

type Visit = (Vec<u8>, Vec<u8>, u64, u32);

fn walk(eng: &dyn StorageEngine, t: &mut ThreadCtx, base: u64) -> Vec<Visit> {
    let mut out = Vec::new();
    eng.for_each_since(t, base, &mut |k, v, version, expiry| {
        out.push((k.to_vec(), v.to_vec(), version, expiry));
    });
    out
}

/// Asserts that the walk bounded at `base` is the full walk filtered to
/// stamps `>= base`, and that a base above every stamp (`> top`) reads
/// nothing at all. Both walks start early in one simulated second, so
/// no deadline lapses between them.
fn check_bounded_walk(eng: &dyn StorageEngine, t: &mut ThreadCtx, base: u64, top: u64) {
    let next = (f64::from(now_secs(t) + 1) * CPU_HZ).ceil() as u64;
    t.compute(next - t.now());
    let bounded = walk(eng, t, base);
    let mut full = walk(eng, t, 0);
    full.retain(|item| item.2 >= base);
    assert_eq!(bounded, full, "{} at base {base}", eng.label());
    let t0 = t.now();
    assert!(walk(eng, t, top + 1).is_empty());
    assert_eq!(t.now(), t0, "{}: a base above every stamp", eng.label());
}

/// What a run of [`run_stamp_ops`] made the engine do.
#[derive(Debug, Default)]
struct Exercised {
    evictions: u64,
    relocated: u64,
    merges: u64,
    spills: u64,
    expired: u64,
    restored_older: u64,
}

/// Runs `ops` against a bare engine, comparing the bounded and the full
/// walk at every `Walk` and once at the end.
fn run_stamp_ops(cfg: &EngineConfig, mem_limit: u64, ops: &[StampOp]) -> Exercised {
    let m = SgxMachine::new(MachineConfig {
        untrusted_bytes: 64 << 20,
        ..MachineConfig::tiny()
    });
    let space = DataSpace::Untrusted(Arc::clone(&m));
    let mut eng = build_engine(cfg, space.clone(), space, mem_limit, 256);
    let e = m.driver.create_enclave(&m, 1 << 20);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    eng.init(&mut t);
    let segment_bytes = match cfg {
        EngineConfig::Segment(seg) => seg.segment_bytes,
        EngineConfig::Slab { .. } => usize::MAX,
    };
    let mut done = Exercised::default();
    let mut version = 1u64;
    for (i, &op) in ops.iter().enumerate() {
        match op {
            StampOp::Set { k, band, len, ttl } => {
                let vlen = value_len(cfg, band, len);
                let expiry = if ttl == 0 { 0 } else { now_secs(&t) + ttl };
                let value = vec![(i as u8) ^ k; vlen];
                let stored = eng.set(&mut t, &[b'k', k], &value, expiry, version);
                done.spills += u64::from(stored && vlen > segment_bytes);
            }
            StampOp::Merge { k, band, len, back } => {
                let logged = version.saturating_sub(back);
                let key = [b'k', k];
                if eng.version_of(&mut t, &key).is_none_or(|v| v < logged) {
                    let value = vec![!(i as u8); value_len(cfg, band, len)];
                    eng.set(&mut t, &key, &value, 0, logged);
                    done.restored_older += 1;
                }
            }
            StampOp::Get { k } => {
                eng.get(&mut t, &[b'k', k]);
            }
            StampOp::Delete { k } => {
                eng.delete(&mut t, &[b'k', k]);
            }
            StampOp::Advance { secs } => t.compute((f64::from(secs) * CPU_HZ) as u64),
            StampOp::Interval => version += 1,
            StampOp::Fence => {
                eng.fence();
                eng.maintenance_tick(&mut t);
            }
            StampOp::Walk { pick } => {
                let base = u64::from(pick) % (version + 2);
                check_bounded_walk(eng.as_ref(), &mut t, base, version);
            }
        }
    }
    check_bounded_walk(eng.as_ref(), &mut t, version, version);
    t.exit();
    let st = m.stats.snapshot();
    done.evictions = eng.evictions();
    done.expired = eng.expired();
    done.relocated = st.slab_items_relocated;
    done.merges = st.seg_merges;
    done
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any base, the bounded walk a delta round makes visits
    /// exactly what the full walk visits stamped `>= base`, in the same
    /// order, on every engine.
    #[test]
    fn bounded_walk_equals_the_filtered_full_walk(
        ops in prop::collection::vec(stamp_op_strategy(), 100..200),
    ) {
        for (cfg, mem_limit) in small_pool_engines() {
            run_stamp_ops(&cfg, mem_limit, &ops);
        }
    }
}

/// Non-vacuity for the proptest above, and its fixed regression case:
/// one script that makes every engine do what the random runs only
/// may — evict, relocate a slab's live items, merge segments, spill,
/// expire and merge restored items under older stamps — with the walks
/// compared after every phase.
#[test]
fn bounded_walk_script_exercises_every_engine_path() {
    let walk = |pick| StampOp::Walk { pick };
    let mut ops = Vec::new();
    // Twenty mid items fill two mid slabs; four small ones, two of
    // them with a short TTL.
    ops.extend((0..20).map(|k| set_op(k, 1, 0)));
    ops.extend((20..24).map(|k| set_op(k, 0, u32::from(k % 2) * 2)));
    ops.extend([StampOp::Interval, walk(2)]);
    // Leave two live items on each mid slab.
    ops.extend((0..8).chain(12..20).map(|k| StampOp::Delete { k }));
    ops.extend([StampOp::Interval, StampOp::Advance { secs: 3 }, walk(3)]);
    ops.extend([StampOp::Get { k: 21 }, StampOp::Get { k: 23 }]);
    // Large values starve their class; the fences hand it a mid slab.
    for k in 24..32 {
        ops.extend([set_op(k, 2, 0), StampOp::Fence]);
    }
    ops.extend([StampOp::Interval, walk(3)]);
    // Restore merges under stamps older than the lines already hold.
    ops.extend((0..20).chain(32..36).map(|k| StampOp::Merge {
        k,
        band: 0,
        len: u16::from(k),
        back: 2,
    }));
    ops.extend([walk(1), walk(3), walk(4), walk(5)]);
    let [slab, rebal, segment] =
        small_pool_engines().map(|(cfg, mem_limit)| run_stamp_ops(&cfg, mem_limit, &ops));
    assert!(slab.evictions > 0, "slab: {slab:?}");
    assert!(rebal.relocated > 0, "slab-rebal: {rebal:?}");
    assert!(
        segment.merges > 0 && segment.spills > 0 && segment.evictions > 0,
        "segment: {segment:?}"
    );
    for done in [slab, rebal, segment] {
        assert!(done.expired > 0 && done.restored_older > 0, "{done:?}");
    }
}
