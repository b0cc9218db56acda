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
//!   scaffold really does move slabs.

use std::collections::HashMap;
use std::sync::Arc;

use eleos::apps::kvs::Kvs;
use eleos::apps::space::DataSpace;
use eleos::apps::storage::{EngineConfig, RebalanceConfig, SegmentConfig};
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
