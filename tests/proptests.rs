//! Property-based tests across the stack: SUVM against a shadow
//! memory model, spointer semantics, direct/cached consistency.

use std::sync::Arc;

use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::suvm::spointer::SPtr;
use eleos::suvm::{Suvm, SuvmConfig};
use proptest::prelude::*;

fn rig(sub_page_size: usize) -> (Arc<SgxMachine>, Arc<Suvm>, ThreadCtx) {
    let m = SgxMachine::new(MachineConfig {
        epc_bytes: 2 << 20,
        ..MachineConfig::tiny()
    });
    let e = m.driver.create_enclave(&m, 16 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let s = Suvm::new(
        &t0,
        SuvmConfig {
            epcpp_bytes: 8 * 4096, // tiny cache: constant eviction
            backing_bytes: 1 << 20,
            sub_page_size,
            ..SuvmConfig::tiny()
        },
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    (m, s, t)
}

/// One step of the random workload.
#[derive(Debug, Clone)]
enum Op {
    Write { at: usize, data: Vec<u8> },
    Read { at: usize, len: usize },
    ReadDirect { at: usize, len: usize },
    WriteDirect { at: usize, data: Vec<u8> },
    ReadAdaptive { at: usize, len: usize },
    WriteAdaptive { at: usize, data: Vec<u8> },
    EvictAll,
}

fn op_strategy(span: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..span, prop::collection::vec(any::<u8>(), 1..300))
            .prop_map(|(at, data)| Op::Write { at, data }),
        (0..span, 1usize..300).prop_map(|(at, len)| Op::Read { at, len }),
        (0..span, 1usize..300).prop_map(|(at, len)| Op::ReadDirect { at, len }),
        (0..span, prop::collection::vec(any::<u8>(), 1..200))
            .prop_map(|(at, data)| Op::WriteDirect { at, data }),
        (0..span, 1usize..300).prop_map(|(at, len)| Op::ReadAdaptive { at, len }),
        (0..span, prop::collection::vec(any::<u8>(), 1..200))
            .prop_map(|(at, data)| Op::WriteAdaptive { at, data }),
        Just(Op::EvictAll),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SUVM behaves exactly like flat memory under arbitrary
    /// interleavings of cached/direct/adaptive reads/writes and full
    /// evictions (the adaptive ones through the product's
    /// `DataSpace::suvm`).
    #[test]
    fn suvm_matches_shadow_memory(ops in prop::collection::vec(op_strategy(60_000), 1..50)) {
        let (_m, s, mut t) = rig(1024);
        let adaptive = eleos::apps::space::DataSpace::suvm(&s);
        let span = 64 << 10;
        let sva = s.malloc(span);
        let mut shadow = vec![0u8; span];
        for op in ops {
            match op {
                Op::Write { at, data } => {
                    let at = at.min(span - data.len());
                    s.write(&mut t, sva + at as u64, &data);
                    shadow[at..at + data.len()].copy_from_slice(&data);
                }
                Op::WriteDirect { at, data } => {
                    let at = at.min(span - data.len());
                    s.write_direct(&mut t, sva + at as u64, &data);
                    shadow[at..at + data.len()].copy_from_slice(&data);
                }
                Op::Read { at, len } => {
                    let at = at.min(span - len);
                    let mut buf = vec![0u8; len];
                    s.read(&mut t, sva + at as u64, &mut buf);
                    prop_assert_eq!(&buf, &shadow[at..at + len]);
                }
                Op::ReadDirect { at, len } => {
                    let at = at.min(span - len);
                    let mut buf = vec![0u8; len];
                    s.read_direct(&mut t, sva + at as u64, &mut buf);
                    prop_assert_eq!(&buf, &shadow[at..at + len]);
                }
                Op::WriteAdaptive { at, data } => {
                    let at = at.min(span - data.len());
                    adaptive.write(&mut t, sva + at as u64, &data);
                    shadow[at..at + data.len()].copy_from_slice(&data);
                }
                Op::ReadAdaptive { at, len } => {
                    let at = at.min(span - len);
                    let mut buf = vec![0u8; len];
                    adaptive.read(&mut t, sva + at as u64, &mut buf);
                    prop_assert_eq!(&buf, &shadow[at..at + len]);
                }
                Op::EvictAll => {
                    while s.evict_one(&mut t) {}
                    prop_assert_eq!(s.resident_pages(), 0);
                }
            }
        }
        t.exit();
    }

    /// Typed spointers round-trip arbitrary values at arbitrary
    /// (aligned) offsets, across evictions.
    #[test]
    fn spointer_typed_roundtrip(values in prop::collection::vec((0usize..8000, any::<u64>()), 1..60)) {
        let (_m, s, mut t) = rig(4096);
        let sva = s.malloc(64 << 10);
        let mut shadow = std::collections::HashMap::new();
        for (slot, v) in values {
            let p: SPtr<u64> = SPtr::new(&s, sva + (slot * 8) as u64);
            p.set(&mut t, v);
            shadow.insert(slot, v);
        }
        while s.evict_one(&mut t) {}
        for (slot, v) in shadow {
            let p: SPtr<u64> = SPtr::new(&s, sva + (slot * 8) as u64);
            prop_assert_eq!(p.get(&mut t), v, "slot {}", slot);
        }
        t.exit();
    }

    /// Spointer arithmetic (add/sub/offset) always lands on the right
    /// element, and cross-page moves unlink.
    #[test]
    fn spointer_arithmetic(steps in prop::collection::vec((any::<bool>(), 1u64..2000), 1..40)) {
        let (_m, s, mut t) = rig(4096);
        let n = 8192u64;
        let sva = s.malloc((n * 8) as usize);
        // Identity contents.
        let mut p: SPtr<u64> = SPtr::new(&s, sva);
        for i in 0..n {
            p.set(&mut t, i * 3);
            p.add(1);
        }
        let mut pos = 0u64;
        let mut p: SPtr<u64> = SPtr::new(&s, sva);
        for (fwd, by) in steps {
            if fwd {
                let by = by.min(n - 1 - pos);
                p.add(by);
                pos += by;
            } else {
                let by = by.min(pos);
                p.sub(by);
                pos -= by;
            }
            prop_assert_eq!(p.get(&mut t), pos * 3, "pos {}", pos);
            let peek = p.offset(0);
            prop_assert!(!peek.is_linked(), "derived spointers start unlinked");
        }
        t.exit();
    }

    /// The memcached-style KVS behaves like a `HashMap` under random
    /// SET/GET/DELETE sequences, with the kv pool in SUVM behind a tiny
    /// page cache.
    #[test]
    fn kvs_matches_hashmap_model(ops in prop::collection::vec(
        (0u8..3, 0u16..40, 1usize..400), 1..120)) {
        use eleos::apps::kvs::Kvs;
        use eleos::apps::space::DataSpace;
        // A roomier backing store: the slab allocator carves 1 MiB
        // slabs, but the page cache stays tiny (8 frames).
        let m = SgxMachine::new(MachineConfig {
            epc_bytes: 2 << 20,
            untrusted_bytes: 64 << 20,
            ..MachineConfig::tiny()
        });
        let e = m.driver.create_enclave(&m, 32 << 20);
        let t0 = ThreadCtx::for_enclave(&m, &e, 0);
        let s = Suvm::new(
            &t0,
            SuvmConfig {
                epcpp_bytes: 8 * 4096,
                backing_bytes: 16 << 20,
                ..SuvmConfig::tiny()
            },
        );
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let machine = Arc::clone(&m);
        let mut kvs = Kvs::new(
            DataSpace::Untrusted(Arc::clone(&machine)),
            DataSpace::suvm(&s),
            8 << 20,
            256,
        );
        kvs.init(&mut t);
        let mut model: std::collections::HashMap<Vec<u8>, Vec<u8>> =
            std::collections::HashMap::new();
        for (op, key_id, vlen) in ops {
            let key = format!("k{key_id}").into_bytes();
            match op {
                0 => {
                    let value = vec![(key_id % 251) as u8; vlen];
                    kvs.set(&mut t, &key, &value);
                    model.insert(key, value);
                }
                1 => {
                    prop_assert_eq!(kvs.get(&mut t, &key), model.get(&key).cloned());
                }
                _ => {
                    prop_assert_eq!(kvs.delete(&mut t, &key), model.remove(&key).is_some());
                }
            }
            prop_assert_eq!(kvs.len(), model.len() as u64);
        }
        // Final sweep: every model entry is present and correct.
        for (k, v) in &model {
            let got = kvs.get(&mut t, k);
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        t.exit();
    }

    /// Ballooning to any size keeps data intact and respects limits.
    #[test]
    fn resize_preserves_contents(sizes in prop::collection::vec(2usize..16, 1..8)) {
        let (_m, s, mut t) = rig(4096);
        let sva = s.malloc(32 * 4096);
        for page in 0..32u64 {
            s.write(&mut t, sva + page * 4096, &[page as u8 + 1; 32]);
        }
        for target in sizes {
            s.resize(&mut t, target);
            prop_assert!(s.frame_limit() <= 8.max(target));
            for page in (0..32u64).step_by(5) {
                let mut b = [0u8; 32];
                s.read(&mut t, sva + page * 4096, &mut b);
                prop_assert_eq!(b, [page as u8 + 1; 32]);
            }
        }
        t.exit();
    }
}
