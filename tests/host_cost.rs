//! What one delta round costs the *host*: `Kvs::snapshot_since` on the
//! e2e `fleet-open` replica's store (4 096 items of 16-byte keys and
//! 64-byte values, 8 192 buckets, metadata in clear memory, data in
//! enclave memory), once bounded past the fill with 40 writes since its
//! base and once whole (`base = 0`). It times and checks nothing, so it
//! is ignored by default; `scripts/ci.sh` prints its table:
//!
//! ```text
//! cargo test --release --test host_cost -- --ignored --nocapture
//! ```

use std::sync::Arc;
use std::time::Instant;

use eleos::apps::kvs::Kvs;
use eleos::apps::space::DataSpace;
use eleos::crypto::gcm::AesGcm128;
use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::sim::llc::LlcConfig;

/// The e2e bench's `fleet-open` store (`bench/src/workload.rs`).
const ITEMS: u32 = 4_096;
const BUCKETS: u64 = 8_192;
const WRITES: u32 = 40;

#[test]
#[ignore = "host timing, not a check: run with --ignored --nocapture"]
fn host_us_per_delta_round() {
    const ROUNDS: usize = 7;
    let m = SgxMachine::new(MachineConfig {
        epc_bytes: (93 << 20) / 8,
        llc: LlcConfig {
            size: 1 << 20,
            ways: 16,
        },
        ..MachineConfig::default()
    });
    let e = m.driver.create_enclave(&m, 16 << 20);
    let mut t = ThreadCtx::for_enclave(&m, &e, 1);
    t.enter();
    let mut kvs = Kvs::new(
        DataSpace::Untrusted(Arc::clone(&m)),
        DataSpace::Enclave(Arc::clone(&e)),
        8 << 20,
        BUCKETS,
    );
    kvs.init(&mut t);
    let key = |i: u32| format!("key-{i:012}");
    for i in 0..ITEMS {
        kvs.set(&mut t, key(i).as_bytes(), &[i as u8; 64]);
    }
    kvs.set_write_version(2);
    for i in 0..WRITES {
        kvs.set(&mut t, key(i * 97 % ITEMS).as_bytes(), &[!(i as u8); 64]);
    }
    let sealer = AesGcm128::new(&[0x2a; 16]);

    println!("| round | items | host µs / call | simulated cycles / call |");
    println!("|---|---:|---:|---:|");
    for (round, base) in [
        ("delta (40 writes since `base`)", 2),
        ("full (`base = 0`)", 0),
    ] {
        // One untimed round warms the host caches and the simulated LLC.
        let s0 = m.stats.snapshot().snapshot_delta_items;
        let _ = kvs.snapshot_since(&mut t, &sealer, 1, 1, base);
        let items = m.stats.snapshot().snapshot_delta_items - s0;
        let mut rounds: Vec<(f64, u64)> = (0..ROUNDS)
            .map(|_| {
                let (t0, c0) = (Instant::now(), t.now());
                let _ = kvs.snapshot_since(&mut t, &sealer, 1, 1, base);
                (t0.elapsed().as_nanos() as f64 / 1e3, t.now() - c0)
            })
            .collect();
        rounds.sort_by(|a, b| a.0.total_cmp(&b.0));
        let (us, cycles) = rounds[ROUNDS / 2];
        println!("| {round} | {items} | {us:.1} | {cycles} |");
    }
    t.exit();
}
