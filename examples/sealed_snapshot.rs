//! Warm restarts with sealed snapshots: a KVS running in one enclave
//! captures a portable [`Snapshot`] (the same library type fleet
//! failover ships over the cross-enclave channel), writes its framed
//! ciphertext to the untrusted host filesystem through exit-less file
//! syscalls — [`IoPath::call`] over the RPC ring; the same calls would
//! run by OCALL on `IoPath::Ocall` — and a second enclave "process"
//! restores it. Tampering with the file is detected.
//!
//! Run with: `cargo run --release --example sealed_snapshot`

use std::sync::Arc;

use eleos::apps::kvs::Kvs;
use eleos::apps::space::DataSpace;
use eleos::crypto::gcm::AesGcm128;
use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::rpc::{funcs, with_fs, IoPath, RpcService};
use eleos::suvm::{Snapshot, Suvm, SuvmConfig};

/// Nonce domain for this application's snapshots (would be the sealing
/// enclave's id in a fleet; any fixed scope works for a single writer).
const DOMAIN: u32 = 1;

fn main() {
    let machine = SgxMachine::new(MachineConfig {
        epc_bytes: 16 << 20,
        ..MachineConfig::default()
    });
    let svc = with_fs(RpcService::builder(&machine), &machine)
        .workers(1, &[7])
        .build();
    // The one place a syscall picks its way out of the enclave.
    let os = IoPath::Rpc(Arc::new(svc));
    // The sealing key would come from SGX sealing (EGETKEY); it is the
    // same for both "runs" of the application.
    let seal_key = AesGcm128::new(&[0x5e; 16]);
    let suvm_cfg = SuvmConfig {
        epcpp_bytes: 4 << 20,
        backing_bytes: 64 << 20,
        ..SuvmConfig::default()
    };

    // ---- Run 1: build state and snapshot it. ----
    let e1 = machine.driver.create_enclave(&machine, 64 << 20);
    let mut t1 = ThreadCtx::for_enclave(&machine, &e1, 0);
    t1.enter();
    let suvm1 = Suvm::new(&t1, suvm_cfg.clone());
    let mut kvs = Kvs::new(
        DataSpace::Untrusted(Arc::clone(&machine)),
        DataSpace::suvm(&suvm1),
        32 << 20,
        4096,
    );
    kvs.init(&mut t1);
    for i in 0..5_000u32 {
        kvs.set(
            &mut t1,
            format!("session:{i}").as_bytes(),
            &vec![(i % 251) as u8; 256],
        );
    }
    println!("run 1: stored {} items in SUVM", kvs.len());

    // Quiesce, then capture: the snapshot's sections are sealed in one
    // amortized batch and the frame stays ciphertext end-to-end.
    suvm1.quiesce(&mut t1);
    let snap = kvs.snapshot_since(&mut t1, &seal_key, DOMAIN, 1, 0);
    let blob = snap.to_bytes();
    println!(
        "snapshot sealed at epoch {}: sections {:?}, {} KiB framed",
        snap.epoch(),
        snap.section_names(),
        blob.len() / 1024
    );

    // Write it to /var/kvs.img through exit-less file syscalls.
    let staging = machine.alloc_untrusted(blob.len().next_power_of_two());
    t1.write_untrusted(staging, &blob);
    let path = machine.alloc_untrusted(64);
    t1.write_untrusted(path, b"/var/kvs.img");
    let exits_before = machine.stats.snapshot().enclave_exits;
    let fd = os.call(&mut t1, funcs::OPEN, [path, 12, 0, 0]);
    let wrote = os.call(&mut t1, funcs::WRITE, [fd, staging, blob.len() as u64, 0]);
    os.call(&mut t1, funcs::CLOSE, [fd, 0, 0, 0]);
    assert_eq!(wrote as usize, blob.len());
    println!(
        "snapshot written to the host FS without an enclave exit: {}",
        machine.stats.snapshot().enclave_exits == exits_before
    );
    t1.exit();
    drop(kvs);
    machine.driver.destroy_enclave(&machine, &e1);

    // ---- Run 2: a fresh enclave restores it. ----
    let e2 = machine.driver.create_enclave(&machine, 64 << 20);
    let mut t2 = ThreadCtx::for_enclave(&machine, &e2, 0);
    t2.enter();
    let suvm2 = Suvm::new(&t2, suvm_cfg);
    let fd = os.call(&mut t2, funcs::OPEN, [path, 12, 0, 0]);
    let size = os.call(&mut t2, funcs::FSIZE, [fd, 0, 0, 0]) as usize;
    let n = os.call(&mut t2, funcs::READ, [fd, staging, size as u64, 0]) as usize;
    assert_eq!(n, size);
    let mut reread = vec![0u8; n];
    t2.read_untrusted(staging, &mut reread);

    let mut kvs2 = Kvs::new(
        DataSpace::Untrusted(Arc::clone(&machine)),
        DataSpace::suvm(&suvm2),
        32 << 20,
        4096,
    );
    kvs2.init(&mut t2);
    // The file sat on the untrusted host: parse and restore fallibly.
    let snap = Snapshot::from_bytes(&reread).expect("the host returned the frame intact");
    let restored = kvs2
        .try_restore(&mut t2, &seal_key, &snap)
        .expect("the host returned the sections intact");
    println!("run 2: restored {restored} items");
    assert_eq!(
        kvs2.get(&mut t2, b"session:1234").as_deref(),
        Some(&vec![(1234 % 251) as u8; 256][..])
    );

    // ---- An attacker edits the file: restore fails closed. ----
    // Framing parses (the frame travels through untrusted memory), but
    // opening the tampered section fails authentication.
    let mut bad = reread.clone();
    bad[1000] ^= 0xff;
    let mut kvs3 = Kvs::new(
        DataSpace::Untrusted(Arc::clone(&machine)),
        DataSpace::suvm(&suvm2),
        32 << 20,
        4096,
    );
    kvs3.init(&mut t2);
    let tampered = Snapshot::from_bytes(&bad)
        .and_then(|snap| kvs3.try_restore(&mut t2, &seal_key, &snap))
        .expect_err("a tampered snapshot must not restore");
    println!(
        "tampered snapshot rejected ({}); {} of its items applied",
        tampered.0,
        kvs3.len()
    );
    t2.exit();
}
