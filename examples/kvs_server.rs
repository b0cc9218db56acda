//! A memcached-style key-value store in an enclave, the paper's §5.1
//! port: clear metadata in untrusted memory, keys/values in SUVM,
//! syscalls over exit-less RPC.
//!
//! Run with: `cargo run --release --example kvs_server`

use std::sync::Arc;

use eleos::apps::io::{IoPath, ServerIoConfig};
use eleos::apps::kvs::Kvs;
use eleos::apps::loadgen::attest_session;
use eleos::apps::space::DataSpace;
use eleos::apps::text_protocol::{format_get, format_set, process_text};
use eleos::apps::wire::Session;
use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::rpc::{with_syscalls, RpcService};
use eleos::suvm::{Suvm, SuvmConfig};

fn main() {
    let machine = SgxMachine::new(MachineConfig {
        epc_bytes: 16 << 20,
        ..MachineConfig::default()
    });
    machine.enable_cat();
    let enclave = machine.driver.create_enclave(&machine, 128 << 20);
    let rpc = Arc::new(
        with_syscalls(RpcService::builder(&machine), &machine)
            .workers(1, &[7])
            .build(),
    );
    let t0 = ThreadCtx::for_enclave(&machine, &enclave, 0);
    let suvm = Suvm::new(
        &t0,
        SuvmConfig {
            epcpp_bytes: 8 << 20,
            backing_bytes: 128 << 20,
            ..SuvmConfig::default()
        },
    );

    // The §5.1 split: hash chains and LRU links in clear untrusted
    // memory; keys, values and sizes sealed in SUVM.
    let mut kvs = Kvs::new(
        DataSpace::Untrusted(Arc::clone(&machine)),
        DataSpace::suvm(&suvm),
        64 << 20,
        1 << 15,
    );

    let session = Arc::new(Session::handshake([9u8; 16], [0x52u8; 16]));
    let mut ut = ThreadCtx::untrusted(&machine, 0);
    attest_session(&mut ut, &session);
    let fd = machine.host.socket(&ut, 1 << 20);
    let mut ctx = ThreadCtx::for_enclave(&machine, &enclave, 0);
    ctx.enter();
    kvs.init(&mut ctx);
    let io = ServerIoConfig::with_buf_len(64 << 10).build(
        &ctx,
        &[fd],
        IoPath::Rpc(Arc::clone(&rpc)),
        Arc::clone(&session),
    );

    // "memaslap" session: SETs filling 32 MiB (4x the EPC++), then GETs.
    let n_items = 32_000u32;
    println!("filling {n_items} items of 1 KiB over the memcached ASCII protocol...");
    for i in 0..n_items {
        let key = format!("user:{i:08}");
        let value = vec![(i % 251) as u8; 1024];
        machine.host.push_request(
            &ut,
            fd,
            &session.encrypt(&format_set(key.as_bytes(), 0, 0, &value)),
        );
        assert!(io.serve_one(&mut ctx, |ctx, msg| process_text(&mut kvs, ctx, msg)));
        let ack = session.decrypt(&machine.host.pop_response(fd).expect("ack"));
        assert_eq!(ack, b"STORED\r\n");
    }
    println!(
        "store: {} items, {} MiB secure pool, {} LRU evictions",
        kvs.len(),
        kvs.pool_bytes() >> 20,
        kvs.evictions()
    );

    machine.reset_counters();
    let c0 = ctx.now();
    let gets = 5_000u32;
    for i in 0..gets {
        let key = format!("user:{:08}", (i * 6151) % n_items);
        machine
            .host
            .push_request(&ut, fd, &session.encrypt(&format_get(key.as_bytes())));
        assert!(io.serve_one(&mut ctx, |ctx, msg| process_text(&mut kvs, ctx, msg)));
        let resp = session.decrypt(&machine.host.pop_response(fd).expect("response sent"));
        assert!(resp.starts_with(b"VALUE "), "GET must hit");
    }
    let s = machine.stats.snapshot();
    println!(
        "{gets} GETs: {:.0} cycles/op | enclave exits {} | SUVM faults {} (clean-skipped {})",
        (ctx.now() - c0) as f64 / gets as f64,
        s.enclave_exits,
        s.suvm_major_faults,
        s.suvm_clean_skips,
    );
    ctx.exit();
}
