//! The paper's §2 motivation, end to end: a parameter server handling
//! encrypted update requests, run untrusted, under vanilla SGX
//! (OCALLs + hardware paging) and under Eleos (exit-less RPC + SUVM).
//!
//! Run with: `cargo run --release --example param_server`

use std::sync::Arc;

use eleos::apps::io::{IoPath, ServerIoConfig};
use eleos::apps::loadgen::{attest_session, ParamLoad};
use eleos::apps::param_server::{ParamServer, TableKind};
use eleos::apps::space::DataSpace;
use eleos::apps::wire::Session;
use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::rpc::{with_syscalls, RpcService};
use eleos::suvm::{Suvm, SuvmConfig};

const DATA_BYTES: usize = 24 << 20; // exceeds the 16 MiB EPC below
const REQUESTS: usize = 3_000;

fn run(mode: &str) -> f64 {
    let machine = SgxMachine::new(MachineConfig {
        epc_bytes: 16 << 20,
        ..MachineConfig::default()
    });
    let session = Arc::new(Session::handshake([7u8; 16], [0x51u8; 16]));
    let mut ut = ThreadCtx::untrusted(&machine, 0);
    attest_session(&mut ut, &session);
    let fd = machine.host.socket(&ut, 1 << 20);

    let enclave = (mode != "native").then(|| machine.driver.create_enclave(&machine, 256 << 20));
    let (space, path, mut ctx) = match mode {
        "native" => (
            DataSpace::Untrusted(Arc::clone(&machine)),
            IoPath::Native,
            ThreadCtx::untrusted(&machine, 0),
        ),
        "sgx" => {
            let e = enclave.as_ref().expect("enclave built");
            let mut ctx = ThreadCtx::for_enclave(&machine, e, 0);
            ctx.enter();
            (DataSpace::Enclave(Arc::clone(e)), IoPath::Ocall, ctx)
        }
        "eleos" => {
            let e = enclave.as_ref().expect("enclave built");
            machine.enable_cat();
            let rpc = Arc::new(
                with_syscalls(RpcService::builder(&machine), &machine)
                    .workers(1, &[7])
                    .build(),
            );
            let t0 = ThreadCtx::for_enclave(&machine, e, 0);
            let suvm = Suvm::new(
                &t0,
                SuvmConfig {
                    epcpp_bytes: 8 << 20,
                    backing_bytes: 64 << 20,
                    ..SuvmConfig::default()
                },
            );
            let mut ctx = ThreadCtx::for_enclave(&machine, e, 0);
            ctx.enter();
            (DataSpace::suvm(&suvm), IoPath::Rpc(rpc), ctx)
        }
        other => panic!("unknown mode {other}"),
    };

    let n_keys = (DATA_BYTES / 32) as u64;
    let mut server = ParamServer::new(space, TableKind::OpenAddressing, n_keys);
    server.init(&mut ctx);
    server.populate_bulk(&mut ctx, n_keys);

    let io = ServerIoConfig::with_buf_len(64 << 10).build(&ctx, &[fd], path, Arc::clone(&session));
    let mut load = ParamLoad::new(3, n_keys, 4, None);
    machine.reset_counters();
    let c0 = ctx.now();
    let mut served = 0;
    while served < REQUESTS {
        let batch = (REQUESTS - served).min(256);
        for _ in 0..batch {
            machine
                .host
                .push_request(&ut, fd, &session.encrypt(&load.next_plain()));
        }
        for _ in 0..batch {
            let served = io.serve_one(&mut ctx, |ctx, plain| server.process(ctx, plain));
            assert!(served, "request queued");
        }
        served += batch;
    }
    let per_req = (ctx.now() - c0) as f64 / REQUESTS as f64;
    let s = machine.stats.snapshot();
    println!(
        "{mode:<8} {per_req:>9.0} cycles/request | exits {:>6} | hw faults {:>6} | suvm faults {:>6}",
        s.enclave_exits, s.hw_faults, s.suvm_major_faults
    );
    if ctx.in_enclave() {
        ctx.exit();
    }
    per_req
}

fn main() {
    println!("parameter server: 24 MiB of parameters on a 16 MiB-EPC machine, {REQUESTS} requests");
    let native = run("native");
    let sgx = run("sgx");
    let eleos = run("eleos");
    println!(
        "slowdown vs native: sgx {:.1}x, eleos {:.1}x",
        sgx / native,
        eleos / native
    );
}
