//! Cross-crate integration tests: the full server stack (wire crypto →
//! sockets → syscall path → data space) behaves identically in every
//! configuration the paper compares.

use std::sync::Arc;

use eleos::apps::io::{IoPath, ServerIoConfig};
use eleos::apps::kvs::{build_get, build_set, Kvs};
use eleos::apps::loadgen::{attest_session, KvsLoad, ParamLoad};
use eleos::apps::param_server::{ParamServer, TableKind};
use eleos::apps::space::DataSpace;
use eleos::apps::wire::Session;
use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::rpc::{with_syscalls, RpcService};
use eleos::suvm::{Suvm, SuvmConfig};

struct Stack {
    machine: Arc<SgxMachine>,
    space: DataSpace,
    path: IoPath,
    ctx: ThreadCtx,
    session: Arc<Session>,
    fd: eleos::enclave::host::Fd,
    _rpc: Option<Arc<RpcService>>,
}

fn stack(mode: &str) -> Stack {
    let machine = SgxMachine::new(MachineConfig {
        epc_bytes: 8 << 20,
        untrusted_bytes: 256 << 20,
        ..MachineConfig::tiny()
    });
    let session = Arc::new(Session::handshake([1u8; 16], [0x61u8; 16]));
    let mut ut = ThreadCtx::untrusted(&machine, 0);
    attest_session(&mut ut, &session);
    let fd = machine.host.socket(&ut, 1 << 20);
    match mode {
        "native" => Stack {
            space: DataSpace::Untrusted(Arc::clone(&machine)),
            path: IoPath::Native,
            ctx: ThreadCtx::untrusted(&machine, 0),
            machine,
            session,
            fd,
            _rpc: None,
        },
        "sgx" => {
            let e = machine.driver.create_enclave(&machine, 64 << 20);
            let mut ctx = ThreadCtx::for_enclave(&machine, &e, 0);
            ctx.enter();
            Stack {
                space: DataSpace::Enclave(e),
                path: IoPath::Ocall,
                ctx,
                machine,
                session,
                fd,
                _rpc: None,
            }
        }
        "eleos" | "eleos-direct" => {
            let e = machine.driver.create_enclave(&machine, 64 << 20);
            let rpc = Arc::new(
                with_syscalls(RpcService::builder(&machine), &machine)
                    .workers(1, &[3])
                    .build(),
            );
            let t0 = ThreadCtx::for_enclave(&machine, &e, 0);
            let suvm = Suvm::new(
                &t0,
                SuvmConfig {
                    epcpp_bytes: 1 << 20,
                    backing_bytes: 32 << 20,
                    ..SuvmConfig::default()
                },
            );
            let mut ctx = ThreadCtx::for_enclave(&machine, &e, 0);
            ctx.enter();
            Stack {
                space: if mode == "eleos-direct" {
                    DataSpace::suvm_direct(&suvm)
                } else {
                    DataSpace::suvm(&suvm)
                },
                path: IoPath::Rpc(Arc::clone(&rpc)),
                ctx,
                machine,
                session,
                fd,
                _rpc: Some(rpc),
            }
        }
        other => panic!("unknown mode {other}"),
    }
}

/// Runs the parameter server through the wire in one mode and returns
/// the final values of a set of probe keys.
fn param_server_run(mode: &str) -> Vec<u64> {
    let mut s = stack(mode);
    let n_keys = 50_000u64;
    let mut server = ParamServer::new(s.space.clone(), TableKind::OpenAddressing, n_keys);
    server.init(&mut s.ctx);
    server.populate_bulk(&mut s.ctx, n_keys);
    let io = ServerIoConfig::with_buf_len(64 << 10).build(
        &s.ctx,
        &[s.fd],
        s.path.clone(),
        Arc::clone(&s.session),
    );
    let ut = ThreadCtx::untrusted(&s.machine, 1);
    let mut load = ParamLoad::new(42, n_keys, 8, None);
    for _ in 0..200 {
        s.machine
            .host
            .push_request(&ut, s.fd, &s.session.encrypt(&load.next_plain()));
        assert!(
            io.serve_one(&mut s.ctx, |c, plain| server.process(c, plain)),
            "queued"
        );
    }
    let out = (1..=32u64)
        .map(|k| server.get(&mut s.ctx, k * 997).expect("populated key"))
        .collect();
    if s.ctx.in_enclave() {
        s.ctx.exit();
    }
    out
}

#[test]
fn param_server_agrees_across_all_modes() {
    let native = param_server_run("native");
    for mode in ["sgx", "eleos", "eleos-direct"] {
        assert_eq!(param_server_run(mode), native, "mode {mode} diverged");
    }
}

#[test]
fn eleos_mode_never_exits_the_enclave() {
    let mut s = stack("eleos");
    let mut server = ParamServer::new(s.space.clone(), TableKind::OpenAddressing, 10_000);
    server.init(&mut s.ctx);
    server.populate_bulk(&mut s.ctx, 10_000);
    let io = ServerIoConfig::with_buf_len(64 << 10).build(
        &s.ctx,
        &[s.fd],
        s.path.clone(),
        Arc::clone(&s.session),
    );
    let ut = ThreadCtx::untrusted(&s.machine, 1);
    s.machine.reset_counters();
    let mut load = ParamLoad::new(1, 10_000, 4, None);
    for _ in 0..100 {
        s.machine
            .host
            .push_request(&ut, s.fd, &s.session.encrypt(&load.next_plain()));
        assert!(
            io.serve_one(&mut s.ctx, |c, plain| server.process(c, plain)),
            "queued"
        );
    }
    let st = s.machine.stats.snapshot();
    assert_eq!(st.enclave_exits, 0, "request handling must be exit-less");
    assert_eq!(st.ocalls, 0);
    assert!(st.rpc_calls >= 200, "recv+send per request over RPC");
    s.ctx.exit();
}

#[test]
fn sgx_mode_pays_exits_and_faults() {
    let mut s = stack("sgx");
    // 16 MiB of parameters on an 8 MiB-EPC machine.
    let n_keys = (16 << 20) / 32u64;
    let mut server = ParamServer::new(s.space.clone(), TableKind::OpenAddressing, n_keys);
    server.init(&mut s.ctx);
    server.populate_bulk(&mut s.ctx, n_keys);
    let io = ServerIoConfig::with_buf_len(64 << 10).build(
        &s.ctx,
        &[s.fd],
        s.path.clone(),
        Arc::clone(&s.session),
    );
    let ut = ThreadCtx::untrusted(&s.machine, 1);
    s.machine.reset_counters();
    let mut load = ParamLoad::new(1, n_keys, 4, None);
    for _ in 0..100 {
        s.machine
            .host
            .push_request(&ut, s.fd, &s.session.encrypt(&load.next_plain()));
        assert!(
            io.serve_one(&mut s.ctx, |c, plain| server.process(c, plain)),
            "queued"
        );
    }
    let st = s.machine.stats.snapshot();
    assert_eq!(st.enclave_exits, 200, "one OCALL per recv and per send");
    assert!(st.hw_faults > 50, "out-of-EPC table must fault");
    assert!(st.tlb_flushes >= 200, "every exit flushes the TLB");
    s.ctx.exit();
}

#[test]
fn kvs_full_protocol_all_modes() {
    for mode in ["native", "sgx", "eleos", "eleos-direct"] {
        let mut s = stack(mode);
        let meta_space = DataSpace::Untrusted(Arc::clone(&s.machine));
        let mut kvs = Kvs::new(meta_space, s.space.clone(), 16 << 20, 2048);
        kvs.init(&mut s.ctx);
        let io = ServerIoConfig::with_buf_len(64 << 10).build(
            &s.ctx,
            &[s.fd],
            s.path.clone(),
            Arc::clone(&s.session),
        );
        let ut = ThreadCtx::untrusted(&s.machine, 1);
        let load = KvsLoad::new(5, 500, 20, 800);
        for i in 0..load.n_items {
            s.machine
                .host
                .push_request(&ut, s.fd, &s.session.encrypt(&load.set_plain(i)));
            assert!(
                io.serve_one(&mut s.ctx, |c, plain| kvs.process(c, plain)),
                "{mode}: SET {i}"
            );
            let resp = s
                .session
                .decrypt(&s.machine.host.pop_response(s.fd).expect("ack"));
            assert_eq!(resp, &[1u8], "{mode}: SET ack");
        }
        for i in (0..load.n_items).step_by(17) {
            s.machine
                .host
                .push_request(&ut, s.fd, &s.session.encrypt(&build_get(&load.key(i))));
            assert!(io.serve_one(&mut s.ctx, |c, plain| kvs.process(c, plain)));
            let resp = s
                .session
                .decrypt(&s.machine.host.pop_response(s.fd).expect("value"));
            assert_eq!(resp[0], 1, "{mode}: GET {i} hit");
            assert_eq!(&resp[5..], load.value(i), "{mode}: GET {i} value");
        }
        // Overwrite and delete through the protocol.
        s.machine.host.push_request(
            &ut,
            s.fd,
            &s.session.encrypt(&build_set(&load.key(3), b"tiny")),
        );
        assert!(io.serve_one(&mut s.ctx, |c, plain| kvs.process(c, plain)));
        let _ = s.machine.host.pop_response(s.fd);
        s.machine
            .host
            .push_request(&ut, s.fd, &s.session.encrypt(&build_get(&load.key(3))));
        assert!(io.serve_one(&mut s.ctx, |c, plain| kvs.process(c, plain)));
        let resp = s
            .session
            .decrypt(&s.machine.host.pop_response(s.fd).expect("value"));
        assert_eq!(&resp[5..], b"tiny", "{mode}: overwrite");
        if s.ctx.in_enclave() {
            s.ctx.exit();
        }
    }
}

#[test]
fn face_pipeline_in_enclave() {
    use eleos::apps::face::{
        build_verify_request, lbp_histogram, synth_capture, synth_image, FaceDb, FaceServer,
    };
    let mut s = stack("eleos");
    let side = 64usize;
    let mut db = FaceDb::new(s.space.clone(), side, 8);
    db.init(&mut s.ctx);
    for id in 1..=8u64 {
        db.enroll(&mut s.ctx, id, &lbp_histogram(&synth_image(id, side), side));
    }
    let enrolled = db.fetch(&mut s.ctx, 2).expect("enrolled");
    let genuine =
        eleos::apps::face::chi_square(&lbp_histogram(&synth_capture(2, side, 9), side), &enrolled);
    let impostor =
        eleos::apps::face::chi_square(&lbp_histogram(&synth_image(7, side), side), &enrolled);
    let mut server = FaceServer::new(db, (genuine + impostor) / 2.0);
    let io = ServerIoConfig::with_buf_len(side * side + 4096).build(
        &s.ctx,
        &[s.fd],
        s.path.clone(),
        Arc::clone(&s.session),
    );
    let ut = ThreadCtx::untrusted(&s.machine, 1);

    // Genuine accepted.
    let img = synth_capture(2, side, 33);
    s.machine.host.push_request(
        &ut,
        s.fd,
        &s.session.encrypt(&build_verify_request(2, side, &img)),
    );
    assert!(io.serve_one(&mut s.ctx, |c, plain| server.process(c, plain)));
    assert_eq!(
        s.session
            .decrypt(&s.machine.host.pop_response(s.fd).expect("resp")),
        &[1u8]
    );
    // Impostor rejected.
    let img = synth_image(5, side);
    s.machine.host.push_request(
        &ut,
        s.fd,
        &s.session.encrypt(&build_verify_request(2, side, &img)),
    );
    assert!(io.serve_one(&mut s.ctx, |c, plain| server.process(c, plain)));
    assert_eq!(
        s.session
            .decrypt(&s.machine.host.pop_response(s.fd).expect("resp")),
        &[0u8]
    );
    // Unknown identity.
    s.machine.host.push_request(
        &ut,
        s.fd,
        &s.session
            .encrypt(&build_verify_request(99, side, &synth_image(1, side))),
    );
    assert!(io.serve_one(&mut s.ctx, |c, plain| server.process(c, plain)));
    assert_eq!(
        s.session
            .decrypt(&s.machine.host.pop_response(s.fd).expect("resp")),
        &[2u8]
    );
    s.ctx.exit();
}

/// What one request path cost: the serving thread's final clock and
/// the stat deltas over the script.
#[derive(Debug, PartialEq)]
struct Pinned {
    now: u64,
    enclave_exits: u64,
    ocalls: u64,
    syscalls: u64,
    kernel_meta_reads: u64,
    rpc_calls: u64,
    rpc_batches: u64,
    crypto_setup_cycles: u64,
}

/// Serves one seeded 64-request script — eight blocks of eight,
/// alternating KVS SET/GET and parameter update/read — in `mode`, per
/// message (`batch = 1`) or a block at a time, and returns what it
/// cost plus every reply.
fn pinned_request_path(mode: &str, batch: usize) -> (Pinned, Vec<Vec<u8>>) {
    use eleos::apps::param_server::{build_read_request, build_update_request};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    let mut s = stack(mode);
    let ut = ThreadCtx::untrusted(&s.machine, 1);
    let ps_fd = s.machine.host.socket(&ut, 1 << 20);
    let meta_space = DataSpace::Untrusted(Arc::clone(&s.machine));
    let mut kvs = Kvs::new(meta_space, s.space.clone(), 16 << 20, 256);
    kvs.init(&mut s.ctx);
    let mut ps = ParamServer::new(s.space.clone(), TableKind::OpenAddressing, 256);
    ps.init(&mut s.ctx);
    let build = |fd| {
        let cfg = ServerIoConfig::with_buf_len(64 << 10);
        let cfg = if batch == 1 { cfg } else { cfg.batch(batch) };
        cfg.build(&s.ctx, &[fd], s.path.clone(), Arc::clone(&s.session))
    };
    let (kvs_io, ps_io) = (build(s.fd), build(ps_fd));

    let mut rng = StdRng::seed_from_u64(18);
    let script: Vec<Vec<u8>> = (0..64usize)
        .map(|i| {
            let to_kvs = (i / 8) % 2 == 0;
            let write = rng.random_range(0..2u32) == 0 || i % 8 == 0;
            if to_kvs {
                let key = format!("key-{}", rng.random_range(0..16u32));
                if write {
                    let len = rng.random_range(16..256usize);
                    build_set(key.as_bytes(), &vec![i as u8; len])
                } else {
                    build_get(key.as_bytes())
                }
            } else {
                let keys: Vec<u64> = (0..4).map(|_| rng.random_range(1..=64u64)).collect();
                if write {
                    let pairs: Vec<(u64, u64)> = keys.iter().map(|&k| (k, i as u64)).collect();
                    build_update_request(&pairs)
                } else {
                    build_read_request(&keys)
                }
            }
        })
        .collect();

    let s0 = s.machine.stats.snapshot();
    let mut replies = Vec::new();
    for (block, requests) in script.chunks(8).enumerate() {
        let to_kvs = block % 2 == 0;
        let fd = if to_kvs { s.fd } else { ps_fd };
        for step in requests.chunks(batch) {
            for plain in step {
                s.machine
                    .host
                    .push_request(&ut, fd, &s.session.encrypt(plain));
            }
            let ctx = &mut s.ctx;
            let served = match (to_kvs, batch) {
                (true, 1) => usize::from(kvs_io.serve_one(ctx, |c, plain| kvs.process(c, plain))),
                (true, _) => kvs.handle_batch(ctx, &kvs_io),
                (false, 1) => usize::from(ps_io.serve_one(ctx, |c, plain| ps.process(c, plain))),
                (false, _) => ps_io.serve(ctx, |c, plain| ps.process(c, plain)),
            };
            assert_eq!(served, step.len(), "{mode}/{batch}: block {block}");
            for _ in step {
                let sealed = s.machine.host.pop_response(fd).expect("reply");
                replies.push(s.session.decrypt(&sealed));
            }
        }
    }
    let d = s.machine.stats.snapshot() - s0;
    let pinned = Pinned {
        now: s.ctx.now(),
        enclave_exits: d.enclave_exits,
        ocalls: d.ocalls,
        syscalls: d.syscalls,
        kernel_meta_reads: d.kernel_meta_reads,
        rpc_calls: d.rpc_calls,
        rpc_batches: d.rpc_batches,
        crypto_setup_cycles: d.crypto_setup_cycles,
    };
    if s.ctx.in_enclave() {
        s.ctx.exit();
    }
    (pinned, replies)
}

/// The unit-speed guard of the request path: the same script costs the
/// serving thread the same cycles, exits, syscalls and crypto set-up as
/// it did at the commit before PR 18 put one syscall table behind
/// `IoPath` and one serve loop behind every front-end (the constants
/// were measured there) — on the native and OCALL baselines too, which
/// the e2e instrument covers only through its ungated `ref.*` row.
/// The one exception is the batch-8 Eleos cell, whose one-worker reaps
/// read each descriptor line as the worker publishes it (434 167 before
/// the receive leg was streamed). Every cell's clock was re-measured
/// when a GET hit began setting a referenced bit instead of relinking
/// its item on the LRU: each fell by 4.8–5.8 k cycles. They fell again
/// when a serve round's decrypts and seals became one wire batch: 300
/// cycles of set-up per round, 19 200 at batch 1 and 2 400 at batch 8.
/// Both Eleos cells fell by 37 450 when a SET overwrite and a parameter
/// update or read began going through the cursor that read the key.
#[test]
fn request_path_cycles_are_pinned() {
    let pin = |now, exits, syscalls, rpc, crypto_setup_cycles| Pinned {
        now,
        enclave_exits: exits,
        ocalls: exits,
        syscalls,
        kernel_meta_reads: syscalls,
        rpc_calls: rpc,
        rpc_batches: rpc,
        crypto_setup_cycles,
    };
    let cells = [
        ("native", 1, pin(527_425, 0, 128, 0, 32_000)),
        ("sgx", 1, pin(1_682_769, 128, 128, 0, 32_000)),
        ("eleos", 1, pin(788_925, 0, 128, 128, 32_000)),
        ("eleos", 8, pin(377_477, 0, 16, 16, 15_200)),
    ];
    let mut reference: Option<Vec<Vec<u8>>> = None;
    for (mode, batch, expected) in cells {
        let (measured, replies) = pinned_request_path(mode, batch);
        assert_eq!(measured, expected, "{mode}, batch {batch}");
        assert_eq!(replies.len(), 64);
        let reference = reference.get_or_insert_with(|| replies.clone());
        assert_eq!(
            &replies, reference,
            "{mode}, batch {batch}: replies diverged"
        );
    }
}
