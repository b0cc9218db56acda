//! Security properties of the full stack (paper §3.2.5): privacy,
//! integrity and freshness of everything that leaves the enclave.

use std::sync::{Arc, Mutex};

use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::suvm::{Suvm, SuvmConfig};

/// A recognizable 32-byte secret marker.
const SECRET: &[u8; 32] = b"TOP-SECRET-MARKER-0123456789abcd";

fn small_machine() -> Arc<SgxMachine> {
    SgxMachine::new(MachineConfig {
        epc_bytes: 2 << 20,
        untrusted_bytes: 64 << 20,
        ..MachineConfig::tiny()
    })
}

/// Everything the host can see: a copy of all of untrusted memory.
fn untrusted_image(m: &SgxMachine) -> Vec<u8> {
    let mut all = vec![0u8; m.untrusted.size()];
    m.untrusted.read(0, &mut all);
    all
}

/// Where two readings of untrusted memory first differ.
fn first_change(before: &[u8], after: &[u8]) -> usize {
    before
        .iter()
        .zip(after)
        .position(|(a, b)| a != b)
        .expect("the step in between wrote to untrusted memory")
}

/// First address in untrusted memory holding `needle`.
fn untrusted_find(m: &SgxMachine, needle: &[u8]) -> Option<u64> {
    untrusted_image(m)
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|at| at as u64)
}

/// Whether `needle` appears anywhere in untrusted memory.
fn untrusted_contains(m: &SgxMachine, needle: &[u8]) -> bool {
    untrusted_find(m, needle).is_some()
}

#[test]
fn suvm_data_never_appears_in_untrusted_memory() {
    let m = small_machine();
    let e = m.driver.create_enclave(&m, 16 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let suvm = Suvm::new(
        &t0,
        SuvmConfig {
            epcpp_bytes: 256 << 10,
            backing_bytes: 8 << 20,
            ..SuvmConfig::tiny()
        },
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let sva = suvm.malloc(4 << 20);
    // Write the marker into many pages, then force everything out to
    // the (untrusted) backing store.
    for page in 0..1024u64 {
        suvm.write(&mut t, sva + page * 4096 + 100, SECRET);
    }
    while suvm.evict_one(&mut t) {}
    assert_eq!(suvm.resident_pages(), 0);
    assert!(
        !untrusted_contains(&m, SECRET),
        "plaintext leaked into untrusted memory"
    );
    // And it still reads back correctly (sealed, not lost).
    let mut buf = [0u8; 32];
    suvm.read(&mut t, sva + 500 * 4096 + 100, &mut buf);
    assert_eq!(&buf, SECRET);
    t.exit();
}

#[test]
fn hw_paged_enclave_data_never_appears_in_untrusted_memory() {
    let m = small_machine();
    let e = m.driver.create_enclave(&m, 16 << 20);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let base = e.alloc(8 << 20);
    // 8 MiB through a 2 MiB EPC: most pages get EWB'd out.
    for page in 0..2048u64 {
        t.write_enclave(base + page * 4096 + 64, SECRET);
    }
    assert!(
        m.stats.snapshot().hw_evictions > 0,
        "working set must exceed the EPC"
    );
    assert!(
        !untrusted_contains(&m, SECRET),
        "EWB leaked plaintext into untrusted memory"
    );
    let mut buf = [0u8; 32];
    t.read_enclave(base + 7 * 4096 + 64, &mut buf);
    assert_eq!(&buf, SECRET);
    t.exit();
}

#[test]
fn wire_messages_are_confidential() {
    let w = eleos::apps::wire::Session::established([3u8; 16]);
    let msg = w.encrypt(SECRET);
    assert!(
        !msg.windows(8).any(|s| SECRET.windows(8).any(|p| p == s)),
        "request plaintext visible on the wire"
    );
    assert_eq!(w.decrypt(&msg), SECRET);
}

// ---------------------------------------------------------------------
// Session lifecycle: attestation, replay, revocation
// ---------------------------------------------------------------------

#[test]
fn handshake_replay_is_rejected() {
    use eleos::apps::wire::{Session, SessionState};
    let m = small_machine();
    let mut ut = ThreadCtx::untrusted(&m, 0);
    let s = Session::handshake([7u8; 16], [0x11u8; 16]);
    let nonce = s.fresh_nonce();
    let report = s.evidence(&mut ut, nonce);
    s.verify(&mut ut, &[0x11u8; 16], nonce, &report)
        .expect("a fresh report verifies");
    assert_eq!(s.state(), SessionState::Established(0));
    // An eavesdropper replays the same (nonce, report) pair: the
    // freshness floor must refuse it even though the MAC is genuine.
    let replayed = s.verify(&mut ut, &[0x11u8; 16], nonce, &report);
    assert!(replayed.is_err(), "replayed evidence must not verify");
    assert_eq!(m.stats.snapshot().auth_failures, 1, "the replay is counted");
}

#[test]
fn wrong_identity_evidence_fails_verification() {
    use eleos::apps::wire::{Session, SessionState};
    let m = small_machine();
    let mut ut = ThreadCtx::untrusted(&m, 0);
    let s = Session::handshake([7u8; 16], [0x11u8; 16]);
    let nonce = s.fresh_nonce();
    let report = s.evidence(&mut ut, nonce);
    // The verifier expected a different enclave identity: the report's
    // MAC covers the identity, so it cannot be transplanted.
    let err = s.verify(&mut ut, &[0x22u8; 16], nonce, &report);
    assert!(err.is_err(), "evidence must bind the enclave identity");
    assert_eq!(s.state(), SessionState::Handshake, "no session forms");
    assert_eq!(m.stats.snapshot().auth_failures, 1);
}

#[test]
fn revoked_session_drops_queued_messages() {
    use eleos::apps::io::{IoPath, ServerIoConfig};
    use eleos::apps::wire::Session;
    let m = small_machine();
    let mut ut = ThreadCtx::untrusted(&m, 0);
    let session = Arc::new(Session::established([5u8; 16]));
    let fd = m.host.socket(&ut, 64 << 10);
    let io =
        ServerIoConfig::with_buf_len(4096).build(&ut, &[fd], IoPath::Native, Arc::clone(&session));
    for i in 0..4u8 {
        m.host.push_request(&ut, fd, &session.encrypt(&[i; 16]));
    }
    let dropped = io.revoke(&mut ut);
    assert_eq!(dropped, 4, "revocation reports the traffic it dropped");
    assert_eq!(m.host.rx_pending(fd), 0, "the shard slot is drained");
    let st = m.stats.snapshot();
    assert_eq!(st.revocations, 1);
    assert_eq!(st.auth_failures, 4, "each dropped message is counted");
    assert!(
        io.recv_msg_blocking(&mut ut).is_none(),
        "a revoked session stops yielding messages"
    );
}

/// Any network peer — no session needed — can put arbitrary bytes on
/// a server socket. A frame too short to carry the nonce prefix, or
/// one tagged with an epoch outside the key buffer, is dropped and
/// counted like any other refused frame: the enclave does not panic,
/// the valid requests around it are answered on the sockets they
/// arrived on, and the next clean round is served.
#[test]
fn short_and_unknown_epoch_frames_are_dropped_not_fatal() {
    use eleos::apps::io::{IoPath, ServerIoConfig};
    use eleos::apps::wire::{Session, NONCE_LEN};
    use eleos::rpc::{with_syscalls, RpcService};

    for sharded in [true, false] {
        let m = small_machine();
        let e = m.driver.create_enclave(&m, 1 << 20);
        let session = Arc::new(Session::established([3u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 1);
        // Two shards on the RPC path; the native baseline is one socket.
        let (fds, path, mut t) = if sharded {
            let svc = with_syscalls(RpcService::builder(&m), &m)
                .workers(1, &[3])
                .build();
            let mut t = ThreadCtx::for_enclave(&m, &e, 0);
            t.enter();
            let fds = m.host.socket_set(&ut, 2, 64 << 10);
            (fds, IoPath::Rpc(Arc::new(svc)), t)
        } else {
            let fds = vec![m.host.socket(&ut, 64 << 10)];
            (fds, IoPath::Native, ThreadCtx::untrusted(&m, 0))
        };
        let io = ServerIoConfig::with_buf_len(8192).batch(8).build(
            &ut,
            &fds,
            path,
            Arc::clone(&session),
        );
        let (first, last) = (fds[0], fds[fds.len() - 1]);
        let push = |fd, frame: &[u8]| m.host.push_request(&ut, fd, frame);
        // One echo round: whatever the reap accepts goes straight back.
        let mut echo = || {
            let got = io.recv_batch(&mut t);
            io.send_batch(&mut t, &got);
            got
        };
        let reply = |fd| m.host.pop_response(fd).map(|r| session.decrypt(&r));

        // [valid, 1 byte, unknown epoch] on the first socket, [one byte
        // short of the nonce, valid] on the last.
        push(first, &session.encrypt(&[1u8; 24]));
        push(first, &[0x5a]);
        push(first, &[0xff; NONCE_LEN + 24]);
        push(last, &[0x5a; NONCE_LEN - 1]);
        push(last, &session.encrypt(&[2u8; 24]));
        assert_eq!(echo(), vec![vec![1u8; 24], vec![2u8; 24]]);
        assert_eq!(m.stats.snapshot().auth_failures, 3, "sharded={sharded}");
        assert_eq!(reply(first), Some(vec![1u8; 24]));
        assert_eq!(reply(last), Some(vec![2u8; 24]));

        // The following clean round is served as usual.
        push(first, &session.encrypt(&[3u8; 24]));
        push(last, &session.encrypt(&[4u8; 24]));
        assert_eq!(echo(), vec![vec![3u8; 24], vec![4u8; 24]]);
        assert_eq!(reply(first), Some(vec![3u8; 24]));
        assert_eq!(reply(last), Some(vec![4u8; 24]));
        assert!(fds.iter().all(|&fd| m.host.pop_response(fd).is_none()));
        assert_eq!(m.stats.snapshot().auth_failures, 3);
    }
}

/// The host writes the results of a `recv_mmsg` job — the message
/// count and the per-message length descriptors — into untrusted
/// memory. A hostile host that inflates either must get the message
/// rejected and counted, never an oversized allocation, an out-of-slot
/// read or a panic, and the next honest reap must be served.
#[test]
fn hostile_receive_descriptors_are_rejected_not_trusted() {
    use eleos::apps::io::{IoPath, ServerIoConfig};
    use eleos::apps::wire::Session;
    use eleos::enclave::host::Fd;
    use eleos::rpc::{funcs, with_syscalls, RpcService, UntrustedFn};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const DEPTH: u64 = 4;
    let m = small_machine();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let session = Arc::new(Session::established([7u8; 16]));
    let ut = ThreadCtx::untrusted(&m, 1);
    let fd = m.host.socket(&ut, 64 << 10);
    // Call 0 claims more messages than the job asked for; call 1
    // returns two messages, the first with a 4 GiB length descriptor;
    // every later call is the honest syscall.
    let calls = AtomicUsize::new(0);
    let host = Arc::clone(&m);
    let hostile = UntrustedFn::new(move |ctx, args| {
        let (stripe, max) = ((args[2] >> 32) as usize, (args[2] & 0xffff_ffff) as usize);
        let honest = host
            .host
            .recv_mmsg(ctx, Fd(args[0] as u32), args[1], stripe, max, args[3]);
        match calls.fetch_add(1, Ordering::SeqCst) {
            0 => DEPTH + 1,
            1 => {
                assert_eq!(honest, 2);
                ctx.write_untrusted(args[3], &(1u64 << 32).to_le_bytes());
                2
            }
            _ => honest as u64,
        }
    });
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .register(funcs::RECV_MMSG, hostile)
        .workers(1, &[3])
        .build();
    let io = ServerIoConfig::with_buf_len(8192)
        .batch(DEPTH as usize)
        .build(&ut, &[fd], IoPath::Rpc(Arc::new(svc)), Arc::clone(&session));
    let push = |body: u8| m.host.push_request(&ut, fd, &session.encrypt(&[body; 24]));
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();

    push(1);
    assert!(
        io.recv_batch(&mut t).is_empty(),
        "a count above the requested depth discards the run"
    );
    assert_eq!(m.stats.snapshot().desc_rejects, 1);

    push(2);
    push(3);
    let got = io.recv_batch(&mut t);
    assert_eq!(
        got,
        vec![vec![3u8; 24]],
        "the oversized descriptor's message is dropped, its neighbour served"
    );
    assert_eq!(m.stats.snapshot().desc_rejects, 2);
    // The reap record matches what was accepted: one reply goes out.
    io.send_batch(&mut t, &got);
    assert_eq!(
        session.decrypt(&m.host.pop_response(fd).unwrap()),
        [3u8; 24]
    );
    assert!(m.host.pop_response(fd).is_none());

    for body in 4..8u8 {
        push(body);
    }
    let got = io.recv_batch(&mut t);
    assert_eq!(
        got,
        (4..8u8).map(|b| vec![b; 24]).collect::<Vec<_>>(),
        "the following well-formed reap is served in order"
    );
    io.send_batch(&mut t, &got);
    for body in 4..8u8 {
        assert_eq!(
            session.decrypt(&m.host.pop_response(fd).unwrap()),
            [body; 24]
        );
    }
    assert_eq!(m.stats.snapshot().desc_rejects, 2);
    t.exit();

    streamed_overcount_discards_what_was_streamed();
    streamed_refused_frames_are_not_billed();
    streamed_rekey_mid_reap_bills_what_it_opens();
    ahead_runs_are_bounded_like_any_reap();
}

/// A serve loop on one worker takes a two-shard reap's runs as they
/// land: the first run (shard 0) is read, served and sent before the
/// second (shard 1) is read. Two hostile cases on the first run, at a
/// depth whose runs are read whole (4) and at one whose runs are read
/// line by line (8): the host writes back a count above the depth,
/// which discards the run and counts one `desc_rejects`; or one of its
/// frames does not open, which drops that frame alone and counts one
/// `auth_failures`. Either way the second run is still served, and
/// every reply leaves on its own shard's socket, in order — through
/// `serve_on` and through `serve`.
#[test]
fn a_hostile_run_leaves_the_next_run_of_a_pipelined_serve_whole() {
    use eleos::apps::io::{IoPath, ServerIoConfig};
    use eleos::apps::wire::{Session, NONCE_LEN};
    use eleos::enclave::host::Fd;
    use eleos::rpc::{funcs, with_syscalls, RpcService, UntrustedFn};
    use std::sync::atomic::{AtomicBool, Ordering};

    for depth in [4u64, 8] {
        for lone in [false, true] {
            for overcount in [true, false] {
                let case = format!("depth {depth}, lone {lone}, overcount {overcount}");
                let m = small_machine();
                let e = m.driver.create_enclave(&m, 1 << 20);
                let session = Arc::new(Session::established([13u8; 16]));
                let ut = ThreadCtx::untrusted(&m, 1);
                let fds = m.host.socket_set(&ut, 2, 64 << 10);
                // The first `recv_mmsg` (run 1) lies when told to.
                let lie = AtomicBool::new(overcount);
                let host = Arc::clone(&m);
                let liar = UntrustedFn::new(move |ctx, args| {
                    let (stripe, max) =
                        ((args[2] >> 32) as usize, (args[2] & 0xffff_ffff) as usize);
                    let honest =
                        host.host
                            .recv_mmsg(ctx, Fd(args[0] as u32), args[1], stripe, max, args[3]);
                    if lie.swap(false, Ordering::SeqCst) {
                        depth + 1
                    } else {
                        honest as u64
                    }
                });
                let svc = with_syscalls(RpcService::builder(&m), &m)
                    .register(funcs::RECV_MMSG, liar)
                    .workers(1, &[3])
                    .build();
                let io = ServerIoConfig::with_buf_len(16 << 10)
                    .batch(depth as usize)
                    .build(&ut, &fds, IoPath::Rpc(Arc::new(svc)), Arc::clone(&session));
                let mut t = ThreadCtx::for_enclave(&m, &e, 0);
                t.enter();
                // Run 1: three requests, the middle one a frame under an
                // epoch the session never had. Run 2: two requests.
                let frame = |b: u8| session.encrypt(&[b; 24]);
                for req in [frame(1), vec![0xff; NONCE_LEN + 24], frame(2)] {
                    m.host.push_request(&ut, fds[0], &req);
                }
                for b in [3, 4] {
                    m.host.push_request(&ut, fds[1], &frame(b));
                }
                let echo = |_: &mut ThreadCtx, plain: &[u8]| plain.to_vec();
                let served = if lone {
                    io.serve(&mut t, echo)
                } else {
                    io.serve_on(&mut t, &[0, 1], echo)
                };
                t.exit();
                let replies = |fd| -> Vec<Vec<u8>> {
                    std::iter::from_fn(|| m.host.pop_response(fd))
                        .map(|r| session.decrypt(&r))
                        .collect()
                };
                let st = m.stats.snapshot();
                let run1: Vec<Vec<u8>> = if overcount {
                    Vec::new()
                } else {
                    vec![vec![1; 24], vec![2; 24]]
                };
                assert_eq!(replies(fds[0]), run1, "{case}: run 1's replies");
                assert_eq!(
                    replies(fds[1]),
                    [vec![3u8; 24], vec![4; 24]],
                    "{case}: run 2 is served whole, on its own socket"
                );
                assert_eq!(served, run1.len() + 2, "{case}");
                assert_eq!(st.desc_rejects, u64::from(overcount), "{case}");
                assert_eq!(st.auth_failures, u64::from(!overcount), "{case}");
            }
        }
    }
}

/// What a lying host writes back for one `recv_mmsg` job, given the
/// job's arguments and the honest count.
type Lie = fn(&mut ThreadCtx, [u64; 4], u64) -> u64;

/// A reap posted ahead reads what the host wrote for its job through
/// the bounds of any reap. Eight requests are queued at depth four, so
/// the first reap posts the second ahead and the send after it opens
/// that one while the worker transmits. Three hosts lie about the
/// ahead job: a count above the depth discards the run and serves
/// nothing, a 4 GiB descriptor drops its message, and a count below
/// what the job popped serves only what it counts. None panics, every
/// served request is answered, and the next honest reap is served.
fn ahead_runs_are_bounded_like_any_reap() {
    use eleos::apps::io::{IoPath, ServerIoConfig};
    use eleos::apps::wire::Session;
    use eleos::enclave::host::Fd;
    use eleos::rpc::{funcs, with_syscalls, RpcService, UntrustedFn};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let over: Lie = |_, _, _| 5;
    let long: Lie = |ctx, args, honest| {
        ctx.write_untrusted(args[3], &(1u64 << 32).to_le_bytes());
        honest
    };
    let short: Lie = |_, _, honest| honest - 2;
    let cases: [(&str, Lie, &[u8], u64); 3] = [
        ("a count above the depth", over, &[], 1),
        ("an over-long descriptor", long, &[5, 6, 7], 1),
        ("a count below the queue", short, &[4, 5], 0),
    ];
    for (case, lie, served, rejects) in cases {
        let m = small_machine();
        let e = m.driver.create_enclave(&m, 1 << 20);
        let session = Arc::new(Session::established([11u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 1);
        let fd = m.host.socket(&ut, 64 << 10);
        // Call 1 is the job posted ahead; every other call is honest.
        let calls = AtomicUsize::new(0);
        let host = Arc::clone(&m);
        let liar = UntrustedFn::new(move |ctx, args| {
            let (stripe, max) = ((args[2] >> 32) as usize, (args[2] & 0xffff_ffff) as usize);
            let honest =
                host.host
                    .recv_mmsg(ctx, Fd(args[0] as u32), args[1], stripe, max, args[3]);
            match calls.fetch_add(1, Ordering::SeqCst) {
                1 => lie(ctx, args, honest as u64),
                _ => honest as u64,
            }
        });
        let svc = with_syscalls(RpcService::builder(&m), &m)
            .register(funcs::RECV_MMSG, liar)
            .workers(1, &[3])
            .build();
        let io = ServerIoConfig::with_buf_len(8192).batch(4).build(
            &ut,
            &[fd],
            IoPath::Rpc(Arc::new(svc)),
            Arc::clone(&session),
        );
        let push = |body: u8| m.host.push_request(&ut, fd, &session.encrypt(&[body; 24]));
        let bodies =
            |bodies: &[u8]| -> Vec<Vec<u8>> { bodies.iter().map(|&b| vec![b; 24]).collect() };
        let replies = || -> Vec<Vec<u8>> {
            std::iter::from_fn(|| m.host.pop_response(fd))
                .map(|r| session.decrypt(&r))
                .collect()
        };
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();

        for body in 0..8u8 {
            push(body);
        }
        let got = io.recv_batch(&mut t);
        assert_eq!(got, bodies(&[0, 1, 2, 3]), "{case}: the first reap");
        let s0 = m.stats.snapshot();
        io.send_batch(&mut t, &got);
        assert_eq!(replies(), got, "{case}: the first reap is answered");
        let got = io.recv_batch(&mut t);
        let d = m.stats.snapshot() - s0;
        assert_eq!(got, bodies(served), "{case}: the reap posted ahead");
        assert_eq!(d.desc_rejects, rejects, "{case}");
        io.send_batch(&mut t, &got);
        assert_eq!(replies(), got, "{case}: what was served is answered");

        for body in 8..12u8 {
            push(body);
        }
        let got = io.recv_batch(&mut t);
        assert_eq!(got, bodies(&[8, 9, 10, 11]), "{case}: the next honest reap");
        t.exit();
    }
}

/// A rotation that lands while the worker copies a streamed reap —
/// another replica's thread rekeying the shared session — overwrites
/// the key of the oldest epoch still queued. The reap bills and opens
/// its frames by one snapshot of the session: the frames under the
/// lost epoch are dropped and counted without being billed, every
/// frame it bills is opened, and the rest are served and answered.
fn streamed_rekey_mid_reap_bills_what_it_opens() {
    use eleos::apps::io::{IoPath, ServerIoConfig};
    use eleos::apps::wire::{Session, SessionState};
    use eleos::enclave::host::Fd;
    use eleos::rpc::{funcs, with_syscalls, RpcService, UntrustedFn};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let m = small_machine();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let session = Arc::new(Session::established([10u8; 16]));
    let ut = ThreadCtx::untrusted(&m, 1);
    let fd = m.host.socket(&ut, 64 << 10);
    // Frames 1 and 2 are sealed under epoch 0, 3 to 6 under epoch 1.
    let mut rotate = ThreadCtx::untrusted(&m, 2);
    let old: Vec<Vec<u8>> = (1..=2u8).map(|b| session.encrypt(&[b; 24])).collect();
    session.begin_rekey(&mut rotate);
    session.finish_rekey();
    let new: Vec<Vec<u8>> = (3..=6u8).map(|b| session.encrypt(&[b; 24])).collect();
    for frame in [&old[0], &new[0], &old[1], &new[1], &new[2], &new[3]] {
        m.host.push_request(&ut, fd, frame);
    }
    // The first job's worker rotates the session to epoch 2 after it
    // copied the six frames, which retires epoch 0's key.
    let calls = AtomicUsize::new(0);
    let host = Arc::clone(&m);
    let rekeyer = Arc::clone(&session);
    let recv = UntrustedFn::new(move |ctx, args| {
        let (stripe, max) = ((args[2] >> 32) as usize, (args[2] & 0xffff_ffff) as usize);
        let n = host
            .host
            .recv_mmsg(ctx, Fd(args[0] as u32), args[1], stripe, max, args[3]);
        if calls.fetch_add(1, Ordering::SeqCst) == 0 {
            rekeyer.begin_rekey(ctx);
        }
        n as u64
    });
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .register(funcs::RECV_MMSG, recv)
        .workers(1, &[3])
        .build();
    let io = ServerIoConfig::with_buf_len(8192).batch(8).build(
        &ut,
        &[fd],
        IoPath::Rpc(Arc::new(svc)),
        Arc::clone(&session),
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let s0 = m.stats.snapshot();
    let got = io.recv_batch(&mut t);
    let d = m.stats.snapshot() - s0;
    assert_eq!(session.state(), SessionState::Rekeying { from: 1, to: 2 });
    assert_eq!(
        got,
        (3..=6u8).map(|b| vec![b; 24]).collect::<Vec<_>>(),
        "the frames under a live epoch, in order"
    );
    let full = m.cfg.costs.crypto_fixed;
    assert_eq!(d.auth_failures, 2, "both epoch-0 frames are refused");
    assert_eq!(
        (d.crypto_msgs, d.crypto_batches, d.crypto_setup_cycles),
        (4, 1, full + 3 * (full / 4)),
        "exactly the four opened frames are billed, as one batch"
    );
    io.send_batch(&mut t, &got);
    t.exit();
    let replies: Vec<Vec<u8>> = std::iter::from_fn(|| m.host.pop_response(fd))
        .map(|r| session.decrypt(&r))
        .collect();
    assert_eq!(replies, got, "every opened frame is answered");
}

/// A streamed reap (one worker, depth above one) reads each descriptor
/// line as the host publishes it and learns the count only from the
/// completion word. A host that publishes two full lines and then
/// claims one message more than the depth gets the whole run
/// discarded: the decrypts already spent on the streamed frames stay
/// spent, but nothing is served or stamped, `desc_rejects` counts the
/// run once, and the next honest reap is served.
fn streamed_overcount_discards_what_was_streamed() {
    use eleos::apps::io::{IoPath, ServerIoConfig};
    use eleos::apps::wire::Session;
    use eleos::enclave::host::Fd;
    use eleos::rpc::{funcs, with_syscalls, RpcService, UntrustedFn};
    use std::sync::atomic::{AtomicUsize, Ordering};

    const DEPTH: u64 = 8;
    let m = small_machine();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let session = Arc::new(Session::established([8u8; 16]));
    let ut = ThreadCtx::untrusted(&m, 1);
    let fd = m.host.socket(&ut, 64 << 10);
    // Call 0 copies all eight queued messages — two full lines — and
    // then returns one more than the depth; later calls are honest.
    let calls = AtomicUsize::new(0);
    let host = Arc::clone(&m);
    let hostile = UntrustedFn::new(move |ctx, args| {
        let (stripe, max) = ((args[2] >> 32) as usize, (args[2] & 0xffff_ffff) as usize);
        let honest = host
            .host
            .recv_mmsg(ctx, Fd(args[0] as u32), args[1], stripe, max, args[3]);
        if calls.fetch_add(1, Ordering::SeqCst) == 0 {
            assert_eq!(honest, DEPTH as usize);
            DEPTH + 1
        } else {
            honest as u64
        }
    });
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .register(funcs::RECV_MMSG, hostile)
        .workers(1, &[3])
        .build();
    let io = ServerIoConfig::with_buf_len(8192)
        .batch(DEPTH as usize)
        .build(&ut, &[fd], IoPath::Rpc(Arc::new(svc)), Arc::clone(&session));
    let push = |body: u8| m.host.push_request(&ut, fd, &session.encrypt(&[body; 24]));
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();

    for body in 0..8u8 {
        push(body);
    }
    let s0 = m.stats.snapshot();
    assert!(
        io.recv_batch(&mut t).is_empty(),
        "a count above the depth discards the streamed run"
    );
    let d = m.stats.snapshot() - s0;
    assert_eq!(d.desc_rejects, 1, "the discarded run counts once");
    assert_eq!(d.auth_failures, 0);
    assert_eq!(
        d.crypto_msgs, 8,
        "both lines were read and decrypted before the count arrived"
    );
    assert_eq!(
        io.shard_stats()[0].sojourn.count(),
        0,
        "no op of a discarded run is stamped"
    );

    for body in 8..12u8 {
        push(body);
    }
    let got = io.recv_batch(&mut t);
    assert_eq!(
        got,
        (8..12u8).map(|b| vec![b; 24]).collect::<Vec<_>>(),
        "the next honest reap is served in order"
    );
    io.send_batch(&mut t, &got);
    for body in 8..12u8 {
        assert_eq!(
            session.decrypt(&m.host.pop_response(fd).unwrap()),
            [body; 24]
        );
    }
    assert_eq!(m.stats.snapshot().desc_rejects, 1);
    t.exit();
}

/// A frame the session refuses — shorter than the nonce, or under an
/// unknown epoch — in the middle of a streamed reap is dropped and
/// counted without being billed: `crypto_msgs` counts only the frames
/// the session opened, which are one amortized crypto batch, and the
/// replies to their neighbours still leave through the sockets they
/// arrived on.
fn streamed_refused_frames_are_not_billed() {
    use eleos::apps::io::{IoPath, ServerIoConfig};
    use eleos::apps::wire::{Session, NONCE_LEN};
    use eleos::rpc::{with_syscalls, RpcService};

    let m = small_machine();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let session = Arc::new(Session::established([9u8; 16]));
    let ut = ThreadCtx::untrusted(&m, 1);
    let fds = m.host.socket_set(&ut, 2, 64 << 10);
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .workers(1, &[3])
        .build();
    let io = ServerIoConfig::with_buf_len(8192).batch(8).build(
        &ut,
        &fds,
        IoPath::Rpc(Arc::new(svc)),
        Arc::clone(&session),
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let valid = |body: u8| session.encrypt(&[body; 24]);
    // [1, 2, short, 3 | 4] on the first socket, [5, unknown epoch, 6]
    // on the second.
    let frames: [(usize, Vec<u8>); 8] = [
        (0, valid(1)),
        (0, valid(2)),
        (0, vec![0x5a; NONCE_LEN - 1]),
        (0, valid(3)),
        (0, valid(4)),
        (1, valid(5)),
        (1, vec![0xff; NONCE_LEN + 24]),
        (1, valid(6)),
    ];
    for (k, frame) in &frames {
        m.host.push_request(&ut, fds[*k], frame);
    }
    let s0 = m.stats.snapshot();
    let got = io.recv_batch(&mut t);
    let d = m.stats.snapshot() - s0;
    assert_eq!(
        got,
        (1..=6u8).map(|b| vec![b; 24]).collect::<Vec<_>>(),
        "the accepted frames, shard by shard"
    );
    let full = m.cfg.costs.crypto_fixed;
    assert_eq!(d.auth_failures, 2, "both refused frames are counted");
    assert_eq!(
        (d.crypto_msgs, d.crypto_batches, d.crypto_setup_cycles),
        (6, 1, full + 5 * (full / 4)),
        "only the six opened frames are billed, as one batch"
    );
    assert_eq!(d.desc_rejects, 0);
    io.send_batch(&mut t, &got);
    t.exit();
    let replies = |fd| -> Vec<Vec<u8>> {
        std::iter::from_fn(|| m.host.pop_response(fd))
            .map(|r| session.decrypt(&r))
            .collect()
    };
    assert_eq!(
        replies(fds[0]),
        (1..=4u8).map(|b| vec![b; 24]).collect::<Vec<_>>()
    );
    assert_eq!(replies(fds[1]), [vec![5u8; 24], vec![6u8; 24]]);
}

/// The message of a caught panic.
fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn suvm_backing_store_tamper_detected() {
    let m = small_machine();
    let e = m.driver.create_enclave(&m, 16 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let suvm = Suvm::new(
        &t0,
        SuvmConfig {
            epcpp_bytes: 64 << 10,
            backing_bytes: 2 << 20,
            ..SuvmConfig::tiny()
        },
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let sva = suvm.malloc(1 << 20);
    for page in 0..256u64 {
        suvm.write(&mut t, sva + page * 4096, &[0xabu8; 128]);
    }
    while suvm.evict_one(&mut t) {}
    // An adversary with control of untrusted memory flips bits across
    // a wide region (the backing store lives somewhere inside it).
    for addr in (0..(16 << 20u64)).step_by(100_000) {
        let mut b = [0u8; 1];
        m.untrusted.read(addr, &mut b);
        if b[0] != 0 {
            m.untrusted.write(addr, &[b[0] ^ 0x55]);
        }
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut buf = [0u8; 128];
        for page in 0..256u64 {
            suvm.read(&mut t, sva + page * 4096, &mut buf);
            assert_eq!(buf, [0xabu8; 128], "silent corruption on page {page}");
        }
    }));
    // Either every read was served intact (the flips missed the
    // ciphertext) or authentication caught the tampering — silent
    // corruption is the one outcome the assert above forbids.
    if let Err(p) = result {
        let msg = panic_message(p);
        assert!(
            msg.contains("authentication"),
            "must fail closed on tampering, got: {msg}"
        );
    }
}

#[test]
fn replayed_backing_store_page_is_rejected() {
    // Freshness: an attacker restores an older sealed image of a page.
    let m = small_machine();
    let e = m.driver.create_enclave(&m, 16 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let suvm = Suvm::new(
        &t0,
        SuvmConfig {
            epcpp_bytes: 32 << 10, // 8 frames
            backing_bytes: 1 << 20,
            ..SuvmConfig::tiny()
        },
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let sva = suvm.malloc(256 << 10);
    // Version 1 of page 0, sealed out.
    suvm.write(&mut t, sva, b"version-1");
    while suvm.evict_one(&mut t) {}
    // Snapshot the whole untrusted memory region that could hold it.
    let span = 4 << 20usize;
    let mut snapshot = vec![0u8; span];
    m.untrusted.read(0, &mut snapshot);
    // Version 2, sealed out.
    suvm.write(&mut t, sva, b"version-2");
    while suvm.evict_one(&mut t) {}
    // Replay the old bytes.
    m.untrusted.write(0, &snapshot);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut buf = [0u8; 9];
        suvm.read(&mut t, sva, &mut buf);
        buf
    }));
    match result {
        Ok(buf) => panic!(
            "replay went undetected, read back {:?}",
            String::from_utf8_lossy(&buf)
        ),
        Err(p) => {
            let msg = panic_message(p);
            assert!(msg.contains("authentication"), "unexpected panic: {msg}");
        }
    }
}

// ---------------------------------------------------------------------
// The sealed sub-pages a cold access reads and re-seals in place
// ---------------------------------------------------------------------

/// Runs `f`, which must die on an authentication failure.
fn must_fail_closed<R: std::fmt::Debug>(what: &str, f: impl FnOnce() -> R) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(got) => panic!("{what} went undetected: {got:?}"),
        Err(p) => {
            let msg = panic_message(p);
            assert!(msg.contains("authentication"), "{what}: {msg}");
        }
    }
}

/// The product's SUVM path with everything cold: 1 KiB sub-page seals
/// behind `DataSpace::suvm`, eight pages of a per-sub-page pattern
/// written and evicted, and the host's view of them. EPC++ is four
/// frames of four sub-pages — a reuse window of one read miss, which
/// no re-read fits in — so every read of a cold page here bypasses it.
struct ColdSubPages {
    m: Arc<SgxMachine>,
    suvm: Arc<Suvm>,
    space: eleos::apps::space::DataSpace,
    t: ThreadCtx,
    sva: u64,
    /// Untrusted address of the sealed image of the page at `sva`.
    image: u64,
}

impl ColdSubPages {
    const PAGES: u64 = 8;

    fn pattern(page: u64, sub: u64) -> [u8; 1024] {
        [(16 * page + sub + 1) as u8; 1024]
    }

    fn new() -> Self {
        let m = small_machine();
        let e = m.driver.create_enclave(&m, 16 << 20);
        let t0 = ThreadCtx::for_enclave(&m, &e, 0);
        let suvm = Suvm::new(
            &t0,
            SuvmConfig {
                sub_page_size: 1024,
                epcpp_bytes: 4 * 4096,
                backing_bytes: 1 << 20,
                ..SuvmConfig::tiny()
            },
        );
        let space = eleos::apps::space::DataSpace::suvm(&suvm);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let sva = space.alloc((Self::PAGES * 4096) as usize);
        assert_eq!(sva % 4096, 0);
        let mut before = vec![0u8; m.untrusted.size()];
        m.untrusted.read(0, &mut before);
        for page in 0..Self::PAGES {
            for sub in 0..4 {
                space.write(
                    &mut t,
                    sva + page * 4096 + sub * 1024,
                    &Self::pattern(page, sub),
                );
            }
        }
        while suvm.evict_one(&mut t) {}
        // Sealing the pages out is all that wrote to untrusted memory
        // since `before`, lowest address first.
        let mut after = vec![0u8; before.len()];
        m.untrusted.read(0, &mut after);
        let first = before.iter().zip(&after).position(|(a, b)| a != b);
        let image = first.expect("sealed images") as u64 & !4095;
        Self {
            m,
            suvm,
            space,
            t,
            sva,
            image,
        }
    }

    /// Host address and current ciphertext of sub-page `sub` of `page`.
    fn ciphertext(&self, page: u64, sub: u64) -> (u64, [u8; 1024]) {
        let addr = self.image + page * 4096 + sub * 1024;
        let mut bytes = [0u8; 1024];
        self.m.untrusted.read(addr, &mut bytes);
        (addr, bytes)
    }

    /// Reads 64 bytes of the sub-page back through the data space,
    /// without faulting anything in.
    fn read(&mut self, page: u64, sub: u64) -> [u8; 64] {
        let mut buf = [0u8; 64];
        let at = self.sva + page * 4096 + sub * 1024 + 100;
        self.space.read(&mut self.t, at, &mut buf);
        assert_eq!(self.suvm.resident_pages(), 0, "the read bypassed EPC++");
        buf
    }
}

#[test]
fn tampered_sub_page_fails_closed_on_bypass_read_and_write_through() {
    let mut rig = ColdSubPages::new();
    let (addr, bytes) = rig.ciphertext(2, 1);
    rig.m.untrusted.write(addr + 500, &[bytes[500] ^ 0x01]);
    // Its neighbours still open, and read right.
    assert_eq!(rig.read(2, 0), ColdSubPages::pattern(2, 0)[..64]);
    assert_eq!(rig.read(2, 2), ColdSubPages::pattern(2, 2)[..64]);
    must_fail_closed("a flipped ciphertext bit under a bypass read", || {
        rig.read(2, 1)
    });
    // A write-through opens the sub-page before it re-seals it: the
    // flipped bit must not be laundered into a fresh, valid seal.
    let faults = rig.m.stats.snapshot().suvm_major_faults;
    must_fail_closed("a flipped ciphertext bit under a write-through", || {
        let at = rig.sva + 2 * 4096 + 1024 + 7;
        rig.space.write(&mut rig.t, at, b"overwrite");
    });
    assert_eq!(rig.m.stats.snapshot().suvm_major_faults, faults);
}

#[test]
fn replayed_sub_page_is_rejected_after_a_write_through() {
    // Freshness is per sub-page: a write-through re-seals the one
    // sub-page it touches under a fresh nonce, and the image it
    // replaced must be dead from then on.
    let mut rig = ColdSubPages::new();
    let (addr, old) = rig.ciphertext(1, 2);
    let at = rig.sva + 4096 + 2 * 1024 + 100;
    rig.space.write(&mut rig.t, at, b"version-2");
    assert_eq!(rig.suvm.resident_pages(), 0, "written through");
    assert_ne!(rig.ciphertext(1, 2).1, old, "re-sealed in place");
    assert_eq!(&rig.read(1, 2)[..9], b"version-2");
    rig.m.untrusted.write(addr, &old);
    must_fail_closed("a replayed sub-page", || rig.read(1, 2));
}

#[test]
fn transposed_sub_pages_are_rejected() {
    // Every sealed unit is bound to its (page, sub-page) position.
    let mut rig = ColdSubPages::new();
    // Within one page ...
    let (a, first) = rig.ciphertext(3, 0);
    let (b, second) = rig.ciphertext(3, 1);
    rig.m.untrusted.write(a, &second);
    rig.m.untrusted.write(b, &first);
    must_fail_closed("sub-pages swapped within a page", || rig.read(3, 0));
    must_fail_closed("sub-pages swapped within a page", || rig.read(3, 1));
    // ... and the same sub-page slot of two pages.
    let (a, first) = rig.ciphertext(5, 3);
    let (b, second) = rig.ciphertext(6, 3);
    rig.m.untrusted.write(a, &second);
    rig.m.untrusted.write(b, &first);
    must_fail_closed("sub-pages swapped across pages", || rig.read(5, 3));
    must_fail_closed("sub-pages swapped across pages", || rig.read(6, 3));
    assert_eq!(rig.read(5, 2), ColdSubPages::pattern(5, 2)[..64]);
}

/// The same over the wire: a GET of a cold record whose sealed bytes
/// the host corrupted kills the enclave on the authentication failure.
/// No reply — least of all one carrying the wrong bytes — goes out.
#[test]
fn kvs_get_of_a_tampered_cold_record_fails_closed() {
    use eleos::apps::io::{IoPath, ServerIoConfig};
    use eleos::apps::kvs::{build_get, Kvs};
    use eleos::apps::space::DataSpace;
    use eleos::apps::wire::Session;

    let m = small_machine();
    let e = m.driver.create_enclave(&m, 16 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let suvm = Suvm::new(
        &t0,
        SuvmConfig {
            sub_page_size: 1024,
            backing_bytes: 4 << 20,
            ..SuvmConfig::tiny()
        },
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let mut kvs = Kvs::new(
        DataSpace::Untrusted(Arc::clone(&m)),
        DataSpace::suvm(&suvm),
        2 << 20,
        64,
    );
    kvs.init(&mut t);
    for i in 0..40u32 {
        assert!(kvs.set(&mut t, format!("key-{i}").as_bytes(), &[i as u8; 700]));
    }
    // The clear index is in untrusted memory too, and already written:
    // what the evictions add is the sealed record bytes alone.
    let mut before = vec![0u8; m.untrusted.size()];
    m.untrusted.read(0, &mut before);
    while suvm.evict_one(&mut t) {}
    let mut after = vec![0u8; before.len()];
    m.untrusted.read(0, &mut after);
    // One flipped bit in every sealed sub-page.
    let mut flipped = 0;
    for unit in (0..after.len()).step_by(1024) {
        if before[unit..unit + 1024] != after[unit..unit + 1024] {
            m.untrusted
                .write(unit as u64 + 300, &[after[unit + 300] ^ 0x80]);
            flipped += 1;
        }
    }
    assert!(
        flipped >= 40 * 700 / 1024,
        "sealed records found: {flipped}"
    );

    let session = Arc::new(Session::established([9u8; 16]));
    let fd = m.host.socket(&t, 64 << 10);
    let io = ServerIoConfig::with_buf_len(32 << 10).build(
        &t,
        &[fd],
        IoPath::Ocall,
        Arc::clone(&session),
    );
    m.host
        .push_request(&t, fd, &session.encrypt(&build_get(b"key-17")));
    let faults = m.stats.snapshot().suvm_major_faults;
    must_fail_closed("a GET of a tampered cold record", || {
        io.serve_one(&mut t, |c, plain| kvs.process(c, plain))
    });
    assert_eq!(
        m.stats.snapshot().suvm_major_faults,
        faults,
        "a bypass read"
    );
    assert!(
        m.host.pop_response(fd).is_none(),
        "a reply left the enclave"
    );
}

// ---------------------------------------------------------------------
// The inter-enclave shared region (§8): a key domain of its own
// ---------------------------------------------------------------------

/// Two enclaves on `m`, each with an entered thread on its own core.
fn two_entered_enclaves(m: &Arc<SgxMachine>) -> [ThreadCtx; 2] {
    [0, 1].map(|core| {
        let e = m.driver.create_enclave(m, 1 << 20);
        let mut t = ThreadCtx::for_enclave(m, &e, core);
        t.enter();
        t
    })
}

/// Writes `data` at `addr` through `tok` and returns where the page's
/// sealed image landed in untrusted memory, with the image.
fn sealed_shared_page(
    m: &SgxMachine,
    tok: &eleos::suvm::shared::SharedToken,
    t: &mut ThreadCtx,
    addr: u64,
    data: &[u8],
) -> (u64, Vec<u8>) {
    let before = untrusted_image(m);
    tok.write(t, addr, data);
    let after = untrusted_image(m);
    let at = first_change(&before, &after) / 4096 * 4096;
    (at as u64, after[at..at + 4096].to_vec())
}

#[test]
fn replayed_shared_region_page_is_rejected() {
    // Freshness: the nonce and tag of a shared page live in the
    // metadata the joined enclaves share, out of the host's reach, and
    // every write re-seals under a fresh nonce — so the older sealed
    // image the host kept is dead, for the other enclave's reads and
    // for the read-modify-write of the next write alike.
    use eleos::suvm::shared::SharedRegion;

    let m = small_machine();
    let [mut writer, mut reader] = two_entered_enclaves(&m);
    let region = SharedRegion::establish(&m, 1 << 20, [0x33; 16]);
    let tok_w = region.join(writer.enclave().unwrap());
    let tok_r = region.join(reader.enclave().unwrap());
    let buf = tok_w.alloc(4096);
    let (at, old) = sealed_shared_page(&m, &tok_w, &mut writer, buf, b"version-1");
    let (again, new) = sealed_shared_page(&m, &tok_w, &mut writer, buf, b"version-2");
    assert_eq!(at, again, "re-sealed in place");
    assert_ne!(old, new);
    let mut got = [0u8; 9];
    tok_r.read(&mut reader, buf, &mut got);
    assert_eq!(&got, b"version-2");

    m.untrusted.write(at, &old);
    must_fail_closed("a replayed shared page", || {
        tok_r.read(&mut reader, buf, &mut got);
        got
    });
    must_fail_closed("a write over a replayed shared page", || {
        tok_w.write(&mut writer, buf + 100, b"patch");
    });
}

#[test]
fn shared_region_page_does_not_open_under_another_regions_key() {
    // Two regions, two keys. Both pages sit at the same region offset
    // and are each region's first seal, so position, AAD and nonce
    // coincide: the key is all that tells them apart. A host that
    // transplants one region's sealed page into the other's store gets
    // an authentication failure, not the first region's plaintext.
    use eleos::suvm::shared::SharedRegion;

    let m = small_machine();
    let [mut ta, mut tb] = two_entered_enclaves(&m);
    let region_a = SharedRegion::establish(&m, 1 << 20, [0x33; 16]);
    let region_b = SharedRegion::establish(&m, 1 << 20, [0x44; 16]);
    let tok_a = region_a.join(ta.enclave().unwrap());
    let tok_b = region_b.join(tb.enclave().unwrap());
    let (buf_a, buf_b) = (tok_a.alloc(4096), tok_b.alloc(4096));
    assert_eq!(buf_a, buf_b, "same offset in either region");
    let (_, page_a) = sealed_shared_page(&m, &tok_a, &mut ta, buf_a, SECRET);
    let (at_b, _) = sealed_shared_page(&m, &tok_b, &mut tb, buf_b, b"region b's own");

    m.untrusted.write(at_b, &page_a);
    must_fail_closed("a page sealed under another region's key", || {
        let mut got = [0u8; 32];
        tok_b.read(&mut tb, buf_b, &mut got);
        got
    });
    // Region a, untouched, still opens for its own token.
    let mut got = [0u8; 32];
    tok_a.read(&mut ta, buf_a, &mut got);
    assert_eq!(&got, SECRET);
}

#[test]
fn untrusted_thread_cannot_touch_enclave_memory() {
    let m = small_machine();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let addr = e.alloc(64);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    t.write_enclave(addr, b"private");
    t.exit();
    // Outside the enclave, the same thread is denied.
    let denied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut b = [0u8; 7];
        t.read_enclave(addr, &mut b);
    }));
    assert!(
        denied.is_err(),
        "untrusted read of enclave memory succeeded"
    );
}

// ---------------------------------------------------------------------
// Request bodies come from clients: attested, not trusted
// ---------------------------------------------------------------------

/// An entered enclave thread on a fresh machine, for a server under
/// test.
fn entered_thread() -> (Arc<SgxMachine>, ThreadCtx) {
    let m = small_machine();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    (m, t)
}

/// Queues every `malformed` body and then every well-formed
/// `(body, expected reply)` on one socket, serves them in batches
/// through `process` (a front-end's per-request closure), and checks
/// that each malformed body was answered `malformed_reply` — `[0xFF]`
/// on the binary protocols, `ERROR\r\n` on the text one — and counted,
/// and that the requests queued behind them were served as usual.
fn serve_past_malformed_bodies(
    t: &mut ThreadCtx,
    malformed: &[Vec<u8>],
    malformed_reply: &[u8],
    well_formed: &[(Vec<u8>, Vec<u8>)],
    mut process: impl FnMut(&mut ThreadCtx, &[u8]) -> Vec<u8>,
) {
    use eleos::apps::io::{IoPath, ServerIoConfig};
    use eleos::apps::wire::Session;

    let m = Arc::clone(&t.machine);
    let session = Arc::new(Session::established([9u8; 16]));
    let fd = m.host.socket(t, 64 << 10);
    let io = ServerIoConfig::with_buf_len(32 << 10).batch(4).build(
        t,
        &[fd],
        IoPath::Ocall,
        Arc::clone(&session),
    );
    for body in malformed.iter().chain(well_formed.iter().map(|(b, _)| b)) {
        m.host.push_request(t, fd, &session.encrypt(body));
    }
    let counted = m.stats.snapshot().malformed_requests;
    let mut served = 0;
    loop {
        let n = io.serve(t, &mut process);
        if n == 0 {
            break;
        }
        served += n;
    }
    assert_eq!(served, malformed.len() + well_formed.len());
    for body in malformed {
        let reply = session.decrypt(&m.host.pop_response(fd).unwrap());
        assert_eq!(reply, malformed_reply, "reply to {body:?}");
    }
    for (body, expected) in well_formed {
        let reply = session.decrypt(&m.host.pop_response(fd).unwrap());
        assert_eq!(&reply, expected, "reply to {body:?}");
    }
    assert_eq!(
        m.stats.snapshot().malformed_requests - counted,
        malformed.len() as u64
    );
}

/// A decrypted request body that does not parse — truncated header,
/// lengths that run past the body, an opcode the protocol lacks — is
/// answered `[0xFF]` (`ERROR` by the text front-end) and counted; the
/// enclave neither panics nor stops serving the requests queued behind
/// it.
#[test]
fn malformed_request_bodies_are_answered_not_fatal() {
    use eleos::apps::kvs::{build_get, build_set, build_set_ttl, Kvs, MALFORMED_REPLY};
    use eleos::apps::space::DataSpace;
    use eleos::apps::text_protocol::{format_get, format_set, process_text};

    let (m, mut t) = entered_thread();
    let space = DataSpace::Untrusted(Arc::clone(&m));
    let mut kvs = Kvs::new(space.clone(), space, 4 << 20, 64);
    kvs.init(&mut t);

    let mut klen_past_body = build_get(b"alpha");
    klen_past_body[1..3].copy_from_slice(&500u16.to_le_bytes());
    let mut vlen_past_body = build_set(b"alpha", b"beta");
    vlen_past_body[3..7].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut unknown_opcode = build_set(b"alpha", b"beta");
    unknown_opcode[0] = 9;
    let ttl_cut_short = build_set_ttl(b"", b"", 5)[..9].to_vec();
    let malformed = [
        vec![1u8],
        vec![0u8, 5, 0, 0],
        klen_past_body,
        vlen_past_body,
        unknown_opcode,
        ttl_cut_short,
    ];
    let well_formed = [
        (build_set(b"alpha", b"beta"), vec![1u8]),
        (build_get(b"alpha"), b"\x01\x04\0\0\0beta".to_vec()),
    ];
    serve_past_malformed_bodies(
        &mut t,
        &malformed,
        &[MALFORMED_REPLY],
        &well_formed,
        |t, plain| kvs.process(t, plain),
    );
    assert_eq!(kvs.len(), 1, "no malformed request stored anything");

    // The memcached text front-end of the same store: no CRLF, an empty
    // line, an unknown verb, a byte count that is not a number, one the
    // data line cannot back, and a data line one byte short.
    let malformed = [
        b"get alpha".to_vec(),
        b"\r\n".to_vec(),
        b"bogus\r\n".to_vec(),
        b"set k 0 0 nope\r\nhello\r\n".to_vec(),
        b"set k 0 0 4294967295\r\nhello\r\n".to_vec(),
        b"set k 0 0 5\r\nhell\r\n".to_vec(),
    ];
    let well_formed = [
        (format_set(b"gamma", 0, 0, b"delta"), b"STORED\r\n".to_vec()),
        (
            format_get(b"alpha"),
            b"VALUE alpha 0 4\r\nbeta\r\nEND\r\n".to_vec(),
        ),
    ];
    serve_past_malformed_bodies(&mut t, &malformed, b"ERROR\r\n", &well_formed, |t, msg| {
        process_text(&mut kvs, t, msg)
    });
    assert_eq!(kvs.len(), 2, "no malformed command stored anything");
    t.exit();
}

/// Which sizes a client SETs is its choice as well. A 4 MiB store has
/// four 1 MiB slab pages; once four size classes own them, a record of
/// a fifth class can get a page only from eviction, and eviction frees
/// chunks of other classes, never a page. Such a SET — fresh, or an
/// overwrite that would move its key into the pageless class — is
/// answered `[0]` like an oversize one: nothing is evicted or dropped,
/// the four resident keys keep their values and the server serves on.
#[test]
fn a_set_no_slab_page_can_hold_is_refused_not_fatal() {
    use eleos::apps::kvs::{build_get, build_set, Kvs, MALFORMED_REPLY};
    use eleos::apps::space::DataSpace;

    let (m, mut t) = entered_thread();
    let space = DataSpace::Untrusted(Arc::clone(&m));
    let mut kvs = Kvs::new(space.clone(), space, 4 << 20, 64);
    kvs.init(&mut t);

    let key = |i: usize| format!("size-{i}").into_bytes();
    let value = |i: usize| vec![i as u8; [100, 300, 1000, 3000, 6000][i]];
    let mut script: Vec<(Vec<u8>, Vec<u8>)> = (0..5)
        .map(|i| (build_set(&key(i), &value(i)), vec![u8::from(i < 4)]))
        .collect();
    script.push((build_set(&key(0), &value(4)), vec![0u8]));
    for i in 0..4 {
        let mut found = vec![1u8];
        found.extend_from_slice(&(value(i).len() as u32).to_le_bytes());
        found.extend_from_slice(&value(i));
        script.push((build_get(&key(i)), found));
    }
    script.push((build_get(&key(4)), vec![0u8]));
    serve_past_malformed_bodies(&mut t, &[], &[MALFORMED_REPLY], &script, |t, plain| {
        kvs.process(t, plain)
    });
    assert_eq!((kvs.len(), kvs.evictions()), (4, 0));
    t.exit();
}

/// How long a reply is is the client's choice too. A text server on the
/// batched RPC path stripes its 32 KiB transmit buffer into four 8 KiB
/// slots; three 3 KiB values fit one each, a `get a b c` of all three
/// does not. That reply is not sent and is counted — the replies around
/// it in the same batch leave on their own sockets in order, and the
/// server answers the next request.
#[test]
fn a_reply_that_outgrows_its_batch_slot_is_dropped_not_fatal() {
    use eleos::apps::io::{IoPath, ServerIoConfig};
    use eleos::apps::kvs::Kvs;
    use eleos::apps::space::DataSpace;
    use eleos::apps::text_protocol::{format_get, format_multi_get, format_set, process_text};
    use eleos::apps::wire::Session;
    use eleos::rpc::{with_syscalls, RpcService};

    let m = small_machine();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let session = Arc::new(Session::established([9u8; 16]));
    let ut = ThreadCtx::untrusted(&m, 1);
    let fds = m.host.socket_set(&ut, 2, 64 << 10);
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .workers(1, &[3])
        .build();
    let io = ServerIoConfig::with_buf_len(32 << 10).batch(4).build(
        &ut,
        &fds,
        IoPath::Rpc(Arc::new(svc)),
        Arc::clone(&session),
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let space = DataSpace::Untrusted(Arc::clone(&m));
    let mut kvs = Kvs::new(space.clone(), space, 4 << 20, 64);
    kvs.init(&mut t);

    let value = |k: u8| vec![k; 3 << 10];
    let found = |k: u8| {
        let mut r = format!("VALUE {} 0 {}\r\n", k as char, 3 << 10).into_bytes();
        r.extend_from_slice(&value(k));
        r.extend_from_slice(b"\r\nEND\r\n");
        r
    };
    let push = |shard: usize, body: &[u8]| {
        m.host.push_request(&ut, fds[shard], &session.encrypt(body));
    };
    let replies = |shard: usize| {
        let mut out = Vec::new();
        while let Some(r) = m.host.pop_response(fds[shard]) {
            out.push(session.decrypt(&r));
        }
        out
    };

    for k in *b"abc" {
        push(0, &format_set(&[k], 0, 0, &value(k)));
    }
    assert_eq!(io.serve(&mut t, |t, msg| process_text(&mut kvs, t, msg)), 3);
    assert_eq!(replies(0), vec![b"STORED\r\n".to_vec(); 3]);

    // One batch over both shards, the oversize reply in the middle of
    // shard 0's run.
    push(0, &format_get(b"a"));
    push(0, &format_multi_get(&[b"a", b"b", b"c"]));
    push(0, &format_get(b"b"));
    push(1, &format_get(b"c"));
    let rejected = m.stats.snapshot().reply_rejects;
    assert_eq!(io.serve(&mut t, |t, msg| process_text(&mut kvs, t, msg)), 4);
    assert_eq!(m.stats.snapshot().reply_rejects - rejected, 1);
    assert_eq!(replies(0), [found(b'a'), found(b'b')]);
    assert_eq!(replies(1), [found(b'c')]);

    push(0, &format_get(b"c"));
    assert_eq!(io.serve(&mut t, |t, msg| process_text(&mut kvs, t, msg)), 1);
    assert_eq!(replies(0), [found(b'c')]);
    assert_eq!(m.stats.snapshot().reply_rejects - rejected, 1);
    t.exit();
}

/// The same on the per-message OCALL path, where a reply's slot is the
/// whole transmit buffer: a GET of a value longer than `buf_len` gets
/// no reply and is counted, and the next request is answered.
#[test]
fn a_reply_longer_than_the_transmit_buffer_is_dropped_not_fatal() {
    use eleos::apps::io::{IoPath, ServerIoConfig};
    use eleos::apps::kvs::{build_get, Kvs};
    use eleos::apps::space::DataSpace;
    use eleos::apps::wire::Session;

    let (m, mut t) = entered_thread();
    let space = DataSpace::Untrusted(Arc::clone(&m));
    let mut kvs = Kvs::new(space.clone(), space, 4 << 20, 64);
    kvs.init(&mut t);
    kvs.set(&mut t, b"big", &[7u8; 6000]);
    kvs.set(&mut t, b"small", b"fits");

    let session = Arc::new(Session::established([9u8; 16]));
    let fd = m.host.socket(&t, 64 << 10);
    let io =
        ServerIoConfig::with_buf_len(4096).build(&t, &[fd], IoPath::Ocall, Arc::clone(&session));
    m.host
        .push_request(&t, fd, &session.encrypt(&build_get(b"big")));
    m.host
        .push_request(&t, fd, &session.encrypt(&build_get(b"small")));
    assert!(io.serve_one(&mut t, |t, plain| kvs.process(t, plain)));
    assert_eq!(m.stats.snapshot().reply_rejects, 1);
    assert!(m.host.pop_response(fd).is_none(), "nothing was sent");
    assert!(io.serve_one(&mut t, |t, plain| kvs.process(t, plain)));
    let reply = session.decrypt(&m.host.pop_response(fd).expect("the next reply"));
    assert_eq!(reply, b"\x01\x04\0\0\0fits");
    assert_eq!(m.stats.snapshot().reply_rejects, 1);
    t.exit();
}

/// The parameter server parses the same way: an attested client that
/// sends an empty body, a lone opcode, a truncated count, a count the
/// body cannot back, an opcode the protocol lacks or an update of the
/// empty-slot key gets `[0xFF]`, and the server answers the next
/// well-formed request.
#[test]
fn malformed_param_server_requests_are_answered_not_fatal() {
    use eleos::apps::kvs::MALFORMED_REPLY;
    use eleos::apps::param_server::{
        build_read_request, build_update_request, ParamServer, TableKind,
    };
    use eleos::apps::space::DataSpace;

    let (m, mut t) = entered_thread();
    let mut server = ParamServer::new(
        DataSpace::Untrusted(Arc::clone(&m)),
        TableKind::OpenAddressing,
        64,
    );
    server.init(&mut t);

    let mut oversized_count = build_read_request(&[1, 2]);
    oversized_count[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut truncated = build_read_request(&[1, 2]);
    truncated.truncate(1 + 4 + 13);
    let mut unknown_opcode = build_read_request(&[1]);
    unknown_opcode[0] = 7;
    let malformed = [
        vec![],
        vec![1u8],
        vec![1u8, 2, 0],
        oversized_count,
        truncated,
        unknown_opcode,
        build_update_request(&[(3, 1), (0, 1)]),
    ];
    let well_formed = [
        (
            build_update_request(&[(5, 40)]),
            1u32.to_le_bytes().to_vec(),
        ),
        (
            build_read_request(&[5, 6]),
            [40u64.to_le_bytes(), 0u64.to_le_bytes()].concat(),
        ),
    ];
    serve_past_malformed_bodies(
        &mut t,
        &malformed,
        &[MALFORMED_REPLY],
        &well_formed,
        |t, plain| server.process(t, plain),
    );
    assert_eq!(server.len(), 1, "no malformed request stored anything");
    t.exit();
}

/// Which keys a request names is the client's choice: one update
/// carrying 64 new keys into a capacity-8 table gets the 8 that fit
/// applied and acknowledged, is counted, and kills nothing — in either
/// layout the table still answers reads of what it holds, and the next
/// well-formed request is served.
#[test]
fn param_server_over_capacity_is_refused_not_fatal() {
    use eleos::apps::param_server::{
        build_read_request, build_update_request, ParamServer, TableKind,
    };
    use eleos::apps::space::DataSpace;

    for kind in [TableKind::OpenAddressing, TableKind::Chaining] {
        let (m, mut t) = entered_thread();
        let mut server = ParamServer::new(DataSpace::Untrusted(Arc::clone(&m)), kind, 8);
        server.init(&mut t);

        let flood: Vec<(u64, u64)> = (1..=64).map(|key| (key, 10 * key)).collect();
        let ack = server.process(&mut t, &build_update_request(&flood));
        assert_eq!(ack, 8u32.to_le_bytes(), "{kind:?}: pairs applied");
        assert_eq!(server.len(), 8, "{kind:?}");
        assert_eq!(m.stats.snapshot().malformed_requests, 1, "{kind:?}");

        // Reads of the keys that fit (and of one that did not).
        let values = server.process(&mut t, &build_read_request(&[1, 8, 9]));
        let expected = [10u64.to_le_bytes(), 80u64.to_le_bytes(), 0u64.to_le_bytes()];
        assert_eq!(values, expected.concat(), "{kind:?}");
        // A full table still updates the keys it holds: a request that
        // adds none is well-formed, and a mixed one applies its part.
        let ack = server.process(&mut t, &build_update_request(&[(3, 5)]));
        assert_eq!(ack, 1u32.to_le_bytes(), "{kind:?}");
        let ack = server.process(&mut t, &build_update_request(&[(99, 1), (3, 5)]));
        assert_eq!(ack, 1u32.to_le_bytes(), "{kind:?}");
        assert_eq!(server.get(&mut t, 3), Some(40), "{kind:?}");
        assert_eq!(server.get(&mut t, 99), None, "{kind:?}");
        assert_eq!(m.stats.snapshot().malformed_requests, 2, "{kind:?}");
        t.exit();
    }
}

/// And the face-verification server: a body that is not exactly an
/// id, the database's side length and a side×side image — empty, cut
/// inside the header, cut inside the image, claiming a 4-gigapixel
/// side, or carrying the wrong resolution — gets `[0xFF]`.
#[test]
fn malformed_face_requests_are_answered_not_fatal() {
    use eleos::apps::face::{build_verify_request, lbp_histogram, synth_image, FaceDb, FaceServer};
    use eleos::apps::kvs::MALFORMED_REPLY;
    use eleos::apps::space::DataSpace;

    const SIDE: usize = 32;
    let (m, mut t) = entered_thread();
    let mut db = FaceDb::new(DataSpace::Untrusted(Arc::clone(&m)), SIDE, 8);
    db.init(&mut t);
    let face = synth_image(1, SIDE);
    db.enroll(&mut t, 1, &lbp_histogram(&face, SIDE));
    let mut server = FaceServer::new(db, f64::MAX);

    let good = build_verify_request(1, SIDE, &face);
    let mut huge_side = good.clone();
    huge_side[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let malformed = [
        vec![],
        vec![1u8],
        good[..11].to_vec(),
        good[..good.len() - 1].to_vec(),
        huge_side,
        build_verify_request(1, 16, &synth_image(1, 16)),
    ];
    // An enrolled identity is accepted; an unknown one is still its
    // own answer.
    let well_formed = [
        (good.clone(), vec![1u8]),
        (build_verify_request(2, SIDE, &face), vec![2u8]),
    ];
    serve_past_malformed_bodies(
        &mut t,
        &malformed,
        &[MALFORMED_REPLY],
        &well_formed,
        |t, plain| server.process(t, plain),
    );
    assert_eq!(server.decisions(), (1, 0));
    t.exit();
}

// ---------------------------------------------------------------------
// Replica state crosses untrusted memory: sealed, and parsed fallibly
// ---------------------------------------------------------------------

/// The sender's chunks rest in the channel's untrusted ring until the
/// receiver reaps them. A host that flips a bit of one in between gets
/// the transfer refused — reassembled, parsed, and dead at
/// authentication — with nothing of it applied; a host that rewrites
/// the descriptor gets it refused at the framing. Neither panics, and
/// the honest transfer behind them is merged.
#[test]
fn a_chunk_corrupted_in_the_channel_ring_is_refused_not_restored() {
    use eleos::apps::kvs::Kvs;
    use eleos::apps::space::DataSpace;
    use eleos::crypto::gcm::AesGcm128;
    use eleos::rpc::EnclaveChannel;
    use eleos::suvm::Snapshot;

    let m = small_machine();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let store = || {
        let space = DataSpace::Untrusted(Arc::clone(&m));
        Kvs::new(space.clone(), space, 4 << 20, 64)
    };
    let (mut from, mut to) = (store(), store());
    from.init(&mut t);
    to.init(&mut t);
    for i in 0..64u32 {
        from.set(&mut t, format!("item-{i}").as_bytes(), &[i as u8; 100]);
    }
    let sealer = AesGcm128::new(&[0x61u8; 16]);
    let chan = EnclaveChannel::new(&m, 64 << 10);
    let receive = |t: &mut ThreadCtx, to: &mut Kvs| -> Result<u64, &'static str> {
        let (_, payload) = chan.recv_chunked(t, 4, 5).map_err(|e| e.0)?;
        let snap = Snapshot::from_bytes(&payload).map_err(|e| e.0)?;
        to.try_restore(t, &sealer, &snap).map_err(|e| e.0)
    };

    // A bit of the second chunk's ciphertext.
    let frame = from.snapshot_since(&mut t, &sealer, 1, 1, 0).to_bytes();
    chan.send_chunked(&mut t, 4, 5, &1u64.to_le_bytes(), &frame, 2048);
    let at = untrusted_find(&m, &frame[3000..3032]).expect("the chunk is in the ring");
    let mut byte = [0u8; 1];
    m.untrusted.read(at, &mut byte);
    m.untrusted.write(at, &[byte[0] ^ 0x10]);
    assert_eq!(
        receive(&mut t, &mut to),
        Err("section failed authentication")
    );
    assert!(to.is_empty(), "nothing of a refused transfer is applied");

    // The descriptor's chunk count.
    let frame = from.snapshot_since(&mut t, &sealer, 1, 2, 0).to_bytes();
    chan.send_chunked(&mut t, 4, 5, &2u64.to_le_bytes(), &frame, 2048);
    let mut descriptor = 8u32.to_le_bytes().to_vec();
    descriptor.extend_from_slice(&2u64.to_le_bytes());
    let at = untrusted_find(&m, &descriptor).expect("the descriptor is in the ring");
    m.untrusted.write(at + 12, &1u32.to_le_bytes());
    assert_eq!(
        receive(&mut t, &mut to),
        Err("chunks disagree with their descriptor")
    );
    assert!(to.is_empty());
    assert_eq!(chan.pending(), 0, "the refused transfer left no tail");

    // Left alone, the same state goes through.
    let frame = from.snapshot_since(&mut t, &sealer, 1, 3, 0).to_bytes();
    chan.send_chunked(&mut t, 4, 5, &3u64.to_le_bytes(), &frame, 2048);
    assert_eq!(receive(&mut t, &mut to), Ok(64));
    assert_eq!(to.get(&mut t, b"item-7").unwrap(), vec![7u8; 100]);
    t.exit();
}

/// A rekey announcement rests in the same ring between the initiator
/// staging it and each peer reading it back. A host that swaps it for
/// the previous rotation's in between gets it refused and counted; the
/// fleet keeps serving and the next rotation goes through.
#[test]
fn a_rekey_announcement_rewritten_in_the_ring_is_refused_not_fatal() {
    use eleos::apps::fleet_io::{FleetConfig, FleetKvs};
    use eleos::apps::io::{IoPath, ServerIoConfig};
    use eleos::apps::kvs::build_get;
    use eleos::apps::loadgen::attest_session;
    use eleos::apps::wire::Session;
    use eleos::crypto::gcm::AesGcm128;
    use eleos::rpc::{dispatch, funcs, with_syscalls, RpcService, UntrustedFn};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;

    // `rekey_wire` stages and reaps inside one call, so the host needs
    // the call held open in between: an RPC worker, once armed, parks
    // inside a receive syscall of replica 1 — whose pump holds that
    // replica's slot, the lock the reaping half has to take.
    let m = SgxMachine::new(MachineConfig::tiny());
    let armed = Arc::new(AtomicBool::new(false));
    let (parked_tx, parked) = mpsc::channel::<()>();
    let (release, release_rx) = mpsc::channel::<()>();
    let (parked_tx, release_rx) = (Mutex::new(parked_tx), Mutex::new(release_rx));
    let gate = {
        let (m, armed) = (Arc::clone(&m), Arc::clone(&armed));
        UntrustedFn::new(move |ctx, args| {
            if armed.swap(false, Ordering::SeqCst) {
                parked_tx.lock().unwrap().send(()).unwrap();
                release_rx.lock().unwrap().recv().unwrap();
            }
            dispatch(&m, ctx, funcs::RECV_MMSG, args)
        })
    };
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .register(funcs::RECV_MMSG, gate)
        .workers(2, &[2, 3])
        .build();
    let ut = ThreadCtx::untrusted(&m, 1);
    let fds: Vec<_> = (0..2).map(|_| m.host.socket(&ut, 64 << 10)).collect();
    let wire = Arc::new(Session::handshake([9u8; 16], [0x63u8; 16]));
    attest_session(&mut ThreadCtx::untrusted(&m, 1), &wire);
    let fk = FleetKvs::new(
        &m,
        &fds,
        ServerIoConfig::with_buf_len(16 << 10).batch(4),
        IoPath::Rpc(Arc::new(svc)),
        Arc::clone(&wire),
        Arc::new(AesGcm128::new(&[0x2au8; 16])),
        FleetConfig::small(2).on_cores(&[0, 1]),
        |ctx, kvs| {
            kvs.set(ctx, b"k", b"v");
        },
    );

    // An honest rotation shows where announcements land: four bytes,
    // one after the other from the head of the ring.
    let before = untrusted_image(&m);
    assert_eq!(fk.rekey_wire(0), Ok(1));
    let ring = first_change(&before, &untrusted_image(&m)) as u64;
    let staged = |at: u64| {
        let mut epoch = [0u8; 4];
        m.untrusted.read(at, &mut epoch);
        u32::from_le_bytes(epoch)
    };
    assert_eq!(staged(ring), 1);

    let s0 = m.stats.snapshot();
    let refused = std::thread::scope(|s| {
        armed.store(true, Ordering::SeqCst);
        let pump = s.spawn(|| fk.pump_replica(1));
        parked.recv().unwrap();
        let rekey = s.spawn(|| fk.rekey_wire(0));
        while staged(ring + 4) != 2 {
            std::thread::yield_now();
        }
        m.untrusted.write(ring + 4, &1u32.to_le_bytes());
        release.send(()).unwrap();
        assert_eq!(pump.join().unwrap(), 0, "nothing was queued");
        rekey.join().expect("a refusal, not a panic")
    });
    assert_eq!(refused.unwrap_err().0, "not the epoch this fence announced");
    assert_eq!((m.stats.snapshot() - s0).frame_rejects, 1);

    // The fleet still serves, on either replica, and rotates again.
    for &fd in &fds {
        m.host
            .push_request(&ut, fd, &wire.encrypt(&build_get(b"k")));
    }
    let mut served = 0;
    while served < 2 {
        served += fk.pump();
    }
    for &fd in &fds {
        let reply = wire.decrypt(&m.host.pop_response(fd).expect("a reply per request"));
        assert_eq!(reply[0], 1, "the seeded key is found");
    }
    assert_eq!(fk.rekey_wire(0), Ok(3));
}

/// One hostile edit of bytes at rest in untrusted memory; positions
/// are fractions of the buffer so one strategy fits every length.
#[derive(Debug, Clone)]
enum Mutation {
    Truncate(f64),
    Flip(f64, u8),
    Splice(f64, Vec<u8>),
}

impl Mutation {
    /// Applies the edit; `resize` says whether the buffer may change
    /// length (a host file may, bytes staged in a ring may not).
    fn apply(&self, bytes: &mut Vec<u8>, resize: bool) {
        let len = bytes.len();
        if len == 0 {
            return;
        }
        let (Mutation::Truncate(f) | Mutation::Flip(f, _) | Mutation::Splice(f, _)) = self;
        let at = ((len as f64 * f) as usize).min(len - 1);
        match self {
            Mutation::Truncate(_) if resize => bytes.truncate(at),
            Mutation::Truncate(_) => bytes[at..].fill(0),
            Mutation::Flip(_, bit) => bytes[at] ^= 1 << (bit % 8),
            Mutation::Splice(_, junk) if resize => {
                bytes.splice(at..at, junk.iter().copied());
            }
            Mutation::Splice(_, junk) => {
                let n = junk.len().min(len - at);
                bytes[at..at + n].copy_from_slice(&junk[..n]);
            }
        }
    }
}

fn mutation() -> impl proptest::strategy::Strategy<Value = Mutation> {
    use proptest::prelude::*;
    prop_oneof![
        (0.0..1.0f64).prop_map(Mutation::Truncate),
        (0.0..1.0f64, any::<u8>()).prop_map(|(f, b)| Mutation::Flip(f, b)),
        (0.0..1.0f64, prop::collection::vec(any::<u8>(), 1..40))
            .prop_map(|(f, junk)| Mutation::Splice(f, junk)),
    ]
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

    /// Byte-level fuzz of the one receive path. A sealed frame is
    /// truncated, bit-flipped and spliced with junk — as a host file
    /// (`in_ring = false`) and as a chunk sequence staged in the
    /// channel ring, descriptor included (`in_ring = true`) — and then
    /// received the way the fleet receives: `recv_chunked` →
    /// `Snapshot::from_bytes` → `Kvs::try_restore`. Whatever the edit,
    /// nothing panics, a refusal applies nothing, and every item the
    /// receiver ends up holding is one the sender held, byte for byte.
    #[test]
    fn mutated_frames_and_chunk_sequences_never_panic_or_forge(
        edits in proptest::collection::vec(mutation(), 1..4),
        in_ring in proptest::prelude::any::<bool>(),
    ) {
        use eleos::apps::kvs::Kvs;
        use eleos::apps::space::DataSpace;
        use eleos::crypto::gcm::AesGcm128;
        use eleos::rpc::EnclaveChannel;
        use eleos::suvm::Snapshot;
        use proptest::prelude::*;

        let m = small_machine();
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let store = || {
            let space = DataSpace::Untrusted(Arc::clone(&m));
            Kvs::new(space.clone(), space, 4 << 20, 64)
        };
        let (mut from, mut to) = (store(), store());
        from.init(&mut t);
        to.init(&mut t);
        let held = |i: u32| (format!("item-{i}").into_bytes(), vec![i as u8; 40 + i as usize]);
        for i in 0..24u32 {
            let (key, value) = held(i);
            from.set(&mut t, &key, &value);
        }
        let sealer = AesGcm128::new(&[0x62u8; 16]);
        let mut frame = from.snapshot_since(&mut t, &sealer, 1, 1, 0).to_bytes();

        let restored = if in_ring {
            let chan = EnclaveChannel::new(&m, 16 << 10);
            chan.send_chunked(&mut t, 4, 5, &1u64.to_le_bytes(), &frame, 1024);
            let mut descriptor = 8u32.to_le_bytes().to_vec();
            descriptor.extend_from_slice(&1u64.to_le_bytes());
            let ring = untrusted_find(&m, &descriptor).expect("the ring holds the descriptor");
            let mut staged = vec![0u8; 24 + frame.len()];
            m.untrusted.read(ring, &mut staged);
            for edit in &edits {
                edit.apply(&mut staged, false);
            }
            m.untrusted.write(ring, &staged);
            chan.recv_chunked(&mut t, 4, 5)
                .map_err(|e| e.0)
                .and_then(|(_, payload)| Snapshot::from_bytes(&payload).map_err(|e| e.0))
        } else {
            for edit in &edits {
                edit.apply(&mut frame, true);
            }
            Snapshot::from_bytes(&frame).map_err(|e| e.0)
        }
        .and_then(|snap| to.try_restore(&mut t, &sealer, &snap).map_err(|e| e.0));

        match restored {
            Ok(applied) => prop_assert_eq!(applied, to.len()),
            Err(_) => prop_assert!(to.is_empty(), "a refusal applies nothing"),
        }
        let mut forged = Vec::new();
        to.for_each_item(&mut t, |key, value| {
            if !(0..24).any(|i| held(i) == (key.to_vec(), value.to_vec())) {
                forged.push(key.to_vec());
            }
        });
        prop_assert!(forged.is_empty(), "restored items the sender never held: {:?}", forged);
        t.exit();
    }
}

// ---------------------------------------------------------------------
// Clear KVS metadata: what the host can read about the keys
// ---------------------------------------------------------------------

/// Every 4-byte-aligned nonzero word of untrusted memory.
fn untrusted_words(m: &SgxMachine) -> std::collections::HashSet<u32> {
    let mut words = std::collections::HashSet::new();
    let mut buf = vec![0u8; 64 << 10];
    for addr in (0..m.untrusted.size()).step_by(buf.len()) {
        m.untrusted.read(addr as u64, &mut buf);
        words.extend(
            buf.chunks_exact(4)
                .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
                .filter(|&w| w != 0),
        );
    }
    words
}

/// The Eleos KVS keeps its hash chains in host-visible memory, and each
/// chain node carries 32 bits of a hash of its item's key. Were that
/// hash unkeyed, the host could test guesses offline: hash a candidate
/// key, look for the word. It must be a PRF under a secret the host
/// never sees, so no publicly computable hash of a stored key — nor the
/// key itself — may appear anywhere in untrusted memory.
#[test]
fn clear_kvs_metadata_holds_no_unkeyed_hash_of_a_key() {
    use eleos::apps::index::siphash24;
    use eleos::apps::kvs::Kvs;
    use eleos::apps::param_server::hash64;
    use eleos::apps::space::DataSpace;

    let m = small_machine();
    let e = m.driver.create_enclave(&m, 4 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let suvm = Suvm::new(
        &t0,
        SuvmConfig {
            backing_bytes: 2 << 20,
            ..SuvmConfig::tiny()
        },
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let mut kvs = Kvs::new(
        DataSpace::Untrusted(Arc::clone(&m)),
        DataSpace::suvm(&suvm),
        1 << 20,
        64,
    );
    kvs.init(&mut t);
    // A recognizable write stamp proves the scan sees the nodes.
    const STAMP: u32 = 0xC0FF_EE11;
    kvs.set_write_version(u64::from(STAMP));
    let keys: Vec<Vec<u8>> = (0..48u32)
        .map(|i| format!("account:{i:04}:balance").into_bytes())
        .collect();
    for key in &keys {
        assert!(kvs.set(&mut t, key, SECRET));
    }
    // Seal everything out, so the backing store is populated too.
    while suvm.evict_one(&mut t) {}

    let words = untrusted_words(&m);
    assert!(
        words.contains(&STAMP),
        "the scan must cover the index nodes"
    );
    for key in &keys {
        let fnv = key.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
        });
        // The seed store's bucket hash, its FNV-1a core, and SipHash
        // under the all-zero key.
        for public in [fnv, hash64(fnv), siphash24((0, 0), key)] {
            for half in [public as u32, (public >> 32) as u32] {
                assert!(
                    !words.contains(&half),
                    "an unkeyed hash of {:?} is host-visible",
                    String::from_utf8_lossy(key)
                );
            }
        }
    }
    assert!(
        !untrusted_contains(&m, b"account:"),
        "key bytes in the clear"
    );
    t.exit();
}
