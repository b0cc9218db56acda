//! Equivalence suite for the scatter-gather RPC I/O path and the
//! unified crypto-batch accounting:
//!
//! - a scatter-gather reap (one `recv_mmsg` job per shard, any worker
//!   count) yields byte-identical decrypted payloads in identical
//!   order to the native path's per-message `recv` loop;
//! - echo rounds over several workers stay in order, and a submission
//!   that fills the ring falls back without dropping or reordering;
//! - cost accounting: exactly one syscall trap and one kernel-metadata
//!   charge per leg per reap whatever the worker count, and
//!   `crypto_setup_cycles` only ever charged through the unified
//!   `ThreadCtx::charge_crypto_in` path;
//! - a pin of what a one-worker send puts on the wire and what it
//!   costs, for small, 1 KiB and mixed replies, and of what a
//!   one-worker reap hands the serve loop and what it costs, for the
//!   same three shapes of request and one `recv_msg`;
//! - a pin of a lone KVS serving a three-round backlog on one worker;
//! - a serve round costs the same through `Kvs::handle_batch` as
//!   through the public calls it is made of.

use std::sync::Arc;

use eleos::apps::io::{IoPath, ServerIo, ServerIoConfig};
use eleos::apps::kvs::{build_get, Kvs};
use eleos::apps::space::DataSpace;
use eleos::apps::wire::Session;
use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::rpc::{with_syscalls, RpcService};
use eleos::suvm::{Suvm, SuvmConfig};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Shared server-side harness
// ---------------------------------------------------------------------

/// One wired echo server: machine, enclave, socket, RPC service with
/// `workers` worker threads, and a `ServerIo` built from `cfg`.
struct EchoRig {
    m: Arc<SgxMachine>,
    e: Arc<eleos::enclave::enclave::Enclave>,
    wire: Arc<Session>,
    fd: eleos::enclave::host::Fd,
    io: ServerIo,
}

impl EchoRig {
    fn new(workers: usize, cfg: ServerIoConfig) -> EchoRig {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::established([9u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 1);
        let fd = m.host.socket(&ut, 256 << 10);
        // The tiny machine has four cores; workers share 2 and 3 (the
        // core clocks are atomic, and none of these tests assert
        // per-core cycle counts for shared cores).
        let svc = with_syscalls(RpcService::builder(&m), &m)
            .workers(workers, &[2, 3])
            .build();
        let io = cfg.build(&ut, &[fd], IoPath::Rpc(Arc::new(svc)), Arc::clone(&wire));
        EchoRig { m, e, wire, fd, io }
    }

    fn push(&self, plain: &[u8]) {
        let ut = ThreadCtx::untrusted(&self.m, 1);
        self.m
            .host
            .push_request(&ut, self.fd, &self.wire.encrypt(plain));
    }

    fn thread(&self) -> ThreadCtx {
        let mut t = ThreadCtx::for_enclave(&self.m, &self.e, 0);
        t.enter();
        t
    }
}

fn reap_config(depth: usize) -> ServerIoConfig {
    ServerIoConfig::with_buf_len(16 << 10).batch(depth.max(1))
}

/// Pushes `payloads`, reaps them in one scatter-gather `recv_batch`
/// over `workers` RPC workers, and returns the decrypted plaintexts in
/// reap order.
fn reap_once(payloads: &[Vec<u8>], workers: usize) -> Vec<Vec<u8>> {
    let rig = EchoRig::new(workers, reap_config(payloads.len()));
    for p in payloads {
        rig.push(p);
    }
    let mut t = rig.thread();
    let out = rig.io.recv_batch(&mut t);
    t.exit();
    out
}

/// The per-message reference: the same queue reaped by the native
/// path's sequential `recv` loop, one syscall per message.
fn reap_per_message(payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let m = SgxMachine::new(MachineConfig::tiny());
    let wire = Arc::new(Session::established([9u8; 16]));
    let mut ut = ThreadCtx::untrusted(&m, 1);
    let fd = m.host.socket(&ut, 256 << 10);
    let io = reap_config(payloads.len()).build(&ut, &[fd], IoPath::Native, Arc::clone(&wire));
    for p in payloads {
        m.host.push_request(&ut, fd, &wire.encrypt(p));
    }
    io.recv_batch(&mut ut)
}

// ---------------------------------------------------------------------
// Satellite 1: scatter-gather reap == per-message path
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For every worker count x batch depth, the scatter-gather reap
    /// returns byte-identical decrypted payloads in identical order
    /// to the native per-message reference.
    #[test]
    fn mmsg_reap_matches_per_message_reference(
        seed in prop::collection::vec(any::<u8>(), 64..65),
    ) {
        for workers in 1usize..=4 {
            for depth in [1usize, 2, 8, 64] {
                // Distinct, random-looking payloads of varying length,
                // derived from the proptest seed bytes.
                let payloads: Vec<Vec<u8>> = (0..depth)
                    .map(|i| {
                        let len = 1 + (seed[i % 64] as usize + i) % 180;
                        (0..len)
                            .map(|j| seed[(i + j) % 64].wrapping_add((i * 31 + j) as u8))
                            .collect()
                    })
                    .collect();
                let reference = reap_per_message(&payloads);
                prop_assert_eq!(&reference, &payloads, "reference path must echo the queue");
                let got = reap_once(&payloads, workers);
                prop_assert_eq!(
                    &got, &reference,
                    "scatter-gather reap diverged (workers={}, depth={})",
                    workers, depth
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Satellite 3: multi-worker echo rounds and ring-full fallback
// ---------------------------------------------------------------------

/// Echo rounds with two workers polling: every response reaches the
/// socket in order, each send done before the next round reuses the
/// transmit buffer.
#[test]
fn multi_worker_echo_rounds_stay_in_order() {
    let rig = EchoRig::new(2, ServerIoConfig::with_buf_len(8192).batch(4));
    let mut t = rig.thread();
    for round in 0..6u8 {
        for i in 0..4u8 {
            rig.push(&[round * 4 + i; 24]);
        }
        let msgs = rig.io.recv_batch(&mut t);
        assert_eq!(msgs.len(), 4);
        rig.io.send_batch(&mut t, &msgs);
    }
    t.exit();
    let mut echoed = Vec::new();
    while let Some(resp) = rig.m.host.pop_response(rig.fd) {
        echoed.push(rig.wire.decrypt(&resp));
    }
    assert_eq!(echoed.len(), 24, "every echo must reach the socket");
    for (i, msg) in echoed.iter().enumerate() {
        assert_eq!(msg, &vec![i as u8; 24], "response {i} out of order");
    }
}

/// Submissions that fill the ring back off and retry without dropping
/// or reordering messages: a one-slot ring forces `rpc_ring_full` on
/// every two-shard (two-job) submission, yet each shard's echo stream
/// stays intact.
#[test]
fn ring_full_sub_batches_fall_back_without_reordering() {
    let m = SgxMachine::new(MachineConfig::tiny());
    let e = m.driver.create_enclave(&m, 1 << 20);
    let wire = Arc::new(Session::established([3u8; 16]));
    let ut = ThreadCtx::untrusted(&m, 1);
    let fds = m.host.socket_set(&ut, 2, 256 << 10);
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .workers(2, &[2, 3])
        .slots(1)
        .build();
    let io = ServerIoConfig::with_buf_len(8192).batch(4).build(
        &ut,
        &fds,
        IoPath::Rpc(Arc::new(svc)),
        Arc::clone(&wire),
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    for round in 0..3u8 {
        for i in 0..8u8 {
            m.host.push_request(
                &ut,
                fds[usize::from(i % 2)],
                &wire.encrypt(&[round * 8 + i; 20]),
            );
        }
        let msgs = io.recv_batch(&mut t);
        // Shard 0's four (even payloads), then shard 1's (odd).
        let want: Vec<Vec<u8>> = (0..8u8)
            .map(|j| vec![round * 8 + (j % 4) * 2 + j / 4; 20])
            .collect();
        assert_eq!(
            msgs, want,
            "ring pressure must not drop or reorder messages"
        );
        io.send_batch(&mut t, &msgs);
    }
    t.exit();
    let d = m.stats.snapshot();
    assert!(
        d.rpc_ring_full > 0,
        "a one-slot ring must report back-pressure"
    );
    for (k, &fd) in fds.iter().enumerate() {
        let mut next = k as u8;
        while let Some(resp) = m.host.pop_response(fd) {
            assert_eq!(wire.decrypt(&resp), vec![next; 20]);
            next += 2;
        }
        assert_eq!(next, 24 + k as u8, "ring pressure must not drop responses");
    }
}

// ---------------------------------------------------------------------
// Satellite 4: cost accounting
// ---------------------------------------------------------------------

/// A single-socket reap is one `recv_mmsg` job and its send one
/// `send_mmsg` job, so each leg costs exactly one syscall trap and one
/// kernel-metadata charge however many workers poll the ring.
#[test]
fn one_trap_and_one_meta_charge_per_leg_per_reap() {
    for workers in [1usize, 2, 4] {
        let rig = EchoRig::new(workers, ServerIoConfig::with_buf_len(8192).batch(8));
        let mut t = rig.thread();
        for i in 0..8u8 {
            rig.push(&[i; 24]);
        }
        let s0 = rig.m.stats.snapshot();
        let msgs = rig.io.recv_batch(&mut t);
        assert_eq!(msgs.len(), 8);
        let d = rig.m.stats.snapshot() - s0;
        assert_eq!(d.syscalls, 1, "one trap per reap ({workers} workers)");
        assert_eq!(
            d.kernel_meta_reads, 1,
            "one kernel-metadata walk per reap ({workers} workers)"
        );
        let s0 = rig.m.stats.snapshot();
        rig.io.send_batch(&mut t, &msgs);
        let d = rig.m.stats.snapshot() - s0;
        assert_eq!(d.syscalls, 1, "one trap per send ({workers} workers)");
        assert_eq!(
            d.kernel_meta_reads, 1,
            "one kernel-metadata walk per send ({workers} workers)"
        );
        t.exit();
    }
}

/// Wire crypto setup is charged through the one unified
/// `ThreadCtx::charge_crypto_in` site: a batch-of-8 amortized decrypt bills
/// the leader the full setup and each follow-on a quarter.
#[test]
fn wire_setup_cycles_follow_the_unified_formula() {
    let rig = EchoRig::new(2, ServerIoConfig::with_buf_len(8192).batch(8));
    let mut t = rig.thread();
    for i in 0..8u8 {
        rig.push(&[i; 24]);
    }
    let s0 = rig.m.stats.snapshot();
    let msgs = rig.io.recv_batch(&mut t);
    assert_eq!(msgs.len(), 8);
    let d = rig.m.stats.snapshot() - s0;
    let full = MachineConfig::tiny().costs.crypto_fixed;
    assert_eq!(d.crypto_batches, 1);
    assert_eq!(d.crypto_msgs, 8);
    assert_eq!(d.crypto_setup_cycles, full + 7 * (full / 4));
    t.exit();
}

/// Working-set span: 16 pages through an 8-frame EPC++.
const SPAN: usize = 64 << 10;

fn suvm_rig() -> (Arc<SgxMachine>, Arc<Suvm>, ThreadCtx) {
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
            wb_batch: 8,
            ..SuvmConfig::tiny()
        },
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    (m, s, t)
}

/// SUVM write-back drains charge their setup through the same unified
/// path: one crypto batch per drain, leader at full setup, follow-ons
/// at a quarter — no private amortization in `writeback.rs`.
#[test]
fn drain_setup_cycles_follow_the_unified_formula() {
    let (m, s, mut t) = suvm_rig();
    let sva = s.malloc(SPAN);
    let fill = vec![0xa1u8; SPAN];
    s.write(&mut t, sva, &fill);
    // Quiesce: every page sealed, cache empty.
    while s.evict_one(&mut t) {}
    while s.writeback_queue_len() > 0 {
        s.drain_writeback(&mut t, 8);
    }
    // Fault eight pages back in (clean, valid sealed copies), then
    // dirty half of them.
    let mut probe = [0u8; 1];
    for page in 0..8u64 {
        s.read(&mut t, sva + page * 4096, &mut probe);
    }
    for page in 0..4u64 {
        s.write(&mut t, sva + page * 4096 + 9, &[0x33; 8]);
    }
    // Three more faults: the detach pass frees clean victims outright
    // and parks the dirty ones on the write-back queue, so the queue
    // fills without a synchronous fallback drain.
    for page in 8..11u64 {
        s.read(&mut t, sva + page * 4096, &mut probe);
    }
    assert!(
        s.writeback_queue_len() >= 2,
        "the workload must queue at least one drainable batch"
    );
    let full = m.cfg.costs.crypto_fixed;
    let s0 = m.stats.snapshot();
    let sealed = s.drain_writeback(&mut t, 4);
    let d = m.stats.snapshot() - s0;
    assert!(sealed >= 2, "the drain must seal a batch");
    assert_eq!(d.crypto_batches, 1, "one unified charge per drain");
    assert_eq!(d.crypto_msgs, sealed as u64);
    assert_eq!(
        d.crypto_setup_cycles,
        full + (sealed as u64 - 1) * (full / 4),
        "drain leader pays full setup, follow-ons a quarter"
    );
    t.exit();
}

// ---------------------------------------------------------------------
// Satellite 5: epoch rotation mid-run is invisible in the plaintext
// ---------------------------------------------------------------------

/// Serves `payloads` through an echo server over `shards` sockets,
/// rekeying every `rekey_every` served requests (never, when `None`),
/// and returns the decrypted replies in push order. The client drains
/// each round's replies while their epoch is still inside the session's
/// two-slot key buffer — the contract a real client keeps by following
/// the server's epoch announcements.
fn run_echo_with_rekey(
    shards: usize,
    rekey_every: Option<u64>,
    payloads: &[Vec<u8>],
) -> (Vec<Vec<u8>>, u64, u64) {
    let m = SgxMachine::new(MachineConfig::tiny());
    let e = m.driver.create_enclave(&m, 1 << 20);
    let session = Arc::new(Session::established([9u8; 16]));
    let ut = ThreadCtx::untrusted(&m, 1);
    let fds: Vec<_> = (0..shards).map(|_| m.host.socket(&ut, 256 << 10)).collect();
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .workers(2, &[2, 3])
        .build();
    let mut cfg = ServerIoConfig::with_buf_len(16 << 10).batch(4);
    if let Some(n) = rekey_every {
        cfg = cfg.rekey_every(n);
    }
    let io = cfg.build(&ut, &fds, IoPath::Rpc(Arc::new(svc)), Arc::clone(&session));
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let mut out = Vec::new();
    for (round, chunk) in payloads.chunks(4).enumerate() {
        for (i, p) in chunk.iter().enumerate() {
            m.host
                .push_request(&ut, fds[(round + i) % shards], &session.encrypt(p));
        }
        let mut done = 0usize;
        while done < chunk.len() {
            let msgs = io.recv_batch(&mut t);
            assert!(!msgs.is_empty(), "queued requests must be served");
            done += msgs.len();
            io.send_batch(&mut t, &msgs);
        }
        for &fd in &fds {
            while let Some(resp) = m.host.pop_response(fd) {
                out.push(session.decrypt(&resp));
            }
        }
    }
    t.exit();
    let d = m.stats.snapshot();
    (out, d.rekeys, d.auth_failures)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// A server that rotates its session key mid-run returns byte-
    /// identical decrypted replies to one that never rekeys, across
    /// 1-3 shards and rekey intervals that fire at every fence or
    /// every other fence — and no message is ever dropped to a key
    /// mismatch while the old epoch drains.
    #[test]
    fn rekeying_server_matches_static_key_replies(
        seed in prop::collection::vec(any::<u8>(), 32..33),
    ) {
        let payloads: Vec<Vec<u8>> = (0..16usize)
            .map(|i| {
                let len = 1 + (seed[i % 32] as usize + i) % 120;
                (0..len)
                    .map(|j| seed[(i + j) % 32].wrapping_add((i * 13 + j) as u8))
                    .collect()
            })
            .collect();
        for shards in 1usize..=3 {
            let (reference, rk, af) = run_echo_with_rekey(shards, None, &payloads);
            // Replies drain shard 0..n each round, so multi-shard runs
            // see a fixed by-shard permutation of push order; the echo
            // *set* must match exactly, and on one shard the order too.
            let mut sorted = reference.clone();
            sorted.sort();
            let mut expect = payloads.clone();
            expect.sort();
            prop_assert_eq!(&sorted, &expect, "static-key path must echo the queue");
            if shards == 1 {
                prop_assert_eq!(&reference, &payloads, "single-shard echo must keep order");
            }
            prop_assert_eq!((rk, af), (0, 0), "static-key leg must not rotate");
            for interval in [4u64, 8] {
                let (got, rk, af) = run_echo_with_rekey(shards, Some(interval), &payloads);
                prop_assert_eq!(
                    &got, &reference,
                    "rekeying replies diverged (shards={}, interval={})", shards, interval
                );
                prop_assert!(rk > 0, "the rekeying leg must actually rotate");
                prop_assert_eq!(af, 0, "rotation must not drop in-flight messages");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pin: what a one-worker send puts on the wire and what it costs
// ---------------------------------------------------------------------

/// What one 32-reply `send_batch` left on its socket and sealed.
#[derive(Debug, PartialEq, Eq)]
struct SentBatch {
    /// FNV-1a over the transmit log in order, each message length
    /// first.
    wire: u64,
    reply_rejects: u64,
    crypto_msgs: u64,
    crypto_batches: u64,
    crypto_setup_cycles: u64,
}

/// What one leg — a reap or a send — cost the serving core.
#[derive(Debug, PartialEq, Eq)]
struct LegClock {
    cycles: u64,
    syscalls: u64,
    kernel_meta_reads: u64,
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// One-socket echo server behind one RPC worker on a CAT-partitioned
/// tiny machine (so the clocks are exact), reaping 32 at a time from a
/// 64 KiB staging buffer: 2 KiB transmit slots.
fn pinned_send_rig() -> EchoRig {
    let m = SgxMachine::new(MachineConfig::tiny());
    m.enable_cat();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let wire = Arc::new(Session::established([9u8; 16]));
    let ut = ThreadCtx::untrusted(&m, 1);
    let fd = m.host.socket(&ut, 256 << 10);
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .workers(1, &[3])
        .build();
    let io = ServerIoConfig::with_buf_len(64 << 10).batch(32).build(
        &ut,
        &[fd],
        IoPath::Rpc(Arc::new(svc)),
        Arc::clone(&wire),
    );
    EchoRig { m, e, wire, fd, io }
}

/// Reaps 32 small requests, answers them with `replies` in one
/// `send_batch`, and reads back what reached the socket: every reply
/// that fits its slot, in order (the rest are `reply_rejects`).
fn send_32(rig: &EchoRig, t: &mut ThreadCtx, replies: &[Vec<u8>]) -> (SentBatch, LegClock) {
    assert_eq!(replies.len(), 32);
    for i in 0..32u8 {
        rig.push(&[i; 24]);
    }
    assert_eq!(rig.io.recv_batch(t).len(), 32);
    let (c0, s0) = (t.now(), rig.m.stats.snapshot());
    rig.io.send_batch(t, replies);
    let d = rig.m.stats.snapshot() - s0;
    let clock = LegClock {
        cycles: t.now() - c0,
        syscalls: d.syscalls,
        kernel_meta_reads: d.kernel_meta_reads,
    };
    let mut wire = 0xcbf2_9ce4_8422_2325;
    let mut got = Vec::new();
    while let Some(msg) = rig.m.host.pop_response(rig.fd) {
        wire = fnv(fnv(wire, &(msg.len() as u64).to_le_bytes()), &msg);
        got.push(rig.wire.decrypt(&msg));
    }
    let slot = rig.io.cfg.buf_len / rig.io.cfg.batch_max;
    let fits: Vec<&Vec<u8>> = replies
        .iter()
        .filter(|r| r.len() + eleos::apps::wire::NONCE_LEN <= slot)
        .collect();
    assert!(got.iter().eq(fits), "every reply that fits, in order");
    let sent = SentBatch {
        wire,
        reply_rejects: d.reply_rejects,
        crypto_msgs: d.crypto_msgs,
        crypto_batches: d.crypto_batches,
        crypto_setup_cycles: d.crypto_setup_cycles,
    };
    (sent, clock)
}

/// The serving core's cycles for the 1 KiB batch when the whole send
/// was one `send_mmsg` job, waited for with nothing left to overlap.
const KIB_SEND_CYCLES_ONE_JOB: u64 = 108_322;

/// The guard of the send leg on one worker: three 32-reply batches —
/// 24 B replies, 1 KiB replies, and a mix in which reply 13 outgrows
/// its 2 KiB slot — put the same bytes on the wire in the same order
/// and seal them as 32 follow-ons of the serve round's wire batch (its
/// leader is the reap's first decrypt), whatever the send does with
/// the worker in between. The small batch, under every threshold, also
/// costs the serving core the same cycles, traps and kernel-metadata
/// walks; the 1 KiB batch may only get cheaper.
#[test]
fn streamed_send_is_pinned() {
    let rig = pinned_send_rig();
    let mut t = rig.thread();
    let small: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 24]).collect();
    let kib: Vec<Vec<u8>> = (0..32u8).map(|i| vec![0x40 + i; 1024]).collect();
    let mix: Vec<Vec<u8>> = (0..32u8)
        .map(|i| {
            let len = if i == 13 {
                2100
            } else {
                [24, 1024, 300, 1500][usize::from(i % 4)]
            };
            vec![0x80 + i; len]
        })
        .collect();
    let sent = |wire, reply_rejects| SentBatch {
        wire,
        reply_rejects,
        crypto_msgs: 32,
        crypto_batches: 0,
        crypto_setup_cycles: 3_200,
    };

    let (got, clock) = send_32(&rig, &mut t, &small);
    assert_eq!(got, sent(18_218_119_948_724_837_312, 0), "24 B replies");
    assert_eq!(
        clock,
        LegClock {
            cycles: 21_762,
            syscalls: 1,
            kernel_meta_reads: 1,
        },
        "24 B replies: the serving core's cost"
    );

    let (got, clock) = send_32(&rig, &mut t, &kib);
    assert_eq!(got, sent(3_427_353_410_044_150_583, 0), "1 KiB replies");
    assert!(
        clock.cycles <= KIB_SEND_CYCLES_ONE_JOB,
        "1 KiB replies cost {} cycles",
        clock.cycles
    );
    // Four groups of eight 1 036-byte frames, each posted as its own
    // job: the worker transmits one while the enclave seals the next.
    assert_eq!(
        clock,
        LegClock {
            cycles: 92_288,
            syscalls: 4,
            kernel_meta_reads: 4,
        },
        "1 KiB replies streamed in four groups"
    );

    let (got, _) = send_32(&rig, &mut t, &mix);
    assert_eq!(
        got,
        sent(5_146_279_243_188_367_400, 1),
        "mixed replies, one too long"
    );
    t.exit();
}

// ---------------------------------------------------------------------
// Pin: what a one-worker reap hands the serve loop and what it costs
// ---------------------------------------------------------------------

/// What one reap handed the serve loop, and what it rejected, refused
/// and decrypted on the way.
#[derive(Debug, PartialEq, Eq)]
struct Reaped {
    /// FNV-1a over the plaintexts in order, each length first.
    plain: u64,
    desc_rejects: u64,
    auth_failures: u64,
    crypto_msgs: u64,
    crypto_batches: u64,
    crypto_setup_cycles: u64,
}

/// Pushes `requests` and receives them with `recv` (a whole reap, or
/// one `recv_msg`): every request must come back, in order.
fn reap_pinned(
    rig: &EchoRig,
    t: &mut ThreadCtx,
    requests: &[Vec<u8>],
    recv: impl FnOnce(&ServerIo, &mut ThreadCtx) -> Vec<Vec<u8>>,
) -> (Reaped, LegClock) {
    for r in requests {
        rig.push(r);
    }
    let (c0, s0) = (t.now(), rig.m.stats.snapshot());
    let got = recv(&rig.io, t);
    let d = rig.m.stats.snapshot() - s0;
    let clock = LegClock {
        cycles: t.now() - c0,
        syscalls: d.syscalls,
        kernel_meta_reads: d.kernel_meta_reads,
    };
    assert_eq!(got, requests, "every request, in order");
    let plain = got.iter().fold(0xcbf2_9ce4_8422_2325, |h, msg| {
        fnv(fnv(h, &(msg.len() as u64).to_le_bytes()), msg)
    });
    let reaped = Reaped {
        plain,
        desc_rejects: d.desc_rejects,
        auth_failures: d.auth_failures,
        crypto_msgs: d.crypto_msgs,
        crypto_batches: d.crypto_batches,
        crypto_setup_cycles: d.crypto_setup_cycles,
    };
    (reaped, clock)
}

/// The guard of the receive leg on one worker: three 32-deep reaps —
/// 24 B requests, 1 KiB requests, and a 24 / 300 / 1 024 / 1 500 B mix
/// — hand the serve loop the same plaintexts in the same order, reject
/// and refuse nothing, and decrypt each reap as one amortized crypto
/// batch (the leader at the full setup, 31 follow-ons at a quarter) in
/// one trap and one kernel-metadata walk, whatever the reap does with
/// the worker in between. A depth-one `recv_msg` after them has nothing
/// to overlap: its clock is pinned too.
#[test]
fn streamed_recv_is_pinned() {
    let rig = pinned_send_rig();
    let mut t = rig.thread();
    let small: Vec<Vec<u8>> = (0..32u8).map(|i| vec![i; 24]).collect();
    let kib: Vec<Vec<u8>> = (0..32u8).map(|i| vec![0x40 + i; 1024]).collect();
    let mix: Vec<Vec<u8>> = (0..32u8)
        .map(|i| vec![0x80 + i; [24, 300, 1024, 1500][usize::from(i % 4)]])
        .collect();
    let reaped = |plain| Reaped {
        plain,
        desc_rejects: 0,
        auth_failures: 0,
        crypto_msgs: 32,
        crypto_batches: 1,
        crypto_setup_cycles: 3_500,
    };
    let one_trap = |cycles| LegClock {
        cycles,
        syscalls: 1,
        kernel_meta_reads: 1,
    };
    let batch = |io: &ServerIo, t: &mut ThreadCtx| io.recv_batch(t);

    let (got, clock) = reap_pinned(&rig, &mut t, &small, batch);
    assert_eq!(got, reaped(11_464_277_861_279_872_933), "24 B requests");
    assert_eq!(
        clock,
        one_trap(19_726),
        "24 B requests: the serving core's cost"
    );

    let (got, clock) = reap_pinned(&rig, &mut t, &kib, batch);
    assert_eq!(got, reaped(15_085_938_670_032_101_157), "1 KiB requests");
    assert_eq!(
        clock,
        one_trap(89_598),
        "1 KiB requests: the serving core's cost"
    );

    let (got, clock) = reap_pinned(&rig, &mut t, &mix, batch);
    assert_eq!(got, reaped(833_743_586_549_126_693), "mixed requests");
    assert_eq!(
        clock,
        one_trap(70_044),
        "mixed requests: the serving core's cost"
    );

    let one = [vec![0xc0; 100]];
    let (got, clock) = reap_pinned(&rig, &mut t, &one, |io, t| {
        io.recv_msg(t).into_iter().collect()
    });
    assert_eq!(
        got,
        Reaped {
            crypto_msgs: 1,
            crypto_setup_cycles: 400,
            ..reaped(1_365_371_586_076_430_321)
        },
        "one recv_msg"
    );
    assert_eq!(
        clock,
        one_trap(4_022),
        "one recv_msg: the serving core's cost"
    );
    t.exit();
}

/// Several workers may claim a socket's jobs out of order, so on a
/// two-worker ring a send keeps one `send_mmsg` job per socket however
/// many bytes it carries: four sockets answering eight 1 KiB replies
/// each, three rounds running, cost four traps and four
/// kernel-metadata walks a send, and every socket's replies arrive in
/// the order they were produced.
#[test]
fn multi_worker_sends_keep_one_job_per_socket() {
    let m = SgxMachine::new(MachineConfig::tiny());
    let e = m.driver.create_enclave(&m, 1 << 20);
    let wire = Arc::new(Session::established([5u8; 16]));
    let ut = ThreadCtx::untrusted(&m, 1);
    let fds = m.host.socket_set(&ut, 4, 256 << 10);
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .workers(2, &[2, 3])
        .build();
    let io = ServerIoConfig::with_buf_len(64 << 10).batch(8).build(
        &ut,
        &fds,
        IoPath::Rpc(Arc::new(svc)),
        Arc::clone(&wire),
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    for round in 0..3u8 {
        for &fd in &fds {
            for i in 0..8u8 {
                m.host.push_request(&ut, fd, &wire.encrypt(&[i; 24]));
            }
        }
        let msgs = io.recv_batch(&mut t);
        assert_eq!(msgs.len(), 32);
        // The reap is shard by shard: reply `j` goes out socket `j / 8`.
        let replies: Vec<Vec<u8>> = (0..32u8).map(|j| vec![round * 32 + j; 1024]).collect();
        let s0 = m.stats.snapshot();
        io.send_batch(&mut t, &replies);
        let d = m.stats.snapshot() - s0;
        assert_eq!(
            (d.syscalls, d.kernel_meta_reads),
            (4, 4),
            "one send_mmsg per socket (round {round})"
        );
        for (k, &fd) in fds.iter().enumerate() {
            let got: Vec<Vec<u8>> = std::iter::from_fn(|| m.host.pop_response(fd))
                .map(|r| wire.decrypt(&r))
                .collect();
            assert_eq!(
                got,
                &replies[k * 8..k * 8 + 8],
                "socket {k}'s replies in order (round {round})"
            );
        }
    }
    t.exit();
}

// ---------------------------------------------------------------------
// Pin: a lone KVS serving a deep backlog round by round
// ---------------------------------------------------------------------

/// What serving a three-round backlog cost a lone KVS.
#[derive(Debug, PartialEq, Eq)]
struct BacklogServe {
    /// Requests served by each round.
    served: Vec<usize>,
    /// FNV-1a over every reply in order, each length first.
    replies: u64,
    desc_rejects: u64,
    auth_failures: u64,
    crypto_msgs: u64,
    crypto_batches: u64,
}

/// A lone binary-protocol KVS of 64 items behind one RPC worker on a
/// CAT-partitioned tiny machine, at a fixed depth of 32: queues 3 x 32
/// GETs at once, then serves them with `Kvs::handle_batch` round by
/// round, popping each round's replies before the next. Returns what
/// was served and the serving core's cycles from the first reap to the
/// end of the last round.
fn serve_deep_backlog() -> (BacklogServe, u64) {
    let m = SgxMachine::new(MachineConfig::tiny());
    m.enable_cat();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let wire = Arc::new(Session::established([9u8; 16]));
    let ut = ThreadCtx::untrusted(&m, 1);
    let fd = m.host.socket(&ut, 256 << 10);
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .workers(1, &[3])
        .build();
    let io = ServerIoConfig::with_buf_len(64 << 10).batch(32).build(
        &ut,
        &[fd],
        IoPath::Rpc(Arc::new(svc)),
        Arc::clone(&wire),
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let space = DataSpace::Untrusted(Arc::clone(&m));
    let mut kvs = Kvs::new(space.clone(), space, 8 << 20, 256);
    kvs.init(&mut t);
    let key = |i: usize| format!("key-{i:04}").into_bytes();
    for i in 0..64 {
        kvs.set(&mut t, &key(i), &[i as u8; 48]);
    }
    for r in 0..96 {
        m.host
            .push_request(&ut, fd, &wire.encrypt(&build_get(&key(r * 7 % 64))));
    }
    let (c0, s0) = (t.now(), m.stats.snapshot());
    let mut served = Vec::new();
    let mut replies = 0xcbf2_9ce4_8422_2325;
    let mut answered = 0;
    for _round in 0..3 {
        served.push(kvs.handle_batch(&mut t, &io));
        while let Some(msg) = m.host.pop_response(fd) {
            let reply = wire.decrypt(&msg);
            assert_eq!(
                reply[5..],
                [(answered * 7 % 64) as u8; 48],
                "reply {answered}"
            );
            replies = fnv(fnv(replies, &(reply.len() as u64).to_le_bytes()), &reply);
            answered += 1;
        }
    }
    let (cycles, d) = (t.now() - c0, m.stats.snapshot() - s0);
    t.exit();
    let serve = BacklogServe {
        served,
        replies,
        desc_rejects: d.desc_rejects,
        auth_failures: d.auth_failures,
        crypto_msgs: d.crypto_msgs,
        crypto_batches: d.crypto_batches,
    };
    (serve, cycles)
}

/// The guard of a lone server's serve loop under a standing backlog:
/// three full rounds hand the store the same requests, put the same
/// replies on the wire, reject and refuse nothing, and seal and open
/// the same crypto batches, whatever the loop does with the worker
/// between rounds: one wire batch a round. The serving core's clock
/// once the backlog is served is pinned too; it fell from 171 096 to
/// 146 272 when a GET hit began setting a referenced bit instead of
/// relinking its item on the LRU, and to 145 372 when a round's
/// decrypts and seals became one wire batch.
#[test]
fn deep_backlog_serve_rounds_are_pinned() {
    let (serve, cycles) = serve_deep_backlog();
    assert_eq!(
        serve,
        BacklogServe {
            served: vec![32, 32, 32],
            replies: 4_057_302_342_857_029_797,
            desc_rejects: 0,
            auth_failures: 0,
            crypto_msgs: 192,
            crypto_batches: 3,
        }
    );
    assert_eq!(cycles, 145_372, "the serving core's clock");
}

// ---------------------------------------------------------------------
// The serve round: the library's loop and its public calls agree
// ---------------------------------------------------------------------

/// What serving three rounds of a cold SUVM store left behind: the
/// serving core's clock, every counter, and a digest of the replies.
type ColdServe = (u64, eleos::sim::stats::StatsSnapshot, u64);

/// A lone binary-protocol KVS whose records live in SUVM sealed as
/// 1 KiB units, every page evicted, behind one RPC worker on a
/// CAT-partitioned tiny machine: queues 3 x 32 requests (a SET every
/// fourth, else a GET) and serves them round by round, with
/// `Kvs::handle_batch` or with the public calls it is made of —
/// `recv_batch`, `Kvs::process` per request, `send_batch`,
/// `Kvs::fence` — as the e2e bench's traced loop does.
fn serve_cold_suvm(public_calls: bool) -> ColdServe {
    let m = SgxMachine::new(MachineConfig::tiny());
    m.enable_cat();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let wire = Arc::new(Session::established([9u8; 16]));
    let ut = ThreadCtx::untrusted(&m, 1);
    let fd = m.host.socket(&ut, 256 << 10);
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .workers(1, &[3])
        .build();
    let io = ServerIoConfig::with_buf_len(64 << 10).batch(32).build(
        &ut,
        &[fd],
        IoPath::Rpc(Arc::new(svc)),
        Arc::clone(&wire),
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    let suvm = Suvm::new(
        &t,
        SuvmConfig {
            sub_page_size: 1024,
            backing_bytes: 4 << 20,
            ..SuvmConfig::tiny()
        },
    );
    t.enter();
    let meta = DataSpace::Untrusted(Arc::clone(&m));
    let mut kvs = Kvs::new(meta, DataSpace::suvm(&suvm), 2 << 20, 256);
    kvs.init(&mut t);
    let key = |i: usize| format!("key-{i:04}").into_bytes();
    for i in 0..64 {
        kvs.set(&mut t, &key(i), &[i as u8; 900]);
    }
    while suvm.evict_one(&mut t) {}
    for r in 0..96 {
        let plain = match r % 4 {
            3 => eleos::apps::kvs::build_set(&key(r * 5 % 64), &[r as u8; 900]),
            _ => build_get(&key(r * 7 % 64)),
        };
        m.host.push_request(&ut, fd, &wire.encrypt(&plain));
    }
    let (c0, s0) = (t.now(), m.stats.snapshot());
    let mut replies = 0xcbf2_9ce4_8422_2325;
    for _round in 0..3 {
        if public_calls {
            let requests = io.recv_batch(&mut t);
            let out: Vec<Vec<u8>> = requests.iter().map(|p| kvs.process(&mut t, p)).collect();
            io.send_batch(&mut t, &out);
            if !requests.is_empty() {
                kvs.fence(&mut t);
            }
        } else {
            kvs.handle_batch(&mut t, &io);
        }
        while let Some(msg) = m.host.pop_response(fd) {
            replies = fnv(replies, &wire.decrypt(&msg));
        }
    }
    let (cycles, mut d) = (t.now() - c0, m.stats.snapshot() - s0);
    // How often the idle worker polled is host timing, not a charge.
    d.rpc_idle_polls = 0;
    t.exit();
    (cycles, d, replies)
}

/// The twin of the e2e bench's identity check: a serve round opens at
/// the reap and ends with the send, which the library's loop and the
/// loop of its public calls both reach, so on a store whose GETs and
/// SETs bypass EPC++ they bill the same crypto batches and leave the
/// same clock and counters. Each round is two batches: the wire's and
/// SUVM's.
#[test]
fn a_serve_round_costs_the_same_through_handle_batch_and_its_public_calls() {
    let library = serve_cold_suvm(false);
    assert_eq!(serve_cold_suvm(true), library);
    let d = library.1;
    assert!(d.suvm_direct_accesses > 0, "the rounds bypassed EPC++");
    assert_eq!((d.crypto_batches, d.auth_failures), (6, 0));
}
