//! Equivalence suite for sharded multi-socket serving:
//!
//! - a sharded server (one reap→decrypt→serve→seal→send pipeline per
//!   socket, connections pinned to shards by [`shard_for`]) returns
//!   byte-identical replies *per connection* to the single-socket
//!   baseline, for 1–4 shards, sub-batch depths 4 and 8, and all four
//!   protocol servers (binary KVS, memcached-text KVS, parameter
//!   server, face verification);
//! - commutative updates land identically whatever the shard
//!   interleaving (the parameter-server probe);
//! - no request is stranded: one serve takes every request a shard
//!   queues, up to `batch_max`;
//! - cost accounting: exactly one syscall trap and one
//!   kernel-metadata charge per shard sub-batch on both legs, and an
//!   empty shard's poll costs a trap but no metadata walk;
//! - the pin: what two rounds of a Zipf-skewed stream cost a static 2-
//!   and 4-shard server, in cycles and counters, measured before the
//!   shard-balance layer was deleted.

use std::collections::VecDeque;
use std::sync::Arc;

use eleos::apps::face::{
    build_verify_request, chi_square, lbp_histogram, synth_capture, synth_image, FaceDb, FaceServer,
};
use eleos::apps::io::{IoPath, ServerIo, ServerIoConfig};
use eleos::apps::kvs::{build_get, Kvs};
use eleos::apps::loadgen::attest_session;
use eleos::apps::loadgen::{shard_for, KvsLoad};
use eleos::apps::param_server::{build_read_request, build_update_request, ParamServer, TableKind};
use eleos::apps::space::DataSpace;
use eleos::apps::text_protocol::{format_get, process_text};
use eleos::apps::wire::Session;
use eleos::enclave::host::Fd;
use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::rpc::{with_syscalls, RpcService};
use proptest::prelude::*;

/// Client connections the request streams multiplex.
const N_CONNS: usize = 8;
/// Requests per run.
const N_REQS: usize = 24;

// ---------------------------------------------------------------------
// Shared sharded-server harness
// ---------------------------------------------------------------------

/// One wired server over a shard set: machine, enclave, `shards`
/// sockets and a [`ServerIo`] with one pipeline per socket.
struct ShardRig {
    m: Arc<SgxMachine>,
    e: Arc<eleos::enclave::enclave::Enclave>,
    wire: Arc<Session>,
    fds: Vec<Fd>,
    io: ServerIo,
}

impl ShardRig {
    fn new(shards: usize, workers: usize, cfg: ServerIoConfig) -> ShardRig {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::handshake([9u8; 16], [0x62u8; 16]));
        let mut ut = ThreadCtx::untrusted(&m, 1);
        attest_session(&mut ut, &wire);
        let fds: Vec<Fd> = (0..shards).map(|_| m.host.socket(&ut, 256 << 10)).collect();
        let svc = with_syscalls(RpcService::builder(&m), &m)
            .workers(workers, &[2, 3])
            .build();
        let path = IoPath::Rpc(Arc::new(svc));
        let io = cfg.build(&ut, &fds, path, Arc::clone(&wire));
        ShardRig {
            m,
            e,
            wire,
            fds,
            io,
        }
    }

    /// Pushes one encrypted request from `conn`, landing on the shard
    /// the load generator pins that connection to, and returns that
    /// shard — what the reply regrouping keys on.
    fn push(&self, conn: u64, plain: &[u8]) -> usize {
        let ut = ThreadCtx::untrusted(&self.m, 1);
        let s = shard_for(conn, self.fds.len());
        self.m
            .host
            .push_request(&ut, self.fds[s], &self.wire.encrypt(plain));
        s
    }

    fn thread(&self) -> ThreadCtx {
        let mut t = ThreadCtx::for_enclave(&self.m, &self.e, 0);
        t.enter();
        t
    }
}

/// Keeps calling `step` until `n` requests have been served.
fn serve_to_completion(t: &mut ThreadCtx, n: usize, mut step: impl FnMut(&mut ThreadCtx) -> usize) {
    let mut done = 0usize;
    while done < n {
        let got = step(t);
        assert!(got > 0, "queued requests must be served");
        done += got;
    }
}

/// Drains every shard's response queue and re-groups the decrypted
/// replies by connection: per-shard FIFO order is per-connection
/// order, so the `i`-th reply on a shard answers the `i`-th request
/// that `pushed` recorded landing there. A server that reorders
/// within a shard mis-assigns replies here and fails the byte
/// comparison.
fn replies_by_conn(rig: &ShardRig, pushed: &[(u64, usize)]) -> Vec<Vec<Vec<u8>>> {
    let mut streams: Vec<VecDeque<Vec<u8>>> = rig
        .fds
        .iter()
        .map(|&fd| {
            let mut v = VecDeque::new();
            while let Some(r) = rig.m.host.pop_response(fd) {
                v.push_back(rig.wire.decrypt(&r));
            }
            v
        })
        .collect();
    let mut out = vec![Vec::new(); N_CONNS];
    for &(conn, s) in pushed {
        let r = streams[s].pop_front().expect("a reply per request");
        out[conn as usize].push(r);
    }
    assert!(
        streams.iter().all(VecDeque::is_empty),
        "no surplus replies on any shard"
    );
    out
}

/// The two sub-batch depths the sweep crosses with the shard counts.
fn policies() -> [ServerIoConfig; 2] {
    [
        ServerIoConfig::with_buf_len(16 << 10).batch(4),
        ServerIoConfig::with_buf_len(16 << 10).batch(8),
    ]
}

/// Derives a connection id and a key id per request from proptest
/// seed bytes.
fn request_stream(seed: &[u8]) -> (Vec<u64>, Vec<u64>) {
    let conns = (0..N_REQS)
        .map(|i| (seed[i % seed.len()] as u64 + i as u64 * 5) % N_CONNS as u64)
        .collect();
    let keys = (0..N_REQS)
        .map(|i| seed[(i * 7) % seed.len()] as u64 + i as u64)
        .collect();
    (conns, keys)
}

// ---------------------------------------------------------------------
// Per-server runs
// ---------------------------------------------------------------------

/// The two push→serve rounds every run takes: the second round's
/// pushes land behind sockets the first round already drained.
fn rounds(n: usize) -> [(usize, usize); 2] {
    [(0, n / 2), (n / 2, n)]
}

/// Serves `N_REQS` KVS GETs (binary or memcached-text protocol) on a
/// `shards`-wide socket set; returns the per-connection reply streams.
fn run_kvs(
    shards: usize,
    cfg: ServerIoConfig,
    conns: &[u64],
    keys: &[u64],
    text: bool,
) -> Vec<Vec<Vec<u8>>> {
    let rig = ShardRig::new(shards, 2, cfg);
    let mut t = rig.thread();
    let space = DataSpace::Untrusted(Arc::clone(&rig.m));
    let mut kvs = Kvs::new(space.clone(), space, 8 << 20, 256);
    kvs.init(&mut t);
    let load = KvsLoad::new(7, 64, 16, 48);
    for i in 0..load.n_items {
        kvs.set(&mut t, &load.key(i), &load.value(i));
    }
    let mut pushed = Vec::with_capacity(conns.len());
    for (lo, hi) in rounds(conns.len()) {
        for (&c, &k) in conns[lo..hi].iter().zip(&keys[lo..hi]) {
            let key = load.key(k % load.n_items);
            let plain = if text {
                format_get(&key)
            } else {
                build_get(&key)
            };
            pushed.push((c, rig.push(c, &plain)));
        }
        let io = &rig.io;
        let kvs = &mut kvs;
        serve_to_completion(&mut t, hi - lo, |t| {
            if text {
                io.serve(t, |t, msg| process_text(kvs, t, msg))
            } else {
                kvs.handle_batch(t, io)
            }
        });
    }
    t.exit();
    replies_by_conn(&rig, &pushed)
}

/// Serves a mixed read/update parameter-server stream; returns the
/// per-connection reply streams plus a probe of each connection's
/// private counter (updates are commutative, so the final counters
/// must not depend on the shard interleaving).
fn run_param(
    shards: usize,
    cfg: ServerIoConfig,
    conns: &[u64],
    keys: &[u64],
) -> (Vec<Vec<Vec<u8>>>, Vec<u64>) {
    const TABLE: u64 = 4096;
    let rig = ShardRig::new(shards, 2, cfg);
    let mut t = rig.thread();
    let space = DataSpace::Untrusted(Arc::clone(&rig.m));
    let mut srv = ParamServer::new(space, TableKind::OpenAddressing, TABLE);
    srv.init(&mut t);
    srv.populate_bulk(&mut t, TABLE);
    let mut pushed = Vec::with_capacity(conns.len());
    for (lo, hi) in rounds(conns.len()) {
        for (i, (&c, &k)) in conns[lo..hi].iter().zip(&keys[lo..hi]).enumerate() {
            // Even requests read populated (never-updated) keys; odd
            // requests bump the connection's private counter.
            let plain = if (lo + i) % 2 == 0 {
                build_read_request(&[N_CONNS as u64 + 1 + k % (TABLE - N_CONNS as u64 - 1)])
            } else {
                build_update_request(&[(1 + c, 1 + k % 9)])
            };
            pushed.push((c, rig.push(c, &plain)));
        }
        let io = &rig.io;
        let srv = &mut srv;
        serve_to_completion(&mut t, hi - lo, |t| {
            io.serve(t, |t, plain| srv.process(t, plain))
        });
    }
    let probes = (0..N_CONNS as u64)
        .map(|c| srv.get(&mut t, 1 + c).expect("populated key"))
        .collect();
    t.exit();
    (replies_by_conn(&rig, &pushed), probes)
}

/// Serves a genuine/impostor/unknown face-verification stream;
/// returns the per-connection reply streams.
fn run_face(shards: usize, cfg: ServerIoConfig, conns: &[u64], keys: &[u64]) -> Vec<Vec<Vec<u8>>> {
    const SIDE: usize = 32;
    let rig = ShardRig::new(shards, 2, cfg);
    let mut t = rig.thread();
    let space = DataSpace::Untrusted(Arc::clone(&rig.m));
    let mut db = FaceDb::new(space, SIDE, 4);
    db.init(&mut t);
    for id in 1..=4u64 {
        db.enroll(&mut t, id, &lbp_histogram(&synth_image(id, SIDE), SIDE));
    }
    let enrolled = db.fetch(&mut t, 2).expect("enrolled");
    let genuine = chi_square(&lbp_histogram(&synth_capture(2, SIDE, 9), SIDE), &enrolled);
    let impostor = chi_square(&lbp_histogram(&synth_image(4, SIDE), SIDE), &enrolled);
    let mut srv = FaceServer::new(db, (genuine + impostor) / 2.0);
    let mut pushed = Vec::with_capacity(conns.len());
    for (lo, hi) in rounds(conns.len()) {
        for (i, (&c, &k)) in conns[lo..hi].iter().zip(&keys[lo..hi]).enumerate() {
            let id = 1 + k % 4;
            let plain = match (lo + i) % 3 {
                0 => build_verify_request(id, SIDE, &synth_capture(id, SIDE, (lo + i) as u64)),
                1 => build_verify_request(id, SIDE, &synth_image(1 + (id % 4), SIDE)),
                _ => build_verify_request(99, SIDE, &synth_image(id, SIDE)),
            };
            pushed.push((c, rig.push(c, &plain)));
        }
        let io = &rig.io;
        let srv = &mut srv;
        serve_to_completion(&mut t, hi - lo, |t| {
            io.serve(t, |t, plain| srv.process(t, plain))
        });
    }
    t.exit();
    replies_by_conn(&rig, &pushed)
}

// ---------------------------------------------------------------------
// Satellite: sharded == single-socket, per connection
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Binary-KVS GET replies are byte-identical per connection across
    /// 1–4 shards and both sub-batch depths.
    #[test]
    fn sharded_kvs_matches_single_socket_per_connection(
        seed in prop::collection::vec(any::<u8>(), 32..33),
    ) {
        let (conns, keys) = request_stream(&seed);
        let reference = run_kvs(1, policies()[0].clone(), &conns, &keys, false);
        for cfg in policies() {
            for shards in 1..=4usize {
                let got = run_kvs(shards, cfg.clone(), &conns, &keys, false);
                prop_assert_eq!(
                    &got, &reference,
                    "binary KVS diverged (shards={}, batch_max={})", shards, cfg.batch_max
                );
            }
        }
    }

    /// memcached-text GET replies are byte-identical per connection
    /// across 1–4 shards and both sub-batch depths.
    #[test]
    fn sharded_text_kvs_matches_single_socket_per_connection(
        seed in prop::collection::vec(any::<u8>(), 32..33),
    ) {
        let (conns, keys) = request_stream(&seed);
        let reference = run_kvs(1, policies()[0].clone(), &conns, &keys, true);
        for cfg in policies() {
            for shards in 1..=4usize {
                let got = run_kvs(shards, cfg.clone(), &conns, &keys, true);
                prop_assert_eq!(
                    &got, &reference,
                    "text KVS diverged (shards={}, batch_max={})", shards, cfg.batch_max
                );
            }
        }
    }

    /// Parameter-server read replies and the post-run counters are
    /// identical across 1–4 shards and both sub-batch depths: reads
    /// never race updates, and the updates commute.
    #[test]
    fn sharded_param_server_matches_single_socket_per_connection(
        seed in prop::collection::vec(any::<u8>(), 32..33),
    ) {
        let (conns, keys) = request_stream(&seed);
        let (ref_replies, ref_probes) = run_param(1, policies()[0].clone(), &conns, &keys);
        for cfg in policies() {
            for shards in 1..=4usize {
                let (replies, probes) = run_param(shards, cfg.clone(), &conns, &keys);
                prop_assert_eq!(
                    &replies, &ref_replies,
                    "param server replies diverged (shards={}, batch_max={})", shards, cfg.batch_max
                );
                prop_assert_eq!(
                    &probes, &ref_probes,
                    "param server state diverged (shards={}, batch_max={})", shards, cfg.batch_max
                );
            }
        }
    }

    /// Face-verification verdicts are byte-identical per connection
    /// across 1–4 shards and both sub-batch depths.
    #[test]
    fn sharded_face_server_matches_single_socket_per_connection(
        seed in prop::collection::vec(any::<u8>(), 32..33),
    ) {
        let (conns, keys) = request_stream(&seed);
        let reference = run_face(1, policies()[0].clone(), &conns, &keys);
        for cfg in policies() {
            for shards in 1..=4usize {
                let got = run_face(shards, cfg.clone(), &conns, &keys);
                prop_assert_eq!(
                    &got, &reference,
                    "face server diverged (shards={}, batch_max={})", shards, cfg.batch_max
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Satellite: a reap takes what each socket queues
// ---------------------------------------------------------------------

/// The depth of the stranding checks.
const DEPTH: usize = 8;

/// Queues `backlogs[k]` requests on shard `k`, then serves twice (through
/// `serve`, or `serve_on` every shard) and returns the replies each
/// shard sent per call.
fn serve_twice(rig: &ShardRig, backlogs: &[usize], on: bool) -> [Vec<usize>; 2] {
    let ut = ThreadCtx::untrusted(&rig.m, 1);
    for (&fd, &b) in rig.fds.iter().zip(backlogs) {
        for i in 0..b {
            rig.m
                .host
                .push_request(&ut, fd, &rig.wire.encrypt(&[i as u8; 24]));
        }
    }
    let all: Vec<usize> = (0..rig.fds.len()).collect();
    let mut t = rig.thread();
    let sent = std::array::from_fn(|_| {
        let echo = |_: &mut ThreadCtx, plain: &[u8]| plain.to_vec();
        let served = if on {
            rig.io.serve_on(&mut t, &all, echo)
        } else {
            rig.io.serve(&mut t, echo)
        };
        let sent: Vec<usize> = rig
            .fds
            .iter()
            .map(|&fd| std::iter::from_fn(|| rig.m.host.pop_response(fd)).count())
            .collect();
        assert_eq!(served, sent.iter().sum::<usize>(), "served what it sent");
        sent
    });
    t.exit();
    sent
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On one worker, one serve takes `min(b, batch_max)` of the `b`
    /// requests each shard queues, and the next serve takes the rest:
    /// nothing waits in the kernel behind a depth below `batch_max`.
    #[test]
    fn a_serve_takes_what_each_shard_queues_up_to_batch_max(
        backlogs in prop::collection::vec(1..=DEPTH + 3, 1..5),
        on in any::<bool>(),
    ) {
        let cfg = ServerIoConfig::with_buf_len(16 << 10).batch(DEPTH);
        let rig = ShardRig::new(backlogs.len(), 1, cfg);
        let [first, second] = serve_twice(&rig, &backlogs, on);
        let want: Vec<usize> = backlogs.iter().map(|&b| b.min(DEPTH)).collect();
        prop_assert_eq!(&first, &want, "backlogs {:?}, serve_on={}", backlogs, on);
        let rest: Vec<usize> = backlogs.iter().map(|&b| b - b.min(DEPTH)).collect();
        prop_assert_eq!(&second, &rest, "backlogs {:?}, serve_on={}", backlogs, on);
    }
}

/// A server built through the `adaptive` shim reaps at its ceiling from
/// the start, an empty reap notwithstanding: after one, a serve still
/// takes every request each shard queues.
#[test]
fn the_adaptive_shim_takes_what_each_shard_queues_after_an_empty_reap() {
    for shards in 1..=4 {
        let cfg = ServerIoConfig::with_buf_len(16 << 10).adaptive(1, 32);
        let rig = ShardRig::new(shards, 1, cfg);
        assert_eq!(
            serve_twice(&rig, &vec![0; shards], false),
            [vec![0; shards], vec![0; shards]]
        );
        let [first, second] = serve_twice(&rig, &vec![5; shards], false);
        assert_eq!(first, vec![5; shards], "shards={shards}");
        assert_eq!(second, vec![0; shards], "shards={shards}");
    }
}

// ---------------------------------------------------------------------
// Satellite: cost accounting on the sharded path
// ---------------------------------------------------------------------

/// With every shard non-empty, a sharded reap costs exactly one
/// syscall trap and one kernel-metadata walk per shard on the receive
/// leg, and the unsequenced send leg matches — independent of the RPC
/// worker count (one sub-batch per *shard*, not per worker).
#[test]
fn one_trap_and_one_meta_charge_per_shard_sub_batch() {
    for shards in [2usize, 4] {
        let rig = ShardRig::new(shards, 2, ServerIoConfig::with_buf_len(8192).batch(8));
        let mut t = rig.thread();
        for s in 0..shards {
            let conn = (0..64u64)
                .find(|&c| shard_for(c, shards) == s)
                .expect("a connection for every shard");
            for i in 0..2u8 {
                rig.push(conn, &[s as u8 * 8 + i; 24]);
            }
        }
        let s0 = rig.m.stats.snapshot();
        let msgs = rig.io.recv_batch(&mut t);
        assert_eq!(msgs.len(), 2 * shards, "every queued message reaped");
        let d = rig.m.stats.snapshot() - s0;
        assert_eq!(d.syscalls, shards as u64, "one trap per shard sub-batch");
        assert_eq!(
            d.kernel_meta_reads, shards as u64,
            "one kernel-metadata walk per shard sub-batch"
        );
        let s0 = rig.m.stats.snapshot();
        rig.io.send_batch(&mut t, &msgs);
        let d = rig.m.stats.snapshot() - s0;
        assert_eq!(d.syscalls, shards as u64, "one trap per send sub-batch");
        assert_eq!(
            d.kernel_meta_reads, shards as u64,
            "one kernel-metadata walk per send sub-batch"
        );
        t.exit();
    }
}

/// An empty shard's poll pays the trap but skips the metadata walk
/// (the queue check comes first), and the send leg skips the empty
/// shard entirely.
#[test]
fn empty_shard_poll_costs_a_trap_but_no_meta_walk() {
    let rig = ShardRig::new(2, 2, ServerIoConfig::with_buf_len(8192).batch(8));
    let mut t = rig.thread();
    let conn = (0..64u64)
        .find(|&c| shard_for(c, 2) == 0)
        .expect("a connection for shard 0");
    for i in 0..3u8 {
        rig.push(conn, &[i; 24]);
    }
    let s0 = rig.m.stats.snapshot();
    let msgs = rig.io.recv_batch(&mut t);
    assert_eq!(msgs.len(), 3, "shard 0's queue fully reaped");
    let d = rig.m.stats.snapshot() - s0;
    assert_eq!(d.syscalls, 2, "both shards were polled");
    assert_eq!(
        d.kernel_meta_reads, 1,
        "the empty shard must skip the kernel-metadata walk"
    );
    let s0 = rig.m.stats.snapshot();
    rig.io.send_batch(&mut t, &msgs);
    let d = rig.m.stats.snapshot() - s0;
    assert_eq!(d.syscalls, 1, "the empty shard sends nothing");
    assert_eq!(d.kernel_meta_reads, 1);
    t.exit();
}

// ---------------------------------------------------------------------
// Pin: what static sharded serving costs
// ---------------------------------------------------------------------

/// What two push → serve rounds cost one static sharded KVS server.
#[derive(Debug, PartialEq, Eq)]
struct ShardedCost {
    /// Cycles on the serving core's clock.
    cycles: u64,
    rpc_batches: u64,
    syscalls: u64,
    kernel_meta_reads: u64,
    llc_misses: u64,
}

/// Serves two rounds of 96 binary-KVS GETs whose connections are drawn
/// from a Zipf(0.99) stream and pinned to shards by [`shard_for`], on a
/// CAT-partitioned tiny machine behind one RPC worker (one worker, so
/// every sub-batch runs in submission order and the counts below are
/// exact). Every reply must come back out of the socket its request
/// went in on.
fn sharded_serving_cost(shards: usize, cfg: ServerIoConfig) -> ShardedCost {
    const ROUND: usize = 96;
    let m = SgxMachine::new(MachineConfig::tiny());
    m.enable_cat();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let wire = Arc::new(Session::handshake([9u8; 16], [0x62u8; 16]));
    let mut ut = ThreadCtx::untrusted(&m, 1);
    attest_session(&mut ut, &wire);
    let fds: Vec<Fd> = (0..shards).map(|_| m.host.socket(&ut, 256 << 10)).collect();
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .workers(1, &[3])
        .build();
    let io = cfg.build(&ut, &fds, IoPath::Rpc(Arc::new(svc)), Arc::clone(&wire));
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let space = DataSpace::Untrusted(Arc::clone(&m));
    let mut kvs = Kvs::new(space.clone(), space, 8 << 20, 256);
    kvs.init(&mut t);
    let mut load = KvsLoad::new(7, 64, 16, 48);
    for i in 0..load.n_items {
        kvs.set(&mut t, &load.key(i), &load.value(i));
    }
    let mut conns = eleos::apps::loadgen::ConnStream::skewed(41, 64, 0.99);

    let (c0, s0) = (t.now(), m.stats.snapshot());
    let (mut pushed, mut replied) = (vec![0usize; shards], vec![0usize; shards]);
    for _round in 0..2 {
        for _ in 0..ROUND {
            let s = shard_for(conns.next(), shards);
            let (_, plain) = load.get_plain();
            m.host.push_request(&ut, fds[s], &wire.encrypt(&plain));
            pushed[s] += 1;
        }
        serve_to_completion(&mut t, ROUND, |t| {
            let served = kvs.handle_batch(t, &io);
            // (The host keeps only a socket's latest replies: read each
            // step's before the next one sends.)
            for (s, &fd) in fds.iter().enumerate() {
                while let Some(r) = m.host.pop_response(fd) {
                    assert_eq!(wire.decrypt(&r)[0], 1, "every GET hits a filled item");
                    replied[s] += 1;
                }
            }
            served
        });
    }
    let d = m.stats.snapshot() - s0;
    let cost = ShardedCost {
        cycles: t.now() - c0,
        rpc_batches: d.rpc_batches,
        syscalls: d.syscalls,
        kernel_meta_reads: d.kernel_meta_reads,
        llc_misses: d.llc_misses,
    };
    t.exit();
    assert_eq!(replied, pushed, "every shard answers what it was sent");
    cost
}

/// The unit-speed guard of static sharded serving: the same skewed
/// script costs the serving core the same cycles, ring batches, traps,
/// kernel-metadata walks and LLC misses as it did at the commit before
/// the shard-balance layer and the per-shard CAT classes were deleted
/// (the constants were measured there) — except the cycles and LLC
/// misses, re-measured when the receive leg was streamed: every cell
/// runs one worker, so its reaps read each descriptor line as the
/// worker publishes it — and again when a lone server began reaping
/// ahead: whenever every shard still queues a full sub-batch, the next
/// reap is copied in while the server serves and read while its
/// replies are transmitted. Every cell's clock fell — and fell again,
/// with its LLC misses, when a GET hit began setting a referenced bit
/// instead of relinking its item on the LRU — and again when the one
/// worker became a timeline and the serve loop began serving each
/// shard's run as its job lands (LLC misses moved both ways with the
/// new order of the serving core's reads). The depth-32 rows were an
/// adaptive depth in `[1, 32]` until every reap took what its shards
/// queued, up to `batch_max`. Every clock fell again when a serve
/// round's decrypts and seals became one wire batch.
#[test]
fn sharded_serving_cycles_are_pinned() {
    let fixed = |depth| ServerIoConfig::with_buf_len(16 << 10).batch(depth);
    let pin = |cycles, rpc_batches, syscalls, kernel_meta_reads, llc_misses| ShardedCost {
        cycles,
        rpc_batches,
        syscalls,
        kernel_meta_reads,
        llc_misses,
    };
    let rows = [
        (2, fixed(8), pin(339_667, 30, 56, 52, 675)),
        (2, fixed(32), pin(272_720, 8, 16, 16, 868)),
        (4, fixed(8), pin(391_879, 22, 72, 56, 1_376)),
        (4, fixed(32), pin(298_438, 8, 26, 20, 1_543)),
    ];
    for (shards, cfg, expected) in rows {
        let batch_max = cfg.batch_max;
        let measured = sharded_serving_cost(shards, cfg);
        assert_eq!(measured, expected, "shards={shards}, batch_max={batch_max}");
    }
}

/// A lone server on one worker posts its next reap ahead while the
/// replies of its earlier runs still hold ring slots: nine shards whose
/// sends post one job each, and three shards whose 4 KiB replies post
/// eight groups each, leave fewer free slots than the reap ahead has
/// runs. The serve loop must neither wait on those slots nor lose or
/// reorder a reply. Run on its own thread, so a stall fails the test
/// instead of hanging the suite.
#[test]
fn reaping_ahead_behind_a_send_that_fills_the_ring_serves_everything() {
    for (shards, depth, per_shard, reply_len) in [(9, 4, 8, 24), (3, 16, 32, 4096)] {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let cfg = ServerIoConfig::with_buf_len(depth * (8 << 10)).batch(depth);
            let rig = ShardRig::new(shards, 1, cfg);
            let ut = ThreadCtx::untrusted(&rig.m, 1);
            for i in 0..per_shard {
                for &fd in &rig.fds {
                    let plain = [i as u8; 24];
                    rig.m.host.push_request(&ut, fd, &rig.wire.encrypt(&plain));
                }
            }
            let mut t = rig.thread();
            serve_to_completion(&mut t, shards * per_shard, |t| {
                rig.io.serve(t, |_, plain| vec![plain[0]; reply_len])
            });
            t.exit();
            let replies: Vec<Vec<Vec<u8>>> = rig
                .fds
                .iter()
                .map(|&fd| {
                    std::iter::from_fn(|| rig.m.host.pop_response(fd))
                        .map(|r| rig.wire.decrypt(&r))
                        .collect()
                })
                .collect();
            let _ = tx.send(replies);
        });
        let replies = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{shards} shards at depth {depth}: the serve loop stalled"));
        let expected: Vec<Vec<u8>> = (0..per_shard).map(|i| vec![i as u8; reply_len]).collect();
        for (k, got) in replies.iter().enumerate() {
            assert_eq!(
                got, &expected,
                "{shards} shards, shard {k}: every reply, in order"
            );
        }
    }
}
