//! Equivalence suite for the replicated enclave fleet:
//!
//! - a fleet of N replicas (each running the per-shard reap→decrypt→
//!   serve→seal→send pipeline over its owned slice of the socket set)
//!   returns byte-identical replies *per connection* to the
//!   single-replica baseline, across kill/respawn schedules that cross
//!   fence after fence — including the stale-reimport schedule
//!   (kill A → respawn A → kill B) that only the versioned restore
//!   merge survives;
//! - a sealed snapshot round-trips SUVM-backed KVS state exactly into
//!   a different enclave with its own SUVM instance, and the per-item
//!   write stamps survive so a re-import stays last-writer-wins;
//! - the global EPC allocator under multi-enclave contention: two
//!   fleet replicas faulting concurrently each keep their EPC++ within
//!   the driver's fair share, the over-share transient stays bounded
//!   by the write-back batch plus headroom, and a killed replica's
//!   resident frames are reclaimed immediately (survivor share grows);
//! - every point where a replica appears or goes is pinned by its
//!   cycles, the driver's enclaves and free frames, and the fleet
//!   counters, with the maintenance plane and without it;
//! - a one-replica fleet serves exactly like a lone `Kvs` behind a
//!   `ServerIo`: the same replies and the same serving-core cycles.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use eleos::apps::fleet_io::{
    FailoverReport, FleetConfig, FleetKvs, MaintenanceConfig, RejoinReport,
};
use eleos::apps::io::{IoPath, ServerIoConfig};
use eleos::apps::kvs::{build_get, build_set, Kvs};
use eleos::apps::loadgen::{attest_session, shard_for};
use eleos::apps::space::DataSpace;
use eleos::apps::wire::Session;
use eleos::crypto::gcm::AesGcm128;
use eleos::crypto::{BatchAuthError, OpenJob, SealJob, Sealer};
use eleos::enclave::host::Fd;
use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::rpc::{with_syscalls, RpcService};
use eleos::suvm::{Suvm, SuvmConfig};
use proptest::prelude::*;

/// Sockets (= shards) the fleet serves.
const SHARDS: usize = 4;
/// Client connections the request streams multiplex.
const N_CONNS: usize = 8;
/// Rounds per run; a fence (kill or respawn) may fire after any
/// non-final round.
const ROUNDS: usize = 4;
/// Requests per round.
const PER_ROUND: usize = 8;
/// Seeded items every replica starts with.
const N_ITEMS: u64 = 24;

// ---------------------------------------------------------------------
// Fleet harness
// ---------------------------------------------------------------------

struct FleetRig {
    m: Arc<SgxMachine>,
    wire: Arc<Session>,
    fds: Vec<Fd>,
    fk: FleetKvs,
}

/// A `replicas`-wide fleet over [`SHARDS`] sockets. A third of the
/// seeded items carry a (long) TTL, so every snapshot/restore cycle in
/// the chaos schedules must carry expiry metadata intact for replies
/// to stay byte-identical.
fn rig(replicas: usize) -> FleetRig {
    rig_full(replicas, None)
}

/// Like [`rig`], optionally running the background maintenance plane.
fn rig_full(replicas: usize, maint: Option<MaintenanceConfig>) -> FleetRig {
    rig_on(
        SgxMachine::new(MachineConfig::tiny()),
        &[2, 3],
        Arc::new(AesGcm128::new(&[0x2au8; 16])),
        FleetConfig {
            maintenance: maint,
            ..FleetConfig::small(replicas)
        },
    )
}

/// The untrusted side every rig shares: [`SHARDS`] sockets, an RPC
/// service with one worker on each of `workers`, and an attested wire
/// session.
fn host_side(m: &Arc<SgxMachine>, workers: &[usize]) -> (Vec<Fd>, IoPath, Arc<Session>) {
    let ut = ThreadCtx::untrusted(m, 1);
    let fds: Vec<Fd> = (0..SHARDS).map(|_| m.host.socket(&ut, 256 << 10)).collect();
    let svc = with_syscalls(RpcService::builder(m), m)
        .workers(workers.len(), workers)
        .build();
    let wire = Arc::new(Session::handshake([9u8; 16], [0x63u8; 16]));
    {
        let mut hs = ThreadCtx::untrusted(m, 1);
        attest_session(&mut hs, &wire);
    }
    (fds, IoPath::Rpc(Arc::new(svc)), wire)
}

/// The serving pipeline every rig builds over [`SHARDS`] sockets.
fn io_config() -> ServerIoConfig {
    ServerIoConfig::with_buf_len(16 << 10).batch(4)
}

/// The items every store starts with.
fn seed_items(ctx: &mut ThreadCtx, kvs: &mut Kvs) {
    for i in 0..N_ITEMS {
        if i % 3 == 0 {
            kvs.set_with_ttl(ctx, format!("seed-{i}").as_bytes(), &[i as u8; 40], 3600);
        } else {
            kvs.set(ctx, format!("seed-{i}").as_bytes(), &[i as u8; 40]);
        }
    }
}

/// A fleet configured by `cfg` on machine `m`, behind [`host_side`].
fn rig_on(
    m: Arc<SgxMachine>,
    workers: &[usize],
    sealer: Arc<dyn Sealer>,
    cfg: FleetConfig,
) -> FleetRig {
    let (fds, path, wire) = host_side(&m, workers);
    let fk = FleetKvs::new(
        &m,
        &fds,
        io_config(),
        path,
        Arc::clone(&wire),
        sealer,
        cfg,
        seed_items,
    );
    FleetRig { m, wire, fds, fk }
}

/// One request in the generated stream. Writes stay connection-local
/// (`own-{conn}-{slot}` keys): a conn's shard has exactly one owner
/// per fence interval, so conn-local state is the coherent part of the
/// store — exactly the regime the fence protocol must preserve.
#[derive(Clone, Copy, Debug)]
enum Req {
    /// GET of a seeded (never-written) global key.
    GetSeed(u64),
    /// SET of this connection's own key slot to a derived value.
    SetOwn(u8, u8),
    /// GET of this connection's own key slot (a deterministic miss
    /// until that slot's first SET).
    GetOwn(u8),
}

/// Derives `(conn, request)` pairs from proptest seed bytes.
fn request_stream(seed: &[u8]) -> Vec<(u64, Req)> {
    (0..ROUNDS * PER_ROUND)
        .map(|i| {
            let b = seed[i % seed.len()];
            let conn = (u64::from(b) + i as u64 * 3) % N_CONNS as u64;
            let slot = (b >> 3) % 3;
            let req = match b % 3 {
                0 => Req::GetSeed(u64::from(b) + i as u64),
                1 => Req::SetOwn(slot, b ^ (i as u8)),
                _ => Req::GetOwn(slot),
            };
            (conn, req)
        })
        .collect()
}

fn encode(conn: u64, req: Req) -> Vec<u8> {
    match req {
        Req::GetSeed(i) => build_get(format!("seed-{}", i % N_ITEMS).as_bytes()),
        Req::SetOwn(slot, v) => build_set(format!("own-{conn}-{slot}").as_bytes(), &[v; 24]),
        Req::GetOwn(slot) => build_get(format!("own-{conn}-{slot}").as_bytes()),
    }
}

/// A lifecycle action fired at the fence after round `.0`.
#[derive(Clone, Copy, Debug)]
enum Fence {
    Kill(usize),
    Respawn(usize),
    /// Epoch key rotation initiated by the given (serving) replica.
    Rekey(usize),
}

/// Runs the request stream through a `replicas`-wide fleet, firing
/// `schedule` actions at round fences, and returns the decrypted
/// replies regrouped per connection (per-shard FIFO order is
/// per-connection order; replies are drained every round so the
/// host's bounded response log never overflows).
fn run_fleet(
    replicas: usize,
    schedule: &[(usize, Fence)],
    reqs: &[(u64, Req)],
) -> Vec<Vec<Vec<u8>>> {
    run_fleet_full(replicas, schedule, reqs, None)
}

/// [`run_fleet`] with the background maintenance plane when
/// `maint` is set: the same `kill`/`respawn` run their byte-work on
/// the maintenance core, and a maintenance tick (engine byte-work + a
/// delta round) runs after every round — exactly the interleaving the
/// serving bench drives.
fn run_fleet_full(
    replicas: usize,
    schedule: &[(usize, Fence)],
    reqs: &[(u64, Req)],
    maint: Option<MaintenanceConfig>,
) -> Vec<Vec<Vec<u8>>> {
    let ticking = maint.is_some();
    let r = rig_full(replicas, maint);
    let ut = ThreadCtx::untrusted(&r.m, 1);
    let mut streams: Vec<VecDeque<Vec<u8>>> = vec![VecDeque::new(); SHARDS];
    let mut pushed: Vec<(u64, usize)> = Vec::with_capacity(reqs.len());
    for (round, slice) in reqs.chunks(PER_ROUND).enumerate() {
        for &(conn, req) in slice {
            let (s, _owner) = r.fk.map().route_replica(conn);
            r.m.host
                .push_request(&ut, r.fds[s], &r.wire.encrypt(&encode(conn, req)));
            pushed.push((conn, s));
        }
        let mut done = 0usize;
        while done < slice.len() {
            let got = r.fk.pump();
            assert!(got > 0, "queued requests must be served");
            done += got;
        }
        for (s, q) in streams.iter_mut().enumerate() {
            while let Some(resp) = r.m.host.pop_response(r.fds[s]) {
                q.push_back(r.wire.decrypt(&resp));
            }
        }
        for &(at, fence) in schedule {
            if at == round {
                match fence {
                    Fence::Kill(v) => {
                        r.fk.kill(v).expect("honest channel");
                    }
                    Fence::Respawn(v) => {
                        r.fk.respawn(v).expect("honest channel");
                    }
                    Fence::Rekey(v) => {
                        r.fk.rekey_wire(v).expect("honest channel");
                    }
                }
            }
        }
        if ticking {
            r.fk.maintenance_tick();
        }
    }
    let mut out = vec![Vec::new(); N_CONNS];
    for (conn, s) in pushed {
        let reply = streams[s].pop_front().expect("a reply per request");
        out[conn as usize].push(reply);
    }
    assert!(
        streams.iter().all(VecDeque::is_empty),
        "no surplus replies on any shard"
    );
    out
}

/// Kill/respawn schedules valid for a `replicas`-wide fleet. The last
/// two-replica schedule (kill 1 → respawn 1 → kill 0) is the stale
/// re-import regression: replica 0's snapshot at the final fence still
/// carries copies of shard-1/3 keys from the first failover, and only
/// the versioned merge keeps them from clobbering replica 1's fresher
/// writes.
fn schedules(replicas: usize) -> Vec<Vec<(usize, Fence)>> {
    let mut v = vec![vec![]];
    if replicas >= 2 {
        v.push(vec![(0, Fence::Kill(replicas - 1))]);
        v.push(vec![(0, Fence::Kill(1)), (1, Fence::Respawn(1))]);
        v.push(vec![
            (0, Fence::Kill(1)),
            (1, Fence::Respawn(1)),
            (2, Fence::Kill(0)),
        ]);
    }
    if replicas >= 3 {
        v.push(vec![
            (0, Fence::Kill(1)),
            (1, Fence::Kill(2)),
            (2, Fence::Respawn(1)),
        ]);
    }
    // Epoch rotations compose with the chaos schedules: a rekey at
    // every fence, and a rekey interleaved with a kill/respawn pair
    // (the announcement only reaches serving peers).
    v.push(vec![
        (0, Fence::Rekey(0)),
        (1, Fence::Rekey(0)),
        (2, Fence::Rekey(0)),
    ]);
    if replicas >= 2 {
        v.push(vec![
            (0, Fence::Kill(1)),
            (1, Fence::Rekey(0)),
            (2, Fence::Respawn(1)),
        ]);
    }
    v
}

// ---------------------------------------------------------------------
// Tentpole: replicas=N == replicas=1, across kill/respawn schedules
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// A fleet of 2 or 3 replicas returns byte-identical per-connection
    /// replies to the single-replica baseline for every valid
    /// kill/respawn schedule: failover loses nothing, preserves FIFO,
    /// and restores state before the heir serves.
    #[test]
    fn fleet_matches_single_replica_across_chaos_schedules(
        seed in prop::collection::vec(any::<u8>(), 16..17),
    ) {
        let reqs = request_stream(&seed);
        let reference = run_fleet(1, &[], &reqs);
        for replicas in 2..=3usize {
            for schedule in schedules(replicas) {
                let got = run_fleet(replicas, &schedule, &reqs);
                prop_assert_eq!(
                    &got, &reference,
                    "fleet diverged (replicas={}, schedule={:?})", replicas, &schedule
                );
            }
        }
    }
}

/// The stale re-import schedule, deterministically: a key written
/// before the first failover, rewritten by its rejoined owner, must
/// survive the *other* replica's later death — replica 0's snapshot
/// still carries the pre-rejoin copy, and the versioned merge must
/// refuse it.
#[test]
fn reimported_stale_snapshot_never_clobbers_fresher_writes() {
    let r = rig(2);
    let ut = ThreadCtx::untrusted(&r.m, 1);
    // A connection whose shard starts on replica 1.
    let conn = (0..64u64)
        .find(|&c| {
            let (s, _) = r.fk.map().route_replica(c);
            s % 2 == 1
        })
        .expect("a replica-1 connection");
    let (s, _) = r.fk.map().route_replica(conn);
    let do_req = |plain: &[u8]| -> Vec<u8> {
        r.m.host.push_request(&ut, r.fds[s], &r.wire.encrypt(plain));
        while r.fk.pump() == 0 {}
        r.wire
            .decrypt(&r.m.host.pop_response(r.fds[s]).expect("a reply"))
    };
    assert_eq!(do_req(&build_set(b"bounce", &[1u8; 16])), [1u8]);
    r.fk.kill(1).unwrap(); // heir 0 imports bounce=v1
    assert_eq!(do_req(&build_set(b"bounce", &[2u8; 16])), [1u8]);
    r.fk.respawn(1).unwrap(); // rejoiner imports bounce=v2 from donor 0
    assert_eq!(do_req(&build_set(b"bounce", &[3u8; 16])), [1u8]);
    r.fk.kill(0).unwrap(); // victim 0's snapshot still holds bounce=v2 — stale
    let reply = do_req(&build_get(b"bounce"));
    assert_eq!(reply[0], 1, "key must survive the schedule");
    assert_eq!(&reply[5..], [3u8; 16], "stale re-import must not win");
    let st = r.m.stats.snapshot();
    assert_eq!(st.fleet_failovers, 2);
    assert_eq!(st.fleet_snapshots, 3);
    assert_eq!(st.fleet_restores, 3);
}

// ---------------------------------------------------------------------
// Satellite: snapshot → restore round-trips SUVM-backed state
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// A quiesce-at-fence snapshot of a SUVM-backed store restores
    /// byte-exactly into a different enclave with its own SUVM
    /// instance, through the serialized byte form a cross-enclave
    /// channel carries — and per-item write stamps survive, so a
    /// second import applies nothing.
    #[test]
    fn snapshot_roundtrips_suvm_backed_state_exactly(
        seed in prop::collection::vec(any::<u8>(), 16..17),
    ) {
        let m = SgxMachine::new(MachineConfig::tiny());
        let suvm_cfg = SuvmConfig {
            epcpp_bytes: 16 * 4096,
            backing_bytes: 8 << 20,
            ..SuvmConfig::tiny()
        };
        let mk = |core: usize| {
            let e = m.driver.create_enclave(&m, 16 << 20);
            let t0 = ThreadCtx::for_enclave(&m, &e, core);
            let suvm = Suvm::new(&t0, suvm_cfg.clone());
            let kvs = Kvs::new(
                DataSpace::Untrusted(Arc::clone(&m)),
                DataSpace::suvm(&suvm),
                8 << 20,
                256,
            );
            let mut t = ThreadCtx::for_enclave(&m, &e, core);
            t.enter();
            kvs.init(&mut t);
            (suvm, kvs, t)
        };
        let (suvm_a, mut a, mut ta) = mk(0);
        // Working set larger than the 16-frame EPC++ cache: SUVM pages
        // while the store is built.
        let n = 160u32;
        let value = |i: u32| {
            let b = seed[i as usize % seed.len()];
            vec![b ^ i as u8; 512 + (b as usize % 512)]
        };
        for i in 0..n {
            a.set(&mut ta, format!("it-{i}").as_bytes(), &value(i));
        }
        // A second write interval rewrites some items at a newer stamp.
        a.set_write_version(3);
        for i in (0..n).step_by(5) {
            a.set(&mut ta, format!("it-{i}").as_bytes(), &value(i + 1000));
        }
        prop_assert!(
            m.stats.snapshot().suvm_evictions > 0,
            "the working set must overflow EPC++"
        );
        // The fence: quiesce (every dirty page sealed home), then seal.
        suvm_a.quiesce(&mut ta);
        let sealer = AesGcm128::new(&[0x77u8; 16]);
        let snap = a.snapshot_since(&mut ta, &sealer, 1, 7, 0);
        prop_assert_eq!(snap.epoch(), 7);
        let bytes = snap.to_bytes();
        prop_assert!(!bytes.windows(4).any(|w| w == b"it-1"), "sealed bytes leak keys");
        let reread = eleos::suvm::Snapshot::from_bytes(&bytes).expect("an intact frame");

        let (_suvm_b, mut b, mut tb) = mk(1);
        prop_assert_eq!(b.try_restore(&mut tb, &sealer, &reread), Ok(u64::from(n)));
        for i in 0..n {
            let expect = if i % 5 == 0 { value(i + 1000) } else { value(i) };
            prop_assert_eq!(
                b.get(&mut tb, format!("it-{i}").as_bytes()).expect("restored key"),
                expect,
                "item {} diverged after restore", i
            );
        }
        // Write stamps survived the round-trip: re-importing the same
        // snapshot is a no-op, and an interval-3 write in B supersedes
        // the snapshot's interval-3 copy only by being applied later.
        prop_assert_eq!(b.try_restore(&mut tb, &sealer, &reread), Ok(0));
        ta.exit();
        tb.exit();
    }
}

// ---------------------------------------------------------------------
// Satellite: the global EPC allocator under fleet contention
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Two replica enclaves faulting SUVM pages concurrently: each
    /// EPC++ balloons to within its driver fair share, the over-share
    /// transient stays bounded by one write-back batch plus the
    /// configured headroom, and destroying one enclave reclaims its
    /// frames immediately — the survivor's share doubles and it keeps
    /// serving its data.
    #[test]
    fn epc_stays_fair_shared_under_concurrent_replica_faulting(
        seed in prop::collection::vec(any::<u8>(), 8..9),
    ) {
        const PAGE: usize = 4096;
        let m = SgxMachine::new(MachineConfig {
            epc_bytes: 8 << 20,
            ..MachineConfig::tiny()
        });
        let wb_batch = usize::from(seed[0] % 2) * 4; // inline and batched write-back
        let suvm_cfg = SuvmConfig {
            epcpp_bytes: 6 << 20, // oversubscribed once both replicas exist
            backing_bytes: 16 << 20,
            headroom_bytes: 512 << 10,
            wb_batch,
            ..SuvmConfig::tiny()
        };
        let enclaves: Vec<_> = (0..2).map(|_| m.driver.create_enclave(&m, 32 << 20)).collect();
        let mut handles = Vec::new();
        for (idx, e) in enclaves.iter().enumerate() {
            let m = Arc::clone(&m);
            let e = Arc::clone(e);
            let cfg = suvm_cfg.clone();
            let seed = seed.clone();
            handles.push(std::thread::spawn(move || {
                let t0 = ThreadCtx::for_enclave(&m, &e, idx);
                let s = Suvm::new(&t0, cfg.clone());
                let mut t = ThreadCtx::for_enclave(&m, &e, idx);
                t.enter();
                let a = s.malloc(8 << 20);
                let stride = 1 + u64::from(seed[(idx + 1) % seed.len()] % 4);
                for round in 0..2u64 {
                    for page in (0..1536u64).step_by(stride as usize) {
                        s.write(&mut t, a + page * PAGE as u64, &[idx as u8 + 1; 32]);
                        if page % 192 == 0 {
                            s.swapper_tick(&mut t);
                        }
                    }
                    let _ = round;
                }
                s.swapper_tick(&mut t);
                // Fair share while both replicas are live.
                let share = m.driver.available_epc();
                assert!(
                    s.frame_limit() * cfg.page_size <= share * PAGE,
                    "EPC++ {} frames exceeds the fair share of {} frames",
                    s.frame_limit(),
                    share
                );
                // Spot-check the data survived the ballooning churn.
                let mut b = [0u8; 32];
                s.read(&mut t, a + 7 * stride * PAGE as u64, &mut b);
                assert_eq!(b, [idx as u8 + 1; 32]);
                t.exit();
                (s, a)
            }));
        }
        let done: Vec<_> = handles.into_iter().map(|h| h.join().expect("replica thread")).collect();
        // The allocator never let one enclave run away: the over-share
        // peak is bounded by one write-back batch (detach lag) plus the
        // per-enclave headroom the balloon target reserves.
        let slack = (wb_batch.max(1) * suvm_cfg.page_size + suvm_cfg.headroom_bytes) / PAGE;
        let peak = m.stats.snapshot().epc_over_share_peak;
        prop_assert!(
            peak <= slack as u64,
            "over-share peak {} frames exceeds wb_batch+headroom slack {}",
            peak, slack
        );
        // Teardown: the dead replica's frames (pinned by its resident
        // EPC++ cache) are reclaimed immediately.
        let (dead, live) = (&enclaves[0], &enclaves[1]);
        prop_assert!(m.driver.resident_frames(dead.id) > 0);
        let free_before = m.driver.free_frames();
        m.driver.destroy_enclave(&m, dead);
        prop_assert_eq!(m.driver.resident_frames(dead.id), 0, "dead replica keeps frames");
        prop_assert!(m.driver.free_frames() > free_before, "kill must free frames");
        prop_assert_eq!(m.driver.active_enclaves(), 1);
        // The survivor's share doubles and its store still reads back.
        prop_assert_eq!(m.driver.available_epc(), m.driver.total_frames());
        let (s1, a1) = &done[1];
        let mut t = ThreadCtx::for_enclave(&m, live, 1);
        t.enter();
        s1.swapper_tick(&mut t);
        let mut b = [0u8; 32];
        s1.read(&mut t, *a1, &mut b);
        assert_eq!(b, [2u8; 32], "survivor data intact after sibling death");
        t.exit();
    }
}

// ---------------------------------------------------------------------
// Satellite: TTL'd items across failovers
// ---------------------------------------------------------------------

/// Kill/respawn a replica, deterministically: a TTL'd seed item must
/// survive two failovers (its expiry travels in the snapshot item log),
/// and the versioned restore merge must still refuse the stale
/// re-import.
#[test]
fn replica_failover_preserves_ttl_items() {
    let r = rig(2);
    let ut = ThreadCtx::untrusted(&r.m, 1);
    let conn = (0..64u64)
        .find(|&c| {
            let (s, _) = r.fk.map().route_replica(c);
            s % 2 == 1
        })
        .expect("a replica-1 connection");
    let (s, _) = r.fk.map().route_replica(conn);
    let do_req = |plain: &[u8]| -> Vec<u8> {
        r.m.host.push_request(&ut, r.fds[s], &r.wire.encrypt(plain));
        while r.fk.pump() == 0 {}
        r.wire
            .decrypt(&r.m.host.pop_response(r.fds[s]).expect("a reply"))
    };
    // seed-0 was seeded with a 3600 s TTL on every replica.
    let ttl_get = build_get(b"seed-0");
    let reply = do_req(&ttl_get);
    assert_eq!(reply[0], 1);
    assert_eq!(&reply[5..], [0u8; 40]);
    assert_eq!(do_req(&build_set(b"bounce", &[1u8; 16])), [1u8]);
    r.fk.kill(1).unwrap(); // heir 0 imports the victim's item log
    let reply = do_req(&ttl_get);
    assert_eq!(reply[0], 1, "TTL'd item lost on failover");
    assert_eq!(&reply[5..], [0u8; 40]);
    assert_eq!(do_req(&build_set(b"bounce", &[2u8; 16])), [1u8]);
    r.fk.respawn(1).unwrap(); // rejoiner restores from donor 0's snapshot
    assert_eq!(do_req(&build_set(b"bounce", &[3u8; 16])), [1u8]);
    r.fk.kill(0).unwrap(); // stale re-import: replica 0 still holds bounce=v2
    let reply = do_req(&ttl_get);
    assert_eq!(reply[0], 1, "TTL'd item lost on second failover");
    assert_eq!(&reply[5..], [0u8; 40]);
    let reply = do_req(&build_get(b"bounce"));
    assert_eq!(reply[0], 1, "key must survive the schedule");
    assert_eq!(&reply[5..], [3u8; 16], "stale re-import must not win");
    let st = r.m.stats.snapshot();
    assert_eq!(st.fleet_failovers, 2);
    assert_eq!(st.fleet_restores, 3);
}

// ---------------------------------------------------------------------
// Tentpole: the background maintenance plane is reply-transparent
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The maintenance plane may move *when and where* the byte-work
    /// runs; it must never change what any client reads. The same
    /// `kill`/`respawn`/fence code, run with the plane (delta
    /// snapshots streaming between rounds, transfers and engine
    /// byte-work on the maintenance core) and without it (everything
    /// inline on the serving cores), returns byte-identical
    /// per-connection replies — to each other and to the
    /// single-replica baseline — across every chaos schedule.
    #[test]
    fn background_maintenance_plane_is_reply_transparent(
        seed in prop::collection::vec(any::<u8>(), 16..17),
    ) {
        let maint = MaintenanceConfig {
            core: 1,
            hb_miss_threshold: 1000, // schedules drive kills explicitly
            chunk_bytes: 4 << 10,
        };
        let reqs = request_stream(&seed);
        let reference = run_fleet(1, &[], &reqs);
        for replicas in [2usize, 3] {
            for schedule in schedules(replicas) {
                for plane in [None, Some(maint.clone())] {
                    let on = plane.is_some();
                    let got = run_fleet_full(replicas, &schedule, &reqs, plane);
                    prop_assert_eq!(
                        &got, &reference,
                        "fleet diverged (plane on={}, replicas={}, schedule={:?})",
                        on, replicas, &schedule
                    );
                }
            }
        }
    }
}

/// The plane changes which core pays for a transfer, not the transfer:
/// the same schedule on the same state puts the same bytes, in the same
/// messages, on the channel with the plane and without it. Only the
/// bill differs — with the plane the serving core's clock does not
/// move across a fence and nothing is charged to `maint_stall_cycles`;
/// without it every cycle of the fence lands there.
#[test]
fn same_bytes_cross_the_channel_whichever_core_pays() {
    struct Bill {
        kill_bytes: usize,
        rejoin_bytes: usize,
        xchan: (u64, u64),
        stall: u64,
        serving_core_cycles: u64,
    }
    let run = |maint: Option<MaintenanceConfig>| {
        let r = rig_full(2, maint);
        let ut = ThreadCtx::untrusted(&r.m, 1);
        // Identical pre-fence traffic: one write per connection.
        for conn in 0..N_CONNS as u64 {
            let (s, _) = r.fk.map().route_replica(conn);
            let set = build_set(format!("own-{conn}").as_bytes(), &[conn as u8; 64]);
            r.m.host.push_request(&ut, r.fds[s], &r.wire.encrypt(&set));
        }
        let mut served = 0;
        while served < N_CONNS {
            served += r.fk.pump();
        }
        let serving_core = r.m.core(0);
        let (s0, t0) = (r.m.stats.snapshot(), serving_core.clock.now());
        let kill = r.fk.kill(1).expect("honest channel");
        let rejoin = r.fk.respawn(1).expect("honest channel");
        let d = r.m.stats.snapshot() - s0;
        assert_eq!(d.frame_rejects, 0);
        Bill {
            kill_bytes: kill.snapshot_bytes,
            rejoin_bytes: rejoin.snapshot_bytes,
            xchan: (d.xchan_msgs, d.xchan_bytes),
            stall: d.maint_stall_cycles,
            // Wiring the rejoiner (entering its enclave, zeroing its
            // index) is serving-core work in both modes; everything
            // else a fence costs is the transfer.
            serving_core_cycles: serving_core.clock.now() - t0,
        }
    };
    let off = run(None);
    let on = run(Some(MaintenanceConfig::default()));
    assert!(off.kill_bytes > 0 && off.rejoin_bytes > off.kill_bytes / 2);
    assert_eq!(on.kill_bytes, off.kill_bytes);
    assert_eq!(on.rejoin_bytes, off.rejoin_bytes);
    assert_eq!(on.xchan, off.xchan, "same messages, same bytes");
    assert_eq!(on.stall, 0, "the plane keeps fences off the serving path");
    assert!(
        off.stall > 0,
        "inline, the transfer is a serving-path stall"
    );
    assert_eq!(
        off.serving_core_cycles - on.serving_core_cycles,
        off.stall,
        "the serving core's clock moves by exactly the transfers it ran"
    );
}

/// FNV-1a over `bytes`, folded into `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// What every delta round carries and what the final kill ships, pinned
/// on a fixed SET/GET schedule: per tick, the items the two delta
/// snapshots carry and the channel messages, bytes and chunks they take;
/// then the kill's snapshot size and a digest of each replica's store.
/// Nothing in the schedule reads a clock (no TTL is near its deadline),
/// so a change that only makes a round cheaper leaves every constant
/// alone. The maintenance core's cycles per tick are printed, not
/// pinned: a cheaper round is allowed to show there.
///
/// The fleet hands out no store iterator, so a replica's contents are
/// read back the way a client reads them: a GET of every key the
/// schedule can have written, routed to that replica.
#[test]
fn delta_rounds_and_the_final_kill_ship_pinned_bytes() {
    const TICKS: usize = 6;
    let maint = MaintenanceConfig {
        core: 1,
        hb_miss_threshold: 1000, // no detector kill: the schedule kills
        chunk_bytes: 4 << 10,
    };
    let r = rig_full(2, Some(maint));
    let ut = ThreadCtx::untrusted(&r.m, 1);
    let serve = |conn: u64, plain: &[u8]| -> Vec<u8> {
        let (s, _) = r.fk.map().route_replica(conn);
        r.m.host.push_request(&ut, r.fds[s], &r.wire.encrypt(plain));
        while r.fk.pump() == 0 {}
        r.wire
            .decrypt(&r.m.host.pop_response(r.fds[s]).expect("a reply"))
    };
    // Before tick `t`: `t % 3 * 4` SETs of connection-local keys (none
    // before ticks 0 and 3; later ticks overwrite some earlier keys),
    // each followed by a GET of a seed.
    let writes = |t: usize| {
        for i in 0..(t % 3) * 4 {
            let conn = ((t + i) % N_CONNS) as u64;
            let slot = (t * 5 + i) % 3;
            let value = vec![(t * 16 + i) as u8; 24 + i];
            let key = format!("own-{conn}-{slot}");
            assert_eq!(serve(conn, &build_set(key.as_bytes(), &value)), [1u8]);
            let seed = format!("seed-{}", (t * 7 + i) % N_ITEMS as usize);
            assert_eq!(serve(conn, &build_get(seed.as_bytes()))[0], 1);
        }
    };
    let mut rows = Vec::new();
    for t in 0..TICKS {
        writes(t);
        let (s0, c0) = (r.m.stats.snapshot(), r.m.core(1).clock.now());
        assert!(r.fk.maintenance_tick(), "a delta round is work");
        let d = r.m.stats.snapshot() - s0;
        assert_eq!(d.frame_rejects, 0);
        rows.push((
            d.snapshot_delta_items,
            d.xchan_msgs,
            d.xchan_bytes,
            d.maint_chunks,
        ));
        println!(
            "tick {t}: {} maintenance-core cycles",
            r.m.core(1).clock.now() - c0
        );
    }
    // Writes after the last round: only the kill carries them.
    writes(TICKS + 1);
    let keys: Vec<String> = (0..N_ITEMS)
        .map(|i| format!("seed-{i}"))
        .chain((0..N_CONNS).flat_map(|c| (0..3).map(move |s| format!("own-{c}-{s}"))))
        .collect();
    let digest = |replica: usize| {
        let conn = (0..N_CONNS as u64)
            .find(|&c| r.fk.map().route_replica(c).1 == replica)
            .expect("a connection the replica serves");
        keys.iter().fold(0xcbf2_9ce4_8422_2325, |h, k| {
            fnv(fnv(h, k.as_bytes()), &serve(conn, &build_get(k.as_bytes())))
        })
    };
    let before = (digest(0), digest(1));
    let s0 = r.m.stats.snapshot();
    let kill = r.fk.kill(1).expect("honest channel");
    let d = r.m.stats.snapshot() - s0;
    assert_eq!(d.frame_rejects, 0);
    let after = digest(0);
    // (items, messages, bytes, chunks) per tick. The first round carries
    // both replicas' 24 seeds (stamp 0, base 0); a round with nothing
    // new still sends two empty snapshots.
    assert_eq!(
        rows,
        [
            (48, 4, 3520, 2),
            (6, 4, 639, 2),
            (13, 4, 1031, 2),
            (0, 4, 324, 2),
            (6, 4, 641, 2),
            (13, 4, 1032, 2),
        ]
    );
    assert_eq!((d.snapshot_delta_items, kill.snapshot_bytes), (1, 191));
    assert_eq!(
        (before, after),
        (
            (0x6ad4_0cc3_9e9b_5123, 0xee13_94cb_7f20_f436),
            0xbae3_2c13_c51f_54f6
        )
    );
}

// ---------------------------------------------------------------------
// Every birth and death of a replica, pinned
// ---------------------------------------------------------------------

/// The fleet key, except that while `armed` nothing opens: what a
/// recipient sees of a transfer the host rewrote in the channel ring.
struct ArmedSealer {
    inner: AesGcm128,
    armed: AtomicBool,
}

impl Sealer for ArmedSealer {
    fn name(&self) -> &'static str {
        "armed"
    }

    fn seal_batch(&self, jobs: &mut [SealJob<'_>]) -> Vec<[u8; 16]> {
        self.inner.seal_batch(jobs)
    }

    fn open_batch(&self, jobs: &mut [OpenJob<'_>]) -> Result<(), BatchAuthError> {
        if self.armed.load(Ordering::Relaxed) {
            return Err(BatchAuthError { index: 0 });
        }
        self.inner.open_batch(jobs)
    }
}

/// A machine whose LLC is CAT-partitioned, so the RPC worker's lines
/// never evict the serving cores': with one worker, every simulated
/// cycle is then independent of how the host schedules its thread.
fn partitioned(cfg: MachineConfig) -> Arc<SgxMachine> {
    let m = SgxMachine::new(cfg);
    m.enable_cat();
    m
}

/// One pinned row: the step's own numbers (a failover's heir, shards,
/// snapshot bytes and cycles; a rejoin's donor, ...), then serving
/// cores 0 and 2, the maintenance core (1), the driver's live enclaves
/// and free frames, `fleet_failovers`, `fleet_snapshots`,
/// `fleet_restores`, `frame_rejects`, `hb_misses`, `maint_chunks`, and
/// the digest of every reply so far.
type LifeRow = (&'static str, [u64; 16]);

/// Runs the lifecycle script on a 3-replica, SUVM-backed fleet
/// (replicas 0 and 2 on core 0, replica 1 on core 2, one RPC worker on
/// core 3) and returns a row per step: serve, `kill(1)`, serve, a
/// refused `respawn(1)`, an honest one, serve. With the plane, every
/// serve ends in a maintenance tick, and the script then mutes replica
/// 2 until the failure detector fails it over, queues its rejoin, and
/// serves once more.
fn births_and_deaths(plane: bool) -> Vec<LifeRow> {
    let sealer = Arc::new(ArmedSealer {
        inner: AesGcm128::new(&[0x2au8; 16]),
        armed: AtomicBool::new(false),
    });
    let r = rig_on(
        partitioned(MachineConfig {
            epc_bytes: 1 << 20,
            untrusted_bytes: 64 << 20,
            ..MachineConfig::tiny()
        }),
        &[3],
        Arc::clone(&sealer) as Arc<dyn Sealer>,
        FleetConfig {
            suvm: Some(SuvmConfig {
                backing_bytes: 4 << 20,
                ..SuvmConfig::tiny()
            }),
            maintenance: plane.then_some(MaintenanceConfig {
                core: 1,
                hb_miss_threshold: 3,
                chunk_bytes: 4 << 10,
            }),
            ..FleetConfig::small(3).on_cores(&[0, 2])
        },
    );
    let ut = ThreadCtx::untrusted(&r.m, 1);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut rows = Vec::new();
    let mut pin = |label, own: [u64; 4], digest: u64| {
        let st = r.m.stats.snapshot();
        let mut row = [0u64; 16];
        row[..4].copy_from_slice(&own);
        row[4..].copy_from_slice(&[
            r.m.core(0).clock.now(),
            r.m.core(2).clock.now(),
            r.m.core(1).clock.now(),
            r.m.driver.active_enclaves() as u64,
            r.m.driver.free_frames() as u64,
            st.fleet_failovers,
            st.fleet_snapshots,
            st.fleet_restores,
            st.frame_rejects,
            st.hb_misses,
            st.maint_chunks,
            digest,
        ]);
        rows.push((label, row));
    };
    // Per connection: a SET of one of its own keys, a GET of another,
    // a GET of a seed. Every reply is folded into `digest`.
    let serve = |step: usize, digest: &mut u64| {
        let mut pushed = 0;
        for conn in 0..N_CONNS {
            let (s, _) = r.fk.map().route_replica(conn as u64);
            let value = vec![(step * 16 + conn) as u8; 24 + conn];
            for plain in [
                build_set(format!("own-{conn}-{}", step % 3).as_bytes(), &value),
                build_get(format!("own-{conn}-{}", (step + 1) % 3).as_bytes()),
                build_get(format!("seed-{}", (step * 5 + conn) % N_ITEMS as usize).as_bytes()),
            ] {
                r.m.host
                    .push_request(&ut, r.fds[s], &r.wire.encrypt(&plain));
                pushed += 1;
            }
        }
        let mut done = 0;
        while done < pushed {
            let got = r.fk.pump();
            assert!(got > 0, "queued requests must be served");
            done += got;
        }
        for &fd in &r.fds {
            while let Some(resp) = r.m.host.pop_response(fd) {
                *digest = fnv(*digest, &r.wire.decrypt(&resp));
            }
        }
        if plane {
            r.fk.maintenance_tick();
        }
    };
    let failover = |f: FailoverReport| {
        [
            f.heir as u64,
            f.shards_moved as u64,
            f.snapshot_bytes as u64,
            f.cycles,
        ]
    };
    let rejoin = |j: RejoinReport| {
        [
            j.donor as u64,
            j.shards_taken as u64,
            j.snapshot_bytes as u64,
            j.cycles,
        ]
    };

    serve(0, &mut digest);
    pin("serve", [0; 4], digest);
    pin(
        "kill 1",
        failover(r.fk.kill(1).expect("honest channel")),
        digest,
    );
    serve(1, &mut digest);
    pin("serve", [0; 4], digest);
    sealer.armed.store(true, Ordering::Relaxed);
    let refused = r.fk.respawn(1).expect_err("nothing opens while armed");
    sealer.armed.store(false, Ordering::Relaxed);
    assert_eq!(refused.0, "section failed authentication");
    pin("refused respawn 1", [0; 4], digest);
    pin(
        "respawn 1",
        rejoin(r.fk.respawn(1).expect("honest channel")),
        digest,
    );
    serve(2, &mut digest);
    pin("serve", [0; 4], digest);
    if plane {
        let mut ticks = 0;
        while !r.fk.map().shards_of(2).is_empty() {
            assert!(ticks < 3, "the detector fails a mute replica over");
            r.fk.pump_replica(0);
            r.fk.pump_replica(1);
            r.fk.maintenance_tick();
            ticks += 1;
        }
        pin("mute 2", [ticks, 0, 0, r.fk.auto_failover_cycles()], digest);
        r.fk.request_rejoin(2);
        r.fk.pump();
        r.fk.maintenance_tick();
        let taken = r.fk.map().shards_of(2).len() as u64;
        pin(
            "rejoin 2",
            [taken, 0, 0, r.fk.auto_recovery_cycles()],
            digest,
        );
        serve(3, &mut digest);
        pin("serve", [0; 4], digest);
    }
    rows
}

/// Every point where a replica appears or goes — `FleetKvs::new`,
/// `kill`, a refused and an honest `respawn`, and, with the maintenance
/// plane, a detector failover and a queued rejoin — pinned on a fixed
/// script by what it costs and what it leaves behind: the step's report,
/// every core's clock, the driver's enclave count and free EPC frames,
/// the fleet counters and the digest of every reply. Enclave ids (TLB
/// ASIDs, nonce domains) and allocation addresses feed the cycles, so a
/// change to who creates or destroys an enclave, or when, moves them.
/// The serving cores' clocks fell when a serve round's decrypts and
/// seals became one wire batch; the maintenance core's did not move.
#[test]
fn replica_births_and_deaths_are_pinned() {
    // Replies digested so far: the two modes answer alike.
    const D0: u64 = 0x2946_9c26_1fcd_e5a5;
    const D1: u64 = 0xe8b8_2abb_7a23_75a5;
    const D2: u64 = 0xda19_21fb_1d40_bc9f;
    const D3: u64 = 0xbc83_66a3_0c36_cd51;
    #[rustfmt::skip]
    let plane_off: [LifeRow; 6] = [
        ("serve",             [0, 0, 0,    0,       168_370, 75_719,  9_000, 3, 253, 0, 0, 0, 0, 0, 0, D0]),
        ("kill 1",            [0, 1, 1843, 130_644, 212_294, 165_739, 9_000, 2, 254, 1, 1, 1, 0, 0, 1, D0]),
        ("serve",             [0, 0, 0,    0,       297_848, 165_739, 9_000, 2, 254, 1, 1, 1, 0, 0, 1, D1]),
        ("refused respawn 1", [0, 0, 0,    0,       387_943, 180_473, 9_000, 2, 254, 1, 2, 1, 1, 0, 2, D1]),
        ("respawn 1",         [0, 1, 2386, 141_098, 463_066, 246_448, 9_000, 3, 253, 1, 3, 2, 1, 0, 3, D1]),
        ("serve",             [0, 0, 0,    0,       548_198, 276_752, 9_000, 3, 253, 1, 3, 2, 1, 0, 3, D2]),
    ];
    #[rustfmt::skip]
    let plane_on: [LifeRow; 9] = [
        ("serve",             [0, 0, 0,    0,       168_370, 75_719,  498_441,   3, 253, 0, 0, 0, 0, 0, 6,  D0]),
        ("kill 1",            [0, 1, 138,  33_434,  168_370, 79_019,  531_875,   2, 254, 1, 1, 2, 0, 0, 8,  D0]),
        ("serve",             [0, 0, 0,    0,       275_386, 79_019,  623_941,   2, 254, 1, 1, 2, 0, 0, 10, D1]),
        ("refused respawn 1", [0, 0, 0,    0,       275_386, 93_721,  737_633,   2, 254, 1, 2, 2, 1, 0, 11, D1]),
        ("respawn 1",         [0, 1, 2608, 170_758, 275_386, 110_691, 891_421,   3, 253, 1, 3, 3, 1, 0, 12, D1]),
        ("serve",             [0, 0, 0,    0,       382_366, 142_623, 1_078_435, 3, 250, 1, 3, 3, 1, 0, 18, D2]),
        ("mute 2",            [3, 0, 0,    41_517,  389_496, 145_305, 1_369_190, 2, 252, 2, 4, 5, 1, 3, 34, D2]),
        ("rejoin 2",          [1, 0, 0,    219_782, 411_484, 146_199, 1_689_199, 3, 250, 2, 5, 6, 1, 3, 41, D2]),
        ("serve",             [0, 0, 0,    0,       497_998, 195_773, 1_866_597, 3, 250, 2, 5, 6, 1, 3, 47, D3]),
    ];
    assert_eq!(births_and_deaths(false), plane_off, "without the plane");
    assert_eq!(births_and_deaths(true), plane_on, "with the plane");
}

/// Two replicas owning two shards each, on one serving core and one RPC
/// worker, with no CAT, serve a fixed GET/SET script a round at a
/// time. Each row is a round: the serving core's clock, the digest of
/// every reply so far and the syscall count. A replica's reap is two
/// runs, one per shard it owns, so this is the rig where the worker's
/// copy of one run can overlap the serving of the other. Both runs'
/// decrypts and seals are one wire batch a round.
#[test]
fn two_shard_replicas_serve_pinned_rounds() {
    const ROWS: [(u64, u64, u64); 4] = [
        (140_933, 0x2a6e_84dc_54e6_46a5, 13),
        (198_162, 0x1b29_f9a3_94d8_4fa5, 26),
        (253_868, 0x37a0_2af2_8e3e_4a95, 39),
        (305_318, 0x8678_f055_b395_90e5, 52),
    ];
    let r = rig_on(
        SgxMachine::new(MachineConfig::tiny()),
        &[3],
        Arc::new(AesGcm128::new(&[0x2au8; 16])),
        FleetConfig::small(2),
    );
    let ut = ThreadCtx::untrusted(&r.m, 1);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut rows = Vec::new();
    for round in 0..ROWS.len() {
        let mut pushed = 0;
        for conn in 0..N_CONNS {
            let (s, _) = r.fk.map().route_replica(conn as u64);
            let value = vec![(round * 16 + conn) as u8; 24 + conn];
            for plain in [
                build_set(format!("own-{conn}-{}", round % 3).as_bytes(), &value),
                build_get(format!("seed-{}", (round * 5 + conn) % N_ITEMS as usize).as_bytes()),
            ] {
                r.m.host
                    .push_request(&ut, r.fds[s], &r.wire.encrypt(&plain));
                pushed += 1;
            }
        }
        let mut done = 0;
        while done < pushed {
            let got = r.fk.pump();
            assert!(got > 0, "queued requests must be served");
            done += got;
        }
        for &fd in &r.fds {
            while let Some(resp) = r.m.host.pop_response(fd) {
                digest = fnv(digest, &r.wire.decrypt(&resp));
            }
        }
        rows.push((
            r.m.core(0).clock.now(),
            digest,
            r.m.stats.snapshot().syscalls,
        ));
    }
    assert_eq!(rows, ROWS);
}

// ---------------------------------------------------------------------
// A one-replica fleet is a lone server
// ---------------------------------------------------------------------

/// ROADMAP N8's question: is a one-replica `FleetKvs` without the
/// maintenance plane the same server as a `Kvs` behind a `ServerIo`?
/// Both get the same machine, sockets, RPC service, session and seed,
/// and serve one fixed GET/SET script a round at a time. The replies
/// match byte for byte, per connection, and the serving core's clock, seeding included, to the
/// cycle: the fleet adds a router and a channel, and neither is on the
/// request path of a replica that owns every shard.
#[test]
fn one_replica_fleet_serves_like_a_lone_server() {
    let reqs = request_stream(&[
        3, 141, 59, 26, 53, 58, 97, 93, 23, 84, 62, 64, 33, 83, 27, 95,
    ]);

    let fleet = rig_on(
        partitioned(MachineConfig::tiny()),
        &[3],
        Arc::new(AesGcm128::new(&[0x2au8; 16])),
        FleetConfig::small(1),
    );
    let fleet_replies = serve_script(&fleet.m, &fleet.fds, &fleet.wire, &reqs, || fleet.fk.pump());

    // The lone server, built in the order `FleetKvs::new` wires its
    // replica: enclave, entered thread, store, pipeline, then the seed.
    let m = partitioned(MachineConfig::tiny());
    let (fds, path, wire) = host_side(&m, &[3]);
    let cfg = FleetConfig::small(1);
    let enclave = m.driver.create_enclave(&m, cfg.linear_bytes);
    let mut ctx = ThreadCtx::for_enclave(&m, &enclave, 0);
    ctx.enter();
    let mut kvs = Kvs::new(
        DataSpace::Untrusted(Arc::clone(&m)),
        DataSpace::Enclave(Arc::clone(&enclave)),
        cfg.mem_limit,
        cfg.buckets,
    );
    kvs.init(&mut ctx);
    let io = io_config().build(&ctx, &fds, path, Arc::clone(&wire));
    seed_items(&mut ctx, &mut kvs);
    let lone_replies = serve_script(&m, &fds, &wire, &reqs, || kvs.handle_batch(&mut ctx, &io));

    assert_eq!(fleet_replies, lone_replies, "replies diverged");
    assert_eq!(
        fleet.m.core(0).clock.now(),
        m.core(0).clock.now(),
        "the serving core's clock diverged"
    );
}

/// Pushes `reqs` a round of [`PER_ROUND`] at a time and calls
/// `serve_round` until the round is answered. Returns the replies per
/// connection.
fn serve_script(
    m: &Arc<SgxMachine>,
    fds: &[Fd],
    wire: &Session,
    reqs: &[(u64, Req)],
    mut serve_round: impl FnMut() -> usize,
) -> Vec<Vec<Vec<u8>>> {
    let ut = ThreadCtx::untrusted(m, 1);
    let mut out = vec![Vec::new(); N_CONNS];
    for slice in reqs.chunks(PER_ROUND) {
        for &(conn, req) in slice {
            let s = shard_for(conn, SHARDS);
            m.host
                .push_request(&ut, fds[s], &wire.encrypt(&encode(conn, req)));
        }
        let mut done = 0;
        while done < slice.len() {
            let got = serve_round();
            assert!(got > 0, "queued requests must be served");
            done += got;
        }
        let mut streams: Vec<VecDeque<Vec<u8>>> = fds
            .iter()
            .map(|&fd| std::iter::from_fn(|| m.host.pop_response(fd)).collect())
            .collect();
        for &(conn, _) in slice {
            let reply = streams[shard_for(conn, SHARDS)]
                .pop_front()
                .expect("a reply per request");
            out[conn as usize].push(wire.decrypt(&reply));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Satellite: incremental == monolithic snapshot restore
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Restoring a base snapshot plus the delta since it lands a fresh
    /// store in exactly the state a monolithic snapshot restores —
    /// per-key byte equality, with the delta deterministically
    /// non-empty (at least one second-interval write is forced), so
    /// the incremental path the maintenance plane streams is provably
    /// exercised.
    #[test]
    fn incremental_restore_equals_monolithic_restore(
        seed in prop::collection::vec(any::<u8>(), 16..17),
    ) {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let space = DataSpace::Untrusted(Arc::clone(&m));
        let mk = |t: &mut ThreadCtx| {
            let kvs = Kvs::new(space.clone(), space.clone(), 8 << 20, 256);
            kvs.init(t);
            kvs
        };
        let mut src = mk(&mut t);
        // Phase 1 (interval 1): the base state.
        src.set_write_version(1);
        let n1 = 20 + (seed[0] as usize % 20);
        for i in 0..n1 {
            let b = seed[i % seed.len()];
            src.set(&mut t, format!("k-{i}").as_bytes(), &vec![b ^ i as u8; 16 + (b as usize % 48)]);
        }
        let sealer = AesGcm128::new(&[0x2au8; 16]);
        let base_snap = src.snapshot_since(&mut t, &sealer, 1, 1, 0);
        // Phase 2 (interval 2): overwrites and fresh keys; at least
        // one write always happens, so the delta is never vacuous.
        src.set_write_version(2);
        src.set(&mut t, b"k-0", b"forced second-interval write");
        for (i, &b) in seed.iter().enumerate().filter(|&(_, &b)| b % 3 == 0) {
            src.set(&mut t, format!("k-{}", b as usize % n1).as_bytes(), &vec![b; 24 + i]);
            src.set(&mut t, format!("fresh-{i}").as_bytes(), &[b ^ 0x55; 24]);
        }
        let mono_snap = src.snapshot_since(&mut t, &sealer, 1, 2, 0);
        let carried = m.stats.snapshot().snapshot_delta_items;
        let delta_snap = src.snapshot_since(&mut t, &sealer, 1, 2, 2);
        let carried = m.stats.snapshot().snapshot_delta_items - carried;
        prop_assert!(carried >= 1, "the delta must carry the forced write");
        prop_assert!(carried < src.len(), "and must be a strict subset of the store");

        let mut mono = mk(&mut t);
        mono.try_restore(&mut t, &sealer, &mono_snap).expect("sealed here");
        let mut incr = mk(&mut t);
        incr.try_restore(&mut t, &sealer, &base_snap).expect("sealed here");
        incr.try_restore(&mut t, &sealer, &delta_snap).expect("sealed here");

        prop_assert_eq!(incr.len(), mono.len(), "store sizes diverged");
        let mut keys = Vec::new();
        mono.for_each_item(&mut t, |k, _| keys.push(k.to_vec()));
        for k in keys {
            prop_assert_eq!(
                incr.get(&mut t, &k),
                mono.get(&mut t, &k),
                "key {:?} diverged between incremental and monolithic restore",
                String::from_utf8_lossy(&k)
            );
        }
        t.exit();
    }
}
