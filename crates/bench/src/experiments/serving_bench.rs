//! Sharded-serving benchmark: shards x sub-batch policy x load shape
//! on a cache-resident KVS GET workload so the serving pipeline (reap,
//! crypto, send), not memory, dominates. The run checks its own
//! claims (`check_claims`) and panics — exit 101 — when one fails; it
//! writes no file.
//!
//! Two figures of merit per cell:
//!
//! - **busy cycles/op** on the serving core — total measured cycles
//!   minus the idle fast-forwards the load shape inserts between
//!   arrivals, so trickle cells are not billed for waiting on the
//!   load generator.
//! - **p50/p95/p99 cycles of sojourn** — per-op enqueue-to-reap
//!   latency from the timestamps the wire descriptors carry, read out
//!   of the [`sojourn`](eleos_sim::stats::Stats) histogram.
//!
//! The sweep crosses shards ∈ {1, 2, 4} (single-socket merge path vs
//! per-shard pipelines), sub-batch policy ∈ {fixed-1, fixed-8,
//! fixed-32} and load shape ∈ {steady, bursty, trickle, skewed}. A
//! reap takes what a socket queues, up to the policy's depth:
//!
//! - **steady** keeps a standing backlog across round-robin
//!   connections (throughput regime: deep batches amortize).
//! - **bursty** alternates 64-request bursts with quiet gaps (the deep
//!   policy must take the burst at least as fast as fixed-1).
//! - **trickle** spaces arrivals a fixed gap apart and serves each as
//!   it lands: the latency half of the batching trade-off, where a
//!   deep policy must cost no more tail latency than fixed-1.
//! - **skewed** draws connections from a Zipf(α=0.99) — most traffic
//!   lands on a handful of connections, so the shard the head
//!   connection hashes to runs hot while its siblings poll shallow
//!   queues. Connections stay where they hashed; the cell checks that
//!   a second shard still pays under that skew.
//!
//! # Fleet cells
//!
//! A second sweep serves the same steady GET workload through a
//! [`FleetKvs`] — N enclave replicas over one shared socket set, each
//! reaping only its owned shards. The steady fleet cells (replicas ∈
//! {1, 2}) gauge the replication tax: replicas=2 must stay within a
//! few percent busy cycles/op of the single-enclave baseline, since
//! the work is the same and only the ownership partition changed.
//!
//! Two **chaos** cells (replicas = 3) kill one replica at 50% of the
//! run and respawn it at 75%, with the kill fired *mid-backlog* so
//! the outstanding requests see the failover window:
//!
//! - `kill-respawn` has no maintenance plane, so [`FleetKvs::kill`]
//!   and [`FleetKvs::respawn`] run their state transfer inline: the
//!   victim's seal and the heir's merge stall the serving cores, and
//!   the stranded backlog's sojourn eats the whole fence.
//! - `kill-respawn-bg` runs the maintenance plane
//!   ([`FleetKvs::maintenance_tick`] on its own core): the bench
//!   *mutes* the victim (stops pumping it) and the background failure
//!   detector calls the same `kill` off-path after
//!   `hb_miss_threshold` heartbeat-less ticks; the respawn goes
//!   through [`FleetKvs::request_rejoin`]. The transfer's byte-work
//!   lands on the maintenance core (and, delta rounds having streamed
//!   most of the state already, is a final delta), so the stranded
//!   backlog resumes as soon as the shards move — the failover-window
//!   p99 collapses while busy cycles/op stays put.
//!
//! Both carry `lost_replies` (must be zero — host sockets outlive the
//! enclave and the heir restores the victim's snapshot before reaping
//! its shards), `failover_cycles` / `recovery_cycles` (what the
//! transfers cost the serving cores, or the maintenance core for the
//! background cell),
//! `maint_chunks` / `hb_misses`, and per-replica served-op counts
//! (the tally of what [`FleetKvs::pump_replica`] returned).
//!
//! # Session cells
//!
//! A third sweep gauges the session lifecycle's serving-path cost on
//! the steady/fixed-32/1-shard baseline. The **rekey** cells rotate
//! the epoch key every N served requests (`rekey-inf` never rotates —
//! it is the static-key baseline the others are compared against);
//! every cell carries `rekeys` and `auth_failures`, and both the
//! rotation and the old epoch's drain must lose zero replies. The
//! **revoke** cell runs two independent sessions on separate sockets,
//! revokes one at 50% pushed (its queued traffic is dropped and
//! counted as `auth_failures`), and checks the surviving session
//! loses zero replies.

use std::sync::Arc;

use eleos_apps::fleet_io::{FleetConfig, FleetKvs, MaintenanceConfig};
use eleos_apps::io::ServerIoConfig;
use eleos_apps::kvs::Kvs;
use eleos_apps::loadgen::{shard_for, ChaosAction, ChaosPlan, ConnStream, KvsLoad};
use eleos_crypto::gcm::AesGcm128;
use eleos_crypto::Sealer;
use eleos_enclave::thread::ThreadCtx;

use crate::harness::{header, kops, secs, Mode, Rig, Scale};

/// Items in the KVS table: small enough to stay cache-resident.
const N_ITEMS: u64 = 512;
/// RPC worker threads, constant across cells so the shards axis is
/// the only thing moving.
const WORKERS: usize = 4;
/// Client connections the load generator multiplexes (each pinned to
/// one shard by [`shard_for`]).
const N_CONNS: u64 = 64;
/// The deepest fixed policy.
const BATCH_MAX: usize = 32;
/// Steady-load feed chunk (a multiple of every fixed depth).
const CHUNK: usize = 256;
/// Bursty-load burst size.
const BURST: usize = 64;
/// Quiet cycles between bursts.
const BURST_QUIET: u64 = 100_000;
/// Cycles between trickle arrivals.
const TRICKLE_GAP: u64 = 20_000;
/// Zipf exponent for the skewed connection stream.
const ZIPF_ALPHA: f64 = 0.99;

/// Shards the fleet cells run over (fixed so the replicas axis is the
/// only thing moving, and equal to the widest single-enclave cell for
/// the baseline comparison).
const FLEET_SHARDS: usize = 4;
/// Serving cores for the fleet cells: one per replica, avoiding the
/// load-generator core (2) and the RPC worker cores (7..4).
const FLEET_CORES: [usize; 3] = [0, 1, 3];
/// Core the background maintenance plane runs on. It shares the
/// load generator's core — never a serving core — which is safe
/// because arrivals are stamped explicitly from [`FleetKvs::
/// sync_clocks`] time, not from core 2's clock.
const MAINT_CORE: usize = 2;
/// Requests served between chaos-action checks inside a chunk's
/// backlog — the kill fires with `CHUNK - PACE` requests outstanding,
/// identically for the synchronous and background cells.
const PACE: usize = 32;

/// One measured cell of the sweep.
struct Cell {
    shards: usize,
    policy: String,
    load: &'static str,
    /// Enclave replicas serving the cell (1 = the single-enclave
    /// pipeline; >1 = the fleet tier).
    replicas: usize,
    /// `"none"` or the chaos schedule label.
    chaos: &'static str,
    /// Requests pushed minus replies received — must be zero even
    /// across a kill/respawn.
    lost_replies: u64,
    /// Cycles spent in kill-fence failovers (serving cores, or the
    /// maintenance core for the background cell).
    failover_cycles: u64,
    /// Cycles from respawn to the rejoined replica serving again
    /// (likewise).
    recovery_cycles: u64,
    /// Requests served per replica (empty for single-enclave cells).
    replica_ops: Vec<u64>,
    /// State-transfer chunks staged on the cross-enclave channel.
    maint_chunks: u64,
    /// Heartbeat misses the background failure detector counted.
    hb_misses: u64,
    /// Serving-core cycles stalled in maintenance byte-work run inline.
    maint_stall: u64,
    /// Session-key epoch rotations during the measured phase.
    rekeys: u64,
    /// Messages dropped unserved (revoked session or unknown epoch).
    auth_failures: u64,
    ops: usize,
    busy_cycles_per_op: f64,
    throughput_ops_s: f64,
    sojourn_p50: u64,
    sojourn_p95: u64,
    sojourn_p99: u64,
    sojourn_count: u64,
}

/// The sub-batch sizing policies under test.
fn policies() -> Vec<(String, ServerIoConfig)> {
    let base = || ServerIoConfig::with_buf_len(64 << 10);
    [1usize, 8, BATCH_MAX]
        .iter()
        .map(|&b| (format!("fixed-{b}"), base().batch(b)))
        .collect()
}

/// The connection stream a load shape draws arrivals from.
fn conn_stream(load: &str) -> ConnStream {
    match load {
        "skewed" => ConnStream::skewed(41, N_CONNS, ZIPF_ALPHA),
        _ => ConnStream::round_robin(N_CONNS),
    }
}

/// Runs one (shards, policy, load) cell.
fn cell(
    scale: Scale,
    shards: usize,
    policy: &str,
    cfg: ServerIoConfig,
    load: &'static str,
    quick: bool,
) -> Cell {
    let rig = Rig::with_workers(scale, Mode::EleosRpc, 4 << 20, false, WORKERS);
    let mut ctx = rig.thread(0);
    let mut kvs = Kvs::new(rig.data_space(), rig.data_space(), 64 << 20, 1 << 10);
    kvs.init(&mut ctx);
    let mut gen = KvsLoad::new(31, N_ITEMS, 16, 32);
    for i in 0..N_ITEMS {
        kvs.set(&mut ctx, &gen.key(i), &gen.value(i));
    }
    let fds = rig.socket_set(shards);
    let io = rig.server_io_sharded(&ctx, &fds, cfg);

    // The load generator lives on another core; arrivals are stamped
    // on the serving core's timebase so sojourn is one clock.
    let ut = ThreadCtx::untrusted(&rig.machine, 2);
    let machine = Arc::clone(&rig.machine);
    let wire = Arc::clone(&rig.session);
    let mut stream = conn_stream(load);
    let mut push = |stamp: u64| {
        let (_, plain) = gen.get_plain();
        let conn = stream.next();
        let s = shard_for(conn, fds.len());
        machine
            .host
            .push_request_at(&ut, fds[s], &wire.encrypt(&plain), stamp);
    };
    let ops = match load {
        "steady" => scale.ops(if quick { 512 } else { 2048 }) / CHUNK * CHUNK,
        // The skewed shape runs at least eight feed chunks: how hot
        // the head connection's shard runs is a property of the Zipf
        // stream, not of one 256-arrival sample of it.
        "skewed" => (scale.ops(if quick { 2048 } else { 8192 }) / CHUNK * CHUNK).max(8 * CHUNK),
        "bursty" => scale.ops(if quick { 256 } else { 1024 }) / BURST * BURST,
        "trickle" => scale.ops(if quick { 128 } else { 512 }),
        other => panic!("unknown load shape {other}"),
    }
    .max(CHUNK);

    // One shape iteration serving `n` ops; returns idle fast-forward
    // cycles inserted (waiting on arrivals, not work).
    let mut run_shape = |ctx: &mut ThreadCtx, n: usize| -> u64 {
        // Drains `q` queued requests through the server.
        let drain = |ctx: &mut ThreadCtx, kvs: &mut Kvs, q: usize| {
            let mut done = 0usize;
            while done < q {
                let got = kvs.handle_batch(ctx, &io);
                assert!(got > 0, "queued requests must be served");
                done += got;
            }
        };
        match load {
            // Throughput regime: a standing backlog per feed chunk.
            // The skewed shape differs only in which connections (and
            // therefore shards) the chunk lands on.
            "steady" | "skewed" => {
                let mut served = 0usize;
                while served < n {
                    let c = (n - served).min(CHUNK);
                    let now = ctx.now();
                    for _ in 0..c {
                        push(now);
                    }
                    drain(ctx, &mut kvs, c);
                    served += c;
                }
                0
            }
            "bursty" => {
                let mut idle = 0u64;
                let mut served = 0usize;
                while served < n {
                    let c = (n - served).min(BURST);
                    let now = ctx.now();
                    for _ in 0..c {
                        push(now);
                    }
                    drain(ctx, &mut kvs, c);
                    // Quiet gap: the server keeps polling empty
                    // sockets while the clock idles forward.
                    for _ in 0..2 {
                        let ff = BURST_QUIET / 2;
                        ctx.compute(ff);
                        idle += ff;
                        assert_eq!(kvs.handle_batch(ctx, &io), 0, "quiet gap is quiet");
                    }
                    served += c;
                }
                idle
            }
            "trickle" => {
                // Each arrival lands one gap after the last serve, and
                // the server reaps it as it lands.
                for _ in 0..n {
                    push(ctx.now() + TRICKLE_GAP);
                    ctx.compute(TRICKLE_GAP);
                    drain(ctx, &mut kvs, 1);
                }
                n as u64 * TRICKLE_GAP
            }
            other => panic!("unknown load shape {other}"),
        }
    };

    // Warm-up (fills caches), then the measured phase.
    run_shape(&mut ctx, CHUNK);
    rig.machine.reset_counters();
    let c0 = ctx.now();
    let idle = run_shape(&mut ctx, ops);
    let busy = (ctx.now() - c0).saturating_sub(idle);
    let d = rig.machine.stats.snapshot();
    ctx.exit();
    Cell {
        shards,
        policy: policy.to_owned(),
        load,
        replicas: 1,
        chaos: "none",
        lost_replies: 0,
        failover_cycles: 0,
        recovery_cycles: 0,
        replica_ops: Vec::new(),
        maint_chunks: d.maint_chunks,
        hb_misses: d.hb_misses,
        maint_stall: d.maint_stall_cycles,
        rekeys: d.rekeys,
        auth_failures: d.auth_failures,
        ops,
        busy_cycles_per_op: busy as f64 / ops as f64,
        throughput_ops_s: ops as f64 / secs(busy.max(1)),
        sojourn_p50: d.sojourn.p50(),
        sojourn_p95: d.sojourn.p95(),
        sojourn_p99: d.sojourn.p99(),
        sojourn_count: d.sojourn.count(),
    }
}

/// Runs one fleet cell: `replicas` enclaves over [`FLEET_SHARDS`]
/// shared sockets on the steady load. `chaos` is `"none"`,
/// `"kill-respawn"` (transfers inline on the serving cores) or
/// `"kill-respawn-bg"` (the maintenance plane's failure detector and
/// rejoin queue, off the serving path); both chaos schedules fire the
/// kill mid-backlog so the outstanding requests see the failover
/// window.
fn fleet_cell(
    scale: Scale,
    replicas: usize,
    policy: &str,
    cfg: ServerIoConfig,
    chaos: &'static str,
    quick: bool,
) -> Cell {
    let background = chaos == "kill-respawn-bg";
    let rig = Rig::with_workers(scale, Mode::EleosRpc, 4 << 20, false, WORKERS);
    let fds = rig.socket_set(FLEET_SHARDS);
    let sealer: Arc<dyn Sealer> = Arc::new(AesGcm128::new(&[0x2au8; 16]));
    let mut fleet_cfg = FleetConfig::small(replicas).on_cores(&FLEET_CORES[..replicas]);
    if background {
        fleet_cfg = fleet_cfg.with_maintenance(MaintenanceConfig {
            core: MAINT_CORE,
            hb_miss_threshold: 3,
            chunk_bytes: 32 << 10,
        });
    }
    let fk = FleetKvs::new(
        &rig.machine,
        &fds,
        cfg,
        rig.io_path(),
        Arc::clone(&rig.session),
        sealer,
        fleet_cfg,
        |ctx, kvs| {
            let g = KvsLoad::new(31, N_ITEMS, 16, 32);
            for i in 0..N_ITEMS {
                kvs.set(ctx, &g.key(i), &g.value(i));
            }
        },
    );
    let mut gen = KvsLoad::new(31, N_ITEMS, 16, 32);
    let mut stream = ConnStream::round_robin(N_CONNS);
    let ut = ThreadCtx::untrusted(&rig.machine, 2);
    let machine = Arc::clone(&rig.machine);
    let wire = Arc::clone(&rig.session);
    let map = Arc::clone(fk.map());
    let mut push = |stamp: u64| {
        let (_, plain) = gen.get_plain();
        let conn = stream.next();
        let (s, _owner) = map.route_replica(conn);
        machine
            .host
            .push_request_at(&ut, fds[s], &wire.encrypt(&plain), stamp);
    };
    let ops = (scale.ops(if quick { 512 } else { 2048 }) / CHUNK * CHUNK).max(4 * CHUNK);
    // The marks land `PACE` requests into a chunk's drain, so the
    // rest of the chunk is still outstanding when the action fires —
    // identically for both chaos variants.
    let mut plan = (chaos != "none")
        .then(|| ChaosPlan::kill_respawn(replicas - 1, ops / 2 + PACE, ops * 3 / 4 + PACE));
    // Reaps every retained reply off the sockets (the host's tx log
    // is a bounded ring, so the client must keep up) and checks each
    // still authenticates — after a failover the heir serves under
    // the same wire session.
    let reap_replies = |count: &mut u64| {
        for &fd in &fds {
            while let Some(resp) = machine.host.pop_response(fd) {
                let _ = wire.decrypt(&resp);
                *count += 1;
            }
        }
    };
    // Warm-up; its replies are reaped and discarded so the lost-reply
    // count covers exactly the measured phase. Each chunk starts at a
    // clock barrier: all replica cores idle forward to the stamping
    // core's time, so per-op sojourn stays on one timebase and the
    // run's span is the bottleneck core's path (replicas serve their
    // shard slices concurrently).
    let mut warmup_replies = 0u64;
    {
        let now = fk.sync_clocks();
        for _ in 0..CHUNK {
            push(now);
        }
        let mut done = 0usize;
        while done < CHUNK {
            let got = fk.pump();
            assert!(got > 0, "queued requests must be served");
            done += got;
            reap_replies(&mut warmup_replies);
        }
    }
    reap_replies(&mut warmup_replies);
    rig.machine.reset_counters();
    let t0 = fk.sync_clocks();
    let (mut failover_cycles, mut recovery_cycles) = (0u64, 0u64);
    let mut replica_ops = vec![0u64; replicas];
    let mut replies = 0u64;
    // Replicas the chaos schedule has muted: the bench stops pumping
    // them, their heartbeat stalls, and the background failure
    // detector fails them over — the kill reaches the fleet through
    // the plane, not the load loop.
    let mut muted: Vec<usize> = Vec::new();
    let mut pushed = 0usize;
    while pushed < ops {
        let c = (ops - pushed).min(CHUNK);
        let now = fk.sync_clocks();
        for _ in 0..c {
            push(now);
        }
        let base = pushed;
        pushed += c;
        let mut done = 0usize;
        let mut stuck = 0u32;
        while done < c {
            if let Some(p) = &mut plan {
                for action in p.take_due(base + done) {
                    match action {
                        ChaosAction::Kill(v) => {
                            if background {
                                muted.push(v);
                            } else {
                                failover_cycles += fk.kill(v).expect("honest channel").cycles;
                            }
                        }
                        ChaosAction::Respawn(v) => {
                            if background {
                                muted.retain(|&r| r != v);
                                fk.request_rejoin(v);
                            } else {
                                recovery_cycles += fk.respawn(v).expect("honest channel").cycles;
                            }
                        }
                    }
                }
            }
            let mut got = 0usize;
            for r in (0..replicas).filter(|r| !muted.contains(r)) {
                let n = fk.pump_replica(r);
                replica_ops[r] += n as u64;
                got += n;
            }
            done += got;
            reap_replies(&mut replies);
            if got == 0 {
                // The rest of the backlog sits on the muted victim's
                // shards: only a maintenance tick (detector kill +
                // shard handoff) can unstick it.
                assert!(background, "queued requests must be served");
                stuck += 1;
                assert!(stuck < 1024, "backlog stuck without maintenance progress");
                fk.maintenance_tick();
            } else {
                stuck = 0;
            }
        }
        if background {
            // Steady-state plane cadence: one tick per chunk keeps
            // the delta rounds streaming and queued rejoins timely.
            fk.maintenance_tick();
        }
    }
    reap_replies(&mut replies);
    if background {
        failover_cycles = fk.auto_failover_cycles();
        recovery_cycles = fk.auto_recovery_cycles();
    }
    // Barrier again so busy covers the slowest replica's path: with
    // per-replica cores the fleet's wall-clock is the bottleneck core.
    let busy = fk.sync_clocks() - t0;
    let d = rig.machine.stats.snapshot();
    Cell {
        shards: FLEET_SHARDS,
        policy: policy.to_owned(),
        load: "steady",
        replicas,
        chaos,
        lost_replies: ops as u64 - replies,
        failover_cycles,
        recovery_cycles,
        replica_ops,
        maint_chunks: d.maint_chunks,
        hb_misses: d.hb_misses,
        maint_stall: d.maint_stall_cycles,
        rekeys: d.rekeys,
        auth_failures: d.auth_failures,
        ops,
        busy_cycles_per_op: busy as f64 / ops as f64,
        throughput_ops_s: ops as f64 / secs(busy.max(1)),
        sojourn_p50: d.sojourn.p50(),
        sojourn_p95: d.sojourn.p95(),
        sojourn_p99: d.sojourn.p99(),
        sojourn_count: d.sojourn.count(),
    }
}

/// Runs one rekey cell: the steady/fixed-32/1-shard baseline with the
/// session key rotating every `interval` served requests (never, for
/// `None` — the static-key reference). The client reaps and decrypts
/// each chunk's replies while their epoch is still inside the
/// session's two-slot key buffer, and the cell's `lost_replies` must
/// come out zero: rotation never stalls or drops the serving path.
fn rekey_cell(scale: Scale, chaos: &'static str, interval: Option<u64>, quick: bool) -> Cell {
    let rig = Rig::with_workers(scale, Mode::EleosRpc, 4 << 20, false, WORKERS);
    let mut ctx = rig.thread(0);
    let mut kvs = Kvs::new(rig.data_space(), rig.data_space(), 64 << 20, 1 << 10);
    kvs.init(&mut ctx);
    let mut gen = KvsLoad::new(31, N_ITEMS, 16, 32);
    for i in 0..N_ITEMS {
        kvs.set(&mut ctx, &gen.key(i), &gen.value(i));
    }
    let fds = rig.socket_set(1);
    let mut cfg = ServerIoConfig::with_buf_len(64 << 10).batch(BATCH_MAX);
    if let Some(n) = interval {
        cfg = cfg.rekey_every(n);
    }
    let io = rig.server_io_sharded(&ctx, &fds, cfg);
    let ut = ThreadCtx::untrusted(&rig.machine, 2);
    let machine = Arc::clone(&rig.machine);
    let wire = Arc::clone(&rig.session);
    let mut stream = conn_stream("steady");
    let reap_replies = |count: &mut u64| {
        while let Some(resp) = machine.host.pop_response(fds[0]) {
            let _ = wire.decrypt(&resp);
            *count += 1;
        }
    };
    let ops = scale
        .ops(if quick { 512 } else { 2048 })
        .max(CHUNK)
        .next_multiple_of(CHUNK);
    let mut run_chunk = |ctx: &mut ThreadCtx, n: usize, replies: &mut u64| {
        let now = ctx.now();
        for _ in 0..n {
            let (_, plain) = gen.get_plain();
            let _ = stream.next();
            machine
                .host
                .push_request_at(&ut, fds[0], &wire.encrypt(&plain), now);
        }
        let mut done = 0usize;
        while done < n {
            let got = kvs.handle_batch(ctx, &io);
            assert!(got > 0, "queued requests must be served");
            done += got;
            // The host's tx log is a bounded ring: the client keeps up,
            // decrypting while the reply's epoch is still buffered.
            reap_replies(replies);
        }
        reap_replies(replies);
    };
    let mut warmup = 0u64;
    run_chunk(&mut ctx, CHUNK, &mut warmup);
    rig.machine.reset_counters();
    let c0 = ctx.now();
    let mut replies = 0u64;
    let mut pushed = 0usize;
    while pushed < ops {
        let c = (ops - pushed).min(CHUNK);
        run_chunk(&mut ctx, c, &mut replies);
        pushed += c;
    }
    let busy = ctx.now() - c0;
    let d = rig.machine.stats.snapshot();
    ctx.exit();
    Cell {
        shards: 1,
        policy: format!("fixed-{BATCH_MAX}"),
        load: "steady",
        replicas: 1,
        chaos,
        lost_replies: ops as u64 - replies,
        failover_cycles: 0,
        recovery_cycles: 0,
        replica_ops: Vec::new(),
        maint_chunks: d.maint_chunks,
        hb_misses: d.hb_misses,
        maint_stall: d.maint_stall_cycles,
        rekeys: d.rekeys,
        auth_failures: d.auth_failures,
        ops,
        busy_cycles_per_op: busy as f64 / ops as f64,
        throughput_ops_s: ops as f64 / secs(busy.max(1)),
        sojourn_p50: d.sojourn.p50(),
        sojourn_p95: d.sojourn.p95(),
        sojourn_p99: d.sojourn.p99(),
        sojourn_count: d.sojourn.count(),
    }
}

/// Runs the revocation chaos cell: two independent sessions (A, the
/// rig's attested session, and B, a second session on its own socket)
/// serve interleaved steady traffic; at 50% pushed, B's freshly queued
/// chunk is revoked —
/// [`ServerIo::revoke`](eleos_apps::io::ServerIo::revoke) kills its
/// shard slot and drops the queued traffic as `auth_failures` — and A
/// serves the rest of the run alone. `lost_replies` counts only the surviving
/// session's deficit and must come out zero.
fn revoke_cell(scale: Scale, quick: bool) -> Cell {
    let rig = Rig::with_workers(scale, Mode::EleosRpc, 4 << 20, false, WORKERS);
    let mut ctx = rig.thread(0);
    let mut kvs = Kvs::new(rig.data_space(), rig.data_space(), 64 << 20, 1 << 10);
    kvs.init(&mut ctx);
    let mut gen = KvsLoad::new(31, N_ITEMS, 16, 32);
    for i in 0..N_ITEMS {
        kvs.set(&mut ctx, &gen.key(i), &gen.value(i));
    }
    let fds = rig.socket_set(2);
    let base = || ServerIoConfig::with_buf_len(64 << 10).batch(BATCH_MAX);
    let io_a = rig.server_io_sharded(&ctx, &fds[..1], base());
    let session_b = Arc::new(eleos_apps::wire::Session::established([0x5bu8; 16]));
    let io_b = base().build(&ctx, &fds[1..], rig.io_path(), Arc::clone(&session_b));
    let ut = ThreadCtx::untrusted(&rig.machine, 2);
    let machine = Arc::clone(&rig.machine);
    let wire_a = Arc::clone(&rig.session);
    let ops = scale
        .ops(if quick { 512 } else { 2048 })
        .max(2 * CHUNK)
        .next_multiple_of(2 * CHUNK);
    let half = CHUNK / 2;
    let mut a_pushed = 0u64;
    let mut a_replies = 0u64;
    let mut b_served = 0u64;
    let reap_a = |count: &mut u64| {
        while let Some(resp) = machine.host.pop_response(fds[0]) {
            let _ = wire_a.decrypt(&resp);
            *count += 1;
        }
    };
    // One warm-up chunk on each session.
    for (io, session, fd) in [(&io_a, &wire_a, fds[0]), (&io_b, &session_b, fds[1])] {
        let now = ctx.now();
        for _ in 0..half {
            let (_, plain) = gen.get_plain();
            machine
                .host
                .push_request_at(&ut, fd, &session.encrypt(&plain), now);
        }
        let mut done = 0usize;
        while done < half {
            done += kvs.handle_batch(&mut ctx, io);
            while machine.host.pop_response(fd).is_some() {}
        }
    }
    while machine.host.pop_response(fds[0]).is_some() {}
    while machine.host.pop_response(fds[1]).is_some() {}
    rig.machine.reset_counters();
    let c0 = ctx.now();
    let mut pushed = 0usize;
    let mut revoked = false;
    while pushed < ops {
        let now = ctx.now();
        if !revoked {
            // Interleaved halves: A and B each get half a chunk.
            for fifty in 0..2usize {
                let (session, fd): (&Arc<eleos_apps::wire::Session>, _) = if fifty == 0 {
                    (&wire_a, fds[0])
                } else {
                    (&session_b, fds[1])
                };
                for _ in 0..half {
                    let (_, plain) = gen.get_plain();
                    machine
                        .host
                        .push_request_at(&ut, fd, &session.encrypt(&plain), now);
                }
            }
            a_pushed += half as u64;
            let mut done = 0usize;
            while done < half {
                done += kvs.handle_batch(&mut ctx, &io_a);
                reap_a(&mut a_replies);
            }
            let mut done = 0usize;
            while done < half {
                done += kvs.handle_batch(&mut ctx, &io_b);
                // B's client keeps up with its replies too (the host's
                // tx log is a bounded ring).
                while let Some(resp) = machine.host.pop_response(fds[1]) {
                    let _ = session_b.decrypt(&resp);
                }
            }
            b_served += half as u64;
            while let Some(resp) = machine.host.pop_response(fds[1]) {
                let _ = session_b.decrypt(&resp);
            }
            pushed += 2 * half;
        } else {
            for _ in 0..CHUNK.min(ops - pushed) {
                let (_, plain) = gen.get_plain();
                machine
                    .host
                    .push_request_at(&ut, fds[0], &wire_a.encrypt(&plain), now);
            }
            let c = CHUNK.min(ops - pushed);
            a_pushed += c as u64;
            let mut done = 0usize;
            while done < c {
                done += kvs.handle_batch(&mut ctx, &io_a);
                reap_a(&mut a_replies);
            }
            pushed += c;
        }
        reap_a(&mut a_replies);
        if !revoked && pushed >= ops / 2 {
            // Mid-run revocation: B's client pushes one more chunk that
            // the revoked slot must drop, not serve.
            let now = ctx.now();
            for _ in 0..half {
                let (_, plain) = gen.get_plain();
                machine
                    .host
                    .push_request_at(&ut, fds[1], &session_b.encrypt(&plain), now);
            }
            let dropped = io_b.revoke(&mut ctx);
            assert_eq!(dropped, half, "revocation drops the queued chunk");
            revoked = true;
        }
    }
    reap_a(&mut a_replies);
    let busy = ctx.now() - c0;
    let d = rig.machine.stats.snapshot();
    ctx.exit();
    assert!(revoked, "the schedule must fire the revocation");
    Cell {
        shards: 1,
        policy: format!("fixed-{BATCH_MAX}"),
        load: "steady",
        replicas: 1,
        chaos: "revoke",
        lost_replies: a_pushed - a_replies,
        failover_cycles: 0,
        recovery_cycles: 0,
        replica_ops: vec![a_pushed, b_served],
        maint_chunks: d.maint_chunks,
        hb_misses: d.hb_misses,
        maint_stall: d.maint_stall_cycles,
        rekeys: d.rekeys,
        auth_failures: d.auth_failures,
        ops: pushed,
        busy_cycles_per_op: busy as f64 / pushed as f64,
        throughput_ops_s: pushed as f64 / secs(busy.max(1)),
        sojourn_p50: d.sojourn.p50(),
        sojourn_p95: d.sojourn.p95(),
        sojourn_p99: d.sojourn.p99(),
        sojourn_count: d.sojourn.count(),
        // The surviving session's server.
    }
}

/// Every load shape of the sweep.
const LOADS: [&str; 4] = ["steady", "bursty", "trickle", "skewed"];
/// Every shard count of the sweep.
const SHARDS: [usize; 3] = [1, 2, 4];
/// The fleet cells, `(policy, replicas, chaos)`: the replicas axis on
/// the steady load plus the two chaos cells.
const FLEET_CELLS: [(&str, usize, &str); 6] = [
    ("fixed-8", 1, "none"),
    ("fixed-8", 2, "none"),
    ("fixed-32", 1, "none"),
    ("fixed-32", 2, "none"),
    ("fixed-32", 3, "kill-respawn"),
    ("fixed-32", 3, "kill-respawn-bg"),
];
/// The rekey cells: label and rotation interval in served requests.
const REKEY_CELLS: [(&str, Option<u64>); 4] = [
    ("rekey-inf", None),
    ("rekey-4096", Some(4096)),
    ("rekey-1024", Some(1024)),
    ("rekey-256", Some(256)),
];

/// The sojourn-histogram bucket above the one whose lower bound is `v`
/// (exact below 8; each octave above is split into 8 buckets).
fn next_bucket(v: u64) -> u64 {
    if v < 8 {
        v + 1
    } else {
        v + (1 << (v.ilog2() - 3))
    }
}

/// Checks, on one run's cells, every claim the header and the module
/// doc make.
///
/// # Panics
/// Panics — so `repro` exits non-zero — on the first claim that does
/// not hold, naming it.
fn check_claims(cells: &[Cell]) {
    // Fleet cells (the ones with per-replica op counts) re-run the
    // replicas = 1 configuration through the fleet harness, so they
    // are looked up apart from the single-enclave sweep.
    let sweep = |load: &str, policy: &str, shards: usize| -> &Cell {
        cells
            .iter()
            .find(|c| {
                c.replica_ops.is_empty()
                    && (c.load, c.policy.as_str(), c.shards, c.chaos)
                        == (load, policy, shards, "none")
            })
            .unwrap_or_else(|| panic!("missing sweep cell ({load}, {policy}, {shards})"))
    };
    let fleet = |policy: &str, replicas: usize, chaos: &str| -> &Cell {
        cells
            .iter()
            .find(|c| {
                !c.replica_ops.is_empty()
                    && (c.policy.as_str(), c.replicas, c.chaos) == (policy, replicas, chaos)
            })
            .unwrap_or_else(|| panic!("missing fleet cell ({policy}, {replicas}, {chaos})"))
    };
    let session = |chaos: &str| -> &Cell {
        cells
            .iter()
            .find(|c| c.chaos == chaos)
            .unwrap_or_else(|| panic!("missing session cell {chaos}"))
    };
    assert_eq!(cells.len(), 47, "36 sweep + 6 fleet + 5 session cells");

    // Every sweep cell is there, with percentiles.
    for load in LOADS {
        for (policy, _) in policies() {
            for shards in SHARDS {
                let c = sweep(load, &policy, shards);
                let at = format!("({load}, {policy}, {shards})");
                assert!(
                    c.sojourn_p50 <= c.sojourn_p95 && c.sojourn_p95 <= c.sojourn_p99,
                    "{at} percentiles not ordered"
                );
                assert!(c.sojourn_count > 0, "{at} recorded no sojourn samples");
            }
        }
    }

    for shards in SHARDS {
        // Bursty load: the deep policy takes each burst in few reaps,
        // so it must at least match the shallow policy's throughput.
        let f32 = sweep("bursty", "fixed-32", shards);
        let f1 = sweep("bursty", "fixed-1", shards);
        assert!(
            f32.throughput_ops_s >= f1.throughput_ops_s,
            "bursty shards={shards}: fixed-32 throughput {:.0} below fixed-1 {:.0}",
            f32.throughput_ops_s,
            f1.throughput_ops_s
        );
        // Trickle load: a reap takes what is queued, so the deep policy
        // serves each arrival as it lands, as fixed-1 does: its tail
        // latency is at most one histogram bucket above fixed-1's.
        let f32 = sweep("trickle", "fixed-32", shards);
        let f1 = sweep("trickle", "fixed-1", shards);
        assert!(
            f32.sojourn_p99 <= next_bucket(f1.sojourn_p99),
            "trickle shards={shards}: fixed-32 p99 {} more than one bucket above fixed-1 p99 {}",
            f32.sojourn_p99,
            f1.sojourn_p99
        );
    }

    // Skewed load: connections stay where they hashed, so one shard
    // runs hot — and a second shard must still pay for itself, at
    // every policy.
    for (policy, _) in policies() {
        let one = sweep("skewed", &policy, 1).busy_cycles_per_op;
        let two = sweep("skewed", &policy, 2).busy_cycles_per_op;
        assert!(
            two <= one,
            "skewed {policy}: shards=2 busy cycles/op {two:.0} exceeds shards=1 {one:.0}"
        );
    }

    // Fleet cells: zero lost replies, chaos or not — host socket
    // queues outlive the enclave and the heir restores before reaping
    // inherited shards — and every request was served by some replica.
    for (policy, replicas, chaos) in FLEET_CELLS {
        let c = fleet(policy, replicas, chaos);
        let at = format!("fleet cell ({policy}, {replicas}, {chaos})");
        assert_eq!(c.lost_replies, 0, "{at} lost replies");
        assert_eq!(c.replica_ops.len(), replicas, "{at} per-replica gauges");
        assert!(
            c.replica_ops.iter().sum::<u64>() == c.ops as u64 && !c.replica_ops.contains(&0),
            "{at} replica_ops {:?} do not add up to its {} ops",
            c.replica_ops,
            c.ops
        );
    }

    // Steady state: adding a replica must not tax the pipeline —
    // replicas=2 (each replica serving its shard slice on its own
    // core) stays within 5% busy cycles/op of the single-enclave cell.
    for policy in ["fixed-8", "fixed-32"] {
        let one = fleet(policy, 1, "none").busy_cycles_per_op;
        let two = fleet(policy, 2, "none").busy_cycles_per_op;
        assert!(
            two <= one * 1.05,
            "fleet {policy}: replicas=2 busy cycles/op {two:.0} more than 5% over \
             the single-enclave baseline {one:.0}"
        );
    }

    // Chaos cells: the fence protocols ran, and each stayed under the
    // recovery budget. The budget is the *synchronous* cell's busy
    // span for both labels: the sync fences run inside that span by
    // construction, and the background plane's maintenance-core cycles
    // replace that on-path work, so they must stay the same magnitude
    // — the bg cell's own (smaller, that is the win) span is not the
    // bound.
    let sync = fleet("fixed-32", 3, "kill-respawn");
    let bg = fleet("fixed-32", 3, "kill-respawn-bg");
    let budget = sync.busy_cycles_per_op * sync.ops as f64;
    for c in [sync, bg] {
        for (fence, cycles) in [
            ("failover_cycles", c.failover_cycles),
            ("recovery_cycles", c.recovery_cycles),
        ] {
            assert!(
                cycles > 0 && (cycles as f64) < budget,
                "{} cell {fence} {cycles} outside the (0, {budget:.0}) budget",
                c.chaos
            );
        }
    }

    // Background maintenance plane: it must actually have run (delta
    // chunks streamed, heartbeat misses observed). The two cells run
    // the same kill/respawn code: inline it stalls the serving cores
    // for every cycle of the transfers, on the plane for none.
    assert!(
        bg.maint_chunks > 0,
        "kill-respawn-bg streamed no delta chunks"
    );
    assert!(
        bg.hb_misses > 0,
        "kill-respawn-bg observed no heartbeat misses"
    );
    assert_eq!(
        bg.maint_stall, 0,
        "kill-respawn-bg stalled the serving path"
    );
    assert!(
        sync.maint_stall > 0,
        "kill-respawn recorded no serving-path stall for its inline transfers"
    );
    // The stranded backlog's failover-window p99 collapses — at least
    // 2x below the synchronous fence's — while busy cycles/op stays at
    // or below the synchronous cell's. The p99 claim sits on its
    // boundary today: 8 runs at `--quick --scale 8` gave sync 524 288
    // against bg 245 760 or 262 144 (2.13x, or exactly 2.0x), so the
    // comparison must stay `<=`: exactly half passes, one histogram
    // bucket more fails.
    assert!(
        bg.sojourn_p99 as f64 <= sync.sojourn_p99 as f64 * 0.5,
        "background chaos p99 {} not at least 2x below the synchronous fence's {}",
        bg.sojourn_p99,
        sync.sojourn_p99
    );
    assert!(
        bg.busy_cycles_per_op <= sync.busy_cycles_per_op,
        "background chaos busy cycles/op {:.0} exceeds the synchronous cell's {:.0}",
        bg.busy_cycles_per_op,
        sync.busy_cycles_per_op
    );

    // Session cells. Epoch rotation is double-buffered: the old epoch
    // drains while the new one serves, so nothing is ever dropped or
    // rejected.
    for (label, _) in REKEY_CELLS {
        let c = session(label);
        assert_eq!(c.lost_replies, 0, "session cell {label} lost replies");
        assert_eq!(c.auth_failures, 0, "session cell {label} had auth failures");
    }
    assert_eq!(session("rekey-inf").rekeys, 0, "rekey-inf rotated keys");
    assert!(
        session("rekey-256").rekeys > 0,
        "rekey-256 never rotated keys"
    );
    // A session that never rotates must cost what the static-key
    // pipeline costs (within 2% of the sweep's steady/fixed-32/1-shard
    // cell), and rotating every 4096 requests stays within 5% of it.
    let baseline = sweep("steady", "fixed-32", 1).busy_cycles_per_op;
    for (label, slack) in [("rekey-inf", 1.02), ("rekey-4096", 1.05)] {
        let cpo = session(label).busy_cycles_per_op;
        assert!(
            cpo <= baseline * slack,
            "{label} busy cycles/op {cpo:.0} more than {:.0}% over the static-key \
             baseline {baseline:.0}",
            (slack - 1.0) * 100.0
        );
    }
    // Revocation chaos: the revoked session's queued traffic is
    // dropped and counted; the surviving session loses nothing.
    let rv = session("revoke");
    assert_eq!(
        rv.lost_replies, 0,
        "revoke cell: the surviving session lost replies"
    );
    assert!(rv.auth_failures > 0, "revoke cell dropped no traffic");

    println!(
        "   {} cells, every claim holds; background maintenance cuts the \
         failover-window p99 {:.1}x ({} -> {})",
        cells.len(),
        sync.sojourn_p99 as f64 / bg.sojourn_p99.max(1) as f64,
        sync.sojourn_p99,
        bg.sojourn_p99
    );
}

/// Runs the sweep, prints a table per load shape and checks the
/// claims (`check_claims`); writes no file. `quick` trims the op
/// counts for CI smoke runs.
pub fn run(scale: Scale, quick: bool) {
    header(
        "serving_bench",
        "shards x sub-batch policy x load shape, cache-resident KVS GETs",
        "sharding drops the merge/reorder tax; a reap that takes what is queued \
         amortizes a burst at depth 32 and serves a trickle as fast as depth 1; a \
         second shard still pays when Zipf-skewed connections stay where they hashed",
    );
    let mut cells: Vec<Cell> = Vec::new();
    for load in LOADS {
        println!(
            "   {:<8} {:<8} {:>6} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "load", "policy", "shards", "busy c/op", "ops/s", "p50", "p95", "p99"
        );
        for (policy, cfg) in policies() {
            for shards in SHARDS {
                let c = cell(scale, shards, &policy, cfg.clone(), load, quick);
                println!(
                    "   {:<8} {:<8} {:>6} {:>12.0} {:>10} {:>10} {:>10} {:>10}",
                    c.load,
                    c.policy,
                    c.shards,
                    c.busy_cycles_per_op,
                    kops(c.throughput_ops_s),
                    c.sojourn_p50,
                    c.sojourn_p95,
                    c.sojourn_p99,
                );
                cells.push(c);
            }
        }
    }

    // Fleet sweep: the replicas axis on the steady load, plus the
    // chaos cells.
    println!(
        "   {:<8} {:<8} {:>8} {:>14} {:>12} {:>10} {:>6} {:>10} {:>10}",
        "fleet",
        "policy",
        "replicas",
        "chaos",
        "busy c/op",
        "ops/s",
        "lost",
        "failover",
        "recovery"
    );
    for (policy, replicas, chaos) in FLEET_CELLS {
        let (_, cfg) = policies()
            .into_iter()
            .find(|(label, _)| label == policy)
            .expect("a fleet cell runs one of the sweep's policies");
        let c = fleet_cell(scale, replicas, policy, cfg, chaos, quick);
        println!(
            "   {:<8} {:<8} {:>8} {:>14} {:>12.0} {:>10} {:>6} {:>10} {:>10}",
            "steady",
            c.policy,
            c.replicas,
            c.chaos,
            c.busy_cycles_per_op,
            kops(c.throughput_ops_s),
            c.lost_replies,
            c.failover_cycles,
            c.recovery_cycles,
        );
        cells.push(c);
    }

    // Session sweep: epoch rotation intervals on the steady/fixed-32/
    // 1-shard baseline, plus the mid-run revocation cell.
    println!(
        "   {:<8} {:<12} {:>12} {:>10} {:>8} {:>6} {:>6}",
        "session", "chaos", "busy c/op", "ops/s", "rekeys", "auth", "lost"
    );
    let session = REKEY_CELLS
        .into_iter()
        .map(|(label, interval)| rekey_cell(scale, label, interval, quick))
        .chain(std::iter::once_with(|| revoke_cell(scale, quick)));
    for c in session {
        println!(
            "   {:<8} {:<12} {:>12.0} {:>10} {:>8} {:>6} {:>6}",
            "steady",
            c.chaos,
            c.busy_cycles_per_op,
            kops(c.throughput_ops_s),
            c.rekeys,
            c.auth_failures,
            c.lost_replies,
        );
        cells.push(c);
    }

    check_claims(&cells);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell on which every "at least as good as" claim holds with
    /// equality.
    fn flat(load: &'static str, policy: &str, shards: usize) -> Cell {
        Cell {
            shards,
            policy: policy.to_owned(),
            load,
            replicas: 1,
            chaos: "none",
            lost_replies: 0,
            failover_cycles: 0,
            recovery_cycles: 0,
            replica_ops: Vec::new(),
            maint_chunks: 0,
            hb_misses: 0,
            maint_stall: 0,
            rekeys: 0,
            auth_failures: 0,
            ops: 1536,
            busy_cycles_per_op: 1000.0,
            throughput_ops_s: 1e6,
            sojourn_p50: 100,
            sojourn_p95: 200,
            sojourn_p99: 300,
            sojourn_count: 1536,
        }
    }

    /// The 47 cells of a run on which every claim holds — the
    /// background chaos cell's p99 at exactly half the synchronous
    /// cell's, the boundary a real run lands on.
    fn passing_cells() -> Vec<Cell> {
        let mut cells = Vec::new();
        for load in LOADS {
            for (policy, _) in policies() {
                for shards in SHARDS {
                    cells.push(flat(load, &policy, shards));
                }
            }
        }
        for (policy, replicas, chaos) in FLEET_CELLS {
            let c = flat("steady", policy, FLEET_SHARDS);
            cells.push(Cell {
                replicas,
                chaos,
                replica_ops: vec![(c.ops / replicas) as u64; replicas],
                failover_cycles: u64::from(chaos != "none"),
                recovery_cycles: u64::from(chaos != "none"),
                maint_stall: u64::from(chaos == "kill-respawn"),
                maint_chunks: u64::from(chaos == "kill-respawn-bg"),
                hb_misses: u64::from(chaos == "kill-respawn-bg"),
                sojourn_p99: if chaos == "kill-respawn-bg" {
                    262_144
                } else {
                    524_288
                },
                ..c
            });
        }
        for (chaos, _) in REKEY_CELLS {
            cells.push(Cell {
                chaos,
                rekeys: u64::from(chaos == "rekey-256"),
                ..flat("steady", "fixed-32", 1)
            });
        }
        cells.push(Cell {
            chaos: "revoke",
            replica_ops: vec![1024, 512],
            auth_failures: 128,
            ..flat("steady", "fixed-32", 1)
        });
        cells
    }

    fn chaos_cell<'a>(cells: &'a mut [Cell], chaos: &str) -> &'a mut Cell {
        cells.iter_mut().find(|c| c.chaos == chaos).unwrap()
    }

    #[test]
    fn a_run_on_which_every_claim_holds_passes() {
        check_claims(&passing_cells());
    }

    #[test]
    #[should_panic(expected = "missing sweep cell (skewed, fixed-8, 4)")]
    fn a_missing_sweep_cell_fails_the_run() {
        let mut cells = passing_cells();
        // Keep the count at 47: the cell is replaced, not just dropped.
        let gone = cells
            .iter()
            .position(|c| (c.load, c.policy.as_str(), c.shards) == ("skewed", "fixed-8", 4))
            .unwrap();
        cells[gone] = flat("skewed", "fixed-8", 2);
        check_claims(&cells);
    }

    #[test]
    #[should_panic(
        expected = "skewed fixed-32: shards=2 busy cycles/op 1001 exceeds shards=1 1000"
    )]
    fn a_second_shard_that_does_not_pay_under_skew_fails_the_run() {
        let mut cells = passing_cells();
        let two = cells
            .iter_mut()
            .find(|c| (c.load, c.policy.as_str(), c.shards) == ("skewed", "fixed-32", 2))
            .unwrap();
        two.busy_cycles_per_op = 1001.0;
        check_claims(&cells);
    }

    #[test]
    #[should_panic(expected = "fleet cell (fixed-32, 3, kill-respawn) lost replies")]
    fn one_lost_reply_on_a_fleet_cell_fails_the_run() {
        let mut cells = passing_cells();
        chaos_cell(&mut cells, "kill-respawn").lost_replies = 1;
        check_claims(&cells);
    }

    /// Sets the trickle cells' p99s: fixed-1 at 3 840, fixed-32 at `f32`.
    fn trickle_p99(cells: &mut [Cell], f32: u64) {
        for c in cells.iter_mut().filter(|c| c.load == "trickle") {
            match c.policy.as_str() {
                "fixed-1" => c.sojourn_p99 = 3_840,
                "fixed-32" => c.sojourn_p99 = f32,
                _ => {}
            }
        }
    }

    #[test]
    fn a_trickle_p99_one_bucket_above_fixed_1_passes() {
        // 3 840 = 15 << 8; the bucket above it starts at 16 << 8.
        let mut cells = passing_cells();
        trickle_p99(&mut cells, 4_096);
        check_claims(&cells);
    }

    #[test]
    #[should_panic(expected = "trickle shards=1: fixed-32 p99 4608 more than one bucket above")]
    fn a_trickle_p99_two_buckets_above_fixed_1_fails_the_run() {
        let mut cells = passing_cells();
        trickle_p99(&mut cells, 9 << 9);
        check_claims(&cells);
    }

    #[test]
    #[should_panic(expected = "background chaos p99 294912 not at least 2x below")]
    fn background_p99_one_bucket_above_half_the_synchronous_fails_the_run() {
        let mut cells = passing_cells();
        // The histogram's next bucket above 262 144 = 8 << 15.
        chaos_cell(&mut cells, "kill-respawn-bg").sojourn_p99 = 9 << 15;
        check_claims(&cells);
    }
}
