//! Sharded-serving benchmark: shards x sub-batch policy x load shape
//! x placement (static pinning vs the balance layer), on a
//! cache-resident KVS GET workload so the serving pipeline (reap,
//! crypto, send), not memory, dominates. Emits `BENCH_serving.json`.
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
//! fixed-32, adaptive} and load shape ∈ {steady, bursty, trickle,
//! skewed, churn}:
//!
//! - **steady** keeps a standing backlog across round-robin
//!   connections (throughput regime: deep batches amortize, adaptive
//!   should ride the ceiling).
//! - **bursty** alternates 64-request bursts with quiet gaps
//!   (adaptive must grow into the burst and decay after it).
//! - **trickle** spaces arrivals a fixed gap apart; a fixed-depth
//!   server waits out a full batch before reaping (the clock
//!   fast-forwards to the last arrival of each group), while adaptive
//!   serves each arrival as it lands — the latency half of the
//!   batching trade-off.
//! - **skewed** draws connections from a Zipf(α=0.99) — most traffic
//!   lands on a handful of connections, so static pinning floods one
//!   shard while its siblings poll empty queues.
//! - **churn** is the same Zipf over a rotating connection population:
//!   the hot set retires every epoch and fresh connections take over,
//!   so yesterday's balance is today's imbalance.
//!
//! The skewed and churn shapes additionally run **balanced** cells at
//! 2 and 4 shards: the balance layer with the default
//! [`BalanceConfig`] (hot-connection re-pinning through a
//! [`ShardMap`] plus sub-batch work stealing). Every single-enclave
//! cell carries its server's per-shard numbers
//! ([`ServerIo::shard_stats`]: backlog, AIMD depth, steals,
//! migrations, sojourn p99) so the imbalance — and the balance layer
//! eating it — is visible in the JSON.
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
//! (the tally of what [`FleetKvs::pump_replica`] returned). Fleet
//! cells leave the per-shard arrays empty: each replica's server keeps
//! its own.
//!
//! # Session cells
//!
//! A third sweep gauges the session lifecycle's serving-path cost on
//! the steady/adaptive/1-shard baseline. The **rekey** cells rotate
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
use eleos_apps::io::{BalanceConfig, ServerIo, ServerIoConfig, ShardSnapshot};
use eleos_apps::kvs::Kvs;
use eleos_apps::loadgen::{shard_for, ChaosAction, ChaosPlan, ConnStream, KvsLoad, ShardMap};
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
/// one shard by [`shard_for`], or routed by the balanced cells'
/// [`ShardMap`]).
const N_CONNS: u64 = 64;
/// Ceiling of the adaptive controller and the deepest fixed policy.
const BATCH_MAX: usize = 32;
/// Steady-load feed chunk (a multiple of every fixed depth).
const CHUNK: usize = 256;
/// Bursty-load burst size.
const BURST: usize = 64;
/// Quiet cycles between bursts.
const BURST_QUIET: u64 = 100_000;
/// Cycles between trickle arrivals.
const TRICKLE_GAP: u64 = 20_000;
/// Zipf exponent for the skewed and churn connection streams.
const ZIPF_ALPHA: f64 = 0.99;
/// Arrivals per churn epoch (the hot half of the connection
/// population retires this often). Four feed chunks: long enough
/// that adapting to the current hot set pays off, short enough that
/// a run crosses several rotations.
const CHURN_EPOCH: usize = 4 * CHUNK;

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
    balance: &'static str,
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
    rpc_batches: u64,
    /// The cell's own server's shards over the measured phase
    /// ([`shards_since`]); empty for a fleet cell.
    per_shard: Vec<ShardSnapshot>,
}

/// `io`'s per-shard numbers for the phase that began at the reading
/// `base`: gauges as they stand, counters and sojourn less `base`
/// (`reset_counters` does not reach a server's own numbers).
fn shards_since(base: &[ShardSnapshot], io: &ServerIo) -> Vec<ShardSnapshot> {
    let phase = |(now, base): (&ShardSnapshot, &ShardSnapshot)| ShardSnapshot {
        steals_taken: now.steals_taken - base.steals_taken,
        steals_given: now.steals_given - base.steals_given,
        migrations: now.migrations - base.migrations,
        sojourn: now.sojourn - base.sojourn,
        ..*now
    };
    io.shard_stats().iter().zip(base).map(phase).collect()
}

/// The sub-batch sizing policies under test.
fn policies() -> Vec<(String, ServerIoConfig)> {
    let base = || ServerIoConfig::with_buf_len(64 << 10).async_send(false);
    let mut out: Vec<(String, ServerIoConfig)> = [1usize, 8, BATCH_MAX]
        .iter()
        .map(|&b| (format!("fixed-{b}"), base().batch(b)))
        .collect();
    out.push(("adaptive".to_owned(), base().adaptive(1, BATCH_MAX)));
    out
}

/// The connection stream a load shape draws arrivals from.
fn conn_stream(load: &str) -> ConnStream {
    match load {
        "skewed" => ConnStream::skewed(41, N_CONNS, ZIPF_ALPHA),
        "churn" => ConnStream::churn(43, N_CONNS, CHURN_EPOCH),
        _ => ConnStream::round_robin(N_CONNS),
    }
}

/// Runs one (shards, policy, load, placement) cell.
fn cell(
    scale: Scale,
    shards: usize,
    policy: &str,
    cfg: ServerIoConfig,
    load: &'static str,
    balanced: bool,
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
    let map = balanced.then(|| ShardMap::new(shards));
    let io = match &map {
        Some(m) => rig.server_io_balanced(
            &ctx,
            &fds,
            cfg.clone()
                .shards(shards)
                .balanced(BalanceConfig::default()),
            m,
        ),
        None => rig.server_io_sharded(&ctx, &fds, cfg.clone().shards(shards)),
    };

    // The load generator lives on another core; arrivals are stamped
    // on the serving core's timebase so sojourn is one clock.
    let ut = ThreadCtx::untrusted(&rig.machine, 2);
    let machine = Arc::clone(&rig.machine);
    let wire = Arc::clone(&rig.session);
    let mut stream = conn_stream(load);
    let mut push = |stamp: u64| {
        let (_, plain) = gen.get_plain();
        let conn = stream.next();
        let s = match &map {
            Some(m) => m.route(conn),
            None => shard_for(conn, fds.len()),
        };
        machine
            .host
            .push_request_at(&ut, fds[s], &wire.encrypt(&plain), stamp);
    };
    let ops = match load {
        "steady" => scale.ops(if quick { 512 } else { 2048 }) / CHUNK * CHUNK,
        // The skewed and churn shapes need several feed chunks per
        // run: re-pinning moves only *future* arrivals, so its win
        // shows up one chunk after the decision, and a one-chunk run
        // would measure pure overhead.
        "skewed" | "churn" => {
            (scale.ops(if quick { 2048 } else { 8192 }) / CHUNK * CHUNK).max(2 * CHURN_EPOCH)
        }
        "bursty" => scale.ops(if quick { 256 } else { 1024 }) / BURST * BURST,
        "trickle" => scale.ops(if quick { 128 } else { 512 }) / BATCH_MAX * BATCH_MAX,
        other => panic!("unknown load shape {other}"),
    }
    .max(CHUNK);
    // A fixed-depth server waits out a full batch before reaping; the
    // adaptive (and fixed-1) server reaps every arrival as it lands.
    let group = cfg_group(&io);

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
            // The skewed and churn shapes differ only in which
            // connections (and therefore shards) the chunk lands on.
            "steady" | "skewed" | "churn" => {
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
                    // Quiet gap: the server keeps polling (empty
                    // reaps decay the adaptive depth) while the
                    // clock idles forward.
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
                let mut idle = 0u64;
                let mut served = 0usize;
                while served < n {
                    let g = group.min(n - served);
                    let base = ctx.now();
                    for j in 0..g {
                        push(base + (j as u64 + 1) * TRICKLE_GAP);
                    }
                    // Wait out the arrivals: a full group for the
                    // fixed depths, one gap for adaptive.
                    let ff = (base + g as u64 * TRICKLE_GAP).saturating_sub(ctx.now());
                    ctx.compute(ff);
                    idle += ff;
                    drain(ctx, &mut kvs, g);
                    served += g;
                }
                idle
            }
            other => panic!("unknown load shape {other}"),
        }
    };

    // Warm-up (fills caches, settles the adaptive depth), then the
    // measured phase.
    run_shape(&mut ctx, CHUNK);
    rig.machine.reset_counters();
    let shards0 = io.shard_stats();
    let c0 = ctx.now();
    let idle = run_shape(&mut ctx, ops);
    let busy = (ctx.now() - c0).saturating_sub(idle);
    io.flush(&mut ctx);
    let d = rig.machine.stats.snapshot();
    ctx.exit();
    Cell {
        shards,
        policy: policy.to_owned(),
        load,
        balance: if balanced { "balanced" } else { "static" },
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
        rpc_batches: d.rpc_batches,
        per_shard: shards_since(&shards0, &io),
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
        cfg.shards(FLEET_SHARDS),
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
    fk.flush();
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
    fk.flush();
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
        balance: "static",
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
        rpc_batches: d.rpc_batches,
        per_shard: Vec::new(),
    }
}

/// Runs one rekey cell: the steady/adaptive/1-shard baseline with the
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
    let mut cfg = ServerIoConfig::with_buf_len(64 << 10)
        .async_send(false)
        .adaptive(1, BATCH_MAX);
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
        io.flush(ctx);
        reap_replies(replies);
    };
    let mut warmup = 0u64;
    run_chunk(&mut ctx, CHUNK, &mut warmup);
    rig.machine.reset_counters();
    let shards0 = io.shard_stats();
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
        policy: "adaptive".to_owned(),
        load: "steady",
        balance: "static",
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
        rpc_batches: d.rpc_batches,
        per_shard: shards_since(&shards0, &io),
    }
}

/// Runs the revocation chaos cell: two independent sessions (A, the
/// rig's attested session, and B, a second session on its own socket)
/// serve interleaved steady traffic; at 50% pushed, B's freshly queued
/// chunk is revoked — [`ServerIo::revoke`] kills its shard slot and
/// drops the queued traffic as `auth_failures` — and A serves the rest
/// of the run alone. `lost_replies` counts only the surviving
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
    let base = || {
        ServerIoConfig::with_buf_len(64 << 10)
            .async_send(false)
            .adaptive(1, BATCH_MAX)
    };
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
        io.flush(&mut ctx);
    }
    while machine.host.pop_response(fds[0]).is_some() {}
    while machine.host.pop_response(fds[1]).is_some() {}
    rig.machine.reset_counters();
    let shards0 = io_a.shard_stats();
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
            io_a.flush(&mut ctx);
            io_b.flush(&mut ctx);
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
            io_a.flush(&mut ctx);
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
    io_a.flush(&mut ctx);
    reap_a(&mut a_replies);
    let busy = ctx.now() - c0;
    let d = rig.machine.stats.snapshot();
    ctx.exit();
    assert!(revoked, "the schedule must fire the revocation");
    Cell {
        shards: 1,
        policy: "adaptive".to_owned(),
        load: "steady",
        balance: "static",
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
        rpc_batches: d.rpc_batches,
        // The surviving session's server.
        per_shard: shards_since(&shards0, &io_a),
    }
}

/// The group size a fixed-depth server batches arrivals into (its
/// fixed depth), or 1 for the adaptive policy.
fn cfg_group(io: &ServerIo) -> usize {
    if io.cfg.is_adaptive() {
        1
    } else {
        io.cfg.batch_min
    }
}

/// Renders a `[a, b, c]` JSON array of numbers.
fn json_array(v: impl Iterator<Item = u64>) -> String {
    let items: Vec<String> = v.map(|n| n.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// Runs the sweep, prints a table per load shape, and writes
/// `BENCH_serving.json`. `quick` trims the op counts for CI smoke
/// runs.
pub fn run(scale: Scale, quick: bool) {
    header(
        "serving_bench",
        "shards x sub-batch policy x load shape x placement, cache-resident KVS GETs",
        "sharding drops the merge/reorder tax; adaptive depth rides the throughput \
         ceiling on steady load and the latency floor on trickle load; re-pinning \
         and stealing keep every shard productive under skewed and churning load",
    );
    let mut cells: Vec<Cell> = Vec::new();
    for load in ["steady", "bursty", "trickle", "skewed", "churn"] {
        println!(
            "   {:<8} {:<8} {:>6} {:>9} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "load", "policy", "shards", "balance", "busy c/op", "ops/s", "p50", "p95", "p99"
        );
        // The balance layer only matters (and only engages its steal
        // and re-pin machinery) on multi-shard skew, so the balanced
        // leg runs on the two shapes built to produce it.
        let balanced_shards: &[usize] = if matches!(load, "skewed" | "churn") {
            &[2, 4]
        } else {
            &[]
        };
        for (policy, cfg) in policies() {
            for (shards, balanced) in [1usize, 2, 4]
                .iter()
                .map(|&s| (s, false))
                .chain(balanced_shards.iter().map(|&s| (s, true)))
            {
                let c = cell(scale, shards, &policy, cfg.clone(), load, balanced, quick);
                println!(
                    "   {:<8} {:<8} {:>6} {:>9} {:>12.0} {:>10} {:>10} {:>10} {:>10}",
                    c.load,
                    c.policy,
                    c.shards,
                    c.balance,
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
    // chaos cell.
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
    for (policy, cfg) in policies() {
        if !matches!(policy.as_str(), "fixed-8" | "adaptive") {
            continue;
        }
        for (replicas, chaos) in [
            (1usize, "none"),
            (2, "none"),
            (3, "kill-respawn"),
            (3, "kill-respawn-bg"),
        ] {
            if chaos != "none" && policy != "adaptive" {
                continue;
            }
            let c = fleet_cell(scale, replicas, &policy, cfg.clone(), chaos, quick);
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
            assert_eq!(c.lost_replies, 0, "a failover must not lose replies");
            if chaos == "kill-respawn-bg" {
                assert!(
                    c.maint_chunks > 0,
                    "the maintenance plane must stream delta chunks"
                );
                assert!(
                    c.hb_misses > 0,
                    "the failure detector must observe the muted victim"
                );
            }
            cells.push(c);
        }
    }

    // Session sweep: epoch rotation intervals on the steady/adaptive/
    // 1-shard baseline, plus the mid-run revocation cell.
    println!(
        "   {:<8} {:<12} {:>12} {:>10} {:>8} {:>6} {:>6}",
        "session", "chaos", "busy c/op", "ops/s", "rekeys", "auth", "lost"
    );
    for (label, interval) in [
        ("rekey-inf", None),
        ("rekey-4096", Some(4096u64)),
        ("rekey-1024", Some(1024)),
        ("rekey-256", Some(256)),
    ] {
        let c = rekey_cell(scale, label, interval, quick);
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
        assert_eq!(c.lost_replies, 0, "epoch rotation must not lose replies");
        assert_eq!(c.auth_failures, 0, "the old epoch must drain, not drop");
        cells.push(c);
    }
    let c = revoke_cell(scale, quick);
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
    assert_eq!(
        c.lost_replies, 0,
        "the surviving session must lose zero replies"
    );
    assert!(
        c.auth_failures > 0,
        "the revoked session's queued traffic must be dropped and counted"
    );
    cells.push(c);

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"serving_sharded\",\n");
    json.push_str(&format!("  \"scale\": {},\n", scale.0));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"workers\": {WORKERS},\n"));
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let col = |f: fn(&ShardSnapshot) -> u64| json_array(c.per_shard.iter().map(f));
        json.push_str(&format!(
            "    {{ \"load\": \"{}\", \"policy\": \"{}\", \"shards\": {}, \
             \"balance\": \"{}\", \"replicas\": {}, \"chaos\": \"{}\", \"ops\": {}, \
             \"busy_cycles_per_op\": {:.1}, \"throughput_ops_s\": {:.1}, \
             \"lost_replies\": {}, \"failover_cycles\": {}, \"recovery_cycles\": {}, \
             \"replica_ops\": {}, \"maint_chunks\": {}, \"hb_misses\": {}, \
             \"maint_stall_cycles\": {}, \"rekeys\": {}, \"auth_failures\": {}, \
             \"sojourn_p50\": {}, \"sojourn_p95\": {}, \"sojourn_p99\": {}, \
             \"sojourn_count\": {}, \"rpc_batches\": {}, \
             \"shard_backlog\": {}, \"shard_depth\": {}, \
             \"steals_taken\": {}, \"steals_given\": {}, \
             \"migrations\": {}, \"shard_sojourn_p99\": {} }}{}\n",
            c.load,
            c.policy,
            c.shards,
            c.balance,
            c.replicas,
            c.chaos,
            c.ops,
            c.busy_cycles_per_op,
            c.throughput_ops_s,
            c.lost_replies,
            c.failover_cycles,
            c.recovery_cycles,
            json_array(c.replica_ops.iter().copied()),
            c.maint_chunks,
            c.hb_misses,
            c.maint_stall,
            c.rekeys,
            c.auth_failures,
            c.sojourn_p50,
            c.sojourn_p95,
            c.sojourn_p99,
            c.sojourn_count,
            c.rpc_batches,
            col(|s| s.backlog),
            col(|s| s.depth),
            col(|s| s.steals_taken),
            col(|s| s.steals_given),
            col(|s| s.migrations),
            col(|s| s.sojourn.p99()),
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = "BENCH_serving.json";
    std::fs::write(path, &json).expect("write BENCH_serving.json");
    println!("   wrote {path}");
}
