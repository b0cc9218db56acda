//! The replicated serving tier: a fleet of enclave replicas behind
//! the shard router.
//!
//! PR 6 sharded serving *within* one enclave: one reap→decrypt→serve→
//! seal→send pipeline per socket, connections pinned to shards. This
//! module lifts the same structure one level: a [`FleetKvs`] owns N
//! enclave replicas, and the [`ShardMap`] router gains a third hop —
//! connection → shard → **owning replica**. Each replica runs the full
//! pipeline over only its owned slice of the shared socket set
//! ([`ServerIo::recv_batch_on`]), so per-connection FIFO order is a
//! per-shard property exactly as before, just with shards partitioned
//! across enclaves instead of merged into one.
//!
//! # One state-transfer protocol
//!
//! Replica state leaves a store one way and enters one one way, for
//! delta rounds, failover and rejoin alike:
//!
//! 1. the sender seals its writes stamped `>= base` as a portable
//!    [`Snapshot`] under the fleet-shared [`Sealer`]
//!    ([`Kvs::snapshot_since`]) at a fresh transfer epoch;
//! 2. the frame goes onto the exit-less [`EnclaveChannel`] as one
//!    chunked transfer per recipient (`MSG_DELTA_BEGIN` carrying the
//!    epoch, then `MSG_DELTA_CHUNK`s) — ciphertext through untrusted
//!    memory, no host round-trip;
//! 3. each recipient reaps its copy, checks that both the clear
//!    header and the authenticated epoch inside the frame are the one
//!    step 1 just minted (the fence runs both halves, so it knows;
//!    anything else is a replay), and merges it ([`Kvs::try_restore`]).
//!
//! Everything read in step 3 sat in untrusted memory and is parsed
//! fallibly: a copy that fails framing, the epoch check or
//! authentication is refused whole, counted in `frame_rejects`, and
//! changes nothing on the receiver.
//!
//! # Two places it can run
//!
//! The byte-work is charged to whichever [`ThreadCtx`] it is handed,
//! and that is the *only* thing the maintenance plane changes:
//!
//! - without [`FleetConfig::maintenance`] it runs on the replicas' own
//!   serving threads, inside the fence, and every cycle is a
//!   serving-path stall (`maint_stall_cycles`). Nothing streams
//!   between fences, so a failover carries the whole store
//!   (`base = 0`), to the heir alone;
//! - with it, the same functions run on threads entered on the
//!   maintenance core (the shape of a SUVM swapper tick), driven by
//!   [`FleetKvs::maintenance_tick`] — which also runs what only exists
//!   off the serving path: a **failure detector** over per-replica
//!   heartbeats that calls kill/respawn itself, the replicas' engine
//!   byte-work ([`Kvs::maintenance_tick`], which serving-path fences
//!   then skip), and **delta rounds** streaming each replica's recent
//!   writes to every peer, so a failover shrinks to a *final delta*
//!   broadcast to all survivors.
//!
//! Replies are byte-identical either way, and the same bytes cross the
//! channel when the same state moves (`tests/fleet_equivalence.rs`).
//!
//! # Failover and rejoin
//!
//! Replica death is modeled at sub-batch fences — the only points
//! where the pipeline holds no half-served requests. [`FleetKvs::kill`]
//! has the victim (when SUVM-backed) [`quiesce`](Suvm::quiesce) its
//! secure memory, transfers its state,
//! and only once **every** recipient has merged it lets the enclave
//! die (the driver reclaims its EPC and sealed swap) and reassigns its
//! shards to the heir; a refused transfer stops short of that, the
//! victim keeps serving, and the caller is told. Nothing is lost
//! because host-side socket queues outlive the enclave: requests the
//! victim never reaped are still queued, and the heir — which merged
//! the victim's items first — reaps them in arrival order.
//!
//! [`FleetKvs::respawn`] brings a dead slot back as a **fresh**
//! enclave (new sealing identity — which is why snapshots are sealed
//! under the shared fleet key). The current owner of the slot's
//! original shards donates its whole store; the cold replica merges
//! it, takes its slot, and takes its shard slice back; a refused
//! donation tears the half-provisioned enclave down again. The owner —
//! not an arbitrary survivor — donates because its store is the one
//! that has been serving those connections.
//!
//! # Versioned merges
//!
//! Snapshots are whole-store images, so after a rejoin a donor still
//! carries copies of keys it no longer serves; if that donor is later
//! killed, its snapshot holds *stale* values for those keys. Every
//! restore therefore merges last-writer-wins on a per-item write stamp
//! ([`Kvs::set_write_version`]): stores advance to stamp `epoch + 1`
//! after every transfer, an epoch-`e` snapshot carries stamps at most
//! `e`, and a re-imported stale copy can never clobber the value a
//! fresher interval wrote (the kill A → respawn A → kill B schedule
//! exercises exactly this).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use eleos_core::{Snapshot, SnapshotError, Suvm, SuvmConfig};
use eleos_crypto::Sealer;
use eleos_enclave::enclave::Enclave;
use eleos_enclave::host::Fd;
use eleos_enclave::machine::SgxMachine;
use eleos_enclave::thread::ThreadCtx;
use eleos_rpc::channel::{EnclaveChannel, FrameError};
use eleos_sim::stats::Stats;

use crate::io::{IoPath, ServerIo, ServerIoConfig};
use crate::kvs::Kvs;
use crate::loadgen::ShardMap;
use crate::space::DataSpace;
use crate::wire::Session;

/// Channel message kind: a wire-session key-epoch announcement (4 LE
/// bytes) — the rekey initiator tells every peer which epoch now
/// seals replies, so a fleet never serves half its shards under a key
/// the router's client side has already retired.
pub const MSG_REKEY: u8 = 3;
/// Channel message kind: the BEGIN frame of a chunked state transfer
/// ([`EnclaveChannel::send_chunked`] framing; the header carries the
/// 8-byte transfer epoch).
pub const MSG_DELTA_BEGIN: u8 = 4;
/// Channel message kind: one bounded chunk of a state transfer.
pub const MSG_DELTA_CHUNK: u8 = 5;

/// Tunables for the background maintenance plane (see the module
/// docs). Enabling it ([`FleetConfig::with_maintenance`]) moves state
/// transfers, engine byte-work and failure handling onto
/// [`FleetKvs::maintenance_tick`], driven from `core`.
#[derive(Clone)]
pub struct MaintenanceConfig {
    /// The core the maintenance plane runs on. Must not be a serving
    /// core (the whole point is that its cycles never land on one) —
    /// not enforced, but benches that share it see the stall return.
    pub core: usize,
    /// Consecutive heartbeat-less ticks before the failure detector
    /// declares a serving replica dead and fails it over.
    pub hb_miss_threshold: u64,
    /// Chunk size for state transfers: bounds how much of the
    /// cross-enclave ring one descriptor covers. A fleet without the
    /// plane chunks at the default.
    pub chunk_bytes: usize,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        Self {
            core: 1,
            hb_miss_threshold: 3,
            chunk_bytes: 32 << 10,
        }
    }
}

/// Mutable maintenance-plane state, all behind one lock: the failure
/// detector's bookkeeping, per-sender delta bases, and the rejoin
/// queue.
struct MaintState {
    /// Heartbeat value last observed per replica.
    last_hb: Vec<u64>,
    /// Consecutive ticks without heartbeat progress per replica.
    misses: Vec<u64>,
    /// Per-sender write-stamp floor for the next delta: everything
    /// below it has already been streamed to every serving peer.
    delta_base: Vec<u64>,
    /// Dead slots queued for background respawn.
    rejoin: Vec<usize>,
    /// Maintenance-core cycles spent on detector-driven failovers.
    auto_failover_cycles: u64,
    /// Maintenance-core cycles spent on queued rejoins.
    auto_recovery_cycles: u64,
}

/// The per-fleet maintenance plane: config, lock-free heartbeat
/// counters (bumped by serving replicas on every pump), and the
/// locked state.
struct MaintPlane {
    cfg: MaintenanceConfig,
    hb: Vec<AtomicU64>,
    state: Mutex<MaintState>,
}

impl MaintPlane {
    fn new(cfg: MaintenanceConfig, replicas: usize) -> Self {
        Self {
            cfg,
            hb: (0..replicas).map(|_| AtomicU64::new(0)).collect(),
            state: Mutex::new(MaintState {
                last_hb: vec![0; replicas],
                misses: vec![0; replicas],
                delta_base: vec![0; replicas],
                rejoin: Vec::new(),
                auto_failover_cycles: 0,
                auto_recovery_cycles: 0,
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, MaintState> {
        self.state.lock().expect("maintenance state poisoned")
    }
}

/// Fleet-level tunables.
#[derive(Clone)]
pub struct FleetConfig {
    /// Number of replica slots.
    pub replicas: usize,
    /// Linear EPC bytes per replica enclave.
    pub linear_bytes: usize,
    /// Cross-enclave channel ring capacity. Every copy of a transfer
    /// is staged before the first is reaped, so it must hold one framed
    /// snapshot (plus a 24-byte descriptor) per recipient: the whole
    /// store once for a rejoin or a plane-less failover, a delta per
    /// serving peer with the plane.
    pub channel_cap: usize,
    /// Per-replica KVS value-pool limit.
    pub mem_limit: u64,
    /// Per-replica KVS hash buckets.
    pub buckets: u64,
    /// When set, each replica's kv data lives in its own SUVM
    /// instance (metadata stays clear, §5.1) and the replicas contend
    /// on the global EPC allocator; when `None`, kv data lives in
    /// enclave-linear memory.
    pub suvm: Option<SuvmConfig>,
    /// Serving cores: replica `r` runs on `cores[r % cores.len()]`.
    /// The default (`[0]`) time-multiplexes every replica over one
    /// serving core — deterministic, and directly comparable to the
    /// single-enclave pipeline. A real fleet gives each replica its
    /// own core; pair that with [`FleetKvs::sync_clocks`] barriers so
    /// per-op timestamps stay on one timebase.
    pub cores: Vec<usize>,
    /// The core that pays for replica-state byte-work. When set, state
    /// transfers and engine maintenance run on the maintenance plane's
    /// core and delta snapshots stream between fences; `None` runs the
    /// same code on the serving cores, inside the fences (see the
    /// module docs).
    pub maintenance: Option<MaintenanceConfig>,
}

impl FleetConfig {
    /// A small fleet sized for tests and benches: enclave-linear kv
    /// data, 1 MiB enclaves, a 4 MiB channel, every replica
    /// multiplexed on core 0.
    #[must_use]
    pub fn small(replicas: usize) -> Self {
        Self {
            replicas,
            linear_bytes: 1 << 20,
            channel_cap: 4 << 20,
            mem_limit: 8 << 20,
            buckets: 1024,
            suvm: None,
            cores: vec![0],
            maintenance: None,
        }
    }

    /// Enables the background maintenance plane.
    #[must_use]
    pub fn with_maintenance(mut self, m: MaintenanceConfig) -> Self {
        self.maintenance = Some(m);
        self
    }

    /// Pins replica serving loops to `cores` (round-robin when fewer
    /// cores than replicas).
    ///
    /// # Panics
    /// Panics when `cores` is empty.
    #[must_use]
    pub fn on_cores(mut self, cores: &[usize]) -> Self {
        assert!(!cores.is_empty(), "a fleet needs at least one serving core");
        self.cores = cores.to_vec();
        self
    }
}

/// A recipient refused a state transfer (see the module docs): the
/// bytes that came off the channel failed framing, the epoch check or
/// authentication. The recipient's store is as it was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRejected(pub &'static str);

impl From<FrameError> for TransferRejected {
    fn from(e: FrameError) -> Self {
        Self(e.0)
    }
}

impl From<SnapshotError> for TransferRejected {
    fn from(e: SnapshotError) -> Self {
        Self(e.0)
    }
}

/// What one failover cost.
#[derive(Debug, Clone, Copy)]
pub struct FailoverReport {
    /// The surviving replica that inherited the victim's shards.
    pub heir: usize,
    /// Shards reassigned at the fence.
    pub shards_moved: usize,
    /// Serialized snapshot size carried over the channel (per copy).
    pub snapshot_bytes: usize,
    /// Cycles the transfer's byte-work cost, from the victim's fence
    /// seal to the last recipient's merge — on the maintenance core
    /// with the plane, on the serving cores without.
    pub cycles: u64,
}

/// What one rejoin cost.
#[derive(Debug, Clone, Copy)]
pub struct RejoinReport {
    /// The serving replica that donated its state.
    pub donor: usize,
    /// Shards the rejoined replica took back.
    pub shards_taken: usize,
    /// Serialized snapshot size carried over the channel.
    pub snapshot_bytes: usize,
    /// Cycles from the donor's fence seal to the replica serving: the
    /// transfer's byte-work (maintenance core with the plane, serving
    /// cores without) plus wiring the fresh replica on its own core.
    pub cycles: u64,
}

/// One live replica: its thread, which owns the replica's enclave, its
/// pipelines over the shared socket set, and its store.
struct Replica {
    ctx: ThreadCtx,
    io: ServerIo,
    kvs: Kvs,
    suvm: Option<Arc<Suvm>>,
}

/// A live replica as its slot holds it, with a lock of its own: a serving
/// round parked in a receive never blocks a read of the live set.
type Live = Arc<parking_lot::Mutex<Replica>>;

/// A KVS served by a fleet of enclave replicas (see the module docs).
pub struct FleetKvs {
    machine: Arc<SgxMachine>,
    map: Arc<ShardMap>,
    chan: Arc<EnclaveChannel>,
    sealer: Arc<dyn Sealer>,
    cfg: FleetConfig,
    io_cfg: ServerIoConfig,
    path: IoPath,
    session: Arc<Session>,
    fds: Vec<Fd>,
    /// One slot per replica index: a replica is live exactly while its
    /// slot holds it (`new`, `kill` and `respawn` fill and empty slots).
    slots: Vec<Mutex<Option<Live>>>,
    /// Transfer epoch: bumped by every state transfer and carried,
    /// authenticated, inside the snapshot it stamps.
    epoch: AtomicU64,
    /// The background maintenance plane, when configured.
    maint: Option<MaintPlane>,
}

impl FleetKvs {
    /// Builds the fleet: `cfg.replicas` enclaves, each with its own
    /// [`ServerIo`] over the **same** socket set `fds` (reaping only
    /// owned shards) and its own [`Kvs`] seeded identically by
    /// `seed`. All replicas start serving; shard ownership starts
    /// round-robin ([`ShardMap::with_replicas`]).
    ///
    /// # Panics
    /// Panics when `cfg.replicas` is zero or the config/socket-set
    /// combination violates the [`ServerIoConfig::build`] invariants.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        machine: &Arc<SgxMachine>,
        fds: &[Fd],
        io_cfg: ServerIoConfig,
        path: IoPath,
        session: Arc<Session>,
        sealer: Arc<dyn Sealer>,
        cfg: FleetConfig,
        mut seed: impl FnMut(&mut ThreadCtx, &mut Kvs),
    ) -> Self {
        assert!(cfg.replicas > 0, "a fleet needs at least one replica");
        let enclaves: Vec<Arc<Enclave>> = (0..cfg.replicas)
            .map(|_| machine.driver.create_enclave(machine, cfg.linear_bytes))
            .collect();
        let map = ShardMap::with_replicas(fds.len(), cfg.replicas);
        let chan = EnclaveChannel::new(machine, cfg.channel_cap);
        let maint = cfg
            .maintenance
            .clone()
            .map(|m| MaintPlane::new(m, cfg.replicas));
        let this = Self {
            machine: Arc::clone(machine),
            map,
            chan,
            sealer,
            cfg,
            io_cfg,
            path,
            session,
            fds: fds.to_vec(),
            slots: Vec::new(),
            epoch: AtomicU64::new(0),
            maint,
        };
        let mut slots = Vec::with_capacity(this.cfg.replicas);
        for (r, enclave) in enclaves.iter().enumerate() {
            let mut rep = this.wire_replica(r, enclave);
            seed(&mut rep.ctx, &mut rep.kvs);
            // Seed items carry stamp 0 (identical in every replica);
            // serving-interval writes start at 1 so the versioned
            // restore merge can tell them apart.
            rep.kvs.set_write_version(1);
            slots.push(Mutex::new(Some(Arc::new(parking_lot::Mutex::new(rep)))));
        }
        Self { slots, ..this }
    }

    /// The core replica `r` serves on.
    fn core_of(&self, r: usize) -> usize {
        self.cfg.cores[r % self.cfg.cores.len()]
    }

    /// Replica `r`'s slot, locked only to read, fill or empty it.
    fn slot(&self, r: usize) -> std::sync::MutexGuard<'_, Option<Live>> {
        self.slots[r].lock().expect("fleet slot poisoned")
    }

    /// Runs `f` on replica `r` under the replica's own lock; `None`
    /// when `r` is dead.
    fn with_replica<T>(&self, r: usize, f: impl FnOnce(&mut Replica) -> T) -> Option<T> {
        let live = self.slot(r).clone()?;
        let out = f(&mut live.lock());
        Some(out)
    }

    /// The live replicas, in index order, read one slot at a time.
    fn live(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&r| self.slot(r).is_some())
            .collect()
    }

    /// Wires replica `r`'s runtime onto `enclave`, a fresh one not yet
    /// in a slot: an entered thread on the replica's serving core, a
    /// store, and pipelines over the full socket set.
    fn wire_replica(&self, r: usize, enclave: &Arc<Enclave>) -> Replica {
        let mut ctx = ThreadCtx::for_enclave(&self.machine, enclave, self.core_of(r));
        ctx.enter();
        let (data, suvm) = match &self.cfg.suvm {
            Some(suvm_cfg) => {
                let suvm = Suvm::new(&ctx, suvm_cfg.clone());
                (DataSpace::suvm(&suvm), Some(suvm))
            }
            None => (DataSpace::Enclave(Arc::clone(enclave)), None),
        };
        let meta = DataSpace::Untrusted(Arc::clone(&self.machine));
        let mut kvs = Kvs::new(meta, data, self.cfg.mem_limit, self.cfg.buckets);
        // With a plane, it — not the replica's fences — runs the
        // engine's maintenance tick.
        kvs.set_background(self.maint.is_some());
        kvs.init(&mut ctx);
        let io = self.io_cfg.clone().build(
            &ctx,
            &self.fds,
            self.path.clone(),
            Arc::clone(&self.session),
        );
        Replica { ctx, io, kvs, suvm }
    }

    /// The router (connection → shard → replica) shared with the load
    /// generator.
    #[must_use]
    pub fn map(&self) -> &Arc<ShardMap> {
        &self.map
    }

    /// The current transfer epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Rotates the fleet's wire-session key epoch at a fence.
    /// `initiator` retires any still-draining rotation, derives the
    /// next epoch key (double-buffered — no serving stall anywhere in
    /// the fleet) and announces the new epoch over the exit-less
    /// channel; every other serving replica acknowledges the
    /// announcement before its next reap, so no replica seals replies
    /// under an epoch its peers have not heard of. Returns the new
    /// epoch.
    ///
    /// # Errors
    /// A peer refused its announcement: what it read back off the
    /// channel — untrusted memory — was not a rekey message, was not
    /// four bytes, or did not carry the epoch just announced. The
    /// refusal is counted in `frame_rejects` and nothing of it is
    /// applied; every peer's copy is off the ring either way. The
    /// rotation itself stands (both epochs' keys are buffered, so
    /// nothing in flight is lost); the next rotation announces afresh.
    ///
    /// # Panics
    /// Panics when `initiator` is not serving, or when the shared
    /// session is not in a rotatable state (never established, or
    /// revoked).
    pub fn rekey_wire(&self, initiator: usize) -> Result<u32, TransferRejected> {
        let peers: Vec<usize> = self
            .live()
            .into_iter()
            .filter(|&r| r != initiator)
            .collect();
        let to = self
            .with_replica(initiator, |rep| {
                self.session.finish_rekey();
                self.session.begin_rekey(&mut rep.ctx);
                let to = self.session.epoch();
                for _ in &peers {
                    self.chan.send(&mut rep.ctx, MSG_REKEY, &to.to_le_bytes());
                }
                to
            })
            .unwrap_or_else(|| panic!("rekey initiator {initiator} must be serving"));
        let mut heard = Ok(to);
        for &r in &peers {
            let heard_back = self.with_replica(r, |rep| self.chan.recv(&mut rep.ctx));
            let refusal = match heard_back.flatten() {
                Some((MSG_REKEY, eb)) => match <[u8; 4]>::try_from(eb) {
                    Ok(eb) if u32::from_le_bytes(eb) == to => continue,
                    Ok(_) => "not the epoch this fence announced",
                    Err(_) => "truncated rekey announcement",
                },
                _ => "expected a rekey announcement",
            };
            Stats::bump(&self.machine.stats.frame_rejects);
            heard = Err(TransferRejected(refusal));
        }
        heard
    }

    /// Runs one serving round: every serving replica reaps its owned
    /// shards, serves the batch, and sends the replies. Returns the
    /// number of requests handled across the fleet.
    pub fn pump(&self) -> usize {
        let mut total = 0;
        for r in 0..self.slots.len() {
            total += self.pump_replica(r);
        }
        total
    }

    /// One serving round for replica `r` alone (0 when it is not
    /// serving or owns no shards).
    pub fn pump_replica(&self, r: usize) -> usize {
        self.with_replica(r, |rep| {
            // A pumped replica is a live replica: the heartbeat feeds the
            // background failure detector (a mute replica stops bumping
            // and gets failed over after `hb_miss_threshold` ticks).
            if let Some(mp) = &self.maint {
                mp.hb[r].fetch_add(1, Ordering::Relaxed);
            }
            let owned = self.map.shards_of(r);
            if owned.is_empty() {
                return 0;
            }
            rep.kvs.handle_batch_on(&mut rep.ctx, &rep.io, &owned)
        })
        .unwrap_or(0)
    }

    /// Runs `work` — a replica's share of replica-state byte-work — on
    /// the core this fleet bills such work to, and returns its result
    /// with the cycles it cost: a thread entered in `own`'s enclave on
    /// the maintenance core for the duration (the shape of a SUVM
    /// swapper tick) with the plane; without it `own`, the replica's
    /// serving thread, where every cycle is a serving-path stall
    /// (`maint_stall_cycles`). Which [`ThreadCtx`] the work gets is the
    /// whole difference between the two modes.
    fn on_work_core<T>(
        &self,
        own: &mut ThreadCtx,
        work: impl FnOnce(&mut ThreadCtx) -> T,
    ) -> (T, u64) {
        let Some(mp) = &self.maint else {
            let t0 = own.now();
            let out = work(own);
            let cycles = own.now() - t0;
            Stats::add(&self.machine.stats.maint_stall_cycles, cycles);
            return (out, cycles);
        };
        let clock = &self.machine.core(mp.cfg.core).clock;
        let t0 = clock.now();
        let mut ctx = ThreadCtx::for_enclave(&self.machine, enclave_of(own), mp.cfg.core);
        ctx.enter();
        let out = work(&mut ctx);
        ctx.exit();
        (out, clock.now() - t0)
    }

    /// Sender half of every state transfer: seals replica `r`'s writes
    /// stamped `>= base` at a fresh epoch and stages `copies` chunked
    /// copies on the channel. `at_fence` first quiesces `r`'s SUVM —
    /// kill and respawn transfer at a fence, delta rounds between them.
    /// Returns the epoch minted, the framed size of one copy and the
    /// cycles spent.
    ///
    /// # Panics
    /// Panics when `r` is dead: it has no state to send.
    fn send_state(&self, r: usize, base: u64, copies: usize, at_fence: bool) -> (u64, usize, u64) {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let chunk_bytes = self.cfg.maintenance.clone().unwrap_or_default().chunk_bytes;
        let Some(live) = self.slot(r).clone() else {
            panic!("replica {r} is not serving");
        };
        let Replica { ctx, kvs, suvm, .. } = &mut *live.lock();
        let enclave_id = enclave_of(ctx).id;
        let (len, cycles) = self.on_work_core(ctx, |ctx| {
            if at_fence {
                if let Some(suvm) = suvm {
                    suvm.quiesce(ctx);
                }
            }
            let bytes = kvs
                .snapshot_since(ctx, self.sealer.as_ref(), enclave_id, epoch, base)
                .to_bytes();
            for _ in 0..copies {
                self.chan.send_chunked(
                    ctx,
                    MSG_DELTA_BEGIN,
                    MSG_DELTA_CHUNK,
                    &epoch.to_le_bytes(),
                    &bytes,
                    chunk_bytes,
                );
            }
            bytes.len()
        });
        (epoch, len, cycles)
    }

    /// Receiver half of every state transfer: reaps one chunked copy
    /// off the channel and merges it into `rep` (a replica's store,
    /// installed in its slot or — for a rejoiner — not yet). Returns
    /// the cycles spent.
    ///
    /// Everything read here crossed untrusted memory. A copy that
    /// fails chunk framing, does not parse, is not the transfer
    /// [`Self::send_state`] just sealed at `epoch` (a replay), or fails
    /// authentication is refused whole: counted in `frame_rejects`,
    /// store untouched. The copy is off the channel either way.
    fn recv_state(&self, rep: &mut Replica, epoch: u64) -> Result<u64, TransferRejected> {
        let Replica { ctx, kvs, .. } = rep;
        let (merged, cycles) = self.on_work_core(ctx, |ctx| {
            let (header, payload) =
                self.chan
                    .recv_chunked(ctx, MSG_DELTA_BEGIN, MSG_DELTA_CHUNK)?;
            let snap = Snapshot::from_bytes(&payload)?;
            // The frame's epoch is authenticated into every section,
            // so an older transfer cannot be relabelled to pass this.
            if header != epoch.to_le_bytes() || snap.epoch() != epoch {
                return Err(TransferRejected("not the transfer this fence sealed"));
            }
            kvs.try_restore(ctx, self.sealer.as_ref(), &snap)?;
            Ok(())
        });
        if merged.is_err() {
            Stats::bump(&self.machine.stats.frame_rejects);
        }
        merged.map(|()| cycles)
    }

    /// Kills `victim` at a fence: its state transfers to the survivors
    /// over the channel, then its EPC is reclaimed and its shards
    /// drain to the heir (see the module docs for the protocol and why
    /// no reply is lost). With the maintenance plane the byte-work
    /// runs on the maintenance core and is a final delta to every
    /// survivor; without it, it runs on the victim's and the heir's
    /// serving cores and is the whole store to the heir.
    ///
    /// # Errors
    /// A recipient refused its copy. The victim is still serving and
    /// still owns its shards; the next delta round or a retry re-sends.
    ///
    /// # Panics
    /// Panics when `victim` is not serving or no other replica is.
    pub fn kill(&self, victim: usize) -> Result<FailoverReport, TransferRejected> {
        let mut recipients: Vec<usize> = self.live().into_iter().filter(|&r| r != victim).collect();
        let heir = *recipients
            .first()
            .expect("failover needs a surviving replica");
        // Delta rounds keep every serving store holding all streamed
        // state, which is what lets any survivor donate or inherit in
        // a later fence — so the final delta goes to all of them.
        // Without the rounds only the heir needs the victim's state,
        // and needs all of it.
        let base = match &self.maint {
            Some(mp) => mp.state().delta_base[victim],
            None => {
                recipients.truncate(1);
                0
            }
        };
        let (epoch, snapshot_bytes, mut cycles) =
            self.send_state(victim, base, recipients.len(), true);
        Stats::bump(&self.machine.stats.fleet_snapshots);
        // Every staged copy is reaped, past a refusal too: the channel
        // is empty again whatever happens.
        let mut outcome = Ok(());
        for &q in &recipients {
            match self.with_replica(q, |rep| self.recv_state(rep, epoch)) {
                Some(Ok(spent)) => {
                    cycles += spent;
                    Stats::bump(&self.machine.stats.fleet_restores);
                }
                Some(Err(refused)) => outcome = Err(refused),
                None => {}
            }
        }
        // Some recipients may hold the transfer even if one refused
        // it: close the write interval it was sealed in either way.
        self.advance_write_versions();
        outcome?;
        // Only now — its state merged wherever it was sent, before the
        // heir's next reap of the acquired shards — does the victim
        // die: its thread exits, then its enclave is destroyed.
        // Merge-then-own is the failover correctness invariant.
        let dead = self.slot(victim).take();
        if let Some(live) = dead {
            let mut rep = live.lock();
            rep.ctx.exit();
            self.machine
                .driver
                .destroy_enclave(&self.machine, enclave_of(&rep.ctx));
        }
        Stats::bump(&self.machine.stats.fleet_failovers);
        let moved = self.map.shards_of(victim);
        for &s in &moved {
            self.map.reassign(s, heir);
        }
        Ok(FailoverReport {
            heir,
            shards_moved: moved.len(),
            snapshot_bytes,
            cycles,
        })
    }

    /// Respawns dead slot `idx` as a fresh enclave that merges the
    /// shard-owner's donated store and takes its original shard slice
    /// back (see the module docs). The byte-work runs where
    /// [`Self::kill`]'s does.
    ///
    /// # Errors
    /// The rejoiner refused the donation. Its half-provisioned enclave
    /// is destroyed and the slot is dead again, free to retry.
    ///
    /// # Panics
    /// Panics when `idx` is not dead or no donor is serving.
    pub fn respawn(&self, idx: usize) -> Result<RejoinReport, TransferRejected> {
        // The donor must be the current owner of the slot's original
        // shards: its store is the one serving those connections, so
        // it supersets everything the rejoining replica needs. (All
        // shards of one residue class always move together, so one
        // probe suffices; an empty class falls back to any server.)
        let class: Vec<usize> = (0..self.fds.len())
            .filter(|s| s % self.cfg.replicas == idx)
            .collect();
        let donor = class.first().map_or_else(
            || *self.live().first().expect("rejoin needs a donor"),
            |&s| self.map.replica_of(s),
        );
        assert!(self.slot(idx).is_none(), "respawn target {idx} is serving");
        // A fresh enclave (new id, new sealing identity), created before
        // the donor seals: ids and allocation order feed the cycles.
        let m = &self.machine;
        let enclave = m.driver.create_enclave(m, self.cfg.linear_bytes);
        // The whole store (base 0): the donor holds all streamed state
        // plus its own unstreamed writes, so the rejoiner comes back
        // fully caught up.
        let (epoch, snapshot_bytes, send_cycles) = self.send_state(donor, 0, 1, true);
        Stats::bump(&self.machine.stats.fleet_snapshots);
        let wire_clock = &self.machine.core(self.core_of(idx)).clock;
        let t0 = wire_clock.now();
        let mut rep = self.wire_replica(idx, &enclave);
        let wire_cycles = wire_clock.now() - t0;
        let recv_cycles = match self.recv_state(&mut rep, epoch) {
            Ok(spent) => spent,
            Err(refused) => {
                rep.ctx.exit();
                m.driver.destroy_enclave(m, &enclave);
                return Err(refused);
            }
        };
        Stats::bump(&self.machine.stats.fleet_restores);
        *self.slot(idx) = Some(Arc::new(parking_lot::Mutex::new(rep)));
        for &s in &class {
            self.map.reassign(s, idx);
        }
        self.advance_write_versions();
        if let Some(mp) = &self.maint {
            // Caught up through this transfer; the donor keeps
            // streaming its own unstreamed interval, so the rejoiner's
            // delta base starts at the fresh write interval — and the
            // detector starts it with a clean record.
            let mut st = mp.state();
            st.delta_base[idx] = self.epoch() + 1;
            st.misses[idx] = 0;
            st.last_hb[idx] = mp.hb[idx].load(Ordering::Relaxed);
        }
        Ok(RejoinReport {
            donor,
            shards_taken: class.len(),
            snapshot_bytes,
            cycles: send_cycles + wire_cycles + recv_cycles,
        })
    }

    /// Moves every live replica's store into the post-transfer write
    /// interval: writes stamped `epoch + 1` supersede everything an
    /// epoch-`epoch` snapshot carries, which is what keeps the
    /// versioned restore merge last-writer-wins when a store's state
    /// bounces through several replicas (kill A, respawn A, kill B).
    fn advance_write_versions(&self) {
        let interval = self.epoch() + 1;
        for r in 0..self.slots.len() {
            self.with_replica(r, |rep| rep.kvs.set_write_version(interval));
        }
    }

    /// Advances every serving core's clock (plus core `cores[0]`, the
    /// fleet timebase) to the furthest one — the idle wait at a
    /// barrier where all replicas have drained their chunk and the
    /// load generator stamps the next one. A no-op for a multiplexed
    /// fleet (one core). Returns the barrier time.
    pub fn sync_clocks(&self) -> u64 {
        let mut cores: Vec<usize> = self.live().into_iter().map(|r| self.core_of(r)).collect();
        cores.push(self.cfg.cores[0]);
        cores.sort_unstable();
        cores.dedup();
        let target = cores
            .iter()
            .map(|&c| self.machine.core(c).clock.now())
            .max()
            .unwrap_or(0);
        for &c in &cores {
            let clock = &self.machine.core(c).clock;
            clock.advance(target - clock.now());
        }
        target
    }

    /// Maintenance-core cycles spent on detector-driven failovers so
    /// far (0 without the plane).
    #[must_use]
    pub fn auto_failover_cycles(&self) -> u64 {
        self.maint
            .as_ref()
            .map_or(0, |mp| mp.state().auto_failover_cycles)
    }

    /// Maintenance-core cycles spent on queued rejoins so far (0
    /// without the plane).
    #[must_use]
    pub fn auto_recovery_cycles(&self) -> u64 {
        self.maint
            .as_ref()
            .map_or(0, |mp| mp.state().auto_recovery_cycles)
    }

    /// Queues dead slot `idx` for background respawn at the next
    /// maintenance tick (the off-path analogue of calling
    /// [`Self::respawn`] at a fence).
    ///
    /// # Panics
    /// Panics without the maintenance plane.
    pub fn request_rejoin(&self, idx: usize) {
        let mp = self
            .maint
            .as_ref()
            .expect("rejoin queue needs the maintenance plane");
        mp.state().rejoin.push(idx);
    }

    /// One pass of the background maintenance plane, run on the
    /// maintenance core by whoever paces it (the serving bench between
    /// rounds, the fleet tests at chosen points, a thread of its own in
    /// the concurrency test):
    ///
    /// 1. the failure detector compares heartbeats against the last
    ///    tick and fails over ([`Self::kill`]) replicas that missed
    ///    `hb_miss_threshold` consecutive ticks;
    /// 2. queued rejoins ([`Self::request_rejoin`]) respawn
    ///    ([`Self::respawn`]);
    /// 3. every serving replica's engine runs its byte-work
    ///    ([`Kvs::maintenance_tick`]: slab relocations) against the
    ///    maintenance core;
    /// 4. a delta round streams each replica's writes since its last
    ///    delta to every serving peer, then opens the next write
    ///    interval.
    ///
    /// A kill or rejoin whose transfer is refused is retried at the
    /// next tick. Returns whether any work ran. A no-op without the
    /// plane.
    pub fn maintenance_tick(&self) -> bool {
        let Some(mp) = &self.maint else {
            return false;
        };
        let clock = &self.machine.core(mp.cfg.core).clock;
        let mut did = false;
        // 1. Failure detector: heartbeat progress since the last tick.
        // The scan itself costs maintenance-core cycles.
        let mut victims = Vec::new();
        {
            let mut st = mp.state();
            for r in self.live() {
                clock.advance(self.machine.cfg.costs.maint_heartbeat);
                let cur = mp.hb[r].load(Ordering::Relaxed);
                if cur == st.last_hb[r] {
                    st.misses[r] += 1;
                    Stats::bump(&self.machine.stats.hb_misses);
                    if st.misses[r] >= mp.cfg.hb_miss_threshold {
                        victims.push(r);
                    }
                } else {
                    st.last_hb[r] = cur;
                    st.misses[r] = 0;
                }
            }
        }
        for v in victims {
            if self.live().len() < 2 || self.slot(v).is_none() {
                continue;
            }
            let t0 = clock.now();
            let killed = self.kill(v).is_ok();
            let mut st = mp.state();
            if killed {
                st.misses[v] = 0;
            }
            st.auto_failover_cycles += clock.now() - t0;
            did = true;
        }
        // 2. Queued rejoins.
        let pending = std::mem::take(&mut mp.state().rejoin);
        for idx in pending {
            if self.slot(idx).is_some() {
                continue;
            }
            let t0 = clock.now();
            let rejoined = self.respawn(idx).is_ok();
            let mut st = mp.state();
            if !rejoined {
                st.rejoin.push(idx);
            }
            st.auto_recovery_cycles += clock.now() - t0;
            did = true;
        }
        // 3. Engine byte-work: the replicas' fences only counted
        // themselves; the copies happen here.
        for r in 0..self.slots.len() {
            did |= self
                .with_replica(r, |rep| {
                    let kvs = &mut rep.kvs;
                    self.on_work_core(&mut rep.ctx, |ctx| kvs.maintenance_tick(ctx))
                        .0
                })
                .unwrap_or(false);
        }
        // 4. Delta round: one incremental snapshot per serving replica
        // to every serving peer. Each round shrinks what a later kill
        // fence must carry to the writes since this round.
        let serving = self.live();
        if serving.len() < 2 {
            return did;
        }
        for &r in &serving {
            let base = mp.state().delta_base[r];
            let (epoch, ..) = self.send_state(r, base, serving.len() - 1, false);
            let mut delivered = true;
            for &q in serving.iter().filter(|&&q| q != r) {
                let merged = self.with_replica(q, |rep| self.recv_state(rep, epoch));
                delivered &= matches!(merged, Some(Ok(_)));
            }
            // Open the next write interval: post-round writes carry
            // strictly larger stamps than anything just streamed, so
            // a rewrite of a streamed key is never mistaken for the
            // streamed copy. A peer that refused its copy keeps `r`'s
            // base where it was: the next round re-sends.
            self.advance_write_versions();
            if delivered {
                mp.state().delta_base[r] = self.epoch() + 1;
            }
        }
        true
    }
}

/// The enclave a replica's thread is bound to. A replica's thread is
/// always built by [`ThreadCtx::for_enclave`], so it has one.
fn enclave_of(ctx: &ThreadCtx) -> &Arc<Enclave> {
    ctx.enclave().expect("a replica thread has an enclave")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_crypto::gcm::AesGcm128;
    use eleos_enclave::machine::MachineConfig;
    use eleos_rpc::{with_syscalls, RpcService};

    use crate::kvs::{build_get, build_set};
    use crate::loadgen::shard_for;

    const SHARDS: usize = 4;

    type Rig = (Arc<SgxMachine>, Arc<Session>, Vec<Fd>, FleetKvs);

    fn fleet_with(replicas: usize, cfg: FleetConfig, sealer: Arc<dyn Sealer>) -> Rig {
        fleet_over(SHARDS, replicas, cfg, sealer)
    }

    fn fleet_over(
        shards: usize,
        replicas: usize,
        cfg: FleetConfig,
        sealer: Arc<dyn Sealer>,
    ) -> Rig {
        let m = SgxMachine::new(MachineConfig::tiny());
        let ut = ThreadCtx::untrusted(&m, 1);
        let fds: Vec<Fd> = (0..shards).map(|_| m.host.socket(&ut, 256 << 10)).collect();
        let svc = with_syscalls(RpcService::builder(&m), &m)
            .workers(2, &[2, 3])
            .build();
        let wire = Arc::new(Session::established([9u8; 16]));
        let fk = FleetKvs::new(
            &m,
            &fds,
            ServerIoConfig::with_buf_len(16 << 10).batch(4),
            IoPath::Rpc(Arc::new(svc)),
            Arc::clone(&wire),
            sealer,
            FleetConfig { replicas, ..cfg },
            |ctx, kvs| {
                for i in 0..32u32 {
                    kvs.set(ctx, format!("seed-{i}").as_bytes(), &[i as u8; 48]);
                }
            },
        );
        (m, wire, fds, fk)
    }

    fn plane_off() -> FleetConfig {
        FleetConfig::small(0)
    }

    fn plane_on() -> FleetConfig {
        FleetConfig::small(0).with_maintenance(MaintenanceConfig {
            core: 1,
            hb_miss_threshold: 3,
            chunk_bytes: 4 << 10,
        })
    }

    fn fleet(replicas: usize) -> Rig {
        fleet_with(
            replicas,
            plane_off(),
            Arc::new(AesGcm128::new(&[0x44u8; 16])),
        )
    }

    fn fleet_bg(replicas: usize) -> Rig {
        fleet_with(
            replicas,
            plane_on(),
            Arc::new(AesGcm128::new(&[0x44u8; 16])),
        )
    }

    /// Serves one SET of `key` through the shard of `fds` that replica
    /// `owner` owns.
    fn serve_set(rig: &Rig, owner: usize, key: &[u8], value: &[u8]) {
        let (m, wire, fds, fk) = rig;
        let ut = ThreadCtx::untrusted(m, 1);
        let s = (0..SHARDS)
            .find(|&s| fk.map().replica_of(s) == owner)
            .unwrap();
        m.host
            .push_request(&ut, fds[s], &wire.encrypt(&build_set(key, value)));
        while fk.pump() == 0 {}
        assert_eq!(wire.decrypt(&m.host.pop_response(fds[s]).unwrap()), [1u8]);
    }

    /// What replica `r`'s store holds for `key`.
    fn stored(fk: &FleetKvs, r: usize, key: &[u8]) -> Option<Vec<u8>> {
        fk.with_replica(r, |rep| rep.kvs.get(&mut rep.ctx, key))
            .unwrap()
    }

    /// The fleet sealer, except that while `armed` it flips one bit of
    /// every ciphertext it produces — what a hostile host does to a
    /// chunk resting in the channel ring.
    struct TamperingSealer {
        inner: AesGcm128,
        armed: std::sync::atomic::AtomicBool,
    }

    impl Sealer for TamperingSealer {
        fn name(&self) -> &'static str {
            "tampering"
        }

        fn seal_batch(&self, jobs: &mut [eleos_crypto::sealer::SealJob<'_>]) -> Vec<[u8; 16]> {
            let tags = self.inner.seal_batch(jobs);
            if self.armed.load(Ordering::Relaxed) {
                for job in jobs.iter_mut() {
                    job.data[0] ^= 1;
                }
            }
            tags
        }

        fn open_batch(
            &self,
            jobs: &mut [eleos_crypto::sealer::OpenJob<'_>],
        ) -> Result<(), eleos_crypto::sealer::BatchAuthError> {
            self.inner.open_batch(jobs)
        }
    }

    fn hostile_fleet(replicas: usize, cfg: FleetConfig) -> (Arc<TamperingSealer>, Rig) {
        let sealer = Arc::new(TamperingSealer {
            inner: AesGcm128::new(&[0x44u8; 16]),
            armed: false.into(),
        });
        let rig = fleet_with(replicas, cfg, Arc::clone(&sealer) as Arc<dyn Sealer>);
        (sealer, rig)
    }

    #[test]
    fn fleet_serves_seeded_gets_across_replicas() {
        // Two replicas over four shards, and a fleet wider than any
        // fixed stat grid ever was: five replicas, one shard each.
        for (shards, replicas) in [(SHARDS, 2), (5, 5)] {
            let sealer = Arc::new(AesGcm128::new(&[0x44u8; 16]));
            let (m, wire, fds, fk) = fleet_over(shards, replicas, plane_off(), sealer);
            let ut = ThreadCtx::untrusted(&m, 1);
            for (s, &fd) in fds.iter().enumerate() {
                for i in 0..2 {
                    let get = build_get(format!("seed-{}", 2 * s + i).as_bytes());
                    m.host.push_request(&ut, fd, &wire.encrypt(&get));
                }
            }
            let mut served = vec![0usize; replicas];
            for _ in 0..32 {
                for (r, n) in served.iter_mut().enumerate() {
                    *n += fk.pump_replica(r);
                }
            }
            for (s, &fd) in fds.iter().enumerate() {
                let mut got = 0;
                while let Some(resp) = m.host.pop_response(fd) {
                    let plain = wire.decrypt(&resp);
                    assert_eq!(plain[0], 1, "seeded key must be found");
                    got += 1;
                }
                assert_eq!(got, 2, "shard {s} answers everything it queued");
            }
            // Every replica did exactly its shards' share of the work.
            assert_eq!(served, vec![2 * shards / replicas; replicas]);
        }
    }

    #[test]
    fn kill_drains_shards_to_the_heir_with_state() {
        let (m, wire, fds, fk) = fleet(2);
        let ut = ThreadCtx::untrusted(&m, 1);
        // A SET routed to a replica-1 shard, then a kill, then a GET of
        // the same key: the heir must serve it from the restored state.
        let conn = (0..64u64).find(|&c| shard_for(c, SHARDS) % 2 == 1).unwrap();
        let s = shard_for(conn, SHARDS);
        assert_eq!(fk.map().replica_of(s), 1);
        m.host
            .push_request(&ut, fds[s], &wire.encrypt(&build_set(b"fresh", &[7u8; 32])));
        while fk.pump() == 0 {}
        assert_eq!(wire.decrypt(&m.host.pop_response(fds[s]).unwrap()), [1u8]);

        let report = fk.kill(1).unwrap();
        assert_eq!(report.heir, 0);
        assert_eq!(report.shards_moved, 2);
        assert!(report.snapshot_bytes > 0);
        assert!(report.cycles > 0);
        assert_eq!(fk.live(), [0]);
        assert_eq!(fk.map().shards_of(0), vec![0, 1, 2, 3]);

        m.host
            .push_request(&ut, fds[s], &wire.encrypt(&build_get(b"fresh")));
        let mut served = 0;
        while served == 0 {
            served = fk.pump();
        }
        let plain = wire.decrypt(&m.host.pop_response(fds[s]).unwrap());
        assert_eq!(plain[0], 1, "heir must hold the victim's item");
        assert_eq!(&plain[5..], [7u8; 32]);
        let st = m.stats.snapshot();
        assert_eq!(st.fleet_failovers, 1);
        assert_eq!(st.fleet_snapshots, 1);
        assert_eq!(st.fleet_restores, 1);
    }

    #[test]
    fn respawn_restores_from_the_shard_owner_and_takes_shards_back() {
        let (m, wire, fds, fk) = fleet(3);
        let ut = ThreadCtx::untrusted(&m, 1);
        fk.kill(1).unwrap();
        // Post-kill load lands on the heir; the rejoining replica must
        // see it, which is why the donor is the shard owner.
        let conn = (0..64u64).find(|&c| shard_for(c, SHARDS) == 1).unwrap();
        m.host.push_request(
            &ut,
            fds[1],
            &wire.encrypt(&build_set(b"after-kill", &[9u8; 16])),
        );
        let _ = conn;
        while fk.pump() == 0 {}
        while m.host.pop_response(fds[1]).is_some() {}

        let report = fk.respawn(1).unwrap();
        assert_eq!(report.donor, 0, "shard 1's owner donates");
        assert_eq!(
            report.shards_taken, 1,
            "4 shards over 3 replicas: class 1 = {{1}}"
        );
        assert!(report.cycles > 0);
        assert_eq!(fk.live(), [0, 1, 2]);
        assert_eq!(fk.map().replica_of(1), 1);

        m.host
            .push_request(&ut, fds[1], &wire.encrypt(&build_get(b"after-kill")));
        let mut served = 0;
        while served == 0 {
            served = fk.pump();
        }
        let plain = wire.decrypt(&m.host.pop_response(fds[1]).unwrap());
        assert_eq!(plain[0], 1, "rejoined replica holds post-kill state");
        let st = m.stats.snapshot();
        assert_eq!(st.fleet_restores, 2);
        assert!(
            st.xchan_msgs >= 4,
            "two transfers (descriptor + chunk each) crossed the channel"
        );
    }

    #[test]
    #[should_panic(expected = "needs a surviving replica")]
    fn kill_of_the_last_replica_fails_fast() {
        let (_m, _wire, _fds, fk) = fleet(1);
        let _ = fk.kill(0);
    }

    #[test]
    #[should_panic(expected = "replica 1 is not serving")]
    fn kill_of_a_dead_replica_fails_fast() {
        let (_m, _wire, _fds, fk) = fleet(3);
        fk.kill(1).unwrap();
        let _ = fk.kill(1);
    }

    #[test]
    #[should_panic(expected = "respawn target 1 is serving")]
    fn respawn_of_a_live_replica_fails_fast() {
        let (_m, _wire, _fds, fk) = fleet(2);
        let _ = fk.respawn(1);
    }

    #[test]
    fn fleet_rekey_announces_the_epoch_and_keeps_serving() {
        let (m, wire, fds, fk) = fleet(3);
        let ut = ThreadCtx::untrusted(&m, 1);
        let push_gets = || {
            for conn in 0..8u64 {
                let s = shard_for(conn, SHARDS);
                let key = format!("seed-{}", conn % 32);
                m.host
                    .push_request(&ut, fds[s], &wire.encrypt(&build_get(key.as_bytes())));
            }
        };
        let s0 = m.stats.snapshot();
        push_gets();
        let mut served = 0;
        while served < 8 {
            served += fk.pump();
        }
        let to = fk.rekey_wire(0).expect("honest channel");
        assert_eq!(to, 1, "first wire rotation lands on epoch 1");
        assert_eq!(wire.epoch(), 1);
        // Epoch-0 messages queued before the announcement still drain;
        // post-rekey arrivals seal under epoch 1.
        push_gets();
        while served < 16 {
            served += fk.pump();
        }
        let mut answered = 0;
        for &fd in &fds {
            while let Some(resp) = m.host.pop_response(fd) {
                assert_eq!(wire.decrypt(&resp)[0], 1, "seeded key must be found");
                answered += 1;
            }
        }
        assert_eq!(answered, 16, "no reply lost across the rotation");
        let d = m.stats.snapshot() - s0;
        assert_eq!(d.rekeys, 1);
        assert_eq!(d.auth_failures, 0);
        assert_eq!(
            d.xchan_msgs, 2,
            "one announcement per non-initiating replica"
        );
    }

    #[test]
    fn epoch_advances_monotonically_across_fences() {
        let (_m, _wire, _fds, fk) = fleet(3);
        assert_eq!(fk.epoch(), 0);
        fk.kill(2).unwrap();
        assert_eq!(fk.epoch(), 1);
        fk.respawn(2).unwrap();
        assert_eq!(fk.epoch(), 2);
        fk.kill(1).unwrap();
        assert_eq!(fk.epoch(), 3);
    }

    #[test]
    fn delta_rounds_stream_writes_to_peers_in_chunks() {
        let (m, wire, fds, fk) = fleet_bg(2);
        let ut = ThreadCtx::untrusted(&m, 1);
        // A SET routed to replica 0, then one maintenance tick: the
        // delta round must land the item in replica 1's store without
        // any fence.
        let s = (0..SHARDS).find(|&s| fk.map().replica_of(s) == 0).unwrap();
        m.host.push_request(
            &ut,
            fds[s],
            &wire.encrypt(&build_set(b"delta-key", &[5u8; 40])),
        );
        while fk.pump() == 0 {}
        while m.host.pop_response(fds[s]).is_some() {}
        assert!(fk.maintenance_tick(), "a delta round is work");
        assert_eq!(
            stored(&fk, 1, b"delta-key").unwrap(),
            vec![5u8; 40],
            "peer must hold the streamed item"
        );
        let st = m.stats.snapshot();
        assert!(st.maint_chunks > 0, "deltas travel chunked");
        assert!(
            st.snapshot_delta_items >= 1,
            "the delta carried the fresh item"
        );
        // No failover snapshot/restore happened.
        assert_eq!(st.fleet_snapshots, 0);
        assert_eq!(st.fleet_restores, 0);
        // A later background kill carries only the final delta.
        let report = fk.kill(0).unwrap();
        assert_eq!(report.heir, 1);
        assert_eq!(m.stats.snapshot().fleet_failovers, 1);
    }

    #[test]
    fn failure_detector_kills_a_mute_replica_and_rejoin_recovers_it() {
        let (m, wire, fds, fk) = fleet_bg(2);
        let ut = ThreadCtx::untrusted(&m, 1);
        // Replica 1 goes mute: only replica 0 pumps. After three
        // heartbeat-less ticks the detector fails it over.
        for round in 0..3 {
            fk.pump_replica(0);
            fk.maintenance_tick();
            if round < 2 {
                assert_eq!(fk.live(), [0, 1]);
            }
        }
        assert_eq!(fk.live(), [0]);
        assert_eq!(fk.map().shards_of(0), vec![0, 1, 2, 3]);
        let st = m.stats.snapshot();
        assert!(st.hb_misses >= 3, "each tick counted the miss");
        assert_eq!(st.fleet_failovers, 1);
        assert!(fk.auto_failover_cycles() > 0, "failover cost maint cycles");

        // A queued rejoin brings the slot back at the next tick, and
        // it serves restored state.
        fk.request_rejoin(1);
        fk.pump_replica(0);
        fk.maintenance_tick();
        assert_eq!(fk.live(), [0, 1]);
        assert!(fk.auto_recovery_cycles() > 0, "rejoin cost maint cycles");
        let s = (0..SHARDS).find(|&s| fk.map().replica_of(s) == 1).unwrap();
        m.host
            .push_request(&ut, fds[s], &wire.encrypt(&build_get(b"seed-3")));
        let mut served = 0;
        while served == 0 {
            served = fk.pump();
        }
        let plain = wire.decrypt(&m.host.pop_response(fds[s]).unwrap());
        assert_eq!(plain[0], 1, "rejoined replica serves restored state");
    }

    #[test]
    fn a_refused_delta_leaves_the_receiver_untouched_and_is_resent() {
        let (sealer, rig) = hostile_fleet(2, plane_on());
        let fk = &rig.3;
        serve_set(&rig, 0, b"delta-key", &[5u8; 40]);
        sealer.armed.store(true, Ordering::Relaxed);
        fk.maintenance_tick();
        let base = |r: usize| fk.maint.as_ref().unwrap().state().delta_base[r];
        assert_eq!(stored(fk, 1, b"delta-key"), None, "nothing of it applied");
        assert_eq!((base(0), base(1)), (0, 0), "no sender's base advanced");
        assert_eq!(rig.0.stats.snapshot().frame_rejects, 2, "one per refusal");
        assert_eq!(fk.chan.pending(), 0, "refused copies are off the ring");

        sealer.armed.store(false, Ordering::Relaxed);
        fk.maintenance_tick();
        assert_eq!(stored(fk, 1, b"delta-key").unwrap(), vec![5u8; 40]);
        assert!(base(0) > 0, "the next round re-sent");
        assert_eq!(rig.0.stats.snapshot().frame_rejects, 2);
    }

    #[test]
    fn a_refused_kill_or_rejoin_destroys_and_promotes_nobody() {
        for cfg in [plane_off(), plane_on()] {
            let (sealer, rig) = hostile_fleet(2, cfg);
            let (m, fk) = (&rig.0, &rig.3);
            serve_set(&rig, 1, b"fresh", &[7u8; 32]);

            sealer.armed.store(true, Ordering::Relaxed);
            let refused = fk.kill(1).unwrap_err();
            assert_eq!(refused.0, "section failed authentication");
            assert_eq!(fk.live(), [0, 1], "victim lives");
            assert_eq!(fk.map().shards_of(1), vec![1, 3], "and keeps its shards");
            assert_eq!(stored(fk, 0, b"fresh"), None);
            assert_eq!(m.stats.snapshot().fleet_failovers, 0);
            // It also still serves, and a retry over an honest channel
            // goes through.
            serve_set(&rig, 1, b"later", &[8u8; 32]);
            sealer.armed.store(false, Ordering::Relaxed);
            fk.kill(1).unwrap();
            assert_eq!(stored(fk, 0, b"fresh").unwrap(), vec![7u8; 32]);
            assert_eq!(stored(fk, 0, b"later").unwrap(), vec![8u8; 32]);

            sealer.armed.store(true, Ordering::Relaxed);
            let enclaves = m.driver.active_enclaves();
            assert!(fk.respawn(1).is_err());
            assert_eq!(fk.live(), [0], "torn down again");
            assert_eq!(m.driver.active_enclaves(), enclaves);
            assert_eq!(fk.map().shards_of(0), vec![0, 1, 2, 3], "donor keeps all");
            sealer.armed.store(false, Ordering::Relaxed);
            fk.respawn(1).unwrap();
            assert_eq!(stored(fk, 1, b"later").unwrap(), vec![8u8; 32]);
            assert_eq!(m.stats.snapshot().frame_rejects, 2);
        }
    }

    /// Without the plane a fence's byte-work runs on the serving thread
    /// after a round's send, so it is billed outside the round: the
    /// SUVM crypto of a transfer costs what it would on a thread that
    /// never served, though the round sealed and opened SUVM pages too.
    #[test]
    fn a_fences_byte_work_is_billed_outside_the_serve_round() {
        let transfer = |close_by_hand: bool| {
            let cfg = FleetConfig {
                suvm: Some(SuvmConfig {
                    sub_page_size: 1024,
                    backing_bytes: 4 << 20,
                    ..SuvmConfig::tiny()
                }),
                ..plane_off()
            };
            let rig = fleet_with(2, cfg, Arc::new(AesGcm128::new(&[0x44u8; 16])));
            let (m, .., fk) = &rig;
            let cold = |rep: &mut Replica| {
                let suvm = rep.suvm.as_ref().expect("a SUVM replica");
                while suvm.evict_one(&mut rep.ctx) {}
            };
            fk.with_replica(0, cold);
            let s0 = m.stats.snapshot();
            serve_set(&rig, 0, b"seed-3", &[9u8; 48]);
            let served = m.stats.snapshot() - s0;
            assert!(served.suvm_direct_accesses > 0, "the round wrote through");
            if close_by_hand {
                fk.with_replica(0, |rep| rep.ctx.close_round());
            }
            let s0 = m.stats.snapshot();
            let (_, bytes, _) = fk.send_state(0, 0, 1, true);
            let d = m.stats.snapshot() - s0;
            let crypto = [d.crypto_batches, d.crypto_msgs, d.crypto_setup_cycles];
            (bytes, crypto, d.suvm_direct_accesses + d.suvm_major_faults)
        };
        let billed = transfer(false);
        assert!(billed.2 > 0, "the transfer read SUVM pages");
        assert_eq!(billed, transfer(true));
    }

    /// The ring is host memory: the host can keep a copy of any
    /// transfer and put it back later. A fence refuses every transfer
    /// but the one it just sealed — whether the replay lands in a
    /// rejoiner (which has merged nothing yet) or in a serving peer the
    /// old transfer was never addressed to.
    #[test]
    fn a_replayed_older_transfer_is_refused_by_rejoiner_and_peer() {
        let rig = fleet(3);
        let (m, fk) = (&rig.0, &rig.3);
        serve_set(&rig, 0, b"k", &[1u8; 32]);
        // What the host saw cross the ring at an earlier fence
        // (the whole of replica 0's store, `k = v1`)...
        fk.kill(2).unwrap();
        let (old_epoch, ..) = fk.send_state(0, 0, 1, true);
        let donor = fk
            .with_replica(0, |rep| Arc::clone(enclave_of(&rep.ctx)))
            .unwrap();
        let mut host = ThreadCtx::for_enclave(m, &donor, 1);
        host.enter();
        let drain = |host: &mut ThreadCtx| -> Vec<(u8, Vec<u8>)> {
            std::iter::from_fn(|| fk.chan.recv(host)).collect()
        };
        let old = drain(&mut host);
        assert!(old.len() >= 2, "a descriptor and at least one chunk");
        fk.advance_write_versions();
        serve_set(&rig, 0, b"k", &[2u8; 32]);

        // ...swapped for the donation a rejoin stages,
        let fresh = m.driver.create_enclave(m, fk.cfg.linear_bytes);
        let (epoch, ..) = fk.send_state(0, 0, 1, true);
        assert!(epoch > old_epoch);
        drain(&mut host);
        for (kind, bytes) in &old {
            fk.chan.send(&mut host, *kind, bytes);
        }
        let mut rejoiner = fk.wire_replica(2, &fresh);
        assert_eq!(
            fk.recv_state(&mut rejoiner, epoch),
            Err(TransferRejected("not the transfer this fence sealed"))
        );
        assert!(rejoiner.kvs.is_empty(), "nothing of the replay applied");
        rejoiner.ctx.exit();
        m.driver.destroy_enclave(m, &fresh);

        // ...and for the failover state a third replica is to inherit.
        let (epoch, ..) = fk.send_state(0, 0, 1, true);
        drain(&mut host);
        for (kind, bytes) in &old {
            fk.chan.send(&mut host, *kind, bytes);
        }
        let merged = fk.with_replica(1, |rep| fk.recv_state(rep, epoch));
        assert!(merged.unwrap().is_err());
        assert_eq!(stored(fk, 1, b"k"), None, "the peer never saw `k = v1`");
        assert_eq!(m.stats.snapshot().frame_rejects, 2);
        assert_eq!(fk.chan.pending(), 0);
        host.exit();

        // The honest fences still go through, with the fresh value.
        fk.respawn(2).unwrap();
        assert_eq!(stored(fk, 2, b"k").unwrap(), vec![2u8; 32]);
        fk.kill(0).unwrap();
        assert_eq!(stored(fk, 1, b"k").unwrap(), vec![2u8; 32]);
    }

    #[test]
    fn the_plane_retries_a_refused_failover_and_rejoin() {
        let (sealer, rig) = hostile_fleet(2, plane_on());
        let fk = &rig.3;
        sealer.armed.store(true, Ordering::Relaxed);
        // Replica 1 goes mute; the detector's kill is refused for as
        // long as the channel is hostile, and goes through once it is
        // not.
        for _ in 0..5 {
            fk.pump_replica(0);
            fk.maintenance_tick();
        }
        assert_eq!(fk.live(), [0, 1]);
        sealer.armed.store(false, Ordering::Relaxed);
        fk.pump_replica(0);
        fk.maintenance_tick();
        assert_eq!(fk.live(), [0]);

        sealer.armed.store(true, Ordering::Relaxed);
        fk.request_rejoin(1);
        fk.pump_replica(0);
        fk.maintenance_tick();
        assert_eq!(fk.live(), [0], "still queued");
        sealer.armed.store(false, Ordering::Relaxed);
        fk.pump_replica(0);
        fk.maintenance_tick();
        assert_eq!(fk.live(), [0, 1]);
        assert_eq!(stored(fk, 1, b"seed-3").unwrap(), vec![3u8; 48]);
    }
}
