//! Server-side network I/O over the three syscall paths the paper
//! compares ([`IoPath`]): direct (native), OCALL (vanilla SGX SDK /
//! Graphene), and Eleos exit-less RPC.
//!
//! Every receive entry point is one reap: the path-specific code only
//! collects *raw* wire messages in arrival order, each run is opened
//! as it is read, and the reap opens a serve round: its decrypts, the
//! replies' seals and the decrypts of a reap read ahead during the send
//! are billed as one amortized crypto batch under the wire key, and
//! the send closes the round (`docs/crypto-pipeline.md`, "The serve
//! round"; [`Session::decrypt_batch_in_enclave`] is the charged form
//! outside a round).
//! `recv_msg` is literally a reap of depth one. Batch size is session
//! configuration ([`ServerIoConfig`]), not a per-call argument.
//!
//! Every `ServerIo` is built through exactly one entry point,
//! [`ServerIoConfig::build`], which wires the staging buffers and the
//! wire [`Session`] together.
//!
//! # The RPC pipeline: one `recv_mmsg`/`send_mmsg` job per shard
//!
//! A [`ServerIo`] serves a socket *set* — one socket per shard,
//! SO_REUSEPORT style; a single-socket server is the set of one. On
//! the RPC path each reap submits one scatter-gather `recv_mmsg` job
//! per shard (at that shard's depth) as a single ring batch, and each
//! send one `send_mmsg` job per socket *per group*: one syscall trap
//! and one kernel-metadata charge per job instead of per message. A
//! send is sealed, staged and posted in groups of about 8 KiB of
//! sealed bytes, the enclave sealing the next group while the worker
//! transmits the last, and waits once, at the end, so every reply is
//! on its socket when the send returns. With more workers the jobs of
//! different shards run in parallel, in no known order: a send is one
//! group (one job per socket), and a reap waits for every job and
//! reads its runs at once.
//!
//! # One worker: the runs land one by one
//!
//! A one-worker ring runs its jobs in post order on the worker
//! timeline (`docs/rpc-ring.md`), so a reap reads each run when its
//! job published it. When some run can span two lines of
//! [`DESC_LINE`] descriptors the reap is streamed: each line is read,
//! bounded and billed at the time the worker wrote it, decrypting its
//! requests while the worker copies the next, and re-armed with one
//! charged write after the run. Otherwise a run is one line, written
//! just before its job ends, and is read whole at that end. Each op's
//! sojourn is stamped when its line is read, the moment it leaves the
//! kernel ring for the enclave. [`ServerIo::serve_on`] serves each run
//! as it lands and posts its replies behind on the timeline, so a
//! server owning two shards serves one while the worker copies the
//! other.
//!
//! # Reaping ahead
//!
//! A lone server on one worker overlaps the worker across the legs of
//! its loop too. When [`ServerIo::recv_batch`] (and so
//! [`ServerIo::serve`] and `Kvs::handle_batch`) hands a reap on, it
//! posts the next one at once if that reap is certain to come back
//! full: every shard's queue holds at least `batch_max` requests — and
//! if no ring slot it would take is still held by the replies of the
//! reap's earlier runs. Its jobs sit on the timeline:
//! the worker copies batch *N + 1* in while the enclave serves batch
//! *N*, the send of batch *N* queues behind that copy, and once it has
//! posted its last group the enclave reads and decrypts batch *N + 1*
//! while the worker transmits — before it waits, so every reply is
//! still on its socket when the send returns. The next reap only hands
//! that batch on. A clock reset since the post leaves nothing to wait
//! for ([`Span::seen_at`]).
//!
//! The batches stay the same: a socket's queue is FIFO and the reap
//! posted ahead asks each shard for exactly the depth the next reap
//! would, from a queue that holds at least that many, so it pops what
//! the next reap would have. Each shard's backlog gauge is still read
//! when the batch is handed on. A pending reap is the next reap
//! whichever entry point asks — `recv_msg` hands it out one request at
//! a time — and a due key rotation leaves it unopened, to be opened
//! under the rotated session at the head of the next reap.
//!
//! Only a lone server reaps ahead. A fleet replica reaps through
//! [`ServerIo::recv_batch_on`], which never does: its shards can be
//! reassigned at any fence, and a killed replica must leave the
//! requests it did not reap in the kernel queue for the survivor.
//! [`ServerIo::revoke`] drops a pending reap with the queued traffic;
//! dropping a server with one pending loses that batch.
//!
//! `recv_mmsg` pops a socket's queue front under one lock, and the
//! load generator pins each client connection to one shard
//! ([`crate::loadgen::shard_for`]), so per-shard slot order *is*
//! per-connection arrival order — the only ordering contract. Nothing
//! is merged or re-sequenced: requests come back concatenated shard by
//! shard and each reply leaves through the socket its request arrived
//! on, staged in that shard's own buffers: a connection stays on the
//! shard it hashed to. What the host writes back (the job's message
//! count and the per-message length descriptors) is untrusted and
//! bounded before use; see
//! [`desc_rejects`](eleos_sim::stats::Stats::desc_rejects).
//!
//! # The baselines, and the one way out
//!
//! The native and OCALL paths are the paper's baselines: one
//! `recv`/`send` syscall per message over a single socket, in a
//! sequential loop that stops at the first would-block. Each of those
//! syscalls — and the `poll` of a blocking wait, on every path — is one
//! [`IoPath::call`] over the staging buffers this module owns:
//! `eleos-rpc` holds the syscall table and the only `match` that sends
//! a single syscall out natively, by OCALL or over the ring. What
//! stays here is the *batched* submission (`if let IoPath::Rpc`), which
//! is a different shape — many jobs, one handoff — not a fourth path.
//!
//! # One serve loop
//!
//! [`ServerIo::serve_on`] is `reap → f per request → send` written
//! once; [`ServerIo::serve`] is all shards and [`ServerIo::serve_one`]
//! the depth-one pair. A front-end is the closure: [`Kvs::process`],
//! [`process_text`], [`ParamServer::process`], [`FaceServer::process`].
//!
//! [`Kvs::process`]: crate::kvs::Kvs::process
//! [`process_text`]: crate::text_protocol::process_text
//! [`ParamServer::process`]: crate::param_server::ParamServer::process
//! [`FaceServer::process`]: crate::face::FaceServer::process
//!
//! # Reap depth
//!
//! Every reap asks each shard for `batch_max` messages, the slots its
//! staging holds, and `recv_mmsg` pops whatever the socket queues, up
//! to that count: a request never waits in the kernel behind a depth
//! cap while its shard's slots sit empty. Every scatter-gather
//! descriptor carries the op's enqueue timestamp, and the reap records
//! each op's cycles-of-sojourn into the
//! [`sojourn`](eleos_sim::stats::Stats) histogram, so `repro
//! serving_bench` can report p50/p95/p99 latency next to throughput.
//!
//! # Per-shard telemetry
//!
//! Each shard's backlog gauge and its sojourn histogram
//! live in that server's own pipeline state and are read through
//! [`ServerIo::shard_stats`] — two servers on one machine never share
//! a number, and
//! [`reset_counters`](eleos_enclave::machine::SgxMachine::reset_counters)
//! does not reach them (a bench subtracts its post-warm-up reading).
//!
//! # Replies that do not fit
//!
//! How long a reply is is the application's answer to a client's
//! request — a multi-key `get` can outgrow the transmit slot its batch
//! gives it. Such a reply is not sent and is counted in
//! [`reply_rejects`](eleos_sim::stats::Stats::reply_rejects); every
//! other reply of the batch still leaves on its own socket, in order,
//! and the server keeps serving.
//!
//! # Fence-integrated key rotation
//!
//! With [`ServerIoConfig::rekey_every`] the server counts decrypted
//! requests and, at the head of the next reap fence after the
//! interval elapses, rotates the wire [`Session`]'s key epoch
//! ([`Session::begin_rekey`]). The fence is the same sub-batch
//! boundary the fleet's failover uses — the only point where the
//! pipeline holds no half-served requests — and the rotation itself
//! is double-buffered inside the session, so the serving path never
//! stalls: in-flight old-epoch messages keep draining while new
//! arrivals seal under the new epoch.
//! [`ServerIo::revoke`] is the terminal fence: it revokes the session
//! and drains every queued message off the shard sockets, dropped and
//! counted instead of served.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use eleos_enclave::host::{Fd, DESC_LINE, DESC_STRIDE};
use eleos_enclave::thread::ThreadCtx;
pub use eleos_rpc::IoPath;
use eleos_rpc::{funcs, RpcBatch, RpcService, Span};
use eleos_sim::stats::{Hist, HistSnapshot, Stats};
use parking_lot::Mutex;

use crate::wire::{OpenGate, Session, SessionState};

/// Sealed bytes an RPC send stages before it posts them as one group
/// of `send_mmsg` jobs and seals the next group while the worker
/// transmits this one: twice the 4 KiB of kernel bookkeeping each
/// extra job makes the worker read.
const SEND_GROUP_BYTES: usize = 8 << 10;

/// Session tunables for a [`ServerIo`] connection.
#[derive(Clone, Debug)]
pub struct ServerIoConfig {
    /// Size of each untrusted staging buffer (receive and transmit).
    pub buf_len: usize,
    /// Messages a reap asks each shard for (it takes what is queued,
    /// up to this many); also sizes the descriptor staging and the
    /// batch stripe (`buf_len / batch_max`).
    pub batch_max: usize,
    /// Rotate the wire session's key epoch after this many decrypted
    /// requests ([`Self::rekey_every`]); `None` never rotates. The
    /// rotation fires at the head of a reap fence and is
    /// double-buffered inside the [`Session`], so it never stalls the
    /// serving path.
    pub rekey_interval: Option<u64>,
}

impl Default for ServerIoConfig {
    fn default() -> Self {
        Self {
            buf_len: 64 << 10,
            batch_max: 16,
            rekey_interval: None,
        }
    }
}

impl ServerIoConfig {
    /// The default session config with a specific staging-buffer size.
    #[must_use]
    pub fn with_buf_len(buf_len: usize) -> Self {
        Self {
            buf_len,
            ..Self::default()
        }
    }

    /// Sets the per-call batch size: the most messages a reap takes
    /// from each shard.
    ///
    /// # Panics
    /// Panics if `batch` is zero — a zero depth would divide the
    /// staging buffer by zero deep in the reap path.
    #[must_use]
    pub fn batch(mut self, batch: usize) -> Self {
        assert!(
            batch > 0,
            "batch(0): a reap needs at least one slot (the stripe size is buf_len / batch)"
        );
        self.batch_max = batch;
        self
    }

    /// Every reap takes what its shards queue, up to `batch_max`, so
    /// this is [`Self::batch`]`(max)`; `min` is only checked.
    ///
    /// # Panics
    /// Panics if `min` is zero or `min > max`.
    // Only `bench/src/rig.rs` still calls this; ROADMAP item A deletes it.
    #[doc(hidden)]
    #[must_use]
    pub fn adaptive(self, min: usize, max: usize) -> Self {
        assert!(
            min > 0,
            "adaptive({min}, {max}): the floor must be at least one"
        );
        assert!(
            min <= max,
            "adaptive({min}, {max}): the floor must not exceed the ceiling"
        );
        self.batch(max)
    }

    /// Every send is waited for before it returns, so this accepts
    /// only `false`.
    ///
    /// # Panics
    /// Panics if `on` is `true`.
    // Only `bench/src/rig.rs` still calls this; ROADMAP item A deletes it.
    #[doc(hidden)]
    #[must_use]
    pub fn async_send(self, on: bool) -> Self {
        assert!(!on, "every send is waited for: there is no deferred send");
        self
    }

    /// The socket set passed to [`Self::build`] is the shard count, so
    /// this only checks `n`.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    // Only `bench/src/rig.rs` still calls this; ROADMAP item A deletes it.
    #[doc(hidden)]
    #[must_use]
    pub fn shards(self, n: usize) -> Self {
        assert!(n > 0, "shards(0): a server needs at least one shard");
        self
    }

    /// Rotates the wire session's key epoch after every `n` decrypted
    /// requests, at the head of the next reap fence (see the module
    /// docs — the rotation is double-buffered and stall-free).
    ///
    /// # Panics
    /// Panics if `n` is zero — a zero interval would begin a new
    /// rotation at every fence, before the previous epoch ever drains.
    #[must_use]
    pub fn rekey_every(mut self, n: u64) -> Self {
        assert!(
            n > 0,
            "rekey_every(0): the old epoch needs at least one interval to drain"
        );
        self.rekey_interval = Some(n);
        self
    }

    /// The single [`ServerIo`] entry point: binds one serving
    /// pipeline (staging buffers + descriptor arrays + telemetry) to
    /// each socket of the shard set and wires the session in. One
    /// socket is the classic single-socket server — the same
    /// pipeline with one shard.
    ///
    /// # Panics
    /// Panics if `fds` is empty, if `batch_max` does not fit the
    /// staging buffer, or if more than one shard is combined with a
    /// non-RPC path (the native and OCALL baselines are single-socket
    /// loops).
    #[must_use]
    pub fn build(
        self,
        ctx: &ThreadCtx,
        fds: &[Fd],
        path: IoPath,
        session: Arc<Session>,
    ) -> ServerIo {
        assert!(!fds.is_empty(), "a server needs at least one socket");
        assert!(
            self.buf_len / self.batch_max > 0,
            "batch_max {} too large for a {}-byte staging buffer",
            self.batch_max,
            self.buf_len
        );
        if fds.len() > 1 {
            assert!(
                matches!(path, IoPath::Rpc(_)),
                "sharded serving rides the RPC path"
            );
        }
        let descs = self.batch_max * DESC_STRIDE;
        let shards = fds
            .iter()
            .map(|&fd| Shard {
                fd,
                rx_buf: ctx.machine.alloc_untrusted(self.buf_len),
                tx_buf: ctx.machine.alloc_untrusted(self.buf_len),
                desc_rx: ctx.machine.alloc_untrusted(descs),
                desc_tx: ctx.machine.alloc_untrusted(descs),
                backlog: AtomicU64::new(0),
                sojourn: Hist::default(),
            })
            .collect();
        ServerIo {
            fd: fds[0],
            shards,
            last_reap: Mutex::new(Vec::new()),
            served: AtomicU64::new(0),
            ahead: Mutex::new(None),
            cfg: self,
            path,
            session,
        }
    }
}

/// One serving pipeline: a socket plus its own untrusted staging
/// buffers, descriptor arrays and telemetry.
struct Shard {
    /// The shard's socket.
    fd: Fd,
    /// Untrusted receive buffer.
    rx_buf: u64,
    /// Untrusted transmit buffer.
    tx_buf: u64,
    /// Untrusted descriptor array for scatter-gather receives:
    /// `batch_max` 16-byte entries (two little-endian `u64` words:
    /// the length, then the enqueue timestamp), like `recvmmsg`'s
    /// msgvec plus the arrival stamp.
    desc_rx: u64,
    /// Untrusted descriptor array for scatter-gather sends (same
    /// 16-byte entries; the timestamp word is ignored).
    desc_tx: u64,
    /// Kernel-ring backlog left behind this shard's socket by the last
    /// reap that covered it (a gauge).
    backlog: AtomicU64,
    /// Sojourn of every op that waited on this shard's socket.
    sojourn: Hist,
}

/// A point-in-time copy of one shard's telemetry
/// ([`ServerIo::shard_stats`]). `backlog` is a gauge (last value);
/// `sojourn` counts from the server's construction, so a
/// measured phase subtracts the reading it took after warm-up.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Kernel-ring backlog the last reap left behind the socket.
    pub backlog: u64,
    /// Sojourn of the ops that waited on this shard's socket.
    pub sojourn: HistSnapshot,
}

/// One server session: a socket set (one socket per shard — one for
/// the classic single-socket server), untrusted staging buffers, and
/// the session cipher.
pub struct ServerIo {
    /// Shard 0's socket — *the* socket of a single-socket server.
    pub fd: Fd,
    /// The serving pipelines, one per socket.
    shards: Vec<Shard>,
    /// `(shard, count)` split of the requests the last reap delivered
    /// (frames the session refused are not counted), so the matching
    /// send can route each reply back out the socket its request
    /// arrived on.
    last_reap: Mutex<Vec<(usize, usize)>>,
    /// Requests decrypted since the last key rotation — the
    /// [`ServerIoConfig::rekey_every`] interval's clock.
    served: AtomicU64,
    /// The next reap, when the last one posted it ahead.
    ahead: Mutex<Option<Ahead>>,
    /// Session tunables.
    pub cfg: ServerIoConfig,
    /// Syscall mechanism.
    pub path: IoPath,
    /// The wire session (handshake, epoch keys, revocation).
    pub session: Arc<Session>,
}

impl ServerIo {
    /// Number of serving pipelines (sockets).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Every shard's telemetry, in shard order.
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardSnapshot> {
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        self.shards
            .iter()
            .map(|sh| ShardSnapshot {
                backlog: get(&sh.backlog),
                sojourn: sh.sojourn.snapshot(),
            })
            .collect()
    }

    /// The slot size of a batch: the staging buffers striped into
    /// `batch_max` message slots.
    fn stripe(&self) -> usize {
        self.cfg.buf_len / self.cfg.batch_max
    }

    /// Receives and decrypts one request: a reap of depth one, with
    /// the whole receive buffer as its one slot. Returns `None` when
    /// the socket queue is empty. Single-socket servers only — a
    /// sharded server reaps whole sub-batches per shard.
    pub fn recv_msg(&self, ctx: &mut ThreadCtx) -> Option<Vec<u8>> {
        assert_eq!(
            self.shards.len(),
            1,
            "single-message receive is a single-socket affair; use recv_batch on a sharded server"
        );
        self.reap(ctx, &[0], self.cfg.buf_len, Some(1), false, |_, run| {
            run.out
        })
        .pop()
    }

    /// Receives and decrypts up to one sub-batch of requests per
    /// shard, each in its socket's arrival order and concatenated
    /// shard by shard, the whole reap's decrypts billed as one batched
    /// crypto pass. Each shard gives what it queues, up to
    /// `cfg.batch_max`. On a one-worker ring it may post the next reap
    /// before it returns (see the module docs' "Reaping ahead").
    pub fn recv_batch(&self, ctx: &mut ThreadCtx) -> Vec<Vec<u8>> {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        self.reap(ctx, &all, self.stripe(), None, true, |_, run| run.out)
    }

    /// The reap restricted to an owned shard subset — the fleet tier's
    /// entry point, where each replica's pipeline reaps only the
    /// shards the router assigned to it. It never reaps ahead, but a
    /// reap already posted ahead is the next reap: it comes back whole,
    /// whatever `active` names.
    ///
    /// # Panics
    /// Panics if `active` is empty, not strictly increasing, or names
    /// a shard this server does not have.
    pub fn recv_batch_on(&self, ctx: &mut ThreadCtx, active: &[usize]) -> Vec<Vec<u8>> {
        self.check_active(active);
        self.reap(ctx, active, self.stripe(), None, false, |_, run| run.out)
    }

    /// The checks behind [`Self::recv_batch_on`]'s "# Panics".
    fn check_active(&self, active: &[usize]) {
        assert!(
            !active.is_empty(),
            "a replica with no shards has nothing to reap; drain it instead"
        );
        assert!(
            active.windows(2).all(|w| w[0] < w[1]),
            "the owned shard subset must be strictly increasing (got {active:?})"
        );
        assert!(
            *active.last().unwrap() < self.shards.len(),
            "shard subset {active:?} names shards past the {}-socket set",
            self.shards.len()
        );
    }

    /// Whether the rekey interval has elapsed, so the head of the next
    /// reap rotates the key epoch.
    fn rekey_due(&self) -> bool {
        self.cfg
            .rekey_interval
            .is_some_and(|n| self.served.load(Ordering::Relaxed) >= n)
    }

    /// One fence-head check of the rekey interval: once the server
    /// has decrypted [`ServerIoConfig::rekey_every`] requests, retire
    /// any still-draining rotation (its in-flight reaps ended with
    /// the previous batch) and begin the next one. Runs at the head
    /// of every reap — the only point where the pipeline holds no
    /// half-served requests — so rotation never splits a batch's
    /// crypto between epochs mid-serve.
    fn maybe_rekey(&self, ctx: &mut ThreadCtx) {
        if !self.rekey_due() {
            return;
        }
        self.served.store(0, Ordering::Relaxed);
        self.session.finish_rekey();
        if matches!(self.session.state(), SessionState::Established(_)) {
            self.session.begin_rekey(ctx);
        }
    }

    /// The one reap behind every receive entry point and the serve
    /// loop: collect raw messages from the `active` shards into
    /// `stripe`-byte slots — up to `depth` per shard, or `batch_max` —
    /// open them and hand them to `each`, or hand on the reap posted
    /// ahead; returns what `each` gives back, in order. One worker's
    /// reap is handed on run by run as each job published it
    /// ([`Self::take_run`]), any other whole. Each part reads its
    /// shards' backlog gauges and feeds the rekey interval, and past
    /// `depth` requests the rest waits for the next reap (`recv_msg`).
    /// With `post_next` the next reap is posted ([`Self::post_ahead`])
    /// before the last run is handed on. The `(shard, count)` split is recorded for the
    /// matching [`Self::send_batch`].
    fn reap(
        &self,
        ctx: &mut ThreadCtx,
        active: &[usize],
        stripe: usize,
        depth: Option<u64>,
        post_next: bool,
        mut each: impl FnMut(&mut ThreadCtx, Reaped) -> Vec<Vec<u8>>,
    ) -> Vec<Vec<u8>> {
        self.maybe_rekey(ctx);
        // A reap starts a serve round, under the epoch it reaps in; a
        // receive no send followed leaves its round here.
        ctx.close_round();
        ctx.open_round();
        let pending = self.ahead.lock().take();
        let posted = match (pending, &self.path) {
            (Some(Ahead::Opened(reaped)), _) => Err(reaped),
            (Some(Ahead::Posted(posted)), _) => Ok(posted),
            (None, IoPath::Rpc(svc)) if svc.worker_count() == 1 => {
                let runs = self.runs(active.iter().copied(), depth);
                Ok(self.post_reap(ctx, svc, runs, stripe))
            }
            (None, _) => Err(self.reap_now(ctx, active, stripe, depth)),
        };
        let (mut record, mut out) = (Vec::new(), Vec::new());
        let mut hand_on = |ctx: &mut ThreadCtx, mut reaped: Reaped, last: bool| {
            self.read_backlogs(ctx, &reaped);
            if let Some(depth) = depth.filter(|&d| reaped.out.len() as u64 > d) {
                let rest = reaped.split_off(depth as usize);
                *self.ahead.lock() = Some(Ahead::Opened(rest));
            }
            self.served
                .fetch_add(reaped.out.len() as u64, Ordering::Relaxed);
            record.extend_from_slice(&reaped.record);
            if let (true, true, IoPath::Rpc(svc)) = (post_next, last, &self.path) {
                self.post_ahead(ctx, svc);
            }
            out.append(&mut each(ctx, reaped));
        };
        match posted {
            Ok(posted) => {
                let (runs, mut bill) = (posted.ran.len(), self.bill(posted.streamed));
                for (k, ran) in posted.ran.into_iter().enumerate() {
                    let reaped = self.take_run(ctx, ran, posted.stripe, &mut bill);
                    hand_on(ctx, reaped, k + 1 == runs);
                }
            }
            Err(reaped) => hand_on(ctx, reaped, true),
        }
        if record.iter().all(|&(_, n)| n == 0) {
            ctx.close_round();
        }
        *self.last_reap.lock() = record;
        out
    }

    /// Reads the backlog queued behind each run's socket now into its
    /// shard's gauge.
    fn read_backlogs(&self, ctx: &ThreadCtx, reaped: &Reaped) {
        for &(k, _) in &reaped.record {
            let shard = &self.shards[k];
            let backlog = ctx.machine.host.rx_pending(shard.fd);
            shard.backlog.store(backlog as u64, Ordering::Relaxed);
        }
    }

    /// One run per `active` shard, asking for `depth` or `batch_max`.
    fn runs(&self, active: impl IntoIterator<Item = usize>, depth: Option<u64>) -> Vec<Run> {
        let want = depth.unwrap_or(self.cfg.batch_max as u64);
        let run = |shard| Run { shard, want };
        active.into_iter().map(run).collect()
    }

    /// Reaps the `active` shards now and opens them whole where no
    /// worker timeline orders the runs: one `recv_mmsg` job per shard on
    /// a ring with more workers (see the module docs), per-message
    /// `recv`s on the native and OCALL baselines' one socket. (The
    /// paper's untrusted baseline also decrypts every request, §2, so
    /// the crypto charge applies on all paths.)
    fn reap_now(
        &self,
        ctx: &mut ThreadCtx,
        active: &[usize],
        stripe: usize,
        depth: Option<u64>,
    ) -> Reaped {
        let runs = self.runs(active.iter().copied(), depth);
        let mut raw: Vec<Vec<u8>> = Vec::new();
        let IoPath::Rpc(svc) = &self.path else {
            while (raw.len() as u64) < runs[0].want {
                match self.recv_raw(ctx) {
                    Some(msg) => raw.push(msg),
                    None => break,
                }
            }
            return self.open_run(ctx, 0, &raw, &mut self.bill(false));
        };
        let counts = svc
            .submit_batch(ctx, &self.recv_jobs(&runs, stripe))
            .wait_all(ctx);
        let (now, mut bill) = (ctx.now(), self.bill(false));
        let mut reaped = Reaped::default();
        for (run, n) in runs.iter().zip(counts) {
            raw.clear();
            self.read_run(ctx, run, stripe, n, &mut Lines::Waited { now }, &mut raw);
            reaped.append(self.open_run(ctx, run.shard, &raw, &mut bill));
        }
        reaped
    }

    /// One `recv_mmsg` job per run, into `stripe`-byte slots.
    fn recv_jobs(&self, runs: &[Run], stripe: usize) -> Vec<(u64, [u64; 4])> {
        runs.iter()
            .map(|run| {
                let sh = &self.shards[run.shard];
                (
                    funcs::RECV_MMSG,
                    [
                        sh.fd.0 as u64,
                        sh.rx_buf,
                        ((stripe as u64) << 32) | run.want,
                        sh.desc_rx,
                    ],
                )
            })
            .collect()
    }

    /// Posts a reap's jobs on a one-worker ring and reaps their counts
    /// and spans on the worker timeline at once, without charging the
    /// wait ([`RpcBatch::jobs`]), with when each published each line
    /// ([`eleos_enclave::host::HostOs::rx_marks`]).
    fn post_reap(
        &self,
        ctx: &mut ThreadCtx,
        svc: &RpcService,
        runs: Vec<Run>,
        stripe: usize,
    ) -> Posted {
        let jobs = svc
            .submit_batch(ctx, &self.recv_jobs(&runs, stripe))
            .jobs(ctx);
        let runs_streamed = runs.iter().any(|run| run.want > DESC_LINE as u64);
        let ran = runs
            .into_iter()
            .zip(jobs)
            .map(|(run, (n, span))| Ran {
                // (An empty job published no line.)
                marks: match n {
                    0 => Vec::new(),
                    _ => ctx.machine.host.rx_marks(self.shards[run.shard].fd),
                },
                run,
                n,
                span,
            })
            .collect();
        Posted {
            streamed: runs_streamed,
            stripe,
            ran,
        }
    }

    /// Reads and opens a posted reap's runs in post order.
    fn read_posted(&self, ctx: &mut ThreadCtx, posted: Posted) -> Reaped {
        let mut bill = self.bill(posted.streamed);
        let mut reaped = Reaped::default();
        for ran in posted.ran {
            reaped.append(self.take_run(ctx, ran, posted.stripe, &mut bill));
        }
        reaped
    }

    /// Reads one run of a posted reap when the worker published it —
    /// line by line when the reap is streamed, else whole at its job's
    /// end — and opens it.
    fn take_run(&self, ctx: &mut ThreadCtx, ran: Ran, stripe: usize, bill: &mut Bill) -> Reaped {
        let span = ran.span.seen_at(ctx.now());
        let mut raw = Vec::new();
        let mut lines = if bill.streamed {
            let (marks, bill) = (ran.marks, &mut *bill);
            Lines::Streamed { span, marks, bill }
        } else {
            span.wait(ctx);
            Lines::Waited { now: ctx.now() }
        };
        self.read_run(ctx, &ran.run, stripe, ran.n, &mut lines, &mut raw);
        self.open_run(ctx, ran.run.shard, &raw, bill)
    }

    /// The open path's gate for one reap.
    fn bill(&self, streamed: bool) -> Bill {
        Bill {
            gate: self.session.open_gate(),
            streamed,
        }
    }

    /// Opens one run's raw frames — the messages `shard` delivered — in
    /// one pass under the reap's gate, and bills their decrypts unless a
    /// streamed read billed each frame already.
    fn open_run(
        &self,
        ctx: &mut ThreadCtx,
        shard: usize,
        raw: &[Vec<u8>],
        bill: &mut Bill,
    ) -> Reaped {
        let refs: Vec<&[u8]> = raw.iter().map(Vec::as_slice).collect();
        let out = self.session.open_reporting_drops(ctx, &bill.gate, &refs);
        if !bill.streamed {
            bill.charge(ctx, out.iter().map(Vec::len));
        }
        // A refused frame gets no reply: the record counts what was
        // handed on.
        Reaped {
            record: vec![(shard, out.len())],
            out,
        }
    }

    /// Posts the next reap ahead when it is certain to come back full:
    /// on a one-worker ring, with every shard's queue holding at least
    /// `batch_max` (see the module docs), and a free ring slot for each
    /// run: a serve's pending replies hold theirs.
    fn post_ahead(&self, ctx: &mut ThreadCtx, svc: &RpcService) {
        let runs = self.runs(0..self.shards.len(), None);
        let host = &ctx.machine.host;
        if svc.worker_count() != 1
            || !svc.has_room_for(runs.len())
            || runs
                .iter()
                .any(|run| (host.rx_pending(self.shards[run.shard].fd) as u64) < run.want)
        {
            return;
        }
        let posted = self.post_reap(ctx, svc, runs, self.stripe());
        *self.ahead.lock() = Some(Ahead::Posted(posted));
    }

    /// Reads one reaped run out of its shard's staging buffers — the
    /// one parser of descriptors. Each entry is bounded, its op's
    /// sojourn recorded (globally and against the shard's histogram)
    /// and its raw payload appended to `raw` in slot order.
    ///
    /// Streamed, the run is read one line of [`DESC_LINE`] entries at a
    /// time, each at the time the worker published it (a charged read,
    /// the same lines a whole read covers), its ops stamped and its
    /// payloads' decrypts billed then. After the last line the reap
    /// waits for the job's end, and re-arms the entries it consumed with
    /// one charged write so a poller can tell fresh entries from stale.
    ///
    /// Everything read here was written by the host and is untrusted:
    /// a count `n` above the depth the job asked for discards the run
    /// (no descriptor of it can be believed), and a descriptor longer
    /// than its slot discards that message. Neither sizes an
    /// allocation or a read. A streamed reap learns the count only
    /// from the completion word, after the lines the host published: a
    /// run it discards has them read and billed, and keeps nothing of
    /// them — no request served, no sojourn, and one `desc_rejects`
    /// for the whole run, as an up-front discard counts.
    fn read_run(
        &self,
        ctx: &mut ThreadCtx,
        run: &Run,
        stripe: usize,
        n: u64,
        lines: &mut Lines<'_>,
        raw: &mut Vec<Vec<u8>>,
    ) {
        let sh = &self.shards[run.shard];
        let keep = n <= run.want;
        // The entries the reap reads, and how many one read takes.
        let entries = match lines {
            _ if keep => n as usize,
            Lines::Waited { .. } => 0,
            Lines::Streamed { marks, .. } => (marks.len() * DESC_LINE).min(run.want as usize),
        };
        let per_read = match lines {
            Lines::Waited { .. } => entries.max(1),
            Lines::Streamed { .. } => DESC_LINE,
        };
        let mut descs = vec![0u8; entries * DESC_STRIDE];
        let mut rejects = 0;
        for (line, from) in (0..entries).step_by(per_read).enumerate() {
            let now = match lines {
                Lines::Waited { now } => *now,
                Lines::Streamed { span, marks, .. } => {
                    // A line the host never marked is visible at the
                    // job's end, and none later.
                    let at = marks.get(line).map_or(span.end, |&m| span.start + m);
                    ctx.compute(at.min(span.end).saturating_sub(ctx.now()));
                    ctx.now()
                }
            };
            let to = (from + per_read).min(entries);
            let span = &mut descs[from * DESC_STRIDE..to * DESC_STRIDE];
            ctx.read_untrusted(sh.desc_rx + (from * DESC_STRIDE) as u64, span);
            for (i, desc) in (from..).zip(span.chunks_exact(DESC_STRIDE)) {
                let len = u64::from_le_bytes(desc[..8].try_into().expect("descriptor word"));
                let enq = u64::from_le_bytes(desc[8..].try_into().expect("descriptor word"));
                if len > stripe as u64 {
                    rejects += 1;
                    continue;
                }
                let mut msg = vec![0u8; len as usize];
                ctx.read_untrusted(sh.rx_buf + (i * stripe) as u64, &mut msg);
                if let Lines::Streamed { bill, .. } = lines {
                    bill.frame(ctx, &msg);
                }
                if keep {
                    let wait = now.saturating_sub(enq);
                    ctx.machine.stats.sojourn.record(wait);
                    sh.sojourn.record(wait);
                    raw.push(msg);
                }
            }
        }
        if let Lines::Streamed { span, .. } = lines {
            span.wait(ctx);
            if entries > 0 {
                descs.fill(0);
                ctx.write_untrusted(sh.desc_rx, &descs);
            }
        }
        if keep {
            Stats::add(&ctx.machine.stats.desc_rejects, rejects);
        } else {
            Stats::bump(&ctx.machine.stats.desc_rejects);
        }
    }

    /// One raw `recv` syscall on the native/OCALL baselines. Returns
    /// `None` when the socket queue is empty.
    fn recv_raw(&self, ctx: &mut ThreadCtx) -> Option<Vec<u8>> {
        let sh = &self.shards[0];
        let args = [u64::from(sh.fd.0), sh.rx_buf, self.cfg.buf_len as u64, 0];
        let n = self.path.call(ctx, funcs::RECV, args);
        if n == u64::MAX {
            return None;
        }
        let mut msg = vec![0u8; n as usize];
        ctx.read_untrusted(sh.rx_buf, &mut msg);
        Some(msg)
    }

    /// Blocking receive: when the queue is empty, waits via repeated
    /// `poll()` syscalls — OCALLs on both enclaved paths (the paper's
    /// split: short calls go exit-less, long blocking waits take the
    /// naive exit, §3.1, made by [`IoPath::call`]) — and then receives.
    /// Single-socket servers only.
    ///
    /// Returns `None` when the session has been revoked — the one
    /// condition under which no message can ever arrive again, so the
    /// wait would otherwise spin forever.
    pub fn recv_msg_blocking(&self, ctx: &mut ThreadCtx) -> Option<Vec<u8>> {
        loop {
            if self.session.state() == SessionState::Revoked {
                return None;
            }
            if let Some(msg) = self.recv_msg(ctx) {
                return Some(msg);
            }
            let fd = u64::from(self.fd.0);
            if self.path.call(ctx, funcs::POLL, [fd, 0, 0, 0]) == 0 {
                std::thread::yield_now();
            }
        }
    }

    /// Encrypts and sends a batch of responses, sealing them all in
    /// one batched crypto pass. The replies answer the last
    /// [`Self::recv_batch`] in order — the serve loop's natural shape
    /// — and each goes back out the socket its request arrived on.
    pub fn send_batch(&self, ctx: &mut ThreadCtx, replies: &[Vec<u8>]) {
        let refs: Vec<&[u8]> = replies.iter().map(Vec::as_slice).collect();
        self.send_all(ctx, &refs, self.stripe());
    }

    /// Encrypts and sends one response: a batch of one, with the whole
    /// transmit buffer as its one slot. Single-socket servers only.
    pub fn send_msg(&self, ctx: &mut ThreadCtx, plain: &[u8]) {
        assert_eq!(
            self.shards.len(),
            1,
            "single-message send is a single-socket affair; use send_batch on a sharded server"
        );
        self.send_all(ctx, &[plain], self.cfg.buf_len);
    }

    /// The serve loop, written once: reaps the `active` shards
    /// ([`Self::recv_batch_on`]), hands each decrypted request to `f`
    /// with the serving thread, and sends the replies it returns back
    /// in order ([`Self::send_batch`]). `f` is a front-end's `process`
    /// — it owns the parse, the malformed reply and the application.
    /// Returns the number of requests served (zero when the sockets
    /// were drained).
    ///
    /// On a one-worker ring the loop takes the reap's runs in post
    /// order: run *k* is read when its job published it, served, and
    /// its replies sealed and posted behind on the worker timeline, so
    /// its serve and send overlap the copy of run *k + 1* and its
    /// transmit the serve of run *k + 1*. The loop waits once, for the
    /// last job. One run is exactly `recv_batch_on`, `f`, `send_batch`.
    ///
    /// # Panics
    /// As [`Self::recv_batch_on`].
    pub fn serve_on(
        &self,
        ctx: &mut ThreadCtx,
        active: &[usize],
        f: impl FnMut(&mut ThreadCtx, &[u8]) -> Vec<u8>,
    ) -> usize {
        self.check_active(active);
        self.serve_runs(ctx, active, false, f)
    }

    /// [`Self::serve_on`] over every shard, reaping through
    /// [`Self::recv_batch`]: a lone server's loop, which reaps ahead.
    pub fn serve(
        &self,
        ctx: &mut ThreadCtx,
        f: impl FnMut(&mut ThreadCtx, &[u8]) -> Vec<u8>,
    ) -> usize {
        let all: Vec<usize> = (0..self.shards.len()).collect();
        self.serve_runs(ctx, &all, true, f)
    }

    /// The loop behind [`Self::serve_on`] and [`Self::serve`]: each part
    /// of the reap is served as [`Self::reap`] hands it on.
    fn serve_runs(
        &self,
        ctx: &mut ThreadCtx,
        active: &[usize],
        post_next: bool,
        mut f: impl FnMut(&mut ThreadCtx, &[u8]) -> Vec<u8>,
    ) -> usize {
        let (stripe, mut send, mut served) = (self.stripe(), None, 0);
        self.reap(ctx, active, stripe, None, post_next, |ctx, run| {
            let replies: Vec<Vec<u8>> = run.out.iter().map(|plain| f(ctx, plain)).collect();
            let refs: Vec<&[u8]> = replies.iter().map(Vec::as_slice).collect();
            match &self.path {
                IoPath::Rpc(svc) => {
                    self.post_replies(ctx, svc, &mut send, &refs, &run.record, stripe);
                }
                _ => self.send_all(ctx, &refs, stripe),
            }
            served += replies.len();
            Vec::new()
        });
        if let IoPath::Rpc(svc) = &self.path {
            self.finish_send(ctx, svc, send);
        }
        ctx.close_round();
        served
    }

    /// The serve loop at depth one: [`Self::recv_msg`], `f`,
    /// [`Self::send_msg`]. Returns `false` when the socket queue is
    /// drained. Single-socket servers only.
    pub fn serve_one(
        &self,
        ctx: &mut ThreadCtx,
        f: impl FnOnce(&mut ThreadCtx, &[u8]) -> Vec<u8>,
    ) -> bool {
        let Some(plain) = self.recv_msg(ctx) else {
            return false;
        };
        let reply = f(ctx, &plain);
        self.send_msg(ctx, &reply);
        true
    }

    /// Revokes the server's session: a terminal fence. The session
    /// flips to [`SessionState::Revoked`] (refusing all future seals
    /// and opens), and the traffic already queued on the shard sockets
    /// is drained and dropped without serving — a revoked peer's bytes
    /// never reach the application. A reap posted ahead is dropped
    /// with it, opened or not. Returns how many messages were queued at
    /// the moment of revocation, the ones reaped ahead included.
    pub fn revoke(&self, ctx: &mut ThreadCtx) -> usize {
        self.session.revoke(ctx);
        let ahead = self.ahead.lock().take();
        let queued: usize = ahead.map_or(0, |a| a.len())
            + self
                .shards
                .iter()
                .map(|sh| ctx.machine.host.rx_pending(sh.fd))
                .sum::<usize>();
        // The reap machinery still runs (the kernel does not know the
        // session died), but every message fails the epoch lookup in
        // the open path and is dropped, so the batches come back
        // empty. The drain reaps nothing ahead.
        let all: Vec<usize> = (0..self.shards.len()).collect();
        while self
            .shards
            .iter()
            .any(|sh| ctx.machine.host.rx_pending(sh.fd) > 0)
        {
            let drained = self.recv_batch_on(ctx, &all);
            assert!(
                drained.is_empty(),
                "a revoked session must not surface queued traffic"
            );
        }
        queued
    }

    /// The one encrypt/stage/send path behind every send entry point.
    /// A send ends the serve round its reap opened; one with no round
    /// open is a round of its own.
    ///
    /// On the RPC path `replies` is split by the last reap's
    /// `(shard, count)` record and each slice goes out its shard's
    /// socket ([`Self::post_replies`]), and the send is waited for once
    /// ([`Self::finish_send`]). The record counts only the requests the
    /// reap delivered — frames the session refused are already
    /// subtracted — so the replies always match it. A one-shard server
    /// has nowhere else to route a reply and needs no record. The
    /// native and OCALL baselines send message by message. A reply
    /// that does not fit is left out (see the module docs).
    ///
    /// # Panics
    /// Panics when a sharded server's replies do not answer the last
    /// reap 1:1 — a bug in the serve loop, not something a peer's
    /// bytes can cause.
    fn send_all(&self, ctx: &mut ThreadCtx, replies: &[&[u8]], stripe: usize) {
        ctx.open_round();
        match &self.path {
            _ if replies.is_empty() => {}
            IoPath::Rpc(svc) => {
                let reap = if self.shards.len() == 1 {
                    vec![(0, replies.len())]
                } else {
                    let reap = self.last_reap.lock().clone();
                    let total: usize = reap.iter().map(|&(_, n)| n).sum();
                    // Not input-reachable: the record counts exactly the
                    // requests the reap handed the serve loop (refused
                    // frames are subtracted there), so only a serve loop
                    // that drops or invents a reply — a bug in this
                    // program — can trip it.
                    assert_eq!(
                        replies.len(),
                        total,
                        "a sharded send must answer the last reap 1:1"
                    );
                    reap
                };
                let mut send = None;
                self.post_replies(ctx, svc, &mut send, replies, &reap, stripe);
                self.finish_send(ctx, svc, send);
            }
            _ => {
                let msgs = self.session.encrypt_batch_in_enclave(ctx, replies);
                self.send_sequential(ctx, &msgs);
            }
        }
        ctx.close_round();
    }

    /// Seals, stages and posts replies into the `send` batch group by
    /// group ([`Self::plan_send`]) — each group's seals the next
    /// messages of the round's wire batch — posted as one `send_mmsg`
    /// job per socket a group covers while the worker transmits the
    /// last.
    fn post_replies(
        &self,
        ctx: &mut ThreadCtx,
        svc: &RpcService,
        send: &mut Option<RpcBatch>,
        replies: &[&[u8]],
        reap: &[(usize, usize)],
        stripe: usize,
    ) {
        let (placed, ends) = self.plan_send(replies, reap, stripe, svc.worker_count());
        let mut start = 0;
        for end in ends {
            let msgs = self
                .session
                .encrypt_batch_in_enclave(ctx, &replies[start..end]);
            let jobs = self.stage(ctx, &placed[start..end], &msgs, stripe);
            start = end;
            match send {
                _ if jobs.is_empty() => {}
                None => *send = Some(svc.submit_batch(ctx, &jobs)),
                Some(batch) => svc.extend_batch(ctx, batch, &jobs),
            }
        }
    }

    /// Waits for a send to leave. One worker's poster first reads the
    /// reap posted ahead while the worker transmits
    /// ([`Self::open_ahead`]).
    fn finish_send(&self, ctx: &mut ThreadCtx, svc: &RpcService, send: Option<RpcBatch>) {
        let Some(batch) = send else {
            return;
        };
        if svc.worker_count() > 1 {
            batch.wait_all(ctx);
            return;
        }
        let last = batch.jobs(ctx).pop();
        self.open_ahead(ctx);
        if let Some((_, span)) = last {
            span.wait(ctx);
        }
    }

    /// Reads and opens the reap posted ahead while the worker transmits
    /// a send — unless the head of the next reap rotates the key epoch,
    /// under which that reap must open.
    fn open_ahead(&self, ctx: &mut ThreadCtx) {
        let mut ahead = self.ahead.lock();
        *ahead = match ahead.take() {
            Some(Ahead::Posted(posted)) if !self.rekey_due() => {
                Some(Ahead::Opened(self.read_posted(ctx, posted)))
            }
            other => other,
        };
    }

    /// Where each reply of a send goes, and where its groups end.
    ///
    /// A reply goes to the next transmit slot of its shard, or nowhere
    /// when its sealed frame ([`Session::sealed_len`]) is longer than a
    /// slot or the shard's slots are used up. On a one-worker ring,
    /// whose FIFO transmits a socket's jobs in post order, a group ends
    /// once its staged sealed bytes reach [`SEND_GROUP_BYTES`]. More
    /// workers could take two jobs of one socket out of order, so there
    /// a send is one group. The last group ends with the last reply.
    /// Only sizes decide, so a seed gives the same groups every run.
    fn plan_send(
        &self,
        replies: &[&[u8]],
        reap: &[(usize, usize)],
        stripe: usize,
        workers: usize,
    ) -> (Vec<(usize, Option<usize>)>, Vec<usize>) {
        let slots = (self.cfg.buf_len / stripe).min(self.cfg.batch_max);
        let mut placed = Vec::with_capacity(replies.len());
        let mut ends = Vec::new();
        let mut grouped = 0;
        let mut lens = replies.iter().map(|r| Session::sealed_len(r.len()));
        for &(k, n) in reap {
            let mut staged = 0;
            for len in lens.by_ref().take(n) {
                let slot = if len <= stripe && staged < slots {
                    staged += 1;
                    grouped += len;
                    Some(staged - 1)
                } else {
                    None
                };
                placed.push((k, slot));
                if workers == 1 && grouped >= SEND_GROUP_BYTES {
                    ends.push(placed.len());
                    grouped = 0;
                }
            }
        }
        if ends.last() != Some(&replies.len()) {
            ends.push(replies.len());
        }
        (placed, ends)
    }

    /// Stages one group's sealed replies in their planned transmit
    /// slots, writes each shard's descriptors for them, and returns
    /// one `send_mmsg` job per shard the group staged anything for. A
    /// reply placed nowhere is counted in `reply_rejects`.
    fn stage(
        &self,
        ctx: &mut ThreadCtx,
        placed: &[(usize, Option<usize>)],
        msgs: &[Vec<u8>],
        stripe: usize,
    ) -> Vec<(u64, [u64; 4])> {
        let mut msgs = msgs.iter();
        let mut jobs = Vec::new();
        for run in placed.chunk_by(|a, b| a.0 == b.0) {
            let sh = &self.shards[run[0].0];
            let mut descs = Vec::with_capacity(run.len() * DESC_STRIDE);
            let mut first = None;
            for (&(_, slot), msg) in run.iter().zip(msgs.by_ref()) {
                let Some(slot) = slot else {
                    Stats::bump(&ctx.machine.stats.reply_rejects);
                    continue;
                };
                debug_assert!(msg.len() <= stripe, "a planned reply outgrew its slot");
                first.get_or_insert(slot);
                ctx.write_untrusted(sh.tx_buf + (slot * stripe) as u64, msg);
                descs.extend_from_slice(&(msg.len() as u64).to_le_bytes());
                descs.extend_from_slice(&0u64.to_le_bytes());
            }
            let Some(first) = first else {
                continue;
            };
            let desc = sh.desc_tx + (first * DESC_STRIDE) as u64;
            ctx.write_untrusted(desc, &descs);
            let staged = (descs.len() / DESC_STRIDE) as u64;
            jobs.push((
                funcs::SEND_MMSG,
                [
                    sh.fd.0 as u64,
                    sh.tx_buf + (first * stripe) as u64,
                    ((stripe as u64) << 32) | staged,
                    desc,
                ],
            ));
        }
        jobs
    }

    /// The native/OCALL send loop: one `send` syscall per sealed
    /// message, staged in equal slices of the transmit buffer. A
    /// message longer than its slice is left out and counted in
    /// `reply_rejects`.
    fn send_sequential(&self, ctx: &mut ThreadCtx, msgs: &[Vec<u8>]) {
        let sh = &self.shards[0];
        let stripe = self.cfg.buf_len / msgs.len();
        for (i, msg) in msgs.iter().enumerate() {
            if msg.len() > stripe {
                Stats::bump(&ctx.machine.stats.reply_rejects);
                continue;
            }
            let addr = sh.tx_buf + (i * stripe) as u64;
            ctx.write_untrusted(addr, msg);
            let args = [u64::from(sh.fd.0), addr, msg.len() as u64, 0];
            self.path.call(ctx, funcs::SEND, args);
        }
    }
}

/// One `recv_mmsg` job of a reap: up to `want` messages popped off
/// `shard`'s socket queue into its staging buffers.
struct Run {
    shard: usize,
    want: u64,
}

/// A run's job as the one worker ran it: the count the host wrote back,
/// its [`Span`] on the worker timeline, and when it published each line
/// of descriptors, in worker cycles from the span's start.
struct Ran {
    run: Run,
    n: u64,
    span: Span,
    marks: Vec<u64>,
}

/// A reap posted on a one-worker ring ([`ServerIo::post_reap`]):
/// `streamed` when some run can span two lines of descriptors.
struct Posted {
    streamed: bool,
    stripe: usize,
    ran: Vec<Ran>,
}

/// A reap read and opened, not yet handed on.
#[derive(Default)]
struct Reaped {
    /// The requests the session opened, the runs back to back.
    out: Vec<Vec<u8>>,
    /// `(shard, count)` split of `out`, for the matching send; its
    /// shards' backlog gauges are read when it is handed on.
    record: Vec<(usize, usize)>,
}

impl Reaped {
    /// Appends the next run's.
    fn append(&mut self, mut run: Reaped) {
        self.out.append(&mut run.out);
        self.record.append(&mut run.record);
    }

    /// Splits a one-shard reap after its first `n` requests and
    /// returns the rest.
    fn split_off(&mut self, n: usize) -> Reaped {
        let out = self.out.split_off(n);
        self.record = vec![(0, n)];
        Reaped {
            record: vec![(0, out.len())],
            out,
        }
    }
}

/// The next reap, posted before the last one returned.
enum Ahead {
    /// Posted, not yet read.
    Posted(Posted),
    /// Read and opened by a send, while the worker transmitted it.
    Opened(Reaped),
}

impl Ahead {
    /// How many requests it holds: what the host said each job popped,
    /// bounded by the depth asked for, until it is opened.
    fn len(&self) -> usize {
        match self {
            Ahead::Posted(p) => p.ran.iter().map(|r| r.n.min(r.run.want) as usize).sum(),
            Ahead::Opened(r) => r.out.len(),
        }
    }
}

/// When a reap reads a run's descriptors ([`ServerIo::read_run`]).
enum Lines<'a> {
    /// After waiting for the run's job: the run in one read, every op
    /// stamped at `now`.
    Waited { now: u64 },
    /// As a one-worker ring publishes them: the run's job ran over
    /// `span` on the serving core's clock, publishing line `l`
    /// `marks[l]` worker cycles after its start.
    Streamed {
        span: Span,
        marks: Vec<u64>,
        bill: &'a mut Bill,
    },
}

/// A reap's decrypts, billed as the next messages of the serve round's
/// wire batch under the gate's current key. A `streamed` read bills
/// each frame as it reads it, by `gate` — the gate the open then opens
/// under, so the frames billed are the frames opened; otherwise each
/// run is billed as it is opened.
struct Bill {
    gate: OpenGate,
    streamed: bool,
}

impl Bill {
    fn frame(&mut self, ctx: &mut ThreadCtx, frame: &[u8]) {
        if let Some(len) = self.gate.plain_len(frame) {
            self.charge(ctx, [len]);
        }
    }

    fn charge(&self, ctx: &mut ThreadCtx, lens: impl IntoIterator<Item = usize>) {
        ctx.charge_crypto(self.gate.current(), lens);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_enclave::machine::{MachineConfig, SgxMachine};
    use eleos_enclave::thread::ThreadCtx;
    use eleos_sim::stats::StatsSnapshot;

    #[test]
    #[should_panic(expected = "batch(0)")]
    fn zero_batch_fails_fast() {
        let _ = ServerIoConfig::default().batch(0);
    }

    #[test]
    #[should_panic(expected = "the floor must not exceed the ceiling")]
    fn inverted_adaptive_bounds_fail_fast() {
        let _ = ServerIoConfig::default().adaptive(8, 4);
    }

    #[test]
    #[should_panic(expected = "the floor must be at least one")]
    fn zero_adaptive_floor_fails_fast() {
        let _ = ServerIoConfig::default().adaptive(0, 4);
    }

    #[test]
    fn adaptive_shim_is_its_ceiling() {
        assert_eq!(ServerIoConfig::default().adaptive(1, 32).batch_max, 32);
    }

    #[test]
    fn blocking_recv_waits_for_a_producer() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::established([2u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 1);
        let fd = m.host.socket(&ut, 64 << 10);
        let io =
            ServerIoConfig::with_buf_len(4096).build(&ut, &[fd], IoPath::Ocall, Arc::clone(&wire));

        // A producer that delivers after a delay.
        let producer = {
            let m = Arc::clone(&m);
            let wire = Arc::clone(&wire);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                let ut = ThreadCtx::untrusted(&m, 2);
                m.host.push_request(&ut, fd, &wire.encrypt(b"late arrival"));
            })
        };
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let s0 = m.stats.snapshot();
        let msg = io
            .recv_msg_blocking(&mut t)
            .expect("a live session must deliver");
        assert_eq!(msg, b"late arrival");
        // The wait took the OCALL path (poll syscalls with exits).
        let d = m.stats.snapshot() - s0;
        assert!(d.ocalls >= 1, "blocking wait must OCALL-poll");
        t.exit();
        producer.join().unwrap();
    }

    #[test]
    fn recv_batch_preserves_order_with_two_workers() {
        // Whichever of the two RPC workers claims the reap's one
        // `recv_mmsg` job, slot order is the socket's arrival order.
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::established([5u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 2);
        let fd = m.host.socket(&ut, 64 << 10);
        let svc = eleos_rpc::with_syscalls(eleos_rpc::RpcService::builder(&m), &m)
            .workers(2, &[2, 3])
            .build();
        let io = ServerIoConfig::with_buf_len(8192).batch(8).build(
            &ut,
            &[fd],
            IoPath::Rpc(Arc::new(svc)),
            Arc::clone(&wire),
        );
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        for round in 0..4 {
            for i in 0..8u8 {
                let body = [round * 8 + i; 24];
                m.host.push_request(&ut, fd, &wire.encrypt(&body));
            }
            let msgs = io.recv_batch(&mut t);
            assert_eq!(msgs.len(), 8);
            for (i, msg) in msgs.iter().enumerate() {
                assert_eq!(
                    msg,
                    &vec![round * 8 + i as u8; 24],
                    "message {i} of round {round} out of order"
                );
            }
        }
        t.exit();
    }

    /// Reaps eight 24-byte requests at depth 8 on a fresh machine with
    /// `workers` RPC workers (on cores 3, then 1). Returns the
    /// plaintexts, the serving core's cycles for the reap and the
    /// machine's stats over it.
    fn reap_8(workers: usize) -> (Vec<Vec<u8>>, u64, StatsSnapshot) {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::established([6u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 2);
        let fd = m.host.socket(&ut, 64 << 10);
        let svc = eleos_rpc::with_syscalls(eleos_rpc::RpcService::builder(&m), &m)
            .workers(workers, &[3, 1][..workers])
            .build();
        let io = ServerIoConfig::with_buf_len(8192).batch(8).build(
            &ut,
            &[fd],
            IoPath::Rpc(Arc::new(svc)),
            Arc::clone(&wire),
        );
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        for i in 0..8u8 {
            m.host.push_request(&ut, fd, &wire.encrypt(&[i; 24]));
        }
        let (c0, s0) = (t.now(), m.stats.snapshot());
        let msgs = io.recv_batch(&mut t);
        let (cycles, d) = (t.now() - c0, m.stats.snapshot() - s0);
        t.exit();
        (msgs, cycles, d)
    }

    #[test]
    fn batched_crypto_saves_serving_cycles_for_the_same_bytes() {
        // Two workers: the reap waits for the worker up front and then
        // decrypts its eight requests as one crypto batch — the leader
        // pays the full setup, each follow-on a quarter of it.
        let (msgs, _, d) = reap_8(2);
        assert_eq!(msgs, (0..8u8).map(|i| vec![i; 24]).collect::<Vec<_>>());
        let full = MachineConfig::tiny().costs.crypto_fixed;
        assert_eq!(
            (d.crypto_batches, d.crypto_msgs, d.crypto_setup_cycles),
            (1, 8, full + 7 * (full / 4))
        );
    }

    #[test]
    fn streamed_batched_crypto_cycles_are_pinned() {
        // One worker: the reap is streamed, each descriptor line
        // decrypted while the worker copies the next.
        let (msgs, cycles, _) = reap_8(1);
        assert_eq!(msgs.len(), 8);
        assert_eq!(cycles, 7_480);
    }

    #[test]
    fn sync_echo_rounds_are_pinned() {
        // Four rounds of four echoes through one worker on a
        // CAT-partitioned machine: each send is waited for before it
        // returns, so the sixteen echoes reach the socket in order and
        // the serving clock is exact (44 510 until a round's decrypts
        // and seals were one wire batch).
        let m = SgxMachine::new(MachineConfig::tiny());
        m.enable_cat();
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::established([7u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 2);
        let fd = m.host.socket(&ut, 64 << 10);
        let svc = eleos_rpc::with_syscalls(eleos_rpc::RpcService::builder(&m), &m)
            .workers(1, &[3])
            .build();
        let io = ServerIoConfig::with_buf_len(8192).batch(4).build(
            &ut,
            &[fd],
            IoPath::Rpc(Arc::new(svc)),
            Arc::clone(&wire),
        );
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let c0 = t.now();
        for round in 0..4u8 {
            for i in 0..4u8 {
                let body = [round * 4 + i; 24];
                m.host.push_request(&ut, fd, &wire.encrypt(&body));
            }
            let msgs = io.recv_batch(&mut t);
            assert_eq!(msgs.len(), 4);
            io.send_batch(&mut t, &msgs);
        }
        let cycles = t.now() - c0;
        t.exit();
        let mut echoed = Vec::new();
        while let Some(resp) = m.host.pop_response(fd) {
            echoed.push(wire.decrypt(&resp));
        }
        let expected: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 24]).collect();
        assert_eq!(echoed, expected, "every echo, in order");
        assert_eq!(cycles, 43_310);
    }

    #[test]
    fn sharded_echo_routes_replies_back_per_shard() {
        // Requests pushed to distinct shards come back out the same
        // shard's socket, in per-shard arrival order, even though the
        // serve loop sees one concatenated batch.
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::established([9u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 2);
        let fds = m.host.socket_set(&ut, 3, 64 << 10);
        let svc = eleos_rpc::with_syscalls(eleos_rpc::RpcService::builder(&m), &m)
            .workers(2, &[2, 3])
            .build();
        let io = ServerIoConfig::with_buf_len(8192).batch(4).build(
            &ut,
            &fds,
            IoPath::Rpc(Arc::new(svc)),
            Arc::clone(&wire),
        );
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        // Shard 0: 2 msgs, shard 1: 0 msgs, shard 2: 3 msgs.
        for i in 0..2u8 {
            m.host.push_request(&ut, fds[0], &wire.encrypt(&[i; 24]));
        }
        for i in 0..3u8 {
            m.host
                .push_request(&ut, fds[2], &wire.encrypt(&[0x40 + i; 24]));
        }
        let msgs = io.recv_batch(&mut t);
        assert_eq!(msgs.len(), 5, "both non-empty shards reaped");
        io.send_batch(&mut t, &msgs);
        t.exit();
        let drain = |fd| {
            let mut out = Vec::new();
            while let Some(resp) = m.host.pop_response(fd) {
                out.push(wire.decrypt(&resp));
            }
            out
        };
        assert_eq!(drain(fds[0]), vec![vec![0u8; 24], vec![1u8; 24]]);
        assert_eq!(drain(fds[1]), Vec::<Vec<u8>>::new());
        assert_eq!(
            drain(fds[2]),
            vec![vec![0x40u8; 24], vec![0x41u8; 24], vec![0x42u8; 24]]
        );
    }

    #[test]
    fn nine_shards_serve_a_round_each() {
        // Nothing sizes an array by the shard count or caps it.
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::established([10u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 2);
        let fds = m.host.socket_set(&ut, 9, 64 << 10);
        let svc = eleos_rpc::with_syscalls(eleos_rpc::RpcService::builder(&m), &m)
            .workers(2, &[2, 3])
            .build();
        let io = ServerIoConfig::with_buf_len(8192).batch(4).build(
            &ut,
            &fds,
            IoPath::Rpc(Arc::new(svc)),
            Arc::clone(&wire),
        );
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        for (k, &fd) in fds.iter().enumerate() {
            m.host.push_request(&ut, fd, &wire.encrypt(&[k as u8; 24]));
        }
        assert_eq!(io.serve(&mut t, |_, plain| plain.to_vec()), 9);
        t.exit();
        for (k, &fd) in fds.iter().enumerate() {
            let reply = m.host.pop_response(fd).expect("every shard answers");
            assert_eq!(wire.decrypt(&reply), [k as u8; 24]);
            assert_eq!(io.shard_stats()[k].sojourn.count(), 1);
        }
    }

    #[test]
    fn sojourn_histogram_records_every_mmsg_reap() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::established([13u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 2);
        let fd = m.host.socket(&ut, 64 << 10);
        let svc = eleos_rpc::with_syscalls(eleos_rpc::RpcService::builder(&m), &m)
            .workers(1, &[3])
            .build();
        let io = ServerIoConfig::with_buf_len(8192).batch(4).build(
            &ut,
            &[fd],
            IoPath::Rpc(Arc::new(svc)),
            Arc::clone(&wire),
        );
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let s0 = m.stats.snapshot();
        for i in 0..4u8 {
            // Stamp arrivals on the serving core's clock so the
            // sojourn is measured on one timebase.
            m.host
                .push_request_at(&ut, fd, &wire.encrypt(&[i; 24]), t.now());
        }
        assert_eq!(io.recv_batch(&mut t).len(), 4);
        let d = m.stats.snapshot() - s0;
        assert_eq!(d.sojourn.count(), 4, "one sojourn sample per reaped op");
        assert!(d.sojourn.p99() > 0, "reap happens after the arrivals");
        t.exit();
    }

    #[test]
    fn shard_gauges_read_the_residue_and_belong_to_their_server() {
        // Shard 0 holds six queued messages at depth two: the reap
        // takes the oldest two and the backlog gauge reads the four
        // left behind. A second server on the same machine reaps one
        // message of its own: neither server's shard numbers may show
        // the other's.
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::established([17u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 2);
        let fds = m.host.socket_set(&ut, 2, 64 << 10);
        let other_fds = m.host.socket_set(&ut, 2, 64 << 10);
        let svc = eleos_rpc::with_syscalls(eleos_rpc::RpcService::builder(&m), &m)
            .workers(2, &[2, 3])
            .build();
        let path = IoPath::Rpc(Arc::new(svc));
        let cfg = ServerIoConfig::with_buf_len(8192).batch(2);
        let io = cfg
            .clone()
            .build(&ut, &fds, path.clone(), Arc::clone(&wire));
        let other = cfg.build(&ut, &other_fds, path, Arc::clone(&wire));
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        for i in 0..6u8 {
            m.host.push_request(&ut, fds[0], &wire.encrypt(&[i; 24]));
        }
        m.host
            .push_request(&ut, other_fds[1], &wire.encrypt(&[9; 24]));
        assert_eq!(other.recv_batch(&mut t), [vec![9u8; 24]]);
        assert_eq!(io.recv_batch(&mut t), [vec![0u8; 24], vec![1u8; 24]]);
        t.exit();
        let read = |io: &ServerIo| -> Vec<(u64, u64)> {
            let stats = io.shard_stats();
            stats
                .iter()
                .map(|s| (s.backlog, s.sojourn.count()))
                .collect()
        };
        assert_eq!(read(&io), [(4, 2), (0, 0)]);
        assert_eq!(read(&other), [(0, 0), (0, 1)], "servers share no gauge");
    }

    /// A lone echo server on one worker, reaping four at a time, with
    /// eight requests queued: two full reaps.
    fn queued_echo(
        cfg: ServerIoConfig,
    ) -> (Arc<SgxMachine>, Arc<Session>, Fd, ServerIo, ThreadCtx) {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::established([23u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 2);
        let fd = m.host.socket(&ut, 64 << 10);
        let svc = eleos_rpc::with_syscalls(eleos_rpc::RpcService::builder(&m), &m)
            .workers(1, &[3])
            .build();
        let io = cfg
            .batch(4)
            .build(&ut, &[fd], IoPath::Rpc(Arc::new(svc)), Arc::clone(&wire));
        for i in 0..8u8 {
            m.host.push_request(&ut, fd, &wire.encrypt(&[i; 24]));
        }
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        (m, wire, fd, io, t)
    }

    /// Serves one round of echoes and returns its wire crypto:
    /// `[crypto_batches, crypto_msgs, crypto_setup_cycles]`.
    fn echo_round(m: &SgxMachine, io: &ServerIo, t: &mut ThreadCtx) -> [u64; 3] {
        let s0 = m.stats.snapshot();
        assert_eq!(io.serve(t, |_, plain| plain.to_vec()), 4);
        let d = m.stats.snapshot() - s0;
        [d.crypto_batches, d.crypto_msgs, d.crypto_setup_cycles]
    }

    #[test]
    fn a_serve_rounds_opens_seals_and_reap_ahead_are_one_wire_batch() {
        let (m, wire, fd, io, mut t) = queued_echo(ServerIoConfig::with_buf_len(8192));
        let fixed = m.cfg.costs.crypto_fixed;
        // Four opens, four seals, and the four opens of the reap posted
        // ahead, read while the worker transmits.
        assert_eq!(
            echo_round(&m, &io, &mut t),
            [1, 12, fixed + 11 * (fixed / 4)]
        );
        // The next round's requests were opened ahead: only its seals.
        assert_eq!(echo_round(&m, &io, &mut t), [1, 4, fixed + 3 * (fixed / 4)]);
        t.exit();
        let echoed: Vec<Vec<u8>> = std::iter::from_fn(|| m.host.pop_response(fd))
            .map(|r| wire.decrypt(&r))
            .collect();
        assert_eq!(echoed, (0..8u8).map(|i| vec![i; 24]).collect::<Vec<_>>());
    }

    #[test]
    fn a_rekey_at_the_reap_starts_the_rounds_wire_batch_under_the_new_epoch() {
        let (m, wire, fd, io, mut t) =
            queued_echo(ServerIoConfig::with_buf_len(8192).rekey_every(4));
        let fixed = m.cfg.costs.crypto_fixed;
        // The interval elapses with the first round, so the reap posted
        // ahead is left unopened for the rotated session.
        assert_eq!(echo_round(&m, &io, &mut t), [1, 8, fixed + 7 * (fixed / 4)]);
        let first: Vec<Vec<u8>> = std::iter::from_fn(|| m.host.pop_response(fd))
            .map(|r| wire.decrypt(&r))
            .collect();
        assert_eq!(wire.epoch(), 0);
        // The second reap rotates first: its epoch-0 requests open and
        // its replies seal as one batch under the epoch-1 key.
        assert_eq!(echo_round(&m, &io, &mut t), [1, 8, fixed + 7 * (fixed / 4)]);
        assert_eq!((wire.epoch(), m.stats.snapshot().rekeys), (1, 1));
        t.exit();
        let second = std::iter::from_fn(|| m.host.pop_response(fd)).map(|r| wire.decrypt(&r));
        let echoed: Vec<Vec<u8>> = first.into_iter().chain(second).collect();
        assert_eq!(echoed, (0..8u8).map(|i| vec![i; 24]).collect::<Vec<_>>());
    }

    #[test]
    fn rekey_interval_rotates_at_the_fence_without_losing_replies() {
        // With `rekey_every(4)` the epoch must advance once per four
        // decrypted requests, at reap boundaries only, and every
        // message must still decrypt to the same bytes a static-key
        // server would produce.
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::established([21u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 2);
        let fd = m.host.socket(&ut, 64 << 10);
        let svc = eleos_rpc::with_syscalls(eleos_rpc::RpcService::builder(&m), &m)
            .workers(1, &[3])
            .build();
        let io = ServerIoConfig::with_buf_len(8192)
            .batch(4)
            .rekey_every(4)
            .build(&ut, &[fd], IoPath::Rpc(Arc::new(svc)), Arc::clone(&wire));
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let s0 = m.stats.snapshot();
        let mut out = Vec::new();
        for round in 0..4u8 {
            for i in 0..4u8 {
                m.host
                    .push_request(&ut, fd, &wire.encrypt(&[round * 4 + i; 24]));
            }
            let msgs = io.recv_batch(&mut t);
            assert_eq!(msgs.len(), 4, "rotation must not stall the reap");
            io.send_batch(&mut t, &msgs);
            // The client reads each round's replies while their epoch
            // is still buffered — a real client tracks the server's
            // announcements, it does not decrypt a whole run at once.
            while let Some(resp) = m.host.pop_response(fd) {
                out.push(wire.decrypt(&resp));
            }
        }
        t.exit();
        let d = m.stats.snapshot() - s0;
        // Fences run before reaps 2, 3, and 4 see `served >= 4`.
        assert_eq!(d.rekeys, 3, "one rotation per elapsed interval");
        assert_eq!(d.auth_failures, 0, "every epoch stayed in the buffer");
        assert!(wire.epoch() >= 3, "the session's current epoch advanced");
        assert_eq!(
            out,
            (0..16u8).map(|i| vec![i; 24]).collect::<Vec<_>>(),
            "every reply decrypts across rotations"
        );
    }

    #[test]
    fn revoke_drops_queued_traffic_and_ends_the_blocking_wait() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::established([23u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 2);
        let fd = m.host.socket(&ut, 64 << 10);
        let svc = eleos_rpc::with_syscalls(eleos_rpc::RpcService::builder(&m), &m)
            .workers(1, &[3])
            .build();
        let io = ServerIoConfig::with_buf_len(8192).batch(4).build(
            &ut,
            &[fd],
            IoPath::Rpc(Arc::new(svc)),
            Arc::clone(&wire),
        );
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        for i in 0..6u8 {
            m.host.push_request(&ut, fd, &wire.encrypt(&[i; 24]));
        }
        let s0 = m.stats.snapshot();
        let queued = io.revoke(&mut t);
        assert_eq!(queued, 6, "revocation reports the traffic it dropped");
        let d = m.stats.snapshot() - s0;
        assert_eq!(d.revocations, 1);
        assert_eq!(d.auth_failures, 6, "every queued message was rejected");
        assert_eq!(wire.state(), SessionState::Revoked);
        assert_eq!(
            io.recv_msg_blocking(&mut t),
            None,
            "the blocking wait must not spin on a dead session"
        );
        assert!(io.recv_batch(&mut t).is_empty());
        t.exit();
    }

    /// A one-worker echo server at depth four, with a CAT-partitioned
    /// LLC so its clocks are exact.
    fn ahead_rig() -> (
        Arc<SgxMachine>,
        ThreadCtx,
        ThreadCtx,
        Arc<Session>,
        Fd,
        ServerIo,
    ) {
        let m = SgxMachine::new(MachineConfig::tiny());
        m.enable_cat();
        let e = m.driver.create_enclave(&m, 1 << 20);
        let wire = Arc::new(Session::established([29u8; 16]));
        let ut = ThreadCtx::untrusted(&m, 2);
        let fd = m.host.socket(&ut, 64 << 10);
        let svc = eleos_rpc::with_syscalls(eleos_rpc::RpcService::builder(&m), &m)
            .workers(1, &[3])
            .build();
        let io = ServerIoConfig::with_buf_len(8192).batch(4).build(
            &ut,
            &[fd],
            IoPath::Rpc(Arc::new(svc)),
            Arc::clone(&wire),
        );
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        (m, ut, t, wire, fd, io)
    }

    fn echo(_: &mut ThreadCtx, plain: &[u8]) -> Vec<u8> {
        plain.to_vec()
    }

    #[test]
    fn revoke_drops_a_pending_ahead_opened_or_not() {
        // Twelve queued at depth four: the first reap posts the second
        // ahead. A send opens it; without one it stays posted. Either
        // way revocation counts it with the four still queued, and none
        // of it surfaces.
        for opened in [false, true] {
            let (m, ut, mut t, wire, fd, io) = ahead_rig();
            for i in 0..12u8 {
                m.host.push_request(&ut, fd, &wire.encrypt(&[i; 24]));
            }
            let got = io.recv_batch(&mut t);
            assert_eq!(got.len(), 4);
            if opened {
                io.send_batch(&mut t, &got);
            }
            assert!(
                matches!(
                    (opened, &*io.ahead.lock()),
                    (false, Some(Ahead::Posted(_))) | (true, Some(Ahead::Opened(_)))
                ),
                "opened={opened}: the second reap is pending"
            );
            assert_eq!(io.revoke(&mut t), 8, "opened={opened}");
            assert!(io.ahead.lock().is_none(), "opened={opened}");
            assert!(io.recv_batch(&mut t).is_empty(), "opened={opened}");
            assert_eq!(io.recv_msg(&mut t), None, "opened={opened}");
            t.exit();
        }
    }

    #[test]
    fn recv_msg_hands_a_pending_ahead_out_in_arrival_order() {
        let (m, ut, mut t, wire, fd, io) = ahead_rig();
        for i in 0..12u8 {
            m.host.push_request(&ut, fd, &wire.encrypt(&[i; 24]));
        }
        assert_eq!(io.serve(&mut t, echo), 4);
        assert!(matches!(*io.ahead.lock(), Some(Ahead::Opened(_))));
        // Four reaped ahead, then the four still queued.
        for i in 4..12u8 {
            assert_eq!(io.recv_msg(&mut t), Some(vec![i; 24]), "request {i}");
        }
        assert_eq!(io.recv_msg(&mut t), None);
        t.exit();
    }

    #[test]
    fn a_due_rotation_leaves_the_ahead_to_the_next_fence() {
        // Eight requests sealed under epoch 0 wait behind a rotation to
        // epoch 1; the second reap's four are under the draining epoch,
        // which the rotation at the head of the third reap retires. A
        // server that never reaps ahead (two workers) refuses those
        // four, and so must the one worker that reaped them ahead.
        for workers in [1, 2] {
            let m = SgxMachine::new(MachineConfig::tiny());
            let e = m.driver.create_enclave(&m, 1 << 20);
            let wire = Arc::new(Session::established([31u8; 16]));
            let ut = ThreadCtx::untrusted(&m, 2);
            let fd = m.host.socket(&ut, 64 << 10);
            let svc = eleos_rpc::with_syscalls(eleos_rpc::RpcService::builder(&m), &m)
                .workers(workers, &[3, 1][..workers])
                .build();
            let io = ServerIoConfig::with_buf_len(8192)
                .batch(4)
                .rekey_every(4)
                .build(&ut, &[fd], IoPath::Rpc(Arc::new(svc)), Arc::clone(&wire));
            let mut t = ThreadCtx::for_enclave(&m, &e, 0);
            t.enter();
            for i in 0..12u8 {
                m.host.push_request(&ut, fd, &wire.encrypt(&[i; 24]));
            }
            let served: Vec<usize> = (0..3).map(|_| io.serve(&mut t, echo)).collect();
            t.exit();
            let d = m.stats.snapshot();
            assert_eq!(served, [4, 4, 0], "workers={workers}");
            assert_eq!((d.rekeys, d.auth_failures), (2, 4), "workers={workers}");
        }
    }

    #[test]
    fn reset_counters_under_a_pending_ahead_charges_no_stale_wait() {
        // Two twins: a reap that leaves the next one posted ahead, or a
        // serve that leaves it opened, then one more serve. The twin
        // whose clocks were reset in between must not wait out the
        // history the reset erased.
        for serve_first in [false, true] {
            let cycles = |reset: bool| {
                let (m, ut, mut t, wire, fd, io) = ahead_rig();
                for i in 0..12u8 {
                    m.host.push_request(&ut, fd, &wire.encrypt(&[i; 24]));
                }
                if serve_first {
                    assert_eq!(io.serve(&mut t, echo), 4);
                } else {
                    assert_eq!(io.recv_batch(&mut t).len(), 4);
                }
                if reset {
                    m.reset_counters();
                }
                let c0 = t.now();
                assert_eq!(io.serve(&mut t, echo), 4);
                let cycles = t.now() - c0;
                t.exit();
                cycles
            };
            let (kept, reset) = (cycles(false), cycles(true));
            assert!(
                reset <= kept,
                "serve_first={serve_first}: {reset} cycles after a reset, {kept} without"
            );
        }
    }
}
