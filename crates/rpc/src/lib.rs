//! Exit-less RPC for enclaves (Eleos §3.1).
//!
//! Instead of OCALLing (8k cycles of direct cost plus a TLB flush and
//! cache-state loss), the enclave writes a job descriptor into a shared
//! ring in *untrusted* memory and spins on its completion word; a
//! worker in the owner process polls the ring, executes the untrusted
//! function (typically a system call) and posts the result back. The
//! enclave never leaves trusted mode.
//!
//! The ring is a bounded lock-free MPSC queue (Vyukov-style): every
//! slot carries a sequence number, enclave callers claim slots by
//! compare-and-swapping the head cursor, and the one worker thread
//! takes posted slots in order — there is no channel, lock or
//! condition variable anywhere on the hot path. The worker polls with
//! a spin → yield → adaptive-sleep backoff so an idle ring costs little
//! host CPU while a busy one never sleeps.
//!
//! On top of the blocking [`RpcService::call`] the service exposes an
//! asynchronous API that amortizes the handoff cost across in-flight
//! jobs:
//!
//! - [`RpcService::call_async`] posts one job and returns an
//!   [`RpcFuture`] to redeem later;
//! - [`RpcService::submit_batch`] posts many jobs back-to-back — the
//!   first pays the full [`rpc_roundtrip`](eleos_sim::costs::CostModel)
//!   handoff, each subsequent post only the incremental
//!   [`rpc_post`](eleos_sim::costs::CostModel) — and
//!   [`RpcBatch::wait_all`] waits once, to the latest-ending job;
//! - [`RpcService::extend_batch`] posts a follow-on group into a
//!   submitted batch, so the caller can prepare the next jobs while
//!   the worker runs the last ones and still wait once;
//! - [`RpcBatch::jobs`] reaps a batch without charging the wait: it
//!   hands back each job's result and its [`Span`] on the lane
//!   timeline, for a caller that times its own progress against it.
//!
//! # Lanes
//!
//! The ring has `k` lanes ([`RpcBuilder::workers`]; two by default),
//! each a simulated worker core with its own clock and TLB. A job
//! starts at the later of its post and its lane's previous job's end,
//! on the poster's clock ([`Span`]). A socket's jobs always take the
//! socket's lane, given round-robin on its first use, because a kernel
//! serializes the syscalls of one socket; any other job takes the
//! earliest-free lane. One host thread runs every job, in post order,
//! only once a poster waits (or its ring fills), and then every job
//! posted so far. With one posting host thread its memory traffic never
//! runs host-concurrently with the poster's, so a seed gives the same
//! cycles for any `k`, with or without CAT. `docs/rpc-ring.md` has the
//! rules.
//!
//! Two refinements from the paper are implemented:
//!
//! - **Cache partitioning** (§3.1): with
//!   [`SgxMachine::enable_cat`](eleos_enclave::machine::SgxMachine)
//!   the lanes are fenced into 25% of the LLC ways, so their I/O
//!   buffers stop evicting enclave state;
//! - **OCALL fallback**: long-blocking calls (the paper's `poll()`)
//!   keep using OCALLs rather than burn a worker — [`IoPath::call`]
//!   makes that split.
//!
//! The syscalls themselves are one table: the [`funcs`] ids, their one
//! implementation [`dispatch`], and [`IoPath::call`], which issues one
//! of them natively, by OCALL or over the ring.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use eleos_enclave::machine::{MachineConfig, SgxMachine};
//! use eleos_enclave::thread::ThreadCtx;
//! use eleos_rpc::{RpcService, UntrustedFn};
//!
//! let machine = SgxMachine::new(MachineConfig::tiny());
//! let svc = RpcService::builder(&machine)
//!     .register(7, UntrustedFn::new(|_ctx, args| args[0] + args[1]))
//!     .workers(1, &[3])
//!     .build();
//!
//! let enclave = machine.driver.create_enclave(&machine, 64 * 4096);
//! let mut t = ThreadCtx::for_enclave(&machine, &enclave, 0);
//! t.enter();
//! // Blocking call:
//! let sum = svc.call(&mut t, 7, [20, 22, 0, 0]);
//! assert_eq!(sum, 42);
//! // Batched: four adds in flight at once, one amortized handoff.
//! let reqs: Vec<_> = (0..4u64).map(|i| (7, [i, 10, 0, 0])).collect();
//! let rets = svc.submit_batch(&mut t, &reqs).wait_all(&mut t);
//! assert_eq!(rets, vec![10, 11, 12, 13]);
//! t.exit();
//! ```

#![forbid(unsafe_code)]

pub mod channel;

pub use channel::EnclaveChannel;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use eleos_enclave::fs::{FileFd, FsError};
use eleos_enclave::host::Fd;
use eleos_enclave::machine::SgxMachine;
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::stats::Stats;
use eleos_sim::trace::Event;

/// Simulated-memory slot layout (one 64-byte line, mirroring a real
/// implementation): `[func][arg0..arg3][ret][pad]`. The control word
/// (the slot's sequence number) lives host-side in [`Slot::seq`]; its
/// cache-line traffic is what `rpc_roundtrip` / `rpc_post` charge for.
const SLOT_BYTES: u64 = 64;
const OFF_FUNC: u64 = 0;
const OFF_RET: u64 = 40;
const DESC_BYTES: usize = 40;

/// Returned by a worker when the requested `func_id` has no registered
/// handler (also bumps the `rpc_errors` counter), and by [`dispatch`]
/// for an id outside the syscall table. Note the syscalls reuse
/// `u64::MAX` as their would-block/error value; check `rpc_errors` to
/// distinguish a routing failure from a syscall error.
pub const ERR_UNREGISTERED: u64 = u64::MAX;

/// The boxed calling convention of the shared ring: the worker's
/// [`ThreadCtx`] plus four `u64` arguments, returning one `u64`.
pub type RingFn = Box<dyn Fn(&mut ThreadCtx, [u64; 4]) -> u64 + Send + Sync>;

/// An untrusted function callable through the RPC ring.
///
/// Receives the worker's [`ThreadCtx`] (so its memory traffic is
/// charged to the RPC cache partition) and four `u64` arguments,
/// returning one `u64`.
pub struct UntrustedFn {
    f: RingFn,
}

impl UntrustedFn {
    /// Wraps a closure.
    pub fn new(f: impl Fn(&mut ThreadCtx, [u64; 4]) -> u64 + Send + Sync + 'static) -> Self {
        Self { f: Box::new(f) }
    }
}

/// Exponential spin → yield → sleep backoff for ring polling.
///
/// The first few rounds busy-spin (winning the common case where the
/// peer is one cache-line transfer away), the next few yield the time
/// slice, and from there on the poller sleeps with exponentially
/// growing, capped intervals so an idle worker costs ~nothing.
/// A poster waiting on the worker starts at the yields
/// ([`Backoff::waiting`]).
struct Backoff {
    step: u32,
}

/// How many raw `spin_loop` polls a slot-claim attempt may burn before
/// it must `yield_now` (counted in `rpc_idle_yields`). Small enough
/// that a contended producer on a single-CPU host cedes the time slice
/// quickly to whoever holds the claim.
const CLAIM_SPIN_LIMIT: u32 = 32;

impl Backoff {
    const SPIN_LIMIT: u32 = 6;
    const YIELD_LIMIT: u32 = 10;
    const SLEEP_CAP_US: u64 = 64;

    fn new() -> Self {
        Self { step: 0 }
    }

    /// A poster's wait for the worker, which skips the spin. The ring
    /// runs nothing before its poster waits, so its worker has usually
    /// gone to sleep by then: the spin only burnt the waiting thread's
    /// CPU (~6 µs a wait), time the yields give the worker instead.
    fn waiting() -> Self {
        Self {
            step: Self::SPIN_LIMIT + 1,
        }
    }

    fn reset(&mut self) {
        self.step = 0;
    }

    fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                core::hint::spin_loop();
            }
        } else if self.step <= Self::YIELD_LIMIT {
            std::thread::yield_now();
        } else {
            let exp = (self.step - Self::YIELD_LIMIT).min(6);
            let us = (1u64 << exp).min(Self::SLEEP_CAP_US);
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
        self.step = self.step.saturating_add(1);
    }
}

/// Host-side control word of one ring slot (see the Vyukov protocol in
/// `docs/rpc-ring.md`). The sequence space is scaled by 4 so the three
/// phases of a lap can never collide with the next lap's "free" value,
/// even on a 1- or 2-slot ring: `seq == pos * 4` free,
/// `pos * 4 + 1` posted, `pos * 4 + 2` done,
/// `(pos + n_slots) * 4` freed for the next lap.
struct Slot {
    seq: AtomicU64,
    /// The job's place on its poster's timeline, kept host-side like
    /// the sequence word: the poster's core and clock when the post
    /// landed (written before the post is published) and the job's
    /// start and end on that clock (written before its completion is).
    core: AtomicU64,
    posted: AtomicU64,
    start: AtomicU64,
    end: AtomicU64,
}

/// Sequence value for "free, awaiting the producer of `pos`".
const fn seq_free(pos: u64) -> u64 {
    pos * 4
}

/// Sequence value for "descriptor posted at `pos`".
const fn seq_posted(pos: u64) -> u64 {
    pos * 4 + 1
}

/// Sequence value for "completion published for `pos`".
const fn seq_done(pos: u64) -> u64 {
    pos * 4 + 2
}

struct Shared {
    machine: Arc<SgxMachine>,
    registry: HashMap<u64, UntrustedFn>,
    /// Base of the descriptor array in simulated untrusted memory.
    ring: u64,
    /// Per-slot sequence words (the lock-free control plane).
    slots: Vec<Slot>,
    /// Enqueue cursor: the next position a caller will claim.
    head: AtomicU64,
    /// Worker shutdown flag; the worker drains posted jobs before
    /// exiting.
    stop: AtomicBool,
    /// Jobs at positions below this may run: raised to the head
    /// whenever a poster waits (or its ring is full), so one poster's
    /// wait also releases the jobs other threads posted before it.
    released: AtomicU64,
}

/// When a job ran, on its poster's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The poster's clock when the post landed.
    posted: u64,
    /// When its lane started the job: the later of its post and the
    /// end of the lane's previous job.
    pub start: u64,
    /// When its lane finished it.
    pub end: u64,
}

impl Span {
    /// The span as its poster sees it when its clock reads `now`. A
    /// clock reset since the post (`now` before it) erased the wait:
    /// the job counts as run at `now`.
    #[must_use]
    pub fn seen_at(self, now: u64) -> Span {
        if now < self.posted {
            Span {
                posted: now,
                start: now,
                end: now,
            }
        } else {
            self
        }
    }

    /// Advances `ctx`'s clock to the job's end, if it is not past it.
    pub fn wait(self, ctx: &ThreadCtx) {
        Span::wait_latest([self], ctx);
    }

    /// Advances `ctx`'s clock to the end of the latest-ending of
    /// `spans`, if it is not past it: a batch is waited to its
    /// latest-ending job, which need not be its last-posted one.
    pub fn wait_latest(spans: impl IntoIterator<Item = Span>, ctx: &ThreadCtx) {
        let now = ctx.now();
        let end = spans.into_iter().map(|span| span.seen_at(now).end).max();
        ctx.compute(end.unwrap_or(now).saturating_sub(now));
    }
}

impl Shared {
    fn slot_base(&self, pos: u64) -> u64 {
        self.ring + (pos % self.slots.len() as u64) * SLOT_BYTES
    }

    /// Lets the worker run every job posted so far.
    fn release(&self) {
        let head = self.head.load(Ordering::Acquire);
        self.released.fetch_max(head, Ordering::AcqRel);
    }
}

/// The Eleos RPC service: a lock-free shared job ring plus the polling
/// worker thread that runs its lanes.
pub struct RpcService {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

/// Builder for [`RpcService`].
pub struct RpcBuilder {
    machine: Arc<SgxMachine>,
    registry: HashMap<u64, UntrustedFn>,
    n_slots: usize,
    lane_cores: Vec<usize>,
}

impl RpcBuilder {
    /// Registers `func_id` to execute `f` on a worker.
    #[must_use]
    pub fn register(mut self, func_id: u64, f: UntrustedFn) -> Self {
        self.registry.insert(func_id, f);
        self
    }

    /// Gives the ring `n` lanes on the given cores (cycled if fewer
    /// cores than lanes are supplied). One host thread runs them all.
    ///
    /// # Panics
    /// Panics if `n` is zero (a ring nobody serves deadlocks the first
    /// caller) or `cores` is empty.
    #[must_use]
    pub fn workers(mut self, n: usize, cores: &[usize]) -> Self {
        assert!(
            n > 0,
            "an RPC service needs at least one worker: nothing would ever poll the ring"
        );
        assert!(!cores.is_empty());
        self.lane_cores = (0..n).map(|i| cores[i % cores.len()]).collect();
        self
    }

    /// Sets the number of ring slots (defaults to 16).
    #[must_use]
    pub fn slots(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.n_slots = n;
        self
    }

    /// Builds the service and starts its worker.
    #[must_use]
    pub fn build(self) -> RpcService {
        let ring = self
            .machine
            .alloc_untrusted(self.n_slots * SLOT_BYTES as usize);
        self.machine
            .untrusted
            .fill(ring, self.n_slots * SLOT_BYTES as usize, 0);
        let slots = (0..self.n_slots as u64)
            .map(|i| Slot {
                seq: AtomicU64::new(seq_free(i)),
                core: AtomicU64::new(0),
                posted: AtomicU64::new(0),
                start: AtomicU64::new(0),
                end: AtomicU64::new(0),
            })
            .collect();
        let shared = Arc::new(Shared {
            machine: Arc::clone(&self.machine),
            registry: self.registry,
            ring,
            slots,
            head: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            released: AtomicU64::new(0),
        });
        let worker = {
            let (shared, cores) = (Arc::clone(&shared), self.lane_cores);
            std::thread::spawn(move || worker_loop(&shared, Lanes::new(&shared.machine, &cores)))
        };
        RpcService {
            shared,
            worker: Some(worker),
        }
    }
}

/// The lanes the one worker thread runs jobs on, and their timelines.
struct Lanes {
    /// One worker context per lane, on the lane's core.
    ctxs: Vec<ThreadCtx>,
    /// Each socket's lane, given round-robin on the socket's first job.
    sockets: HashMap<u64, usize>,
    /// Per posting core: its clock at its last post, and when each lane
    /// is next free on that clock. Posters on different cores keep
    /// separate timelines: their clocks share no timebase.
    timelines: HashMap<u64, (u64, Vec<u64>)>,
}

impl Lanes {
    fn new(machine: &Arc<SgxMachine>, cores: &[usize]) -> Self {
        Self {
            ctxs: cores
                .iter()
                .map(|&core| ThreadCtx::rpc_worker(machine, core))
                .collect(),
            sockets: HashMap::new(),
            timelines: HashMap::new(),
        }
    }

    /// The lane `func(args)` runs on, given when each lane is next
    /// free: a socket's own, else the earliest free (the first of
    /// equals).
    fn pick(&mut self, func: u64, args: [u64; 4], free: &[u64]) -> usize {
        use funcs::{RECV, RECV_MMSG, SEND, SEND_MMSG};
        if [RECV, SEND, RECV_MMSG, SEND_MMSG].contains(&func) {
            let next = self.sockets.len() % self.ctxs.len();
            *self.sockets.entry(args[0]).or_insert(next)
        } else {
            (0..free.len()).min_by_key(|&l| free[l]).unwrap_or(0)
        }
    }
}

/// Polls the ring for released jobs and runs them in post order until
/// shutdown. The worker is the ring's only consumer, so its cursor is
/// its own.
fn worker_loop(shared: &Shared, mut lanes: Lanes) {
    let n = shared.slots.len() as u64;
    let mut backoff = Backoff::new();
    let mut pos = 0;
    loop {
        let seq = shared.slots[(pos % n) as usize].seq.load(Ordering::Acquire);
        if seq == seq_posted(pos) && pos < shared.released.load(Ordering::Acquire) {
            backoff.reset();
            execute_job(shared, &mut lanes, pos);
            pos += 1;
        } else {
            // Nothing released at the cursor yet.
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            backoff.snooze();
        }
    }
}

/// Runs the job in slot `pos % n` on its lane, places it on its
/// poster's timeline, and publishes its completion.
fn execute_job(shared: &Shared, lanes: &mut Lanes, pos: u64) {
    let n = shared.slots.len() as u64;
    let slot_idx = (pos % n) as usize;
    let slot = &shared.slots[slot_idx];
    let base = shared.slot_base(pos);
    // The lane is chosen from the descriptor as the host keeps it (an
    // uncharged peek); the lane's worker then reads it with charged
    // accesses — this is the traffic CAT fences off.
    let mut desc = [0u8; DESC_BYTES];
    shared.machine.untrusted.read(base + OFF_FUNC, &mut desc);
    let word = |i: usize| u64::from_le_bytes(desc[i * 8..i * 8 + 8].try_into().unwrap());
    let (func, args) = (word(0), [word(1), word(2), word(3), word(4)]);
    // A job starts at the later of its post and the end of its lane's
    // previous job, unless the poster's clock went back since its last
    // post (a counter reset), which erased the history.
    let (poster, posted) = (
        slot.core.load(Ordering::Relaxed),
        slot.posted.load(Ordering::Relaxed),
    );
    let (last, mut free) =
        (lanes.timelines.remove(&poster)).unwrap_or_else(|| (0, vec![0; lanes.ctxs.len()]));
    if posted < last {
        free.fill(0);
    }
    let lane = lanes.pick(func, args, &free);
    let ctx = &mut lanes.ctxs[lane];
    let trace = &shared.machine.trace;
    if trace.is_enabled() {
        trace.record(
            ctx.now(),
            Event::RpcClaim {
                slot: slot_idx,
                core: ctx.core.id,
            },
        );
    }
    ctx.read_untrusted(base + OFF_FUNC, &mut desc);
    let start = ctx.now();
    let ret = match shared.registry.get(&func) {
        Some(f) => (f.f)(ctx, args),
        None => {
            Stats::bump(&shared.machine.stats.rpc_errors);
            ERR_UNREGISTERED
        }
    };
    // Saturating: a caller that resets the core clocks
    // (`SgxMachine::reset_counters`) under a job in flight loses that
    // one job's cycles instead of wrapping.
    let elapsed = ctx.now().saturating_sub(start);
    ctx.write_untrusted(base + OFF_RET, &ret.to_le_bytes());
    Stats::bump(&shared.machine.stats.rpc_calls);
    let start = posted.max(free[lane]);
    free[lane] = start + elapsed;
    slot.start.store(start, Ordering::Relaxed);
    slot.end.store(start + elapsed, Ordering::Relaxed);
    lanes.timelines.insert(poster, (posted, free));
    // Publish completion last: the result bytes must be visible before
    // the sequence word says "done".
    slot.seq.store(seq_done(pos), Ordering::Release);
    if trace.is_enabled() {
        let now = lanes.ctxs[lane].now();
        trace.record(now, Event::RpcCall { func });
        trace.record(
            now,
            Event::RpcComplete {
                slot: slot_idx,
                func,
            },
        );
    }
}

/// One in-flight exit-less RPC, redeemed with [`RpcFuture::wait`].
///
/// Dropping an unredeemed future blocks (host-side only, no simulated
/// cycles) until the worker finishes, then recycles the slot — the ring
/// never leaks capacity.
pub struct RpcFuture {
    shared: Arc<Shared>,
    /// The ring position this job was posted at.
    pos: u64,
    reaped: bool,
}

impl RpcFuture {
    /// Whether the worker has published this job's completion
    /// (host-side peek; charges no simulated cycles). Private: a job
    /// runs only once its poster waits or its ring fills
    /// ([`Shared::release`]), so a caller polling this alone would spin
    /// forever.
    fn is_done(&self) -> bool {
        let n = self.shared.slots.len() as u64;
        let seq = self.shared.slots[(self.pos % n) as usize]
            .seq
            .load(Ordering::Acquire);
        seq == seq_done(self.pos)
    }

    /// Blocks (by polling) until completion, charges the caller the
    /// wait to the job's end on its lane, as [`RpcBatch::wait_all`]'s
    /// does, so whatever the caller computed since the post comes off
    /// it, and returns the result.
    pub fn wait(mut self, ctx: &mut ThreadCtx) -> u64 {
        let (ret, span) = self.reap(ctx);
        span.wait(ctx);
        ret
    }

    /// Waits for completion and collects `(ret, span)` without charging
    /// the wait.
    fn reap(&mut self, ctx: &mut ThreadCtx) -> (u64, Span) {
        debug_assert!(!self.reaped);
        let n = self.shared.slots.len() as u64;
        let slot = &self.shared.slots[(self.pos % n) as usize];
        self.shared.release();
        let mut backoff = Backoff::waiting();
        while slot.seq.load(Ordering::Acquire) != seq_done(self.pos) {
            backoff.snooze();
        }
        let at = |word: &AtomicU64| word.load(Ordering::Relaxed);
        let span = Span {
            posted: at(&slot.posted),
            start: at(&slot.start),
            end: at(&slot.end),
        };
        let mut ret = [0u8; 8];
        ctx.read_untrusted(self.shared.slot_base(self.pos) + OFF_RET, &mut ret);
        // Free the slot for the next lap.
        slot.seq.store(seq_free(self.pos + n), Ordering::Release);
        self.reaped = true;
        (u64::from_le_bytes(ret), span)
    }
}

impl Drop for RpcFuture {
    fn drop(&mut self) {
        if self.reaped {
            return;
        }
        let n = self.shared.slots.len() as u64;
        let slot = &self.shared.slots[(self.pos % n) as usize];
        self.shared.release();
        let mut backoff = Backoff::waiting();
        while slot.seq.load(Ordering::Acquire) != seq_done(self.pos) {
            backoff.snooze();
        }
        slot.seq.store(seq_free(self.pos + n), Ordering::Release);
    }
}

/// A set of in-flight RPCs posted by [`RpcService::submit_batch`] and
/// any follow-on groups [`RpcService::extend_batch`] added to it.
pub struct RpcBatch {
    /// `(request index, future)` still in flight, in post order.
    pending: Vec<(usize, RpcFuture)>,
    /// `(ret, span)` by request index (filled as completions are
    /// reaped).
    results: Vec<Option<(u64, Span)>>,
}

impl RpcBatch {
    /// Releases the pending jobs, waits (host-side, uncharged) until
    /// every one has completed, then reaps them all in post order: the
    /// poster's charged reads of their results never run beside the
    /// worker, and never in an order the host's timing chose.
    fn reap_all(&mut self, ctx: &mut ThreadCtx) {
        let Some((_, first)) = self.pending.first() else {
            return;
        };
        first.shared.release();
        let mut backoff = Backoff::waiting();
        while !self.pending.iter().all(|(_, fut)| fut.is_done()) {
            backoff.snooze();
        }
        for (idx, mut fut) in std::mem::take(&mut self.pending) {
            self.results[idx] = Some(fut.reap(ctx));
        }
    }

    /// Blocks until every job in the batch has completed, charges the
    /// caller the wait to the latest-ending job's end on the timeline,
    /// so whatever the caller computed since a post comes off it, and
    /// returns the results in request order.
    pub fn wait_all(self, ctx: &mut ThreadCtx) -> Vec<u64> {
        let jobs = self.jobs(ctx);
        Span::wait_latest(jobs.iter().map(|&(_, span)| span), ctx);
        jobs.into_iter().map(|(ret, _)| ret).collect()
    }

    /// Blocks until every job in the batch has completed and returns
    /// each job's result and [`Span`] in post order, *without* charging
    /// the caller for the wait: for a caller that times its own progress
    /// against the lane timeline, like a reap that reads each
    /// descriptor line when the worker published it.
    pub fn jobs(mut self, ctx: &mut ThreadCtx) -> Vec<(u64, Span)> {
        self.reap_all(ctx);
        std::mem::take(&mut self.results)
            .into_iter()
            .map(|r| r.expect("all pending reaped"))
            .collect()
    }
}

impl RpcService {
    /// Starts building a service on `machine`, with two lanes on the
    /// machine's last two cores.
    #[must_use]
    pub fn builder(machine: &Arc<SgxMachine>) -> RpcBuilder {
        let last = machine.core_count() - 1;
        RpcBuilder {
            machine: Arc::clone(machine),
            registry: HashMap::new(),
            n_slots: 16,
            lane_cores: vec![last, last.saturating_sub(1)],
        }
    }

    /// Claims a ring slot, writes the descriptor and publishes it.
    ///
    /// Blocks (with backoff) while the ring is full; `on_full` is
    /// called once per full-ring round so batch submission can drain
    /// its own completions instead of deadlocking.
    fn post(
        &self,
        ctx: &mut ThreadCtx,
        func_id: u64,
        args: [u64; 4],
        charge: u64,
        mut on_full: impl FnMut(&mut ThreadCtx),
    ) -> RpcFuture {
        assert!(
            ctx.in_enclave(),
            "exit-less RPC is for trusted code; call the host directly instead"
        );
        let shared = &self.shared;
        let n = shared.slots.len() as u64;
        let mut backoff = Backoff::waiting();
        let mut contended_polls = 0u32;
        let pos = loop {
            let pos = shared.head.load(Ordering::Acquire);
            let seq = shared.slots[(pos % n) as usize].seq.load(Ordering::Acquire);
            if seq == seq_free(pos) {
                if shared
                    .head
                    .compare_exchange_weak(pos, pos + 1, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    break pos;
                }
            } else if seq < seq_free(pos) {
                // The slot is still held by a job from a previous lap:
                // the ring is full.
                Stats::bump(&shared.machine.stats.rpc_ring_full);
                shared.release();
                on_full(ctx);
                backoff.snooze();
            } else {
                // Another producer claimed this position; reload. The
                // spin is bounded: on a 1-CPU host an unbounded hot
                // spin here starves the very thread that would free
                // the slot, so past a small threshold the claim
                // attempt cedes the CPU instead.
                contended_polls += 1;
                if contended_polls > CLAIM_SPIN_LIMIT {
                    Stats::bump(&shared.machine.stats.rpc_idle_yields);
                    std::thread::yield_now();
                } else {
                    core::hint::spin_loop();
                }
            }
        };

        // Write the descriptor (charged: the enclave touches untrusted
        // memory), then publish the slot's sequence word — the store
        // that the polling worker's Acquire load synchronizes with.
        let base = shared.slot_base(pos);
        let mut desc = [0u8; DESC_BYTES];
        desc[0..8].copy_from_slice(&func_id.to_le_bytes());
        for (i, a) in args.iter().enumerate() {
            desc[8 + i * 8..16 + i * 8].copy_from_slice(&a.to_le_bytes());
        }
        ctx.write_untrusted(base + OFF_FUNC, &desc);
        ctx.compute(charge);
        let trace = &shared.machine.trace;
        if trace.is_enabled() {
            let slot = (pos % n) as usize;
            trace.record(
                ctx.now(),
                Event::RpcPost {
                    slot,
                    func: func_id,
                },
            );
        }
        let slot = &shared.slots[(pos % n) as usize];
        slot.core.store(ctx.core.id as u64, Ordering::Relaxed);
        slot.posted.store(ctx.now(), Ordering::Relaxed);
        slot.seq.store(seq_posted(pos), Ordering::Release);
        RpcFuture {
            shared: Arc::clone(shared),
            pos,
            reaped: false,
        }
    }

    /// Invokes `func_id(args)` on a worker *without exiting the
    /// enclave*, blocking (by polling) until the result is posted.
    ///
    /// The caller's clock advances by the enqueue/dequeue overhead plus
    /// the wait to the job's end on its lane — the enclave thread
    /// really does wait out the call, it just never pays an exit.
    /// Unregistered ids return [`ERR_UNREGISTERED`] and bump
    /// `rpc_errors`.
    ///
    /// # Panics
    /// Panics if called from untrusted mode (use the host API or an
    /// OCALL there).
    pub fn call(&self, ctx: &mut ThreadCtx, func_id: u64, args: [u64; 4]) -> u64 {
        self.call_async(ctx, func_id, args).wait(ctx)
    }

    /// Posts `func_id(args)` and immediately returns an [`RpcFuture`];
    /// the caller keeps executing in the enclave while the worker runs
    /// the job.
    ///
    /// # Panics
    /// Panics if called from untrusted mode.
    pub fn call_async(&self, ctx: &mut ThreadCtx, func_id: u64, args: [u64; 4]) -> RpcFuture {
        let charge = self.shared.machine.cfg.costs.rpc_roundtrip;
        self.post(ctx, func_id, args, charge, |_| {})
    }

    /// Posts a batch of `(func_id, args)` jobs back-to-back and returns
    /// an [`RpcBatch`] tracking them all.
    ///
    /// The first post pays the full `rpc_roundtrip` handoff; each
    /// subsequent post only the incremental `rpc_post` (the worker is
    /// already polling, so no fresh handoff stall is paid). Batches
    /// larger than the ring are fine: submission reaps its own
    /// completions whenever the ring fills.
    ///
    /// # Panics
    /// Panics if called from untrusted mode.
    pub fn submit_batch(&self, ctx: &mut ThreadCtx, reqs: &[(u64, [u64; 4])]) -> RpcBatch {
        let mut batch = RpcBatch {
            pending: Vec::with_capacity(reqs.len().min(self.shared.slots.len())),
            results: Vec::with_capacity(reqs.len()),
        };
        Stats::bump(&self.shared.machine.stats.rpc_batches);
        self.extend_batch(ctx, &mut batch, reqs);
        batch
    }

    /// Posts `reqs` as one more group of a batch this service
    /// submitted, while the worker may still be serving the earlier
    /// groups: the caller keeps computing between groups, and
    /// [`RpcBatch::wait_all`] waits for all of them at once. The ring
    /// is already hot, so every post of a follow-on group pays only
    /// `rpc_post`. The lanes queue the jobs in post order.
    ///
    /// # Panics
    /// Panics if called from untrusted mode.
    pub fn extend_batch(
        &self,
        ctx: &mut ThreadCtx,
        batch: &mut RpcBatch,
        reqs: &[(u64, [u64; 4])],
    ) {
        let costs = &self.shared.machine.cfg.costs;
        for &(func_id, args) in reqs {
            let idx = batch.results.len();
            let charge = if idx == 0 {
                costs.rpc_roundtrip
            } else {
                costs.rpc_post
            };
            batch.results.push(None);
            // A full ring drains the batch's own completions.
            let fut = self.post(ctx, func_id, args, charge, |ctx| batch.reap_all(ctx));
            batch.pending.push((idx, fut));
        }
    }

    /// Whether `jobs` posts made now find every slot they take free or
    /// held only by each other — so a batch of them, which reaps its
    /// own completions when the ring fills, never waits on a job that
    /// its poster still holds unreaped in another batch.
    #[must_use]
    pub fn has_room_for(&self, jobs: usize) -> bool {
        let shared = &self.shared;
        let n = shared.slots.len() as u64;
        let head = shared.head.load(Ordering::Acquire);
        (head..head + (jobs as u64).min(n)).all(|pos| {
            shared.slots[(pos % n) as usize].seq.load(Ordering::Acquire) == seq_free(pos)
        })
    }

    /// The machine this service runs on.
    #[must_use]
    pub fn machine(&self) -> &Arc<SgxMachine> {
        &self.shared.machine
    }
}

impl Drop for RpcService {
    fn drop(&mut self) {
        self.shared.released.store(u64::MAX, Ordering::Release);
        self.shared.stop.store(true, Ordering::Release);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Well-known function ids for the host-OS syscalls — the syscall ABI,
/// implemented once by [`dispatch`]; apps may register more from 100
/// upward.
pub mod funcs {
    /// `recv(fd, buf, max_len)` -> length or `u64::MAX` (would block).
    pub const RECV: u64 = 1;
    /// `send(fd, buf, len)` -> length.
    pub const SEND: u64 = 2;
    /// `open(path_addr, path_len)` -> file fd.
    pub const OPEN: u64 = 3;
    /// `close(fd)` -> 0 or `u64::MAX`.
    pub const CLOSE: u64 = 4;
    /// `read(fd, buf, len)` -> length or `u64::MAX`.
    pub const READ: u64 = 5;
    /// `write(fd, buf, len)` -> length or `u64::MAX`.
    pub const WRITE: u64 = 6;
    /// `seek(fd, offset)` -> 0 or `u64::MAX`.
    pub const SEEK: u64 = 7;
    /// `fsize(fd)` -> size or `u64::MAX`.
    pub const FSIZE: u64 = 8;
    /// `unlink(path_addr, path_len)` -> 0 or `u64::MAX`.
    pub const UNLINK: u64 = 9;
    /// `poll(fd)` -> 1 ready / 0 empty. The paper's long-blocking
    /// call: [`IoPath::call`](super::IoPath::call) never sends it over
    /// the ring, so no builder registers it.
    pub const POLL: u64 = 10;
    /// `recv_mmsg(fd, buf, (stripe << 32) | max_msgs, desc)` ->
    /// message count. Scatter-gather receive into `stripe`-byte slots
    /// at `buf`, in the socket's arrival order; one 16-byte descriptor
    /// per message written at `desc` (two little-endian `u64` words:
    /// the length, then the enqueue timestamp in cycles); one kernel
    /// crossing and one kernel-metadata charge for the whole
    /// sub-batch.
    pub const RECV_MMSG: u64 = 11;
    /// `send_mmsg(fd, buf, (stripe << 32) | n_msgs, desc)` -> count.
    /// Scatter-gather counterpart of [`RECV_MMSG`] for transmit:
    /// `desc` holds 16-byte entries whose first word is the length
    /// (the timestamp word is ignored); payloads hit the wire in slot
    /// order, and a socket's jobs run on its one lane in post order.
    pub const SEND_MMSG: u64 = 12;
}

/// The syscall table: executes `func(args)` against the host OS on
/// `ctx`, which must be in untrusted mode — an RPC worker, the far side
/// of an OCALL, or a native thread. Every [`funcs`] id is one arm and
/// this is their only implementation; an id outside the table returns
/// [`ERR_UNREGISTERED`]. Errors and would-block come back as
/// `u64::MAX`.
pub fn dispatch(m: &SgxMachine, ctx: &mut ThreadCtx, func: u64, args: [u64; 4]) -> u64 {
    let size = |n: Option<usize>| n.map_or(u64::MAX, |n| n as u64);
    let unit = |r: Result<(), FsError>| r.map_or(u64::MAX, |()| 0);
    // `open`/`unlink` name their file by a path staged in untrusted
    // memory.
    let path = |ctx: &mut ThreadCtx| {
        let mut path = vec![0u8; args[1] as usize];
        ctx.read_untrusted(args[0], &mut path);
        String::from_utf8(path).ok()
    };
    let (sock, file) = (Fd(args[0] as u32), FileFd(args[0] as u32));
    let (buf, len) = (args[1], args[2] as usize);
    // The scatter-gather calls pack `(stripe << 32) | count`.
    let (stripe, count) = ((args[2] >> 32) as usize, (args[2] & 0xffff_ffff) as usize);
    match func {
        funcs::RECV => size(m.host.recv(ctx, sock, buf, len)),
        funcs::SEND => m.host.send(ctx, sock, buf, len) as u64,
        funcs::POLL => u64::from(m.host.poll(ctx, sock)),
        funcs::RECV_MMSG => m.host.recv_mmsg(ctx, sock, buf, stripe, count, args[3]) as u64,
        funcs::SEND_MMSG => m.host.send_mmsg(ctx, sock, buf, stripe, count, args[3]) as u64,
        funcs::OPEN => path(ctx).map_or(u64::MAX, |p| m.fs.open(ctx, &p).0 as u64),
        funcs::CLOSE => unit(m.fs.close(ctx, file)),
        funcs::READ => size(m.fs.read(ctx, file, buf, len).ok()),
        funcs::WRITE => size(m.fs.write(ctx, file, buf, len).ok()),
        funcs::SEEK => unit(m.fs.seek(ctx, file, args[1] as usize)),
        funcs::FSIZE => size(m.fs.size(ctx, file).ok()),
        funcs::UNLINK => path(ctx).map_or(u64::MAX, |p| unit(m.fs.unlink(ctx, &p))),
        _ => ERR_UNREGISTERED,
    }
}

/// How code reaches the host OS: the three syscall paths the paper
/// compares (§3.1), chosen in one place the way Graphene's syscall
/// layer does (§5.1).
#[derive(Clone)]
pub enum IoPath {
    /// Direct syscalls from untrusted code (the no-SGX baseline).
    Native,
    /// OCALL per syscall (vanilla SGX; also our stand-in for
    /// Graphene's exit path, §5.1).
    Ocall,
    /// Eleos exit-less RPC (§3.1).
    Rpc(Arc<RpcService>),
}

impl IoPath {
    /// Label used in experiment output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            IoPath::Native => "native",
            IoPath::Ocall => "ocall",
            IoPath::Rpc(_) => "rpc",
        }
    }

    /// Issues the syscall `func(args)` (a [`funcs`] id, run by
    /// [`dispatch`]) on this path — the only place a single syscall
    /// picks its way out. Buffers named by `args` are the caller's, in
    /// untrusted memory. A long wait ([`funcs::POLL`]) never rides the
    /// ring: it would burn a worker for as long as it blocks, so the
    /// RPC path takes the naive exit for it (§3.1).
    ///
    /// # Panics
    /// Panics on [`IoPath::Native`] from inside an enclave.
    pub fn call(&self, ctx: &mut ThreadCtx, func: u64, args: [u64; 4]) -> u64 {
        let m = Arc::clone(&ctx.machine);
        match self {
            IoPath::Native => {
                assert!(!ctx.in_enclave(), "native path runs untrusted");
                dispatch(&m, ctx, func, args)
            }
            IoPath::Rpc(svc) if func != funcs::POLL => svc.call(ctx, func, args),
            IoPath::Ocall | IoPath::Rpc(_) => ctx.ocall(|host| dispatch(&m, host, func, args)),
        }
    }
}

/// Registers [`dispatch`] under each of `ids` on a builder.
fn register(b: RpcBuilder, machine: &Arc<SgxMachine>, ids: &[u64]) -> RpcBuilder {
    ids.iter().fold(b, |b, &id| {
        let m = Arc::clone(machine);
        b.register(
            id,
            UntrustedFn::new(move |ctx, args| dispatch(&m, ctx, id, args)),
        )
    })
}

/// Registers the socket syscalls ([`funcs::RECV`], [`funcs::SEND`] and
/// their scatter-gather forms) on a builder.
#[must_use]
pub fn with_syscalls(b: RpcBuilder, machine: &Arc<SgxMachine>) -> RpcBuilder {
    use funcs::{RECV, RECV_MMSG, SEND, SEND_MMSG};
    register(b, machine, &[RECV, SEND, RECV_MMSG, SEND_MMSG])
}

/// Registers the filesystem syscalls ([`funcs::OPEN`]..[`funcs::UNLINK`])
/// on a builder.
#[must_use]
pub fn with_fs(b: RpcBuilder, machine: &Arc<SgxMachine>) -> RpcBuilder {
    use funcs::{CLOSE, FSIZE, OPEN, READ, SEEK, UNLINK, WRITE};
    register(b, machine, &[OPEN, CLOSE, READ, WRITE, SEEK, FSIZE, UNLINK])
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_enclave::machine::MachineConfig;

    fn machine() -> Arc<SgxMachine> {
        SgxMachine::new(MachineConfig::tiny())
    }

    #[test]
    fn basic_call_returns_result() {
        let m = machine();
        let svc = RpcService::builder(&m)
            .register(10, UntrustedFn::new(|_c, a| a[0] * a[1]))
            .workers(2, &[2, 3])
            .build();
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        assert_eq!(svc.call(&mut t, 10, [6, 7, 0, 0]), 42);
        t.exit();
        assert_eq!(m.stats.snapshot().rpc_calls, 1);
    }

    #[test]
    fn rpc_does_not_exit_the_enclave() {
        let m = machine();
        let svc = RpcService::builder(&m)
            .register(10, UntrustedFn::new(|_c, _a| 0))
            .workers(1, &[3])
            .build();
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let s0 = m.stats.snapshot();
        for _ in 0..50 {
            svc.call(&mut t, 10, [0; 4]);
        }
        let d = m.stats.snapshot() - s0;
        assert_eq!(d.enclave_exits, 0, "RPC must be exit-less");
        assert_eq!(d.ocalls, 0);
        assert_eq!(d.rpc_calls, 50);
        t.exit();
    }

    #[test]
    fn async_and_batched_paths_are_exitless_too() {
        let m = machine();
        let svc = RpcService::builder(&m)
            .register(10, UntrustedFn::new(|_c, a| a[0]))
            .workers(2, &[2, 3])
            .slots(8)
            .build();
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let s0 = m.stats.snapshot();
        let f = svc.call_async(&mut t, 10, [7, 0, 0, 0]);
        assert_eq!(f.wait(&mut t), 7);
        let reqs: Vec<_> = (0..20u64).map(|i| (10, [i, 0, 0, 0])).collect();
        let rets = svc.submit_batch(&mut t, &reqs).wait_all(&mut t);
        assert_eq!(rets, (0..20).collect::<Vec<u64>>());
        let d = m.stats.snapshot() - s0;
        assert_eq!(d.enclave_exits, 0, "async RPC must be exit-less");
        assert_eq!(d.ocalls, 0);
        assert_eq!(d.rpc_calls, 21);
        assert_eq!(d.rpc_batches, 1);
        t.exit();
    }

    #[test]
    fn rpc_cheaper_than_ocall_for_short_calls() {
        let m = machine();
        let svc = RpcService::builder(&m)
            .register(10, UntrustedFn::new(|_c, _a| 1))
            .workers(1, &[3])
            .build();
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        // Warm up.
        svc.call(&mut t, 10, [0; 4]);
        let c0 = t.now();
        for _ in 0..20 {
            svc.call(&mut t, 10, [0; 4]);
        }
        let rpc = (t.now() - c0) / 20;
        let c1 = t.now();
        for _ in 0..20 {
            t.ocall(|_| 1u64);
        }
        let ocall = (t.now() - c1) / 20;
        assert!(
            rpc * 3 < ocall,
            "rpc {rpc} should be several times cheaper than ocall {ocall}"
        );
        t.exit();
    }

    #[test]
    fn batched_strictly_cheaper_per_op_than_sequential() {
        // The headline async win: 64 jobs posted in one batch cost the
        // caller strictly fewer cycles per op than 64 sequential calls.
        let m = machine();
        let svc = RpcService::builder(&m)
            .register(
                10,
                UntrustedFn::new(|c, a| {
                    c.compute(200);
                    a[0]
                }),
            )
            .workers(2, &[2, 3])
            .build();
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        svc.call(&mut t, 10, [0; 4]); // warm up

        let c0 = t.now();
        for i in 0..64u64 {
            assert_eq!(svc.call(&mut t, 10, [i, 0, 0, 0]), i);
        }
        let seq = t.now() - c0;

        let reqs: Vec<_> = (0..64u64).map(|i| (10, [i, 0, 0, 0])).collect();
        let c1 = t.now();
        let rets = svc.submit_batch(&mut t, &reqs).wait_all(&mut t);
        let batched = t.now() - c1;

        assert_eq!(rets, (0..64).collect::<Vec<u64>>());
        assert!(
            batched < seq,
            "batched 64-in-flight ({batched} cycles) must beat 64 sequential calls ({seq} cycles)"
        );
        t.exit();
    }

    #[test]
    fn unregistered_func_returns_error_sentinel() {
        let m = machine();
        let svc = RpcService::builder(&m)
            .register(10, UntrustedFn::new(|_c, _a| 0))
            .workers(1, &[3])
            .build();
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        assert_eq!(svc.call(&mut t, 999, [0; 4]), ERR_UNREGISTERED);
        // The service keeps working afterwards.
        assert_eq!(svc.call(&mut t, 10, [0; 4]), 0);
        t.exit();
        let s = m.stats.snapshot();
        assert_eq!(s.rpc_errors, 1);
        assert_eq!(s.rpc_calls, 2, "the failed call still counts as served");
    }

    #[test]
    fn batch_larger_than_ring_drains_itself() {
        // One worker runs jobs only once they are released: a full ring
        // releases them so the batch can drain.
        for workers in [1, 2] {
            let m = machine();
            let svc = RpcService::builder(&m)
                .register(10, UntrustedFn::new(|_c, a| a[0] + 1))
                .workers(workers, &[3, 2][..workers])
                .slots(4)
                .build();
            let e = m.driver.create_enclave(&m, 16 * 4096);
            let mut t = ThreadCtx::for_enclave(&m, &e, 0);
            t.enter();
            let reqs: Vec<_> = (0..50u64).map(|i| (10, [i, 0, 0, 0])).collect();
            let rets = svc.submit_batch(&mut t, &reqs).wait_all(&mut t);
            assert_eq!(rets, (1..=50).collect::<Vec<u64>>(), "workers={workers}");
            t.exit();
            assert_eq!(m.stats.snapshot().rpc_calls, 50, "workers={workers}");
        }
    }

    /// A one-worker service on `m` whose job `10` costs the worker
    /// exactly `cycles` and echoes its first argument.
    fn fixed_cost_service(m: &Arc<SgxMachine>, slots: usize, cycles: u64) -> RpcService {
        RpcService::builder(m)
            .register(
                10,
                UntrustedFn::new(move |c, a| {
                    c.compute(cycles);
                    a[0]
                }),
            )
            .workers(1, &[3])
            .slots(slots)
            .build()
    }

    #[test]
    fn one_group_batch_charges_the_overlap_aware_wait() {
        // Four 1 000-cycle jobs on one worker queue from the first
        // post; the later posts and the caller's 300 cycles of its own
        // work come off the wait, so the whole round trip costs the
        // first post plus the worker's 4 000 cycles.
        let m = machine();
        let svc = fixed_cost_service(&m, 16, 1_000);
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        svc.call(&mut t, 10, [0; 4]); // warm up
        let c0 = t.now();
        let reqs: Vec<_> = (0..4u64).map(|i| (10, [i, 0, 0, 0])).collect();
        let batch = svc.submit_batch(&mut t, &reqs);
        let posted = t.now() - c0;
        t.compute(300);
        assert_eq!(batch.wait_all(&mut t), [0, 1, 2, 3]);
        let total = t.now() - c0;
        t.exit();
        assert_eq!((posted, total), (1_306, 4_664), "pinned cycles");
    }

    #[test]
    fn one_worker_jobs_queue_on_the_timeline() {
        // One-job groups, so each job's post time is known: every
        // 1 000-cycle job starts at the later of its post and the end
        // of the job before it, and `jobs` hands the spans back without
        // charging a wait. A 5 000-cycle gap lets the worker drain, so
        // the job after it starts at its own post.
        let m = machine();
        let svc = fixed_cost_service(&m, 16, 1_000);
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        svc.call(&mut t, 10, [0; 4]); // warm up
        let mut batch = svc.submit_batch(&mut t, &[(10, [0; 4])]);
        let mut posts = vec![t.now()];
        for (k, gap) in [0, 0, 5_000, 0].into_iter().enumerate() {
            t.compute(gap);
            let c = t.now();
            svc.extend_batch(&mut t, &mut batch, &[(10, [k as u64 + 1, 0, 0, 0])]);
            posts.push(t.now());
            assert!(
                t.now() - c < m.cfg.costs.rpc_roundtrip,
                "a follow-on group pays no fresh handoff"
            );
        }
        let jobs = batch.jobs(&mut t);
        assert!(t.now() < posts[4] + 1_000, "jobs charged a wait");
        let mut end = 0;
        for (k, (&(ret, span), &posted)) in jobs.iter().zip(&posts).enumerate() {
            assert_eq!(ret, k as u64);
            assert_eq!(span.start, posted.max(end), "job {k}");
            assert_eq!(span.end, span.start + 1_000, "job {k}");
            end = span.end;
        }
        assert!(jobs[1].1.start > posts[1], "job 1 queued behind job 0");
        assert_eq!(jobs[3].1.start, posts[3], "the gap drained the worker");
        t.exit();
        assert_eq!(
            m.stats.snapshot().rpc_batches,
            1,
            "a follow-on group is no new batch"
        );
    }

    #[test]
    fn a_clock_reset_erases_the_timeline() {
        // A job posted before `reset_counters` ends, on the old clock,
        // far past the new one: seen after the reset it counts as run
        // now, and the next post starts at once.
        let m = machine();
        let svc = fixed_cost_service(&m, 16, 1_000);
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        t.compute(50_000);
        let stale = svc.submit_batch(&mut t, &[(10, [0; 4]); 3]).jobs(&mut t);
        m.reset_counters();
        let now = t.now();
        let span = stale[2].1.seen_at(now);
        assert_eq!((span.start, span.end), (now, now));
        span.wait(&t);
        assert_eq!(t.now(), now, "no stale wait");
        let fresh = svc.submit_batch(&mut t, &[(10, [0; 4])]).jobs(&mut t);
        assert!(fresh[0].1.start < 10_000, "a fresh lane after the reset");
        t.exit();
    }

    /// A two-lane service on `m` (cores 3 and 2) whose job `10` costs
    /// its lane `a[1]` cycles and echoes `a[0]`.
    fn two_lane_service(m: &Arc<SgxMachine>) -> RpcService {
        RpcService::builder(m)
            .register(
                10,
                UntrustedFn::new(|c, a| {
                    c.compute(a[1]);
                    a[0]
                }),
            )
            .workers(2, &[3, 2])
            .build()
    }

    #[test]
    fn a_batch_is_waited_to_its_latest_ending_job() {
        // A 5 000-cycle job takes lane 0 and a 100-cycle job posted
        // after it the free lane 1, so the later post ends first: the
        // wait runs to the long job's end, not the last post's.
        let m = machine();
        let svc = two_lane_service(&m);
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let mut batch = svc.submit_batch(&mut t, &[(10, [0, 5_000, 0, 0])]);
        let posted = t.now();
        svc.extend_batch(&mut t, &mut batch, &[(10, [1, 100, 0, 0])]);
        assert_eq!(batch.wait_all(&mut t), [0, 1]);
        assert_eq!(t.now(), posted + 5_000);
        t.exit();
    }

    /// A reap's spans, if taken, and the serving clock after it.
    type Reap = (Vec<Span>, u64);

    /// Pushes four requests to each of `n_socks` sockets, reaps every
    /// socket with one `recv_mmsg` job each in one batch, and echoes
    /// each run back with one `send_mmsg` job per socket, `rounds`
    /// times, on a service with `lanes` lanes (cores 3, then 2). A reap
    /// is waited with [`RpcBatch::wait_all`], or with `spans` by
    /// [`RpcBatch::jobs`] and a wait for each span. Returns, per round,
    /// the reap's spans (if taken) and the serving core's clock after
    /// it, then the replies per socket.
    fn socket_rounds(
        lanes: usize,
        n_socks: usize,
        rounds: usize,
        spans: bool,
    ) -> (Vec<Reap>, Vec<Vec<Vec<u8>>>) {
        use funcs::{RECV_MMSG, SEND_MMSG};
        let m = machine();
        let ut = ThreadCtx::untrusted(&m, 1);
        let socks: Vec<Fd> = (0..n_socks).map(|_| m.host.socket(&ut, 16 << 10)).collect();
        let svc = with_syscalls(RpcService::builder(&m), &m)
            .workers(lanes, &[3, 2][..lanes])
            .build();
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let bufs: Vec<(u64, u64)> = socks
            .iter()
            .map(|_| (m.alloc_untrusted(1024), m.alloc_untrusted(256)))
            .collect();
        let job = |func, s: usize, count: u64| {
            let (buf, desc) = bufs[s];
            (func, [u64::from(socks[s].0), buf, (64 << 32) | count, desc])
        };
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let mut reaps = Vec::new();
        for round in 0..rounds {
            for (s, &fd) in socks.iter().enumerate() {
                for i in 0..4 {
                    let body = [(round * 16 + s * 4 + i) as u8; 24];
                    m.host.push_request(&ut, fd, &body);
                }
            }
            let recvs: Vec<_> = (0..n_socks).map(|s| job(RECV_MMSG, s, 4)).collect();
            let batch = svc.submit_batch(&mut t, &recvs);
            let (counts, taken): (Vec<u64>, Vec<Span>) = if spans {
                let jobs = batch.jobs(&mut t);
                jobs.iter().for_each(|(_, span)| span.wait(&t));
                jobs.into_iter().unzip()
            } else {
                (batch.wait_all(&mut t), Vec::new())
            };
            reaps.push((taken, t.now()));
            let sends: Vec<_> = counts
                .iter()
                .enumerate()
                .map(|(s, &n)| job(SEND_MMSG, s, n))
                .collect();
            svc.submit_batch(&mut t, &sends).wait_all(&mut t);
        }
        t.exit();
        let replies = socks
            .iter()
            .map(|&fd| std::iter::from_fn(|| m.host.pop_response(fd)).collect())
            .collect();
        (reaps, replies)
    }

    #[test]
    fn a_lone_socket_costs_the_same_on_one_and_two_lanes() {
        // Every job of one socket takes its lane, lane 0, so a second
        // lane never runs: the spans, the clocks and the bytes repeat.
        let one = socket_rounds(1, 1, 3, true);
        assert_eq!(one.1[0].len(), 12, "every request echoed");
        assert_eq!(socket_rounds(2, 1, 3, true), one);
    }

    #[test]
    fn two_sockets_reap_on_two_lanes_at_once() {
        // One lane runs the second socket's `recv_mmsg` after the
        // first's; two lanes run them side by side, and the reap's wait
        // ends at the later of the two spans.
        let (one, one_replies) = socket_rounds(1, 2, 1, true);
        let (two, two_replies) = socket_rounds(2, 2, 1, true);
        let (one, two) = (&one[0].0, &two[0].0);
        assert_eq!(one[1].start, one[0].end, "one lane queues the second job");
        assert!(two[1].start < two[0].end, "two lanes overlap: {two:?}");
        let later = two[0].end.max(two[1].end);
        assert!(later < one[1].end, "the reap ends sooner on two lanes");
        assert_eq!(two_replies, one_replies);
        let (waited, _) = socket_rounds(2, 2, 1, false);
        assert_eq!(waited[0].1, later, "wait_all waits to the later span");
    }

    #[test]
    fn two_jobs_of_one_socket_never_overlap() {
        // Socket A's lane is A's whatever else queues: its second
        // `recv` starts only once its first has ended, though a job of
        // socket B and a non-socket job were posted between them.
        let m = machine();
        let ut = ThreadCtx::untrusted(&m, 1);
        let (a, b) = (m.host.socket(&ut, 16 << 10), m.host.socket(&ut, 16 << 10));
        let svc = with_syscalls(RpcService::builder(&m), &m)
            .register(
                10,
                UntrustedFn::new(|c, a| {
                    c.compute(a[1]);
                    a[0]
                }),
            )
            .workers(2, &[3, 2])
            .build();
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let buf = m.alloc_untrusted(256);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let recv = |fd: Fd| (funcs::RECV, [u64::from(fd.0), buf, 256, 0]);
        let jobs = [recv(a), recv(b), (10, [0, 4_000, 0, 0]), recv(a), recv(b)];
        let spans: Vec<Span> = svc
            .submit_batch(&mut t, &jobs)
            .jobs(&mut t)
            .into_iter()
            .map(|(_, span)| span)
            .collect();
        t.exit();
        assert!(spans[3].start >= spans[0].end, "socket A: {spans:?}");
        assert!(spans[4].start >= spans[1].end, "socket B: {spans:?}");
        assert!(spans[1].start < spans[0].end, "A and B overlap");
    }

    #[test]
    fn grouped_batch_larger_than_ring_drains_itself() {
        let m = machine();
        let svc = RpcService::builder(&m)
            .register(10, UntrustedFn::new(|_c, a| a[0] + 1))
            .workers(2, &[2, 3])
            .slots(4)
            .build();
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let reqs: Vec<_> = (0..50u64).map(|i| (10, [i, 0, 0, 0])).collect();
        let mut batch = svc.submit_batch(&mut t, &reqs[..20]);
        svc.extend_batch(&mut t, &mut batch, &reqs[20..45]);
        svc.extend_batch(&mut t, &mut batch, &reqs[45..]);
        assert_eq!(batch.wait_all(&mut t), (1..=50).collect::<Vec<u64>>());
        t.exit();
        assert_eq!(m.stats.snapshot().rpc_calls, 50);
    }

    #[test]
    fn syscalls_through_rpc() {
        let m = machine();
        let ut = ThreadCtx::untrusted(&m, 3);
        let fd = m.host.socket(&ut, 16 << 10);
        m.host.push_request(&ut, fd, b"ping");
        let svc = with_syscalls(RpcService::builder(&m), &m)
            .workers(1, &[3])
            .build();
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let buf = m.alloc_untrusted(256);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let n = svc.call(&mut t, funcs::RECV, [fd.0 as u64, buf, 256, 0]);
        assert_eq!(n, 4);
        let mut got = [0u8; 4];
        t.read_untrusted(buf, &mut got);
        assert_eq!(&got, b"ping");
        // Empty queue: would-block sentinel.
        let n = svc.call(&mut t, funcs::RECV, [fd.0 as u64, buf, 256, 0]);
        assert_eq!(n, u64::MAX);
        t.exit();
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        let m = machine();
        let svc = Arc::new(
            RpcService::builder(&m)
                .register(10, UntrustedFn::new(|_c, a| a[0] + 1))
                .workers(2, &[2, 3])
                .slots(8)
                .build(),
        );
        let e = m.driver.create_enclave(&m, 64 * 4096);
        let mut handles = Vec::new();
        for core in 0..2usize {
            let m = Arc::clone(&m);
            let e = Arc::clone(&e);
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                let mut t = ThreadCtx::for_enclave(&m, &e, core);
                t.enter();
                for i in 0..200u64 {
                    assert_eq!(svc.call(&mut t, 10, [i, 0, 0, 0]), i + 1);
                }
                t.exit();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.stats.snapshot().rpc_calls, 400);
    }

    #[test]
    fn ring_stress_no_lost_or_duplicated_completions() {
        // Many callers × a deliberately tiny ring against the one
        // worker: every echoed payload must come back exactly once and
        // the served-call counter must equal the number of submissions.
        const CALLERS: usize = 4;
        const CALLS: u64 = 150;
        let mut cfg = MachineConfig::tiny();
        cfg.cores = 8; // one per caller + a dedicated worker core
        let m = SgxMachine::new(cfg);
        let svc = Arc::new(
            RpcService::builder(&m)
                .register(10, UntrustedFn::new(|_c, a| a[0] ^ 0xdead_beef))
                .workers(1, &[7])
                .slots(2)
                .build(),
        );
        let e = m.driver.create_enclave(&m, 64 * 4096);
        let mut handles = Vec::new();
        for caller in 0..CALLERS {
            let m = Arc::clone(&m);
            let e = Arc::clone(&e);
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                let mut t = ThreadCtx::for_enclave(&m, &e, caller);
                t.enter();
                // Mix sync calls, async singles and batches.
                for i in 0..CALLS {
                    let tag = (caller as u64) << 32 | i;
                    match i % 3 {
                        0 => {
                            assert_eq!(svc.call(&mut t, 10, [tag, 0, 0, 0]), tag ^ 0xdead_beef);
                        }
                        1 => {
                            let f = svc.call_async(&mut t, 10, [tag, 0, 0, 0]);
                            assert_eq!(f.wait(&mut t), tag ^ 0xdead_beef);
                        }
                        _ => {
                            let rets = svc
                                .submit_batch(&mut t, &[(10, [tag, 0, 0, 0])])
                                .wait_all(&mut t);
                            assert_eq!(rets, vec![tag ^ 0xdead_beef]);
                        }
                    }
                }
                t.exit();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = m.stats.snapshot();
        assert_eq!(
            s.rpc_calls,
            CALLERS as u64 * CALLS,
            "every submission served exactly once"
        );
        assert_eq!(s.rpc_errors, 0);
    }

    #[test]
    fn file_io_through_rpc() {
        let m = machine();
        let svc = with_fs(RpcService::builder(&m), &m)
            .workers(1, &[3])
            .build();
        let e = m.driver.create_enclave(&m, 16 * 4096);
        let path_buf = m.alloc_untrusted(64);
        let data_buf = m.alloc_untrusted(256);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        // Exit-lessly: open, write, seek, size, read back, close.
        t.write_untrusted(path_buf, b"/tmp/sealed.log");
        let fd = svc.call(&mut t, funcs::OPEN, [path_buf, 15, 0, 0]);
        t.write_untrusted(data_buf, b"enclave wrote this");
        assert_eq!(svc.call(&mut t, funcs::WRITE, [fd, data_buf, 18, 0]), 18);
        assert_eq!(svc.call(&mut t, funcs::FSIZE, [fd, 0, 0, 0]), 18);
        assert_eq!(svc.call(&mut t, funcs::SEEK, [fd, 8, 0, 0]), 0);
        let n = svc.call(&mut t, funcs::READ, [fd, data_buf + 100, 64, 0]);
        assert_eq!(n, 10);
        let mut got = vec![0u8; 10];
        t.read_untrusted(data_buf + 100, &mut got);
        assert_eq!(&got, b"wrote this");
        assert_eq!(svc.call(&mut t, funcs::CLOSE, [fd, 0, 0, 0]), 0);
        assert_eq!(
            svc.call(&mut t, funcs::CLOSE, [fd, 0, 0, 0]),
            u64::MAX,
            "double close rejected"
        );
        assert_eq!(
            m.stats.snapshot().enclave_exits,
            0,
            "file I/O was exit-less"
        );
        t.exit();
    }

    /// Walks every [`funcs`] id (and one id outside the table) over
    /// one socket and one file on `path`, checking after each call how
    /// the path left the enclave. Returns every return value (a file
    /// descriptor as "valid or not") and every byte the walk moved.
    fn walk_the_syscall_table(m: &Arc<SgxMachine>, path: &IoPath) -> (Vec<u64>, Vec<Vec<u8>>) {
        use funcs::*;
        let ut = ThreadCtx::untrusted(m, 2);
        let sock = m.host.socket(&ut, 16 << 10);
        for msg in [&b"one"[..], b"two", b"three"] {
            m.host.push_request(&ut, sock, msg);
        }
        let e = m.driver.create_enclave(m, 16 * 4096);
        let mut t = match path {
            IoPath::Native => ThreadCtx::untrusted(m, 0),
            _ => ThreadCtx::for_enclave(m, &e, 0),
        };
        if !matches!(path, IoPath::Native) {
            t.enter();
        }
        // Untrusted staging: the file's name, a data area, descriptors.
        let name = format!("/walk-{}", path.label());
        let name_at = m.alloc_untrusted(64);
        t.write_untrusted(name_at, name.as_bytes());
        let (data, desc) = (m.alloc_untrusted(1024), m.alloc_untrusted(64));
        let (sock, name_len) = (u64::from(sock.0), name.len() as u64);

        let mut called = std::collections::BTreeSet::new();
        let mut call = |t: &mut ThreadCtx, func: u64, args: [u64; 4]| {
            let s0 = m.stats.snapshot();
            let ret = path.call(t, func, args);
            let d = m.stats.snapshot() - s0;
            let (exits, rides) = match path {
                IoPath::Native => (0, 0),
                IoPath::Ocall => (1, 0),
                IoPath::Rpc(_) if func == POLL => (1, 0),
                IoPath::Rpc(_) => (0, 1),
            };
            let label = path.label();
            assert_eq!(d.ocalls, exits, "{label}: OCALLs of syscall {func}");
            assert_eq!(d.enclave_exits, exits, "{label}: exits of syscall {func}");
            assert_eq!(d.rpc_calls, rides, "{label}: ring jobs of syscall {func}");
            called.insert(func);
            ret
        };
        let mut rets = Vec::new();
        let t = &mut t;
        // Sockets: three queued messages in, the same three echoed out.
        rets.push(call(t, POLL, [sock, 0, 0, 0]));
        rets.push(call(t, RECV, [sock, data, 64, 0]));
        rets.push(call(t, RECV_MMSG, [sock, data + 64, (32 << 32) | 4, desc]));
        rets.push(call(t, RECV, [sock, data, 64, 0]));
        rets.push(call(t, POLL, [sock, 0, 0, 0]));
        rets.push(call(t, SEND, [sock, data, 3, 0]));
        rets.push(call(t, SEND_MMSG, [sock, data + 64, (32 << 32) | 2, desc]));
        // Files: create, write, size, seek, read back, close, unlink.
        let fd = call(t, OPEN, [name_at, name_len, 0, 0]);
        rets.push(u64::from(fd != u64::MAX));
        rets.push(call(t, WRITE, [fd, data + 64, 37, 0]));
        rets.push(call(t, FSIZE, [fd, 0, 0, 0]));
        rets.push(call(t, SEEK, [fd, 32, 0, 0]));
        rets.push(call(t, READ, [fd, data + 512, 64, 0]));
        rets.push(call(t, CLOSE, [fd, 0, 0, 0]));
        rets.push(call(t, CLOSE, [fd, 0, 0, 0]));
        rets.push(call(t, UNLINK, [name_at, name_len, 0, 0]));
        rets.push(call(t, UNLINK, [name_at, name_len, 0, 0]));
        rets.push(call(t, 99, [0; 4]));
        assert!(
            called.into_iter().eq((1..=12).chain([99])),
            "every id walked"
        );

        let mut moved = vec![vec![0u8; 5]];
        t.read_untrusted(data + 512, &mut moved[0]);
        if t.in_enclave() {
            t.exit();
        }
        let sock = Fd(sock as u32);
        moved.extend(std::iter::from_fn(|| m.host.pop_response(sock)));
        (rets, moved)
    }

    #[test]
    fn every_syscall_is_the_same_call_on_all_three_paths() {
        let m = machine();
        let svc = with_fs(with_syscalls(RpcService::builder(&m), &m), &m)
            .workers(1, &[3])
            .build();
        let max = u64::MAX;
        // poll, recv, recv_mmsg, recv, poll, send, send_mmsg;
        let sockets = [1, 3, 2, max, 0, 3, 2];
        // open, write, fsize, seek, read, close twice, unlink twice.
        let files = [1, 37, 37, 0, 5, 0, max, 0, max];
        let rets: Vec<u64> = (sockets.into_iter().chain(files))
            .chain([ERR_UNREGISTERED])
            .collect();
        // The file held the two mmsg slots ("two" at 0, "three" at 32);
        // the socket echoed all three messages in arrival order.
        let moved: Vec<Vec<u8>> = [&b"three"[..], b"one", b"two", b"three"]
            .map(<[u8]>::to_vec)
            .into();
        for path in [IoPath::Native, IoPath::Ocall, IoPath::Rpc(Arc::new(svc))] {
            let got = walk_the_syscall_table(&m, &path);
            assert_eq!(got, (rets.clone(), moved.clone()), "{}", path.label());
        }
        // The ring counted its one unknown id; a path that dispatches
        // inline has no registry to miss.
        assert_eq!(m.stats.snapshot().rpc_errors, 1);
    }

    #[test]
    #[should_panic(expected = "exit-less RPC is for trusted code")]
    fn rejects_untrusted_callers() {
        let m = machine();
        let svc = RpcService::builder(&m)
            .register(10, UntrustedFn::new(|_c, _a| 0))
            .workers(1, &[3])
            .build();
        let mut t = ThreadCtx::untrusted(&m, 0);
        svc.call(&mut t, 10, [0; 4]);
    }
}
