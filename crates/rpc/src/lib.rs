//! Exit-less RPC for enclaves (Eleos §3.1).
//!
//! Instead of OCALLing (8k cycles of direct cost plus a TLB flush and
//! cache-state loss), the enclave writes a job descriptor into a shared
//! ring in *untrusted* memory and spins on its completion word; a pool
//! of worker threads in the owner process polls the ring, executes the
//! untrusted function (typically a system call) and posts the result
//! back. The enclave never leaves trusted mode.
//!
//! The ring is a bounded lock-free MPMC queue (Vyukov-style): every
//! slot carries a sequence number, enclave callers claim slots by
//! compare-and-swapping the head cursor, and workers claim posted slots
//! by compare-and-swapping the tail cursor — there is no channel, lock
//! or condition variable anywhere on the hot path. Workers poll with a
//! spin → yield → adaptive-sleep backoff so an idle pool costs little
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
//!   [`RpcBatch::wait_all`] overlaps the caller's wait across every
//!   worker serving the batch;
//! - [`RpcService::extend_batch`] posts a follow-on group into a
//!   submitted batch, so the caller can prepare the next jobs while
//!   the workers run the last ones and still wait once;
//! - [`RpcBatch::jobs`] reaps a one-worker batch without charging the
//!   wait: it hands back each job's result and its [`Span`] on the
//!   worker timeline, for a caller that times its own progress against
//!   it.
//!
//! # The worker timeline
//!
//! On a one-worker ring a job starts at the later of its post and the
//! previous job's end, on the poster's clock ([`Span`]). The worker
//! runs posted jobs, in post order, only once a poster waits (or its
//! ring fills), and then every job posted so far. With one posting
//! host thread its memory traffic never runs host-concurrently with the
//! poster's, so a seed gives the same cycles with or without CAT; with
//! several, one thread's wait lets the worker run the others' jobs
//! beside their work. The slots, their charged traffic and the ring
//! stats are the same as with more workers. `docs/rpc-ring.md` has the
//! rules.
//!
//! Two refinements from the paper are implemented:
//!
//! - **Cache partitioning** (§3.1): with
//!   [`SgxMachine::enable_cat`](eleos_enclave::machine::SgxMachine)
//!   workers are fenced into 25% of the LLC ways, so their I/O buffers
//!   stop evicting enclave state;
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
/// implementation): `[func][arg0..arg3][ret][worker_cycles][pad]`.
/// The control word (the slot's sequence number) lives host-side in
/// [`Slot::seq`]; its cache-line traffic is what `rpc_roundtrip` /
/// `rpc_post` charge for.
const SLOT_BYTES: u64 = 64;
const OFF_FUNC: u64 = 0;
const OFF_RET: u64 = 40;
const OFF_CYCLES: u64 = 48;
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
/// growing, capped intervals so an idle worker pool costs ~nothing.
/// A poster waiting on the workers starts at the yields
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

    /// A poster's wait for the workers, which skips the spin. A worker
    /// that has just taken a job rarely finishes it within the spin,
    /// and a one-worker ring runs nothing before its poster waits, so
    /// its worker has usually gone to sleep by then: the spin only
    /// burnt the waiting thread's CPU (~6 µs a wait), time the yields
    /// give the worker instead.
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
    /// On a one-worker ring, the job's place on its poster's timeline,
    /// kept host-side like the sequence word: the poster's core and
    /// clock when the post landed (written before the post is
    /// published) and the job's start and end on that clock (written
    /// before its completion is).
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
    /// Dequeue cursor: the next position a worker will claim.
    tail: AtomicU64,
    /// Worker shutdown flag; workers drain posted jobs before exiting.
    stop: AtomicBool,
    n_workers: usize,
    /// Jobs at positions below this may run. A one-worker ring raises
    /// it to the head whenever a poster waits (or its ring is full), so
    /// one poster's wait also releases the jobs other threads posted
    /// before it; more workers run every job as soon as it is posted
    /// (`u64::MAX`).
    released: AtomicU64,
}

/// When a job ran on a one-worker ring, on its poster's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The poster's clock when the post landed.
    posted: u64,
    /// When the worker started the job: the later of its post and the
    /// end of the job posted before it.
    pub start: u64,
    /// When the worker finished it.
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
        ctx.compute(self.seen_at(ctx.now()).end.saturating_sub(ctx.now()));
    }
}

impl Shared {
    fn slot_base(&self, pos: u64) -> u64 {
        self.ring + (pos % self.slots.len() as u64) * SLOT_BYTES
    }

    /// Lets the workers run every job posted so far.
    fn release(&self) {
        let head = self.head.load(Ordering::Acquire);
        self.released.fetch_max(head, Ordering::AcqRel);
    }
}

/// The Eleos RPC service: a lock-free shared job ring plus a polling
/// worker thread pool.
pub struct RpcService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

/// Builder for [`RpcService`].
pub struct RpcBuilder {
    machine: Arc<SgxMachine>,
    registry: HashMap<u64, UntrustedFn>,
    n_slots: usize,
    worker_cores: Vec<usize>,
}

impl RpcBuilder {
    /// Registers `func_id` to execute `f` on a worker.
    #[must_use]
    pub fn register(mut self, func_id: u64, f: UntrustedFn) -> Self {
        self.registry.insert(func_id, f);
        self
    }

    /// Spawns `n` workers pinned to the given cores (cycled if fewer
    /// cores than workers are supplied).
    ///
    /// # Panics
    /// Panics if `n` is zero (a ring nobody polls deadlocks the first
    /// caller) or `cores` is empty.
    #[must_use]
    pub fn workers(mut self, n: usize, cores: &[usize]) -> Self {
        assert!(
            n > 0,
            "an RPC service needs at least one worker: nothing would ever poll the ring"
        );
        assert!(!cores.is_empty());
        self.worker_cores = (0..n).map(|i| cores[i % cores.len()]).collect();
        self
    }

    /// Sets the number of ring slots (defaults to 16).
    #[must_use]
    pub fn slots(mut self, n: usize) -> Self {
        assert!(n > 0);
        self.n_slots = n;
        self
    }

    /// Builds the service and starts its workers.
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
            tail: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            n_workers: self.worker_cores.len(),
            released: AtomicU64::new(if self.worker_cores.len() == 1 {
                0
            } else {
                u64::MAX
            }),
        });
        let workers = self
            .worker_cores
            .iter()
            .map(|&core| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, core))
            })
            .collect();
        RpcService { shared, workers }
    }
}

/// Polls the ring for posted jobs and executes them until shutdown.
fn worker_loop(shared: &Shared, core: usize) {
    let mut ctx = ThreadCtx::rpc_worker(&shared.machine, core);
    let n = shared.slots.len() as u64;
    let mut backoff = Backoff::new();
    // The one worker's timeline, per posting core: `(the poster's clock
    // at its last post, when that post's job ended)`. Posters on
    // different cores keep separate timelines: their clocks share no
    // timebase.
    let mut lanes = (shared.n_workers == 1).then(HashMap::new);
    loop {
        let pos = shared.tail.load(Ordering::Acquire);
        let slot = &shared.slots[(pos % n) as usize];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq == seq_posted(pos) && pos < shared.released.load(Ordering::Acquire) {
            // A posted job: claim it by advancing the tail cursor.
            if shared
                .tail
                .compare_exchange_weak(pos, pos + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue; // another worker won the claim
            }
            backoff.reset();
            execute_job(shared, &mut ctx, core, pos, lanes.as_mut());
        } else if seq == seq_free(pos) || seq == seq_posted(pos) {
            // Nothing (released) posted at the tail yet.
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            Stats::bump(&shared.machine.stats.rpc_idle_polls);
            backoff.snooze();
        } else {
            // Either the tail moved under us (reload resolves it) or
            // the slot at the tail is done-but-unreaped from the
            // previous lap — the ring is full of completions the
            // caller has yet to collect, which can last a while, so
            // back off rather than hot-spin (a raw spin here starves
            // the reaping caller on a single-CPU host).
            backoff.snooze();
        }
    }
}

/// Runs the job in slot `pos % n`, places it on its poster's timeline
/// when one worker serves the ring (`lanes`), and publishes its
/// completion.
fn execute_job(
    shared: &Shared,
    ctx: &mut ThreadCtx,
    core: usize,
    pos: u64,
    lanes: Option<&mut HashMap<u64, (u64, u64)>>,
) {
    let n = shared.slots.len() as u64;
    let slot_idx = (pos % n) as usize;
    let base = shared.slot_base(pos);
    let trace = &shared.machine.trace;
    if trace.is_enabled() {
        trace.record(
            ctx.now(),
            Event::RpcClaim {
                slot: slot_idx,
                core,
            },
        );
    }
    // The worker reads the descriptor from untrusted memory with
    // charged accesses — this is the traffic CAT fences off.
    let mut desc = [0u8; DESC_BYTES];
    ctx.read_untrusted(base + OFF_FUNC, &mut desc);
    let word = |i: usize| u64::from_le_bytes(desc[i * 8..i * 8 + 8].try_into().unwrap());
    let func = word(0);
    let args = [word(1), word(2), word(3), word(4)];
    let start = ctx.now();
    let ret = match shared.registry.get(&func) {
        Some(f) => (f.f)(ctx, args),
        None => {
            Stats::bump(&shared.machine.stats.rpc_errors);
            ERR_UNREGISTERED
        }
    };
    // Saturating: a caller that resets the core clocks
    // (`SgxMachine::reset_counters`) under an `RpcFuture` still in
    // flight loses that one job's cycles; a wrapped difference would
    // turn the waiter's clock back by this core's whole history.
    let elapsed = ctx.now().saturating_sub(start);
    ctx.write_untrusted(base + OFF_RET, &ret.to_le_bytes());
    ctx.write_untrusted_raw(base + OFF_CYCLES, &elapsed.to_le_bytes());
    Stats::bump(&shared.machine.stats.rpc_calls);
    let slot = &shared.slots[slot_idx];
    if let Some(lanes) = lanes {
        // The job starts at the later of its post and the end of its
        // poster's previous job, unless the poster's clock went back
        // since that post (a counter reset), which erased the history.
        let posted = slot.posted.load(Ordering::Relaxed);
        let lane = lanes
            .entry(slot.core.load(Ordering::Relaxed))
            .or_insert((0, 0));
        let free = if posted < lane.0 { posted } else { lane.1 };
        let start = posted.max(free);
        *lane = (posted, start + elapsed);
        slot.start.store(start, Ordering::Relaxed);
        slot.end.store(start + elapsed, Ordering::Relaxed);
    }
    // Publish completion last: the result bytes must be visible before
    // the sequence word says "done".
    slot.seq.store(seq_done(pos), Ordering::Release);
    if trace.is_enabled() {
        let now = ctx.now();
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
    /// When the job ran, on a one-worker ring, once it is reaped.
    span: Option<Span>,
}

impl RpcFuture {
    /// Whether the worker has published this job's completion
    /// (host-side peek; charges no simulated cycles). Private: on a
    /// one-worker ring a job runs only once its poster waits or its
    /// ring fills ([`Shared::release`]), so a caller polling this alone
    /// would spin forever.
    fn is_done(&self) -> bool {
        let n = self.shared.slots.len() as u64;
        let seq = self.shared.slots[(self.pos % n) as usize]
            .seq
            .load(Ordering::Acquire);
        seq == seq_done(self.pos)
    }

    /// Blocks (by polling) until completion, charges the caller the
    /// wait and returns the result. On a one-worker ring the wait runs
    /// to the job's end on the timeline, as [`RpcBatch::wait_all`]'s
    /// does, so whatever the caller computed since the post comes off
    /// it; with more workers it is the worker's measured execution time.
    pub fn wait(mut self, ctx: &mut ThreadCtx) -> u64 {
        let (ret, cycles) = self.reap(ctx);
        match self.span {
            Some(span) => span.wait(ctx),
            None => ctx.compute(cycles),
        }
        ret
    }

    /// Waits for completion and collects `(ret, worker_cycles)` without
    /// charging the worker time — [`RpcBatch::wait_all`] overlaps those
    /// charges across the pool instead.
    fn reap(&mut self, ctx: &mut ThreadCtx) -> (u64, u64) {
        debug_assert!(!self.reaped);
        let n = self.shared.slots.len() as u64;
        let slot = &self.shared.slots[(self.pos % n) as usize];
        self.shared.release();
        let mut backoff = Backoff::waiting();
        while slot.seq.load(Ordering::Acquire) != seq_done(self.pos) {
            backoff.snooze();
        }
        if self.shared.n_workers == 1 {
            let at = |word: &AtomicU64| word.load(Ordering::Relaxed);
            self.span = Some(Span {
                posted: at(&slot.posted),
                start: at(&slot.start),
                end: at(&slot.end),
            });
        }
        let base = self.shared.slot_base(self.pos);
        let mut ret = [0u8; 8];
        ctx.read_untrusted(base + OFF_RET, &mut ret);
        let mut cycles = [0u8; 8];
        ctx.read_untrusted_raw(base + OFF_CYCLES, &mut cycles);
        // Free the slot for the next lap.
        slot.seq.store(seq_free(self.pos + n), Ordering::Release);
        self.reaped = true;
        (u64::from_le_bytes(ret), u64::from_le_bytes(cycles))
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
    /// `(ret, worker_cycles, span)` by request index (filled as
    /// completions are reaped).
    results: Vec<Option<(u64, u64, Option<Span>)>>,
    /// The caller's clock when the first group's last post landed.
    posted: Option<u64>,
    n_workers: usize,
}

impl RpcBatch {
    /// Reaps every already-completed pending future; returns how many.
    fn reap_ready(&mut self, ctx: &mut ThreadCtx) -> usize {
        let mut reaped = 0;
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].1.is_done() {
                let (idx, mut fut) = self.pending.swap_remove(i);
                let (ret, cycles) = fut.reap(ctx);
                self.results[idx] = Some((ret, cycles, fut.span));
                reaped += 1;
            } else {
                i += 1;
            }
        }
        reaped
    }

    /// Blocks until every job in the batch has completed and returns
    /// each job's result and [`Span`] in post order, *without* charging
    /// the caller for the wait: for a caller that times its own progress
    /// against the worker timeline, like a reap that reads each
    /// descriptor line when the worker published it. On a ring with
    /// more workers there is no timeline: a span then runs from the
    /// first group's post for the job's own cycles.
    pub fn jobs(mut self, ctx: &mut ThreadCtx) -> Vec<(u64, Span)> {
        let posted = self.posted.unwrap_or(0);
        self.complete(ctx)
            .into_iter()
            .map(|(ret, cycles, span)| {
                let span = span.unwrap_or(Span {
                    posted,
                    start: posted,
                    end: posted + cycles,
                });
                (ret, span)
            })
            .collect()
    }

    /// Blocks until every job in the batch has completed, charges the
    /// caller the wait, and returns the results in request order.
    ///
    /// On a one-worker ring the wait runs to the last job's end on the
    /// timeline, so whatever the caller computed since a post comes off
    /// it. With more workers the jobs run concurrently from the first
    /// group's post: the wait runs to that post plus the total worker
    /// cycles divided by the workers that could share them.
    pub fn wait_all(mut self, ctx: &mut ThreadCtx) -> Vec<u64> {
        let jobs = self.complete(ctx);
        let end = match jobs.last() {
            Some(&(_, _, Some(span))) => span.seen_at(ctx.now()).end,
            _ => {
                let lanes = self.n_workers.min(jobs.len()).max(1) as u64;
                let cycles: u64 = jobs.iter().map(|&(_, c, _)| c).sum();
                self.posted.unwrap_or(0) + cycles / lanes
            }
        };
        ctx.compute(end.saturating_sub(ctx.now()));
        jobs.into_iter().map(|(ret, _, _)| ret).collect()
    }

    /// The one completion loop: reaps every pending job and returns
    /// each job's `(ret, worker_cycles, span)` in post order.
    fn complete(&mut self, ctx: &mut ThreadCtx) -> Vec<(u64, u64, Option<Span>)> {
        if let Some((_, fut)) = self.pending.first() {
            fut.shared.release();
        }
        let mut backoff = Backoff::waiting();
        while !self.pending.is_empty() {
            if self.reap_ready(ctx) > 0 {
                backoff.reset();
            } else {
                backoff.snooze();
            }
        }
        std::mem::take(&mut self.results)
            .into_iter()
            .map(|r| r.expect("all pending reaped"))
            .collect()
    }
}

impl RpcService {
    /// Number of worker threads polling the ring. Callers use this to
    /// pick a submission shape: per-message jobs parallelize across
    /// workers, while a single-worker service is better served by one
    /// scatter-gather job.
    #[must_use]
    pub fn worker_count(&self) -> usize {
        self.shared.n_workers
    }

    /// Starts building a service on `machine`.
    #[must_use]
    pub fn builder(machine: &Arc<SgxMachine>) -> RpcBuilder {
        RpcBuilder {
            machine: Arc::clone(machine),
            registry: HashMap::new(),
            n_slots: 16,
            worker_cores: vec![machine.core_count() - 1],
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
        // that a polling worker's Acquire load synchronizes with.
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
            span: None,
        }
    }

    /// Invokes `func_id(args)` on a worker *without exiting the
    /// enclave*, blocking (by polling) until the result is posted.
    ///
    /// The caller's clock advances by the enqueue/dequeue overhead plus
    /// the worker's measured execution time — the enclave thread really
    /// does wait out the call, it just never pays an exit. Unregistered
    /// ids return [`ERR_UNREGISTERED`] and bump `rpc_errors`.
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
    /// subsequent post only the incremental `rpc_post` (the worker pool
    /// is already polling, so no fresh handoff stall is paid). Batches
    /// larger than the ring are fine: submission reaps its own
    /// completions whenever the ring fills.
    ///
    /// # Panics
    /// Panics if called from untrusted mode.
    pub fn submit_batch(&self, ctx: &mut ThreadCtx, reqs: &[(u64, [u64; 4])]) -> RpcBatch {
        let mut batch = RpcBatch {
            pending: Vec::with_capacity(reqs.len().min(self.shared.slots.len())),
            results: Vec::with_capacity(reqs.len()),
            posted: None,
            n_workers: self.shared.n_workers,
        };
        Stats::bump(&self.shared.machine.stats.rpc_batches);
        self.extend_batch(ctx, &mut batch, reqs);
        batch
    }

    /// Posts `reqs` as one more group of a batch this service
    /// submitted, while the workers may still be serving the earlier
    /// groups: the caller keeps computing between groups, and
    /// [`RpcBatch::wait_all`] waits for all of them at once. The ring
    /// is already hot, so every post of a follow-on group pays only
    /// `rpc_post`. One worker queues the jobs on its timeline in post
    /// order.
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
            let fut = self.post(ctx, func_id, args, charge, |ctx| {
                batch.reap_ready(ctx);
            });
            batch.pending.push((idx, fut));
        }
        batch.posted.get_or_insert(ctx.now());
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
        for w in self.workers.drain(..) {
            let _ = w.join();
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
    /// order, so a caller keeps at most one send job per socket in
    /// flight — unless one worker serves the ring, which runs jobs in
    /// post order.
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
        // Many callers × a deliberately tiny ring: every echoed payload
        // must come back exactly once and the served-call counter must
        // equal the number of submissions.
        const CALLERS: usize = 4;
        const CALLS: u64 = 150;
        let mut cfg = MachineConfig::tiny();
        cfg.cores = 8; // one per caller + dedicated worker cores
        let m = SgxMachine::new(cfg);
        let svc = Arc::new(
            RpcService::builder(&m)
                .register(10, UntrustedFn::new(|_c, a| a[0] ^ 0xdead_beef))
                .workers(2, &[6, 7])
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
