//! The host operating system: system calls and a socket layer fed by
//! load generators.
//!
//! Two effects matter to the paper and are modelled here:
//!
//! 1. a system call costs ~250 cycles of trap/return plus the cache
//!    footprint of its I/O buffers (§2.2) — `recv`/`send` genuinely
//!    copy through a per-socket kernel staging ring with charged
//!    accesses, so the pollution Fig 2a measures emerges from the LLC
//!    model;
//! 2. the network is a throughput ceiling (Fig 10's native server is
//!    NIC-bound) — the bench harness caps a run's ops at 10 Gb/s of
//!    request and reply bytes (`eleos_bench::harness::throughput`);
//!    the sockets count nothing.
//!
//! A receive releases the staging pages it has finished with: once a
//! `recv` or `recv_mmsg` has copied its messages out, every whole page
//! of the ring that the oldest still-queued message has moved past,
//! bar the page the writer is in, goes back to
//! [`eleos_sim::mem::PagedMem`]'s pool
//! ([`PagedMem::release_ring`]). Consumed staging bytes
//! therefore read as zeros, and the host memory a socket holds follows
//! the bytes queued on it rather than the ring's capacity. The LLC and
//! TLB models see only addresses, so no simulated cycle moves.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};

use parking_lot::Mutex;

use eleos_sim::mem::PagedMem;
use eleos_sim::stats::Stats;

use crate::thread::ThreadCtx;

/// A socket descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fd(pub u32);

/// Size of the per-call kernel bookkeeping footprint touched on every
/// recv/send: socket structs, sk_buff chains, protocol bookkeeping.
/// FlexSC (the paper's \[28\]) measures several KiB of kernel state per
/// syscall; 4 KiB models that footprint.
const KERNEL_META_BYTES: usize = 4096;

/// Charges a syscall's kernel bookkeeping: one [`KERNEL_META_BYTES`]
/// read of the socket's metadata area at `meta`, into a scratch buffer
/// each thread keeps (its bytes are never looked at).
fn read_kernel_meta(ctx: &mut ThreadCtx, meta: u64) {
    thread_local! {
        static SCRATCH: RefCell<[u8; KERNEL_META_BYTES]> =
            const { RefCell::new([0; KERNEL_META_BYTES]) };
    }
    Stats::bump(&ctx.machine.stats.kernel_meta_reads);
    SCRATCH.with_borrow_mut(|scratch| ctx.read_untrusted(meta, scratch));
}

/// Bytes per `recv_mmsg`/`send_mmsg` descriptor entry: two little-endian
/// `u64` words — the message length, then the enqueue timestamp in
/// cycles (receive side; ignored by sends).
pub const DESC_STRIDE: usize = 16;

/// Descriptor entries per 64-byte cache line: the unit `recv_mmsg`
/// publishes its descriptors in.
pub const DESC_LINE: usize = 4;

struct Socket {
    /// Untrusted address of the kernel staging ring.
    staging: u64,
    staging_cap: usize,
    /// Bytes the writer has moved through the ring since the socket
    /// opened, counting the end gap it skips when a message would not
    /// fit before the ring wraps: the next message lands at
    /// `head % staging_cap`.
    head: u64,
    /// Queued inbound messages: (ring position on `head`'s scale, len,
    /// enqueue cycles). The enqueue timestamp rides the wire
    /// descriptors out of `recv_mmsg` so the serving path can compute
    /// per-op sojourn.
    rx_queue: VecDeque<(u64, usize, u64)>,
    /// Ring position up to which consumed pages have been released.
    released: u64,
    /// Receives that have popped messages and not yet copied them out.
    copying: usize,
    /// When each descriptor line of the last `recv_mmsg` became
    /// visible ([`HostOs::rx_marks`]).
    rx_marks: Vec<u64>,
    /// Kernel metadata area address.
    meta: u64,
    /// Recent outbound messages, for verification by tests/loadgens.
    tx_log: VecDeque<Vec<u8>>,
}

impl Socket {
    /// Pops the oldest queued message: its untrusted address, its
    /// length and its enqueue stamp.
    fn pop(&mut self) -> Option<(u64, usize, u64)> {
        let (pos, len, enq) = self.rx_queue.pop_front()?;
        Some((self.staging + pos % self.staging_cap as u64, len, enq))
    }

    /// The oldest queued message's ring position, or the writer's when
    /// none is queued.
    fn tail(&self) -> u64 {
        self.rx_queue.front().map_or(self.head, |&(pos, ..)| pos)
    }

    /// Marks the messages a receive popped as copied out and, once no
    /// receive is still copying, releases the ring pages consumed since
    /// the last release ([`PagedMem::release_ring`]).
    fn copied(&mut self, mem: &PagedMem) {
        self.copying -= 1;
        if self.copying == 0 {
            let tail = self.tail();
            mem.release_ring(
                self.staging,
                self.staging_cap,
                &mut self.released,
                tail,
                self.head,
            );
        }
    }

    /// Commits one outbound message to the wire: retained (up to
    /// [`TX_LOG_CAP`]) for inspection.
    fn transmit(&mut self, payload: Vec<u8>) {
        self.tx_log.push_back(payload);
        if self.tx_log.len() > TX_LOG_CAP {
            self.tx_log.pop_front();
        }
    }
}

/// The host OS.
pub struct HostOs {
    sockets: Mutex<HashMap<Fd, Socket>>,
    next_fd: Mutex<u32>,
}

/// How many outbound messages each socket retains for inspection.
const TX_LOG_CAP: usize = 32;

impl Default for HostOs {
    fn default() -> Self {
        Self::new()
    }
}

impl HostOs {
    /// Creates a host OS with no sockets.
    #[must_use]
    pub fn new() -> Self {
        Self {
            sockets: Mutex::new(HashMap::new()),
            next_fd: Mutex::new(3),
        }
    }

    /// Opens a socket with a `staging_cap`-byte kernel ring.
    pub fn socket(&self, ctx: &ThreadCtx, staging_cap: usize) -> Fd {
        let staging = ctx.machine.alloc_untrusted(staging_cap);
        let meta = ctx.machine.alloc_untrusted(KERNEL_META_BYTES);
        let mut fds = self.next_fd.lock();
        let fd = Fd(*fds);
        *fds += 1;
        self.sockets.lock().insert(
            fd,
            Socket {
                staging,
                staging_cap,
                head: 0,
                rx_queue: VecDeque::new(),
                released: 0,
                copying: 0,
                rx_marks: Vec::new(),
                meta,
                tx_log: VecDeque::new(),
            },
        );
        fd
    }

    /// Opens `n` sockets sharing one staging capacity — the shard set
    /// of a multi-socket server, one socket per serving pipeline (SO_REUSEPORT
    /// style: the "kernel" — here the load generator's shard hash —
    /// spreads connections across them).
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn socket_set(&self, ctx: &ThreadCtx, n: usize, staging_cap: usize) -> Vec<Fd> {
        assert!(n > 0, "a socket set needs at least one shard");
        (0..n).map(|_| self.socket(ctx, staging_cap)).collect()
    }

    /// Load-generator side: enqueues an inbound message. Bytes land in
    /// the staging ring via DMA (uncharged — NIC traffic does not pass
    /// through the core being measured). The message is stamped with
    /// the pushing core's current cycle count.
    ///
    /// # Panics
    /// Panics if the message exceeds the staging capacity or the ring
    /// has no room (the load generator must not overrun the server).
    pub fn push_request(&self, ctx: &ThreadCtx, fd: Fd, msg: &[u8]) {
        self.push_request_at(ctx, fd, msg, ctx.now());
    }

    /// [`Self::push_request`] with an explicit enqueue timestamp, for
    /// load generators that model arrivals on a timebase other than
    /// their own core clock (e.g. stamping arrivals against the serving
    /// core so sojourn is measured on one clock).
    pub fn push_request_at(&self, ctx: &ThreadCtx, fd: Fd, msg: &[u8], enqueued_at: u64) {
        let mut sockets = self.sockets.lock();
        let s = sockets.get_mut(&fd).expect("bad fd");
        assert!(msg.len() <= s.staging_cap, "message exceeds staging ring");
        let cap = s.staging_cap as u64;
        let len = msg.len() as u64;
        // A message that would not fit before the ring wraps starts the
        // next lap; the end gap it skips stays unwritten.
        let at = if s.head % cap + len > cap {
            s.head.next_multiple_of(cap)
        } else {
            s.head
        };
        // Its end may come round to the oldest queued message's start,
        // never past it.
        let oldest = s.rx_queue.front().map_or(at, |&(pos, ..)| pos);
        assert!(
            at + len <= oldest + cap,
            "staging ring overrun: generator outpacing server"
        );
        ctx.machine.untrusted.write(s.staging + at % cap, msg);
        s.rx_queue.push_back((at, msg.len(), enqueued_at));
        s.head = at + len;
    }

    /// Number of queued inbound messages.
    #[must_use]
    pub fn rx_pending(&self, fd: Fd) -> usize {
        self.sockets.lock().get(&fd).map_or(0, |s| s.rx_queue.len())
    }

    /// When the last [`Self::recv_mmsg`] on `fd` published each of its
    /// descriptor lines, in order: the worker cycles since that call
    /// began, the origin of the job's measured worker cycles. This is
    /// simulator timing kept host-side, like [`Self::rx_pending`]: it is
    /// never read from untrusted memory and never decides what is
    /// served, only when a streamed reap can see each line.
    #[must_use]
    pub fn rx_marks(&self, fd: Fd) -> Vec<u64> {
        self.sockets
            .lock()
            .get(&fd)
            .map_or_else(Vec::new, |s| s.rx_marks.clone())
    }

    /// `recv(2)`: copies the next message into `[buf_addr, +max_len)`
    /// in untrusted memory. Returns the message length, or `None` if
    /// the queue is empty (EWOULDBLOCK).
    ///
    /// Must be called from untrusted mode (via OCALL or an RPC worker).
    pub fn recv(
        &self,
        ctx: &mut ThreadCtx,
        fd: Fd,
        buf_addr: u64,
        max_len: usize,
    ) -> Option<usize> {
        assert!(!ctx.in_enclave(), "syscall from trusted mode");
        ctx.compute(ctx.machine.cfg.costs.syscall);
        Stats::bump(&ctx.machine.stats.syscalls);
        let (staging_addr, len, meta) = {
            let mut sockets = self.sockets.lock();
            let s = sockets.get_mut(&fd).expect("bad fd");
            let (addr, len, _enq) = s.pop()?;
            s.copying += 1;
            (addr, len.min(max_len), s.meta)
        };
        // Kernel bookkeeping + the copy kernel->user, all polluting the
        // executor's cache partition.
        read_kernel_meta(ctx, meta);
        let mut payload = vec![0u8; len];
        ctx.read_untrusted(staging_addr, &mut payload);
        ctx.write_untrusted(buf_addr, &payload);
        let mut sockets = self.sockets.lock();
        sockets
            .get_mut(&fd)
            .expect("bad fd")
            .copied(&ctx.machine.untrusted);
        Some(len)
    }

    /// `recvmmsg(2)`-style scatter-gather receive: dequeues up to
    /// `max_msgs` messages, in arrival order, into consecutive
    /// `stripe`-byte slots starting at `buf_addr`, and writes one
    /// [`DESC_STRIDE`]-byte descriptor per message into the array at
    /// `desc_addr`: two little-endian `u64` words, the message length
    /// followed by its enqueue timestamp (cycles), which lets the
    /// reaper compute per-op sojourn (SO_TIMESTAMPING-style ancillary
    /// data). Returns the number of messages received.
    ///
    /// The whole batch pays the trap/return and kernel-bookkeeping
    /// footprint **once** — that is the point of the syscall: the
    /// kernel walks the socket queue a single time, so per-message
    /// cost degenerates to the user copies.
    ///
    /// Like Linux's `recvmmsg`, which writes each entry's `msg_len` as
    /// it receives that datagram, the descriptors are published as the
    /// copies go: one [`DESC_LINE`]-entry line at a time, right after
    /// that line's payloads are copied, and [`Self::rx_marks`] records
    /// when each line became visible.
    pub fn recv_mmsg(
        &self,
        ctx: &mut ThreadCtx,
        fd: Fd,
        buf_addr: u64,
        stripe: usize,
        max_msgs: usize,
        desc_addr: u64,
    ) -> usize {
        assert!(!ctx.in_enclave(), "syscall from trusted mode");
        assert!(max_msgs > 0);
        let start = ctx.now();
        ctx.compute(ctx.machine.cfg.costs.syscall);
        Stats::bump(&ctx.machine.stats.syscalls);
        // One queue walk under one lock hold: the batch is atomic, so
        // slot order *is* arrival order.
        let (popped, meta, mut marks) = {
            let mut sockets = self.sockets.lock();
            let s = sockets.get_mut(&fd).expect("bad fd");
            let mut popped = Vec::with_capacity(max_msgs.min(s.rx_queue.len()));
            while popped.len() < max_msgs {
                let Some((addr, len, enq)) = s.pop() else {
                    break;
                };
                popped.push((addr, len.min(stripe), enq));
            }
            s.rx_marks.clear();
            let marks = if popped.is_empty() {
                Vec::new()
            } else {
                s.copying += 1;
                std::mem::take(&mut s.rx_marks)
            };
            (popped, s.meta, marks)
        };
        if popped.is_empty() {
            return 0;
        }
        // Kernel bookkeeping once per batch, then the copies
        // kernel->user per message, each line of descriptors written
        // once its payloads are in place.
        read_kernel_meta(ctx, meta);
        let mut payload = Vec::new();
        for (line, msgs) in popped.chunks(DESC_LINE).enumerate() {
            let first = line * DESC_LINE;
            let mut descs = [0u8; DESC_LINE * DESC_STRIDE];
            for (j, &(staging_off, len, enq)) in msgs.iter().enumerate() {
                payload.resize(len, 0);
                ctx.read_untrusted(staging_off, &mut payload);
                ctx.write_untrusted(buf_addr + ((first + j) * stripe) as u64, &payload);
                let desc = &mut descs[j * DESC_STRIDE..(j + 1) * DESC_STRIDE];
                desc[..8].copy_from_slice(&(len as u64).to_le_bytes());
                desc[8..].copy_from_slice(&enq.to_le_bytes());
            }
            let desc = desc_addr + (first * DESC_STRIDE) as u64;
            ctx.write_untrusted(desc, &descs[..msgs.len() * DESC_STRIDE]);
            // Saturating, like the job's own measurement: a bench may
            // reset the core clocks under a call in flight.
            marks.push(ctx.now().saturating_sub(start));
        }
        // Only now, with every payload copied out, may the pages they
        // sat in be released.
        let mut sockets = self.sockets.lock();
        let s = sockets.get_mut(&fd).expect("bad fd");
        s.rx_marks = marks;
        s.copied(&ctx.machine.untrusted);
        popped.len()
    }

    /// `sendmmsg(2)`-style scatter-gather send: transmits `n_msgs`
    /// messages from consecutive `stripe`-byte slots at `buf_addr`,
    /// taking each message's length from the [`DESC_STRIDE`]-byte
    /// descriptor array at `desc_addr` (first little-endian `u64`
    /// word, matching `recv_mmsg`'s layout; the timestamp word is
    /// ignored on the send side). Pays the trap/return and kernel
    /// bookkeeping once per batch. Returns `n_msgs`.
    ///
    /// Messages hit the wire in slot order. One serving pipeline owns
    /// each socket and has at most one send job per socket in flight —
    /// or several on a one-worker ring, which runs them in post order —
    /// so slot order is the order the replies were produced in.
    pub fn send_mmsg(
        &self,
        ctx: &mut ThreadCtx,
        fd: Fd,
        buf_addr: u64,
        stripe: usize,
        n_msgs: usize,
        desc_addr: u64,
    ) -> usize {
        assert!(!ctx.in_enclave(), "syscall from trusted mode");
        ctx.compute(ctx.machine.cfg.costs.syscall);
        Stats::bump(&ctx.machine.stats.syscalls);
        let meta = {
            let sockets = self.sockets.lock();
            sockets.get(&fd).expect("bad fd").meta
        };
        read_kernel_meta(ctx, meta);
        let mut descs = vec![0u8; n_msgs * DESC_STRIDE];
        ctx.read_untrusted(desc_addr, &mut descs);
        for i in 0..n_msgs {
            let at = i * DESC_STRIDE;
            let len = u64::from_le_bytes(descs[at..at + 8].try_into().expect("desc")) as usize;
            assert!(len <= stripe, "descriptor exceeds its stripe");
            let mut payload = vec![0u8; len];
            ctx.read_untrusted(buf_addr + (i * stripe) as u64, &mut payload);
            let mut sockets = self.sockets.lock();
            sockets.get_mut(&fd).expect("bad fd").transmit(payload);
        }
        n_msgs
    }

    /// `send(2)`: transmits `len` bytes from untrusted memory.
    pub fn send(&self, ctx: &mut ThreadCtx, fd: Fd, buf_addr: u64, len: usize) -> usize {
        assert!(!ctx.in_enclave(), "syscall from trusted mode");
        ctx.compute(ctx.machine.cfg.costs.syscall);
        Stats::bump(&ctx.machine.stats.syscalls);
        let meta = {
            let sockets = self.sockets.lock();
            sockets.get(&fd).expect("bad fd").meta
        };
        read_kernel_meta(ctx, meta);
        let mut payload = vec![0u8; len];
        ctx.read_untrusted(buf_addr, &mut payload);
        let mut sockets = self.sockets.lock();
        sockets.get_mut(&fd).expect("bad fd").transmit(payload);
        len
    }

    /// `poll(2)`-lite: whether `fd` has inbound data. This is the
    /// paper's canonical *long-running* syscall — "to reduce the cost
    /// of polling, Eleos invokes long running system calls like
    /// `poll()` via the naive OCALL mechanism" (§3.1) rather than
    /// burning an RPC worker on it.
    #[must_use]
    pub fn poll(&self, ctx: &mut ThreadCtx, fd: Fd) -> bool {
        assert!(!ctx.in_enclave(), "syscall from trusted mode");
        ctx.compute(ctx.machine.cfg.costs.syscall);
        Stats::bump(&ctx.machine.stats.syscalls);
        self.rx_pending(fd) > 0
    }

    /// Pops the oldest retained outbound message (test/loadgen side).
    #[must_use]
    pub fn pop_response(&self, fd: Fd) -> Option<Vec<u8>> {
        self.sockets
            .lock()
            .get_mut(&fd)
            .and_then(|s| s.tx_log.pop_front())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineConfig, SgxMachine};
    use eleos_sim::costs::PAGE_SIZE;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn recv_send_roundtrip() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut t = ThreadCtx::untrusted(&m, 0);
        let fd = m.host.socket(&t, 64 << 10);
        m.host.push_request(&t, fd, b"hello server");
        assert_eq!(m.host.rx_pending(fd), 1);

        let buf = m.alloc_untrusted(256);
        let n = m.host.recv(&mut t, fd, buf, 256).unwrap();
        assert_eq!(n, 12);
        let mut got = vec![0u8; n];
        t.read_untrusted(buf, &mut got);
        assert_eq!(&got, b"hello server");

        t.write_untrusted(buf, b"response!");
        m.host.send(&mut t, fd, buf, 9);
        assert_eq!(m.host.pop_response(fd).unwrap(), b"response!");
    }

    #[test]
    fn mmsg_batches_pay_one_syscall() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut t = ThreadCtx::untrusted(&m, 0);
        let fd = m.host.socket(&t, 64 << 10);
        let push_start = t.now();
        for i in 0..5u8 {
            m.host.push_request(&t, fd, &[i; 10]);
        }
        let buf = m.alloc_untrusted(4096);
        let desc = m.alloc_untrusted(8 * DESC_STRIDE);
        let s0 = m.stats.snapshot();
        // Asks for 8, gets the 5 queued, in arrival order.
        let n = m.host.recv_mmsg(&mut t, fd, buf, 512, 8, desc);
        assert_eq!(n, 5);
        let d = m.stats.snapshot() - s0;
        assert_eq!(d.syscalls, 1);
        assert_eq!(d.kernel_meta_reads, 1);
        let mut descs = vec![0u8; n * DESC_STRIDE];
        t.read_untrusted(desc, &mut descs);
        for i in 0..n {
            let at = i * DESC_STRIDE;
            let len = u64::from_le_bytes(descs[at..at + 8].try_into().unwrap()) as usize;
            assert_eq!(len, 10);
            let enq = u64::from_le_bytes(descs[at + 8..at + 16].try_into().unwrap());
            assert_eq!(enq, push_start, "descriptor carries the enqueue stamp");
            let mut msg = vec![0u8; len];
            t.read_untrusted(buf + (i * 512) as u64, &mut msg);
            assert_eq!(msg, vec![i as u8; 10]);
        }

        // Echo all five back with one sendmmsg: the receive
        // descriptors' length words double as the send descriptors.
        let s1 = m.stats.snapshot();
        assert_eq!(m.host.send_mmsg(&mut t, fd, buf, 512, n, desc), 5);
        let d = m.stats.snapshot() - s1;
        assert_eq!(d.syscalls, 1);
        assert_eq!(d.kernel_meta_reads, 1);
        for i in 0..n {
            assert_eq!(m.host.pop_response(fd).unwrap(), vec![i as u8; 10]);
        }
    }

    #[test]
    fn descriptor_lines_are_marked_as_they_are_published() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut t = ThreadCtx::untrusted(&m, 0);
        let fd = m.host.socket(&t, 64 << 10);
        for i in 0..6u8 {
            m.host.push_request(&t, fd, &[i; 100]);
        }
        let buf = m.alloc_untrusted(8 * 512);
        let desc = m.alloc_untrusted(8 * DESC_STRIDE);
        let c0 = t.now();
        assert_eq!(m.host.recv_mmsg(&mut t, fd, buf, 512, 8, desc), 6);
        // Two lines: four entries, then two. Each is visible once its
        // payloads are copied, and the second no later than the call's
        // end.
        let marks = m.host.rx_marks(fd);
        assert_eq!(marks.len(), 2);
        assert!(m.cfg.costs.syscall < marks[0] && marks[0] < marks[1]);
        assert!(marks[1] <= t.now() - c0);
        // An empty call publishes nothing.
        assert_eq!(m.host.recv_mmsg(&mut t, fd, buf, 512, 8, desc), 0);
        assert!(m.host.rx_marks(fd).is_empty());
    }

    #[test]
    fn socket_set_opens_independent_shards() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let t = ThreadCtx::untrusted(&m, 0);
        let fds = m.host.socket_set(&t, 3, 4096);
        assert_eq!(fds.len(), 3);
        m.host.push_request(&t, fds[1], b"only shard 1");
        assert_eq!(m.host.rx_pending(fds[0]), 0);
        assert_eq!(m.host.rx_pending(fds[1]), 1);
        assert_eq!(m.host.rx_pending(fds[2]), 0);
    }

    #[test]
    fn explicit_enqueue_stamp_rides_the_descriptor() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut t = ThreadCtx::untrusted(&m, 0);
        let fd = m.host.socket(&t, 4096);
        m.host.push_request_at(&t, fd, b"stamped", 0xdead_beef);
        let buf = m.alloc_untrusted(512);
        let desc = m.alloc_untrusted(DESC_STRIDE);
        assert_eq!(m.host.recv_mmsg(&mut t, fd, buf, 512, 1, desc), 1);
        let mut descs = vec![0u8; DESC_STRIDE];
        t.read_untrusted(desc, &mut descs);
        let enq = u64::from_le_bytes(descs[8..16].try_into().unwrap());
        assert_eq!(enq, 0xdead_beef);
    }

    #[test]
    fn empty_queue_would_block() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut t = ThreadCtx::untrusted(&m, 0);
        let fd = m.host.socket(&t, 4096);
        let buf = m.alloc_untrusted(64);
        assert_eq!(m.host.recv(&mut t, fd, buf, 64), None);
    }

    #[test]
    fn syscalls_charge_cycles_and_pollute() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut t = ThreadCtx::untrusted(&m, 0);
        let fd = m.host.socket(&t, 64 << 10);
        m.host.push_request(&t, fd, &vec![7u8; 4096]);
        let buf = m.alloc_untrusted(4096);
        let s0 = m.stats.snapshot();
        let c0 = t.now();
        m.host.recv(&mut t, fd, buf, 4096).unwrap();
        assert!(t.now() - c0 >= m.cfg.costs.syscall);
        let d = m.stats.snapshot() - s0;
        assert_eq!(d.syscalls, 1);
        assert!(d.llc_misses > 0, "I/O buffers must touch the LLC");
    }

    /// The staging pages `fd`'s ring holds, and its live bytes: those
    /// from the oldest queued message to the writer, an end gap the
    /// writer skipped included.
    fn held(m: &SgxMachine, fd: Fd) -> (usize, usize) {
        let sockets = m.host.sockets.lock();
        let s = &sockets[&fd];
        let pages = m.untrusted.resident_pages(s.staging, s.staging_cap);
        (pages, (s.head - s.tail()) as usize)
    }

    /// Request `i`'s bytes: `len` of them, unlike any other request's.
    fn request(i: usize, len: usize) -> Vec<u8> {
        (0..len).map(|j| (i * 31 + j * 7 + j / 251) as u8).collect()
    }

    #[test]
    fn a_batch_spanning_whole_pages_is_delivered_byte_exact() {
        // 32 x 1 KiB fills eight whole staging pages, each released
        // by the receive that consumes it: only after its copy.
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut t = ThreadCtx::untrusted(&m, 0);
        let fd = m.host.socket(&t, 64 << 10);
        for i in 0..32 {
            m.host.push_request(&t, fd, &request(i, 1024));
        }
        assert!(held(&m, fd).0 >= 8);
        let buf = m.alloc_untrusted(32 * 1024);
        let desc = m.alloc_untrusted(32 * DESC_STRIDE);
        assert_eq!(m.host.recv_mmsg(&mut t, fd, buf, 1024, 32, desc), 32);
        for i in 0..32 {
            let mut got = vec![0u8; 1024];
            m.untrusted.read(buf + (i * 1024) as u64, &mut got);
            assert_eq!(got, request(i, 1024), "request {i}");
        }
        assert!(held(&m, fd).0 <= 1, "consumed pages stay held");
    }

    #[test]
    fn staging_pages_held_follow_the_bytes_queued() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut t = ThreadCtx::untrusted(&m, 0);
        let cap = 64 << 10;
        let fd = m.host.socket(&t, cap);
        let stripe = 1024;
        let buf = m.alloc_untrusted(64 * stripe);
        let desc = m.alloc_untrusted(64 * DESC_STRIDE);
        let mut rng = StdRng::seed_from_u64(7);
        let (mut pushed, mut received, mut bytes) = (0usize, 0usize, 0usize);
        let mut lens = VecDeque::new();
        while received < 100_000 {
            // Bursts of up to 100 requests (~50 KiB) wrap the ring every
            // few bursts, each leaving an end gap of up to one stripe.
            let mut room = cap - stripe - held(&m, fd).1;
            for _ in 0..rng.random_range(0..100) {
                let len = rng.random_range(1..=stripe);
                if len > room {
                    break;
                }
                room -= len;
                bytes += len;
                m.host.push_request(&t, fd, &request(pushed, len));
                lens.push_back(len);
                pushed += 1;
            }
            while m.host.rx_pending(fd) > rng.random_range(0..64) {
                let n = if rng.random_bool(0.1) {
                    usize::from(m.host.recv(&mut t, fd, buf, stripe).is_some())
                } else {
                    let want = rng.random_range(1..=64);
                    m.host.recv_mmsg(&mut t, fd, buf, stripe, want, desc)
                };
                for i in 0..n {
                    let mut got = vec![0u8; lens.pop_front().expect("queued")];
                    m.untrusted.read(buf + (i * stripe) as u64, &mut got);
                    assert_eq!(got, request(received, got.len()), "request {received}");
                    received += 1;
                }
                let (pages, live) = held(&m, fd);
                assert!(
                    pages <= live / PAGE_SIZE + 2,
                    "{pages} pages held for {live} live bytes"
                );
            }
        }
        assert!(bytes > 100 * cap, "the ring wraps many times over");
    }

    #[test]
    #[should_panic(expected = "staging ring overrun")]
    fn a_wrapped_writer_cannot_overrun_a_queued_message() {
        // After 600 B in and out, 300 B land at [600, 900), the next
        // 300 B wrap to [0, 300), and 400 B would take [300, 700) over
        // the 300 B still queued there, though 1 000 queued bytes fit
        // in the ring's 1 024.
        let m = SgxMachine::new(MachineConfig::tiny());
        let mut t = ThreadCtx::untrusted(&m, 0);
        let fd = m.host.socket(&t, 1024);
        let buf = m.alloc_untrusted(1024);
        m.host.push_request(&t, fd, &[1; 600]);
        assert_eq!(m.host.recv(&mut t, fd, buf, 1024), Some(600));
        m.host.push_request(&t, fd, &[2; 300]);
        m.host.push_request(&t, fd, &[3; 300]);
        m.host.push_request(&t, fd, &[4; 400]);
    }

    #[test]
    #[should_panic(expected = "staging ring overrun")]
    fn generator_cannot_overrun() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let t = ThreadCtx::untrusted(&m, 0);
        let fd = m.host.socket(&t, 1024);
        m.host.push_request(&t, fd, &vec![0u8; 600]);
        m.host.push_request(&t, fd, &vec![0u8; 600]);
    }
}
