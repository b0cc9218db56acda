//! The load loops: a closed loop into one enclave and an open loop into
//! the fleet. Both run on the bench thread, pop the transmit log after
//! every serve call (the host keeps only the last 32 replies per
//! socket) and check every reply.

use std::collections::VecDeque;
use std::time::Instant;

use eleos_apps::fleet_io::FleetKvs;
use eleos_apps::kvs::Kvs;
use eleos_enclave::thread::ThreadCtx;
use eleos_sim::stats::StatsSnapshot;

use crate::gen::Gen;
use crate::measure::HostTimer;
use crate::report::MAINT_SPAN;
use crate::rig::{build_fleet, Host, Single};
use crate::trace::Tracer;
use crate::verify::{InFlight, Shadow, Tally};
use crate::workload::{
    Spec, FLEET_REPLICAS, IN_FLIGHT, MAINT_CORE, MAINT_EVERY, MAX_BACKLOG, SERVE_CORE, WARMUP_OPS,
};

/// What one measured phase produced.
pub struct Phase {
    pub tally: Tally,
    /// Reply latency of every answered request, in simulated cycles.
    pub latencies: Vec<u64>,
    /// Serving-core cycles spent in serve calls that served something.
    pub busy_cycles: u64,
    /// Serving-core cycles over the whole phase, and the part of them
    /// that was idle fast-forward (open loop only).
    pub clock_cycles: u64,
    pub idle_cycles: u64,
    /// Serve calls that came back with at least one request.
    pub nonempty_reaps: u64,
    /// Host CPU ns per op ([`HostTimer`]), and the phase's wall time.
    pub host_ns_per_op: f64,
    pub wall_s: f64,
    /// How late the open-loop generator delivered an arrival, at worst.
    pub max_lateness: u64,
    /// `machine.stats` over the phase.
    pub stats: Box<StatsSnapshot>,
    /// Items the storage engine evicted during the phase.
    pub storage_evictions: u64,
}

/// The client population: request generator, shadow model, and the
/// requests in flight per socket. Lives across warm-up and measured
/// phase so the model stays in step with the store.
pub struct Client<'a> {
    spec: &'static Spec,
    host: &'a Host,
    gen: Gen,
    shadow: Shadow,
    inflight: Vec<VecDeque<InFlight>>,
    issued: u64,
    total: u64,
    tally: Tally,
    latencies: Vec<u64>,
}

impl<'a> Client<'a> {
    pub fn new(spec: &'static Spec, host: &'a Host, seed: u64) -> Self {
        Self {
            spec,
            host,
            gen: Gen::new(spec, seed),
            shadow: Shadow::filled(spec.n_keys, spec.value_len, spec.may_miss),
            inflight: host.fds.iter().map(|_| VecDeque::new()).collect(),
            issued: 0,
            total: 0,
            tally: Tally::default(),
            latencies: Vec::new(),
        }
    }

    fn begin(&mut self, total: u64) {
        self.issued = 0;
        self.total = total;
        self.tally = Tally::default();
        self.latencies = Vec::with_capacity(total as usize);
    }

    fn outstanding(&self) -> usize {
        self.inflight.iter().map(VecDeque::len).sum()
    }

    /// Generates the next request and sends it on socket `sock(conn)`,
    /// stamped `due`. Returns `false` once the phase's ops are issued.
    fn issue(&mut self, conn: Option<u32>, due: u64, sock: impl Fn(u32) -> usize) -> bool {
        if self.issued == self.total {
            return false;
        }
        let req = self.gen.next(conn, self.issued as f64 / self.total as f64);
        self.issued += 1;
        if self.outstanding() >= MAX_BACKLOG {
            self.tally.fail();
            return true;
        }
        let (expect, ver) = self.shadow.send(&req);
        let s = sock(req.conn);
        self.host.send(s, &req, ver, due);
        self.inflight[s].push_back(InFlight {
            conn: req.conn,
            due,
            expect,
        });
        true
    }

    /// Pops and checks up to `max` replies from socket `sock`, all
    /// committed at `now`. Appends the connections they free.
    fn collect(&mut self, sock: usize, max: usize, now: u64, freed: &mut Vec<u32>) {
        for _ in 0..max {
            let Some(reply) = self.host.reply(sock) else {
                break;
            };
            let Some(f) = self.inflight[sock].pop_front() else {
                self.tally.fail();
                continue;
            };
            self.tally.check(&f.expect, reply.as_deref());
            self.latencies.push(now - f.due);
            freed.push(f.conn);
        }
    }

    /// Everything still in flight will never be answered.
    fn fail_outstanding(&mut self) {
        for q in &mut self.inflight {
            for f in q.drain(..) {
                self.tally.check(&f.expect, None);
            }
        }
    }
}

/// Executes one decrypted request through the store's public calls and
/// builds the reply — the body of the private `Kvs::process` for the
/// two opcodes the benchmark sends.
fn process(kvs: &mut Kvs, ctx: &mut ThreadCtx, plain: &[u8]) -> Vec<u8> {
    let klen = usize::from(u16::from_le_bytes([plain[1], plain[2]]));
    let vlen = u32::from_le_bytes([plain[3], plain[4], plain[5], plain[6]]) as usize;
    let key = &plain[7..7 + klen];
    match plain[0] {
        0 => match kvs.get(ctx, key) {
            Some(value) => {
                let mut resp = Vec::with_capacity(5 + value.len());
                resp.push(1);
                resp.extend_from_slice(&(value.len() as u32).to_le_bytes());
                resp.extend_from_slice(&value);
                resp
            }
            None => vec![0],
        },
        1 => {
            kvs.set(ctx, key, &plain[7 + klen..7 + klen + vlen]);
            vec![1]
        }
        op => panic!("the benchmark sends no opcode {op}"),
    }
}

/// `Kvs::handle_batch` taken apart into the identical sequence of
/// public calls, with a span around each.
fn traced_batch(s: &mut Single, tr: &mut Tracer, batch: u64, root: usize) -> usize {
    let span = tr.open("apps.io.recv", batch, Some(root), s.ctx.now());
    let requests = s.io.recv_batch(&mut s.ctx);
    let n = requests.len() as u64;
    tr.close(span, s.ctx.now(), n, 1);

    let span = tr.open("apps.kvs.serve", batch, Some(root), s.ctx.now());
    let replies: Vec<Vec<u8>> = requests
        .iter()
        .map(|plain| process(&mut s.kvs, &mut s.ctx, plain))
        .collect();
    tr.close(span, s.ctx.now(), n, n);

    let span = tr.open("apps.io.send", batch, Some(root), s.ctx.now());
    s.io.send_batch(&mut s.ctx, &replies);
    tr.close(span, s.ctx.now(), n, 1);

    if !requests.is_empty() {
        let span = tr.open("apps.kvs.fence", batch, Some(root), s.ctx.now());
        s.kvs.fence(&mut s.ctx);
        tr.close(span, s.ctx.now(), n, 1);
    }
    requests.len()
}

/// Opens a span when tracing; `None` otherwise.
fn open(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    batch: u64,
    parent: Option<usize>,
    sim_now: u64,
) -> Option<usize> {
    tr.as_deref_mut()
        .map(|t| t.open(name, batch, parent, sim_now))
}

fn close(tr: &mut Option<&mut Tracer>, span: Option<usize>, sim_now: u64, ops: u64) {
    if let (Some(t), Some(span)) = (tr.as_deref_mut(), span) {
        t.close(span, sim_now, ops, 1);
    }
}

/// Closed loop: [`IN_FLIGHT`] requests outstanding; every reply
/// immediately frees its connection to send the next request, stamped
/// with the time the reply was committed.
fn closed_phase(
    s: &mut Single,
    client: &mut Client,
    ops: u64,
    mut tr: Option<&mut Tracer>,
) -> Phase {
    client.begin(ops);
    let evicted0 = s.kvs.evictions();
    client.host.machine.reset_counters();
    let conns = client.spec.conns;
    for i in 0..IN_FLIGHT as u32 {
        client.issue(Some(i % conns), s.ctx.now(), |_| 0);
    }
    let mut timer = HostTimer::start(ops);
    let started = Instant::now();
    let mut nonempty_reaps = 0;
    let mut freed = Vec::new();
    let mut batch = 0u64;
    while client.tally.attempted < ops {
        let root = open(&mut tr, "bench.round", batch, None, s.ctx.now());
        let n = match (tr.as_deref_mut(), root) {
            (Some(t), Some(root)) => traced_batch(s, t, batch, root),
            _ => s.kvs.handle_batch(&mut s.ctx, &s.io),
        };
        let now = s.ctx.now();
        if n == 0 {
            // The socket held requests and the server saw none.
            client.fail_outstanding();
            close(&mut tr, root, now, 0);
            break;
        }
        nonempty_reaps += 1;

        let span = open(&mut tr, "bench.verify", batch, root, now);
        freed.clear();
        client.collect(0, n, now, &mut freed);
        close(&mut tr, span, now, n as u64);

        let span = open(&mut tr, "apps.loadgen.push", batch, root, now);
        for &conn in &freed {
            client.issue(Some(conn), now, |_| 0);
        }
        close(&mut tr, span, now, freed.len() as u64);

        close(&mut tr, root, now, n as u64);
        timer.tick(client.tally.attempted);
        batch += 1;
    }
    let clock_cycles = s.ctx.now();
    let stats = Box::new(client.host.machine.stats.snapshot());
    Phase {
        tally: client.tally,
        latencies: std::mem::take(&mut client.latencies),
        busy_cycles: clock_cycles,
        clock_cycles,
        idle_cycles: 0,
        nonempty_reaps,
        host_ns_per_op: timer.ns_per_op(client.tally.attempted),
        wall_s: started.elapsed().as_secs_f64(),
        max_lateness: 0,
        storage_evictions: s.kvs.evictions() - evicted0,
        stats,
    }
}

/// Open loop: Poisson arrivals at a fixed mean gap, each stamped with
/// the time it was *due*, whatever the server was doing then. Replicas
/// are pumped in turn on one serving core; the maintenance plane ticks
/// every [`MAINT_EVERY`] rounds on its own core; when a whole round
/// serves nothing the clock fast-forwards to the next arrival.
fn open_phase(
    fk: &FleetKvs,
    client: &mut Client,
    ops: u64,
    mean_gap: u64,
    mut tr: Option<&mut Tracer>,
) -> Phase {
    client.begin(ops);
    let host = client.host;
    let machine = &host.machine;
    machine.reset_counters();
    let (serve_core, maint_core) = (machine.core(SERVE_CORE), machine.core(MAINT_CORE));
    let (clock, maint_clock) = (&serve_core.clock, &maint_core.clock);
    let map = fk.map();
    let sockets = host.fds.len();

    let mut timer = HostTimer::start(ops);
    let started = Instant::now();
    let mut next_due = client.gen.gap(mean_gap);
    let (mut busy_cycles, mut idle_cycles, mut nonempty_reaps) = (0u64, 0u64, 0u64);
    let mut max_lateness = 0u64;
    let mut freed = Vec::new();
    let mut round = 0u64;
    while client.tally.attempted < ops {
        let root = open(&mut tr, "bench.round", round, None, clock.now());
        let mut served = 0usize;
        for r in 0..FLEET_REPLICAS {
            let now = clock.now();
            let span = open(&mut tr, "apps.loadgen.push", round, root, now);
            let mut pushed = 0u64;
            while next_due <= now
                && client.issue(None, next_due, |conn| map.shard_of(u64::from(conn)))
            {
                max_lateness = max_lateness.max(now - next_due);
                next_due += client.gen.gap(mean_gap);
                pushed += 1;
            }
            close(&mut tr, span, now, pushed);

            // The span is named once the call returns: a round that
            // served is a pump, one that reaped nothing is a poll.
            let span = open(&mut tr, "apps.fleet_io.poll", round, root, now);
            let n = fk.pump_replica(r);
            let done = clock.now();
            if n > 0 {
                busy_cycles += done - now;
                nonempty_reaps += 1;
                if let (Some(t), Some(span)) = (tr.as_deref_mut(), span) {
                    t.rename(span, "apps.fleet_io.pump");
                }
            }
            close(&mut tr, span, done, n as u64);
            served += n;

            let span = open(&mut tr, "bench.verify", round, root, done);
            freed.clear();
            for sock in 0..sockets {
                client.collect(sock, usize::MAX, done, &mut freed);
            }
            close(&mut tr, span, done, freed.len() as u64);
        }
        close(&mut tr, root, clock.now(), served as u64);
        round += 1;
        if round.is_multiple_of(MAINT_EVERY) {
            // A root span: the tick runs beside the rounds, on the
            // maintenance core's clock.
            let span = open(&mut tr, MAINT_SPAN, round, None, maint_clock.now());
            fk.maintenance_tick();
            close(&mut tr, span, maint_clock.now(), 0);
        }
        if served == 0 {
            if client.issued == ops {
                // Every arrival was delivered and a full round found
                // the queues empty: what is in flight is lost.
                client.fail_outstanding();
                break;
            }
            let now = clock.now();
            if next_due > now {
                clock.advance(next_due - now);
                idle_cycles += next_due - now;
            }
        }
        timer.tick(client.tally.attempted);
    }
    let stats = Box::new(machine.stats.snapshot());
    Phase {
        tally: client.tally,
        latencies: std::mem::take(&mut client.latencies),
        busy_cycles,
        clock_cycles: clock.now(),
        idle_cycles,
        nonempty_reaps,
        host_ns_per_op: timer.ns_per_op(client.tally.attempted),
        wall_s: started.elapsed().as_secs_f64(),
        max_lateness,
        // The replicas' stores are private to the fleet, and the
        // default engine publishes no gauges; their pools hold 25x the
        // data set, so nothing is ever evicted.
        storage_evictions: 0,
        stats,
    }
}

/// The system under test: one enclave, or the fleet.
pub enum Server {
    Single(Box<Single>),
    Fleet(Box<FleetKvs>),
}

impl Server {
    /// Builds and fills the system for `spec` (`reference`: the paper's
    /// baseline mode, single-enclave workloads only).
    pub fn build(spec: &'static Spec, reference: bool) -> (Host, Server) {
        if spec.open_gap.is_some() {
            let (host, fleet) = build_fleet(spec);
            (host, Server::Fleet(Box::new(fleet)))
        } else {
            let (host, single) = Single::build(spec, reference);
            (host, Server::Single(Box::new(single)))
        }
    }

    /// Resets the machine's counters and clocks, then runs `ops`
    /// requests through the system and checks every reply.
    pub fn phase(&mut self, client: &mut Client, ops: u64, tr: Option<&mut Tracer>) -> Phase {
        match (self, client.spec.open_gap) {
            (Server::Fleet(f), Some(gap)) => open_phase(f, client, ops, gap, tr),
            (Server::Single(s), None) => closed_phase(s, client, ops, tr),
            _ => unreachable!("Server::build pairs the fleet with the open loop"),
        }
    }

    /// The discarded warm-up: fills caches and settles the adaptive
    /// batch depth.
    pub fn warm_up(&mut self, client: &mut Client) {
        self.phase(client, WARMUP_OPS, None);
    }
}
