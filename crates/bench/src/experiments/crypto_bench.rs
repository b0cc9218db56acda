//! Serving-path crypto microbenchmark: server x batch depth x crypto
//! mode, on cache-resident tables so the wire crypto dominates the
//! serving core. The run checks the claim its header prints and fails
//! otherwise.
//!
//! The serving thread's cycles/op is the figure of merit: per-message
//! crypto pays the full GCM/CTR key-schedule setup (`crypto_fixed`)
//! for every request and response; the batched pipeline pays it once
//! per reap and a quarter for each follow-on message — the same
//! amortization contract `suvm/writeback.rs` uses for sealed
//! evictions (both now charge through the one
//! `ThreadCtx::charge_crypto_batch` site). Both modes ride the same
//! batched ring submission, so the delta isolates the crypto.
//!
//! A second sweep adds the **workers** dimension: a reap is one
//! `recv_mmsg` job and a send one `send_mmsg` job per socket whatever
//! the worker count, so a second RPC worker must not change what the
//! single-socket pipeline costs.

use std::sync::Arc;

use eleos_apps::io::ServerIoConfig;
use eleos_apps::kvs::Kvs;
use eleos_apps::loadgen::KvsLoad;
use eleos_apps::param_server::TableKind;
use eleos_apps::text_protocol::{format_get, process_text};
use eleos_enclave::thread::ThreadCtx;

use crate::harness::{header, run_param_server_batched, x, Mode, Rig, Scale};

/// Items in the KVS/text tables: small enough to stay cache-resident
/// so crypto, not memory, dominates the serving core.
const N_ITEMS: u64 = 512;
/// Socket feed chunk: a multiple of every swept batch depth, so each
/// reap is exactly `batch` messages.
const CHUNK: usize = 256;

/// One measured cell of the sweep.
struct Cell {
    server: &'static str,
    crypto: &'static str,
    /// RPC worker threads serving the ring.
    workers: usize,
    batch: usize,
    cycles_per_op: f64,
    crypto_batches: u64,
    crypto_msgs: u64,
}

/// Feeds `n_requests` encrypted requests through `handle` in socket
/// chunks and returns the serving-core cycles across the measured
/// phase. `push` enqueues one request; `handle` drains one batch.
fn serve(
    rig: &Rig,
    ctx: &mut ThreadCtx,
    n_requests: usize,
    warmup: usize,
    push: &mut dyn FnMut(&ThreadCtx),
    handle: &mut dyn FnMut(&mut ThreadCtx) -> usize,
) -> u64 {
    // The load generator lives on another core: its push cycles must
    // not land on the serving core's clock.
    let ut = ThreadCtx::untrusted(&rig.machine, 2);
    let mut feed = |ctx: &mut ThreadCtx, n: usize| {
        let mut drained = 0usize;
        while drained < n {
            if drained == 0 {
                for _ in 0..n {
                    push(&ut);
                }
            }
            let got = handle(ctx);
            assert!(got > 0, "queued requests must be served");
            drained += got;
        }
    };
    let mut left = warmup;
    while left > 0 {
        let n = left.min(CHUNK);
        feed(ctx, n);
        left -= n;
    }
    rig.machine.reset_counters();
    let c0 = ctx.now();
    let mut served = 0usize;
    while served < n_requests {
        let n = (n_requests - served).min(CHUNK);
        feed(ctx, n);
        served += n;
    }
    ctx.now() - c0
}

/// Runs one KVS (binary protocol) or text (memcached ASCII) cell.
fn kvs_cell(
    scale: Scale,
    text: bool,
    batch: usize,
    batched: bool,
    ops: usize,
    workers: usize,
) -> Cell {
    let rig = Rig::with_workers(scale, Mode::EleosRpc, 4 << 20, false, workers);
    let mut ctx = rig.thread(0);
    let mut kvs = Kvs::new(rig.data_space(), rig.data_space(), 64 << 20, 1 << 10);
    kvs.init(&mut ctx);
    let mut load = KvsLoad::new(29, N_ITEMS, 16, 32);
    for i in 0..N_ITEMS {
        kvs.set(&mut ctx, &load.key(i), &load.value(i));
    }
    let io_cfg = ServerIoConfig::with_buf_len(64 << 10)
        .batch(batch)
        .batched_crypto(batched);
    let io = rig.server_io_cfg(&ctx, io_cfg);
    let wire = Arc::clone(&rig.session);
    let fd = rig.fd;
    let machine = Arc::clone(&rig.machine);
    let mut push = move |ut: &ThreadCtx| {
        let (i, plain) = load.get_plain();
        let plain = if text {
            format_get(&load.key(i))
        } else {
            plain
        };
        machine.host.push_request(ut, fd, &wire.encrypt(&plain));
    };
    let mut handle = |ctx: &mut ThreadCtx| {
        if text {
            io.serve(ctx, |ctx, msg| process_text(&mut kvs, ctx, msg))
        } else {
            kvs.handle_batch(ctx, &io)
        }
    };
    let cycles = serve(&rig, &mut ctx, ops, CHUNK, &mut push, &mut handle);
    let d = rig.machine.stats.snapshot();
    ctx.exit();
    Cell {
        server: if text { "text" } else { "kvs" },
        crypto: if batched { "batched" } else { "per-msg" },
        workers,
        batch,
        cycles_per_op: cycles as f64 / ops as f64,
        crypto_batches: d.crypto_batches,
        crypto_msgs: d.crypto_msgs,
    }
}

/// Runs one parameter-server cell (1-update requests, 2 MiB table).
fn param_cell(scale: Scale, batch: usize, batched: bool, ops: usize) -> Cell {
    let data = scale.bytes(2 << 20);
    let rig = Rig::new(scale, Mode::EleosRpc, data, false);
    let n_keys = (data / 32) as u64;
    let mut load = eleos_apps::loadgen::ParamLoad::new(13, n_keys, 1, None);
    let run = run_param_server_batched(
        &rig,
        TableKind::OpenAddressing,
        n_keys,
        ops,
        ops / 10,
        batch,
        batched,
        move || load.next_plain(),
    );
    Cell {
        server: "param",
        crypto: if batched { "batched" } else { "per-msg" },
        workers: 1,
        batch,
        cycles_per_op: run.e2e_cycles as f64 / run.ops as f64,
        crypto_batches: run.stats.crypto_batches,
        crypto_msgs: run.stats.crypto_msgs,
    }
}

/// Runs the sweep and prints a table. `quick` trims the batch axis
/// for CI smoke runs.
///
/// # Panics
/// Panics — so `repro` exits non-zero — unless every `(server, crypto,
/// workers)` series ran at every batch depth and its cycles/op never
/// rise with the depth, and on one worker the batched crypto costs
/// fewer cycles/op than per-message crypto at every depth of two or
/// more: the claims the header prints.
pub fn run(scale: Scale, quick: bool) {
    header(
        "crypto_bench",
        "server x batch depth x crypto mode, cache-resident tables",
        "deeper batches amortize ring handoff and GCM/CTR setup: every series' \
         cycles/op is monotone non-increasing in batch depth, one worker or two, \
         and batched crypto beats per-msg at every depth >= 2",
    );
    let batches: &[usize] = if quick {
        &[1, 8]
    } else {
        &[1, 2, 4, 8, 16, 32]
    };
    // A multiple of CHUNK so every reap is exactly `batch` deep.
    let ops = (scale.ops(if quick { 8_000 } else { 20_000 }) / CHUNK).max(1) * CHUNK;
    let servers: &[&str] = &["kvs", "text", "param"];
    println!(
        "   {:<7} {:>5} {:>14} {:>14} {:>12} {:>10} {:>10}",
        "server", "batch", "per-msg c/op", "batched c/op", "crypto gain", "c.batches", "c.msgs"
    );
    let mut cells: Vec<Cell> = Vec::new();
    let mut broken: Vec<String> = Vec::new();
    for &server in servers {
        for &batch in batches {
            let run_one = |batched: bool| match server {
                "kvs" => kvs_cell(scale, false, batch, batched, ops, 1),
                "text" => kvs_cell(scale, true, batch, batched, ops, 1),
                "param" => param_cell(scale, batch, batched, ops),
                other => panic!("unknown server {other}"),
            };
            let per_msg = run_one(false);
            let batched = run_one(true);
            println!(
                "   {:<7} {:>5} {:>14.0} {:>14.0} {:>12} {:>10} {:>10}",
                server,
                batch,
                per_msg.cycles_per_op,
                batched.cycles_per_op,
                x(per_msg.cycles_per_op / batched.cycles_per_op),
                batched.crypto_batches,
                batched.crypto_msgs
            );
            // The header's second claim: past depth one, batched crypto
            // beats per-message crypto on one worker.
            if batch >= 2 && batched.cycles_per_op >= per_msg.cycles_per_op {
                broken.push(format!(
                    "{server} at batch {batch}: batched {:.1} c/op does not beat per-msg {:.1}",
                    batched.cycles_per_op, per_msg.cycles_per_op
                ));
            }
            cells.push(per_msg);
            cells.push(batched);
        }
    }

    // Multi-worker sweep: the batched cells again with two RPC workers
    // polling the ring. Each reap and each send is still one job.
    println!(
        "   {:<7} {:>5} {:>14} {:>14}  (batched crypto)",
        "server", "batch", "1 worker c/op", "2 workers c/op"
    );
    for &server in &["kvs", "text"] {
        for &batch in batches {
            let two = kvs_cell(scale, server == "text", batch, true, ops, 2);
            let one = cells
                .iter()
                .find(|c| c.server == server && c.batch == batch && c.crypto == "batched")
                .expect("the single-worker sweep ran this cell");
            println!(
                "   {:<7} {:>5} {:>14.0} {:>14.0}",
                server, batch, one.cycles_per_op, two.cycles_per_op,
            );
            cells.push(two);
        }
    }

    // The header's first claim, checked: both crypto modes of every
    // server on one worker, and the batched KVS/text series again on
    // two, are monotone.
    let series = servers
        .iter()
        .flat_map(|&server| [(server, "per-msg", 1), (server, "batched", 1)])
        .chain([("kvs", "batched", 2), ("text", "batched", 2)]);
    for key in series {
        let by_depth: Vec<&Cell> = cells
            .iter()
            .filter(|c| (c.server, c.crypto, c.workers) == key)
            .collect();
        if !by_depth.iter().map(|c| c.batch).eq(batches.iter().copied()) {
            broken.push(format!(
                "{key:?}: not measured at every depth of {batches:?}"
            ));
        }
        for pair in by_depth.windows(2) {
            if pair[1].cycles_per_op > pair[0].cycles_per_op {
                broken.push(format!(
                    "{key:?}: {:.1} c/op at batch {} rises to {:.1} at batch {}",
                    pair[0].cycles_per_op, pair[0].batch, pair[1].cycles_per_op, pair[1].batch
                ));
            }
        }
    }
    assert!(broken.is_empty(), "claims that do not hold: {broken:#?}");
    println!(
        "   {} cells, every series monotone in batch depth, batched beats per-msg from depth 2",
        cells.len()
    );
}
