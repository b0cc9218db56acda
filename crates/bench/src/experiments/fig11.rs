//! Figure 11 / Table 4: memcached-style KVS throughput with Graphene
//! (OCALL) vs Eleos, 500 MB of data (~4.5x PRM), and the
//! metadata-placement ablation from §6.2.2.

use std::sync::{Arc, Mutex};

use eleos_apps::kvs::Kvs;
use eleos_apps::loadgen::KvsLoad;
use eleos_apps::space::DataSpace;
use eleos_enclave::thread::ThreadCtx;

use crate::harness::{header, kops, throughput, x, Mode, Rig, Scale};

const KEY_LEN: usize = 20;
const LINK_GBPS: f64 = 10.0;

struct KvsRig {
    rig: Rig,
    kvs: Arc<Mutex<Kvs>>,
    load: KvsLoad,
}

/// Builds a rig and fills the store with `dataset_bytes` of items.
/// `meta_secure` moves the metadata into the secure space too (the
/// §6.2.2 ablation; the paper's default keeps it clear).
fn build(
    scale: Scale,
    mode: Mode,
    value_len: usize,
    dataset_bytes: usize,
    meta_secure: bool,
) -> KvsRig {
    let rig = Rig::new(scale, mode, dataset_bytes * 2, mode != Mode::Native);
    let n_items = (dataset_bytes / (KEY_LEN + value_len)) as u64;
    let load = KvsLoad::new(99, n_items, KEY_LEN, value_len);
    let data_space = rig.data_space();
    let meta_space = if meta_secure {
        data_space.clone()
    } else {
        DataSpace::Untrusted(Arc::clone(&rig.machine))
    };
    let mem_limit = (dataset_bytes as u64 * 3 / 2).max(8 << 20);
    let mut kvs = Kvs::new(meta_space, data_space, mem_limit, (n_items * 2).max(1024));
    let mut ctx = rig.thread(0);
    kvs.init(&mut ctx);
    // Fill phase (memaslap's SET pass), performed directly.
    for i in 0..n_items {
        kvs.set(&mut ctx, &load.key(i), &load.value(i));
    }
    assert_eq!(kvs.len(), n_items, "fill must not evict");
    if mode == Mode::EleosSuvmDirect {
        // The direct row measures backing-store reads: as in Table 3,
        // push out what the fill left in EPC++ (a fresh page is
        // written there, whatever the access mode).
        let suvm = rig.suvm.as_ref().expect("suvm");
        while suvm.evict_one(&mut ctx) {}
    }
    if ctx.in_enclave() {
        ctx.exit();
    }
    KvsRig {
        rig,
        kvs: Arc::new(Mutex::new(kvs)),
        load,
    }
}

/// Runs a GET phase with `threads` server threads; returns Kops/s.
fn get_phase(kr: &KvsRig, threads: usize, gets_per_thread: usize, value_len: usize) -> f64 {
    kr.rig.machine.reset_counters();
    let bytes_per_op = (KEY_LEN + value_len + 64) as u64;
    let mut handles = Vec::new();
    for th in 0..threads {
        let machine = Arc::clone(&kr.rig.machine);
        let kvs = Arc::clone(&kr.kvs);
        let enclave = kr.rig.enclave.clone();
        let path = kr.rig.io_path();
        let wire = Arc::clone(&kr.rig.session);
        let enclaved = kr.rig.mode.enclaved();
        let n_items = kr.load.n_items;
        let key_len = kr.load.key_len;
        handles.push(std::thread::spawn(move || {
            let mut load = KvsLoad::new(1000 + th as u64, n_items, key_len, value_len);
            let mut ctx = match &enclave {
                Some(e) => ThreadCtx::for_enclave(&machine, e, th),
                None => ThreadCtx::untrusted(&machine, th),
            };
            let ut = ThreadCtx::untrusted(&machine, th);
            let fd = machine.host.socket(&ut, 2 << 20);
            let io = eleos_apps::io::ServerIoConfig::with_buf_len(64 << 10).build(
                &ut,
                &[fd],
                path,
                wire.clone(),
            );
            if enclaved {
                ctx.enter();
            }
            let mut served = 0usize;
            while served < gets_per_thread {
                let batch = (gets_per_thread - served).min(64);
                for _ in 0..batch {
                    let (_, plain) = load.get_plain();
                    machine.host.push_request(&ut, fd, &wire.encrypt(&plain));
                }
                for _ in 0..batch {
                    let mut k = kvs.lock().expect("kvs mutex");
                    let served = io.serve_one(&mut ctx, |c, plain| k.process(c, plain));
                    assert!(served, "request queued");
                }
                served += batch;
            }
            if enclaved {
                ctx.exit();
            }
            ctx.now()
        }));
    }
    let cycles: Vec<u64> = handles
        .into_iter()
        .map(|h| h.join().expect("kvs thread"))
        .collect();
    let max = cycles.into_iter().max().unwrap_or(1);
    throughput(
        (threads * gets_per_thread) as u64,
        max,
        bytes_per_op,
        Some(LINK_GBPS),
    ) / 1.0
}

/// Runs Figure 11: throughput normalized to vanilla Graphene-SGX.
pub fn run_fig11(scale: Scale) {
    header(
        "fig11",
        "KVS GET throughput, 500MB dataset, normalized to Graphene-SGX",
        "Eleos RPC+SUVM up to 2.2x Graphene; direct access best for 1KB values; \
         within ~17% of a page-fault-free run",
    );
    let dataset = scale.bytes(500 << 20);
    let gets = scale.ops(60_000);
    for value_len in [1024usize, 4096] {
        let mut rows: Vec<(String, f64)> = Vec::new();
        for mode in [
            Mode::SgxOcall,
            Mode::EleosRpc,
            Mode::EleosSuvm,
            Mode::EleosSuvmDirect,
            Mode::EleosSuvmAdaptive,
        ] {
            let kr = build(scale, mode, value_len, dataset, false);
            rows.push((mode.label().to_string(), get_phase(&kr, 1, gets, value_len)));
        }
        // Page-fault-free upper bound: a 20MB dataset under Graphene.
        let small = build(
            scale,
            Mode::SgxOcall,
            value_len,
            scale.bytes(20 << 20),
            false,
        );
        rows.push((
            "sgx-small-20MB".to_string(),
            get_phase(&small, 1, gets, value_len),
        ));
        let base = rows[0].1;
        println!("   value size {value_len}B:");
        for (label, thr) in &rows {
            println!(
                "     {:<16} {:>10}/s {:>8}",
                label,
                kops(*thr),
                x(thr / base)
            );
        }
    }
}

/// Runs Table 4: absolute throughput, 1 and 4 threads, vs native.
pub fn run_table4(scale: Scale) {
    header(
        "table4",
        "KVS throughput (Kops/s): Graphene-SGX vs Eleos vs native",
        "1KB/1thr: 21.4 / 43.4 / 229; 4KB/4thr: 41.8 / 86 / 274 (slowdowns 11.1x->3.2x)",
    );
    let dataset = scale.bytes(500 << 20);
    let gets = scale.ops(60_000);
    println!(
        "   {:<8} {:<8} {:>12} {:>14} {:>12}",
        "value", "threads", "sgx", "eleos", "native"
    );
    for value_len in [1024usize, 4096] {
        let rigs: Vec<KvsRig> = [Mode::SgxOcall, Mode::EleosSuvm, Mode::Native]
            .into_iter()
            .map(|m| build(scale, m, value_len, dataset, false))
            .collect();
        for threads in [1usize, 4] {
            let thr: Vec<f64> = rigs
                .iter()
                .map(|kr| get_phase(kr, threads, gets / threads, value_len))
                .collect();
            println!(
                "   {:<8} {:<8} {:>7} ({:>5}) {:>7} ({:>5}) {:>10}",
                format!("{value_len}B"),
                threads,
                kops(thr[0]),
                x(thr[2] / thr[0]),
                kops(thr[1]),
                x(thr[2] / thr[1]),
                kops(thr[2])
            );
        }
    }
}

/// Runs the §6.2.2 metadata-placement ablation.
pub fn run_meta_ablation(scale: Scale) {
    header(
        "meta_ablation",
        "KVS metadata in untrusted clear memory vs inside SUVM",
        "clear metadata is ~3-7% faster (not the main source of gains)",
    );
    let dataset = scale.bytes(200 << 20);
    let gets = scale.ops(40_000);
    let clear = build(scale, Mode::EleosSuvm, 1024, dataset, false);
    let t_clear = get_phase(&clear, 1, gets, 1024);
    let secure = build(scale, Mode::EleosSuvm, 1024, dataset, true);
    let t_secure = get_phase(&secure, 1, gets, 1024);
    println!(
        "   clear-metadata {:>10}/s   secure-metadata {:>10}/s   gain {:.1}%",
        kops(t_clear),
        kops(t_secure),
        100.0 * (t_clear - t_secure) / t_secure
    );
}
