//! Figure 10: end-to-end face-verification throughput (450 MB
//! database, ~4x PRM), across server configurations and thread counts.

use std::sync::{Arc, Mutex};

use eleos_apps::face::{hist_bytes, lbp_histogram, synth_capture, synth_image, FaceDb, FaceServer};
use eleos_enclave::thread::ThreadCtx;

use crate::harness::{header, kops, throughput, Mode, Rig, Scale};

/// Image side used by the experiment (the paper's 512, reduced with
/// scale to keep native LBP compute proportionate).
fn side(scale: Scale) -> usize {
    match scale.0 {
        1 => 512,
        2 => 512,
        4 => 256,
        _ => 128,
    }
}

/// The 10 Gb/s NIC that bounds the native server. Unscaled: both the
/// request bytes and the per-request CPU work scale with the image
/// area, so the cap sits at the same *relative* operating point at
/// every scale.
fn link_gbps(_scale: Scale) -> f64 {
    10.0
}

struct FaceRig {
    rig: Rig,
    server: Arc<Mutex<FaceServer>>,
    side: usize,
}

fn build(scale: Scale, mode: Mode, hists: &[Vec<u32>]) -> FaceRig {
    let s = side(scale);
    let dataset = hists.len() * hist_bytes(s);
    let rig = Rig::new(scale, mode, dataset + (dataset / 2), mode != Mode::Native);
    let mut ctx = rig.thread(0);
    let mut db = FaceDb::new(rig.data_space(), s, hists.len() as u64);
    db.init(&mut ctx);
    for (i, h) in hists.iter().enumerate() {
        db.enroll(&mut ctx, i as u64 + 1, h);
    }
    if ctx.in_enclave() {
        ctx.exit();
    }
    // Accept-all threshold: decision quality is covered by unit tests;
    // here we measure throughput.
    let server = Arc::new(Mutex::new(FaceServer::new(db, f64::MAX)));
    FaceRig {
        rig,
        server,
        side: s,
    }
}

fn phase(
    fr: &FaceRig,
    scale: Scale,
    threads: usize,
    reqs_per_thread: usize,
    wires: &[Vec<u8>],
) -> f64 {
    fr.rig.machine.reset_counters();
    let bytes_per_op = (12 + fr.side * fr.side + 64) as u64;
    let mut handles = Vec::new();
    for th in 0..threads {
        let machine = Arc::clone(&fr.rig.machine);
        let server = Arc::clone(&fr.server);
        let enclave = fr.rig.enclave.clone();
        let path = fr.rig.io_path();
        let wire = Arc::clone(&fr.rig.session);
        let wires = wires.to_vec();
        let enclaved = fr.rig.mode.enclaved();
        let buf_len = fr.side * fr.side + 4096;
        handles.push(std::thread::spawn(move || {
            let mut ctx = match &enclave {
                Some(e) => ThreadCtx::for_enclave(&machine, e, th),
                None => ThreadCtx::untrusted(&machine, th),
            };
            let ut = ThreadCtx::untrusted(&machine, th);
            let fd = machine.host.socket(&ut, 8 << 20);
            let io =
                eleos_apps::io::ServerIoConfig::with_buf_len(buf_len).build(&ut, &[fd], path, wire);
            if enclaved {
                ctx.enter();
            }
            let mut served = 0usize;
            let mut next = th * reqs_per_thread + th * 127; // disjoint slices per thread
            while served < reqs_per_thread {
                let batch = (reqs_per_thread - served).min(8);
                for _ in 0..batch {
                    machine
                        .host
                        .push_request(&ut, fd, &wires[next % wires.len()]);
                    next += 1;
                }
                for _ in 0..batch {
                    let mut srv = server.lock().expect("server mutex");
                    let served = io.serve_one(&mut ctx, |c, plain| srv.process(c, plain));
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
        .map(|h| h.join().expect("server thread"))
        .collect();
    let max = cycles.into_iter().max().unwrap_or(1);
    throughput(
        (threads * reqs_per_thread) as u64,
        max,
        bytes_per_op,
        Some(link_gbps(scale)),
    )
}

/// Runs Figure 10.
pub fn run(scale: Scale) {
    header(
        "fig10",
        "face-verification throughput (database ~4x PRM)",
        "native is network-bound; RPC alone ineffective; RPC+SUVM reaches ~95% of \
         native, ~2.3x over vanilla SGX",
    );
    let s = side(scale);
    // Database ~450MB at full scale.
    let n_ids = (scale.bytes(450 << 20) / hist_bytes(s)).max(8) as u64;
    println!(
        "   [setup] {n_ids} identities x {} KB histograms ({} MB), image side {s}",
        hist_bytes(s) / 1024,
        (n_ids as usize * hist_bytes(s)) >> 20
    );
    let hists: Vec<Vec<u32>> = (1..=n_ids)
        .map(|id| lbp_histogram(&synth_image(id, s), s))
        .collect();
    let reqs = scale.ops(4_000);

    println!(
        "   {:<14} {:>10} {:>10} {:>10}",
        "config", "1 thread", "2 threads", "4 threads"
    );
    for mode in [
        Mode::Native,
        Mode::SgxOcall,
        Mode::EleosRpc,
        Mode::EleosSuvm,
    ] {
        let fr = build(scale, mode, &hists);
        // A pool of pre-encrypted genuine requests large enough that
        // the stream sweeps well past the EPC (no artificial hot set).
        let pool = (n_ids as usize).clamp(64, 2048);
        let wires: Vec<Vec<u8>> = (0..pool)
            .map(|i| {
                let id = 1 + (i as u64 * 37) % n_ids;
                let img = synth_capture(id, s, i as u64);
                fr.rig
                    .session
                    .encrypt(&eleos_apps::face::build_verify_request(id, s, &img))
            })
            .collect();
        let mut row = format!("   {:<14}", mode.label());
        for threads in [1usize, 2, 4] {
            let t = phase(&fr, scale, threads, reqs / threads, &wires);
            row.push_str(&format!(" {:>10}", kops(t)));
        }
        println!("{row}");
    }
}
