//! The §5.2 biometric identity-checking server: LBP histograms in
//! SUVM, genuine captures accepted, impostors rejected — all behind
//! encrypted requests with the database paged exit-lessly.
//!
//! Run with: `cargo run --release --example face_verification`

use std::sync::Arc;

use eleos::apps::face::{
    build_verify_request, chi_square, lbp_histogram, synth_capture, synth_image, FaceDb, FaceServer,
};
use eleos::apps::io::{IoPath, ServerIoConfig};
use eleos::apps::loadgen::attest_session;
use eleos::apps::space::DataSpace;
use eleos::apps::wire::Session;
use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::rpc::{with_syscalls, RpcService};
use eleos::suvm::{Suvm, SuvmConfig};

const SIDE: usize = 128;
const IDS: u64 = 64;

fn main() {
    let machine = SgxMachine::new(MachineConfig {
        epc_bytes: 16 << 20,
        ..MachineConfig::default()
    });
    let enclave = machine.driver.create_enclave(&machine, 64 << 20);
    let rpc = Arc::new(
        with_syscalls(RpcService::builder(&machine), &machine)
            .workers(1, &[7])
            .build(),
    );
    let t0 = ThreadCtx::for_enclave(&machine, &enclave, 0);
    let suvm = Suvm::new(
        &t0,
        SuvmConfig {
            epcpp_bytes: 4 << 20,
            backing_bytes: 32 << 20,
            ..SuvmConfig::default()
        },
    );

    let mut ctx = ThreadCtx::for_enclave(&machine, &enclave, 0);
    ctx.enter();
    let mut db = FaceDb::new(DataSpace::suvm(&suvm), SIDE, IDS);
    db.init(&mut ctx);
    println!(
        "enrolling {IDS} identities ({} KiB of histograms each)...",
        eleos::apps::face::hist_bytes(SIDE) / 1024
    );
    for id in 1..=IDS {
        db.enroll(&mut ctx, id, &lbp_histogram(&synth_image(id, SIDE), SIDE));
    }

    // Pick a decision threshold from genuine/impostor score samples.
    let enrolled = db.fetch(&mut ctx, 1).expect("id 1 enrolled");
    let genuine = chi_square(
        &lbp_histogram(&synth_capture(1, SIDE, 1000), SIDE),
        &enrolled,
    );
    let impostor = chi_square(&lbp_histogram(&synth_image(2, SIDE), SIDE), &enrolled);
    println!("score calibration: genuine {genuine:.0} vs impostor {impostor:.0}");
    let mut server = FaceServer::new(db, (genuine + impostor) / 2.0);

    let session = Arc::new(Session::handshake([5u8; 16], [0x53u8; 16]));
    let mut ut = ThreadCtx::untrusted(&machine, 0);
    attest_session(&mut ut, &session);
    let fd = machine.host.socket(&ut, 4 << 20);
    let io = ServerIoConfig::with_buf_len((SIDE * SIDE) + 4096).build(
        &ctx,
        &[fd],
        IoPath::Rpc(rpc),
        Arc::clone(&session),
    );

    // A mixed request stream: genuine captures and impostor attempts.
    let mut correct = 0;
    let total = 60;
    for i in 0..total as u64 {
        let claimed = 1 + i % IDS;
        let genuine_attempt = i % 3 != 0;
        let img = if genuine_attempt {
            synth_capture(claimed, SIDE, 7000 + i)
        } else {
            synth_image(claimed % IDS + 1, SIDE) // someone else's face
        };
        machine.host.push_request(
            &ut,
            fd,
            &session.encrypt(&build_verify_request(claimed, SIDE, &img)),
        );
        assert!(io.serve_one(&mut ctx, |ctx, plain| server.process(ctx, plain)));
        let resp = session.decrypt(&machine.host.pop_response(fd).expect("response"));
        let accepted = resp[0] == 1;
        if accepted == genuine_attempt {
            correct += 1;
        }
    }
    let (acc, rej) = server.decisions();
    println!(
        "{total} verifications: {correct} correct decisions ({acc} accepted / {rej} rejected)"
    );
    let s = machine.stats.snapshot();
    println!(
        "database reads paged exit-lessly: {} SUVM faults, {} enclave exits total",
        s.suvm_major_faults, s.enclave_exits
    );
    ctx.exit();
}
