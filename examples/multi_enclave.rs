//! A replicated enclave fleet behind the shard router: two SUVM-backed
//! replicas serve one KVS through the sharded exit-less pipeline
//! (connection → shard → owning replica), each paging its slice of the
//! store through its own EPC++ while the SGX driver fair-shares the
//! physical EPC between them (§3.3). Mid-run a replica is killed at a
//! fence — its sealed snapshot crosses the exit-less cross-enclave
//! channel, the heir restores it before reaping the inherited shards,
//! and no reply is lost — then respawned from the shard-owner's
//! donated snapshot.
//!
//! Run with: `cargo run --release --example multi_enclave`

use std::sync::Arc;

use eleos::apps::fleet_io::{FleetConfig, FleetKvs};
use eleos::apps::io::ServerIoConfig;
use eleos::apps::kvs::{build_get, build_set};
use eleos::apps::loadgen::attest_session;
use eleos::apps::{IoPath, Session};
use eleos::crypto::gcm::AesGcm128;
use eleos::crypto::Sealer;
use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::rpc::{with_syscalls, RpcService};
use eleos::suvm::SuvmConfig;

const SHARDS: usize = 4;
const REPLICAS: usize = 2;
const N_CONNS: u64 = 8;
const N_ITEMS: u32 = 2048;
const VAL: usize = 1024;
const ROUNDS: usize = 32;
const KILL_AT: usize = 16;
const RESPAWN_AT: usize = 24;

fn main() {
    let machine = SgxMachine::new(MachineConfig {
        epc_bytes: 24 << 20,
        ..MachineConfig::default()
    });
    let ut = ThreadCtx::untrusted(&machine, 2);
    let fds: Vec<_> = (0..SHARDS)
        .map(|_| machine.host.socket(&ut, 256 << 10))
        .collect();
    let svc = with_syscalls(RpcService::builder(&machine), &machine)
        .workers(2, &[6, 7])
        .build();
    let session = Arc::new(Session::handshake([9u8; 16], [0x54u8; 16]));
    {
        let mut hs = ThreadCtx::untrusted(&machine, 2);
        attest_session(&mut hs, &session);
    }
    // The fleet key is shared across replicas (a per-enclave sealing
    // identity dies with its enclave, so snapshots must not use it).
    let sealer: Arc<dyn Sealer> = Arc::new(AesGcm128::new(&[0x2au8; 16]));

    // Each replica's kv data lives in its own 1 MiB EPC++ over a 2 MiB
    // store, so both page continuously and contend on the shared EPC.
    let fk = FleetKvs::new(
        &machine,
        &fds,
        ServerIoConfig::with_buf_len(16 << 10).batch(8),
        IoPath::Rpc(Arc::new(svc)),
        Arc::clone(&session),
        sealer,
        FleetConfig {
            suvm: Some(SuvmConfig {
                epcpp_bytes: 1 << 20,
                backing_bytes: 16 << 20,
                headroom_bytes: 256 << 10,
                ..SuvmConfig::default()
            }),
            cores: vec![0, 1],
            ..FleetConfig::small(REPLICAS)
        },
        |ctx, kvs| {
            for i in 0..N_ITEMS {
                kvs.set(ctx, format!("item-{i}").as_bytes(), &[(i % 251) as u8; VAL]);
            }
        },
    );
    println!(
        "{REPLICAS} replicas, driver fair share {} MiB each of {} MiB EPC",
        (machine.driver.available_epc() * 4096) >> 20,
        machine.cfg.epc_bytes >> 20
    );

    // A conn pinned to a replica-1 shard: its pre-kill SET must survive
    // the failover (the heir restores the victim's snapshot first).
    let map = Arc::clone(fk.map());
    let marked = (0..N_CONNS)
        .find(|&c| map.route_replica(c).1 == 1)
        .expect("some connection lands on replica 1");

    let reap = |pushed_minus_reaped: &mut u64| {
        for &fd in &fds {
            while let Some(resp) = machine.host.pop_response(fd) {
                let plain = session.decrypt(&resp);
                assert_eq!(plain[0], 1, "every request hits (found / stored)");
                *pushed_minus_reaped -= 1;
            }
        }
    };

    let mut outstanding = 0u64;
    let mut pushed = 0u64;
    let mut handled = [0usize; REPLICAS];
    for round in 0..ROUNDS {
        let now = fk.sync_clocks();
        for conn in 0..N_CONNS {
            let (s, _owner) = map.route_replica(conn);
            let plain = if conn == marked && round < KILL_AT {
                build_set(format!("round-{round}").as_bytes(), &[round as u8; 64])
            } else {
                build_get(
                    format!("item-{}", (round as u32 * 37 + conn as u32) % N_ITEMS).as_bytes(),
                )
            };
            machine
                .host
                .push_request_at(&ut, fds[s], &session.encrypt(&plain), now);
            outstanding += 1;
            pushed += 1;
        }
        let mut done = 0;
        while done < N_CONNS as usize {
            let before = done;
            for (r, n) in handled.iter_mut().enumerate() {
                let got = fk.pump_replica(r);
                *n += got;
                done += got;
            }
            assert!(done > before, "queued requests must be served");
            reap(&mut outstanding);
        }
        reap(&mut outstanding);

        if round + 1 == KILL_AT {
            let rep = fk.kill(1).expect("the host left the transfer intact");
            println!(
                "kill replica 1 at a fence: heir {} takes {} shards, {} KiB snapshot over the \
                 channel, {} cycles; survivor's fair share now {} MiB",
                rep.heir,
                rep.shards_moved,
                rep.snapshot_bytes >> 10,
                rep.cycles,
                (machine.driver.available_epc() * 4096) >> 20
            );
        }
        if round + 1 == RESPAWN_AT {
            let rep = fk.respawn(1).expect("the host left the transfer intact");
            println!(
                "respawn replica 1: owner {} donates {} KiB, {} shards taken back, {} cycles",
                rep.donor,
                rep.snapshot_bytes >> 10,
                rep.shards_taken,
                rep.cycles
            );
        }
    }
    reap(&mut outstanding);
    assert_eq!(outstanding, 0, "every pushed request was answered");

    // The heir still serves the marked connection's pre-kill writes.
    let (s, owner) = map.route_replica(marked);
    let probe = format!("round-{}", KILL_AT - 1);
    machine
        .host
        .push_request(&ut, fds[s], &session.encrypt(&build_get(probe.as_bytes())));
    while fk.pump() == 0 {}
    let plain = session.decrypt(&machine.host.pop_response(fds[s]).unwrap());
    assert_eq!(plain[0], 1, "pre-kill write must survive the failover");
    assert_eq!(&plain[5..], [(KILL_AT - 1) as u8; 64]);
    println!("pre-kill write served by replica {owner} after the kill/respawn cycle");

    let st = machine.stats.snapshot();
    for (r, n) in handled.iter().enumerate() {
        println!("replica {r} served {n} requests across its shard slices");
    }
    println!(
        "{pushed} replies, 0 lost; {} failovers, {} snapshots, {} restores; {} channel msgs \
         ({} KiB, all ciphertext); {} SUVM faults, {} evictions under the shared EPC",
        st.fleet_failovers,
        st.fleet_snapshots,
        st.fleet_restores,
        st.xchan_msgs,
        st.xchan_bytes >> 10,
        st.suvm_major_faults,
        st.suvm_evictions
    );
}
