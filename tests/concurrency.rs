//! Concurrency stress across the stack: application threads, the
//! SUVM swapper and the fleet maintenance plane ticking on threads of
//! their own, driver pressure from a second enclave, and the exit-less
//! RPC pool, all at once. Everything else drives `Suvm::swapper_tick`
//! and `FleetKvs::maintenance_tick` at chosen points; these tests are
//! the only threaded drivers.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use eleos::apps::fleet_io::{FleetConfig, FleetKvs, MaintenanceConfig};
use eleos::apps::io::{IoPath, ServerIoConfig};
use eleos::apps::kvs::{build_get, build_set};
use eleos::apps::wire::Session;
use eleos::crypto::gcm::AesGcm128;
use eleos::crypto::Sealer;
use eleos::enclave::machine::{MachineConfig, SgxMachine};
use eleos::enclave::thread::ThreadCtx;
use eleos::rpc::{with_syscalls, RpcService, UntrustedFn};
use eleos::suvm::{Suvm, SuvmConfig};

/// A plain thread running `tick` about once a millisecond until
/// [`Ticker::stop`].
struct Ticker {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Ticker {
    fn spawn(mut tick: impl FnMut() + Send + 'static) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stopped.load(Ordering::Acquire) {
                tick();
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        Self { stop, thread }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("ticker thread");
    }
}

#[test]
fn suvm_under_full_pressure() {
    // Tight EPC so the driver, the SUVM evictor and the swapper are
    // all active while four app threads hammer disjoint regions.
    let m = SgxMachine::new(MachineConfig {
        epc_bytes: 6 << 20,
        cores: 8,
        ..MachineConfig::tiny()
    });
    let e = m.driver.create_enclave(&m, 64 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let suvm = Suvm::new(
        &t0,
        SuvmConfig {
            epcpp_bytes: 2 << 20,
            backing_bytes: 32 << 20,
            ..SuvmConfig::tiny()
        },
    );
    // A second enclave churns hardware paging in the background.
    let e2 = m.driver.create_enclave(&m, 16 << 20);
    let churn = {
        let m = Arc::clone(&m);
        let e2 = Arc::clone(&e2);
        std::thread::spawn(move || {
            let mut t = ThreadCtx::for_enclave(&m, &e2, 5);
            t.enter();
            let base = e2.alloc(8 << 20);
            for round in 0..4u64 {
                for page in 0..2048u64 {
                    t.write_enclave(base + page * 4096, &[round as u8; 16]);
                }
            }
            t.exit();
        })
    };
    // The untrusted runtime's periodic swapper call (§3.3), on core 6.
    let swapper = {
        let s = Arc::clone(&suvm);
        let mut t = ThreadCtx::for_enclave(&m, &e, 6);
        Ticker::spawn(move || t.ecall(|t| s.swapper_tick(t)))
    };

    let region = suvm.malloc(16 << 20);
    let mut handles = Vec::new();
    for th in 0..4u64 {
        let m = Arc::clone(&m);
        let e = Arc::clone(&e);
        let s = Arc::clone(&suvm);
        handles.push(std::thread::spawn(move || {
            let mut t = ThreadCtx::for_enclave(&m, &e, th as usize);
            t.enter();
            let base = region + th * (4 << 20);
            for round in 0..6u64 {
                for page in 0..1024u64 {
                    let tag = [(th * 100 + page % 90 + round) as u8; 24];
                    s.write(&mut t, base + page * 4096, &tag);
                }
                for page in 0..1024u64 {
                    let mut b = [0u8; 24];
                    s.read(&mut t, base + page * 4096, &mut b);
                    assert_eq!(
                        b,
                        [(th * 100 + page % 90 + round) as u8; 24],
                        "thread {th} round {round} page {page}"
                    );
                }
            }
            t.exit();
        }));
    }
    for h in handles {
        h.join().expect("app thread");
    }
    churn.join().expect("churn thread");
    swapper.stop();

    let s = m.stats.snapshot();
    assert!(s.suvm_evictions > 0);
    assert!(s.hw_faults > 0, "the churn enclave must have paged");
}

#[test]
fn rpc_pool_saturated_from_many_threads() {
    let m = SgxMachine::new(MachineConfig::tiny());
    let svc = Arc::new(
        RpcService::builder(&m)
            .register(
                1,
                UntrustedFn::new(|ctx, a| {
                    // A worker that also touches untrusted memory.
                    let scratch = ctx.machine.alloc_untrusted(256);
                    ctx.write_untrusted(scratch, &a[0].to_le_bytes());
                    let mut b = [0u8; 8];
                    ctx.read_untrusted(scratch, &mut b);
                    ctx.machine.free_untrusted(scratch);
                    u64::from_le_bytes(b).wrapping_mul(3)
                }),
            )
            .workers(2, &[2, 3])
            .slots(4)
            .build(),
    );
    let e = m.driver.create_enclave(&m, 8 << 20);
    let mut handles = Vec::new();
    for th in 0..2usize {
        let m = Arc::clone(&m);
        let e = Arc::clone(&e);
        let svc = Arc::clone(&svc);
        handles.push(std::thread::spawn(move || {
            let mut t = ThreadCtx::for_enclave(&m, &e, th);
            t.enter();
            for i in 0..500u64 {
                assert_eq!(svc.call(&mut t, 1, [i, 0, 0, 0]), i.wrapping_mul(3));
            }
            t.exit();
        }));
    }
    for h in handles {
        h.join().expect("caller thread");
    }
    assert_eq!(m.stats.snapshot().rpc_calls, 1000);
}

#[test]
fn ballooning_between_two_live_suvm_enclaves() {
    let m = SgxMachine::new(MachineConfig {
        epc_bytes: 8 << 20,
        ..MachineConfig::tiny()
    });
    let mk = |core: usize| {
        let e = m.driver.create_enclave(&m, 32 << 20);
        let t0 = ThreadCtx::for_enclave(&m, &e, core);
        let s = Suvm::new(
            &t0,
            SuvmConfig {
                epcpp_bytes: 6 << 20, // oversubscribed once both exist
                backing_bytes: 16 << 20,
                headroom_bytes: 512 << 10,
                ..SuvmConfig::tiny()
            },
        );
        (e, s)
    };
    let (e1, s1) = mk(0);
    let (e2, s2) = mk(1);
    let mut handles = Vec::new();
    for (idx, (e, s)) in [(0usize, (e1, s1)), (1, (e2, s2))] {
        let m = Arc::clone(&m);
        handles.push(std::thread::spawn(move || {
            let mut t = ThreadCtx::for_enclave(&m, &e, idx);
            t.enter();
            let a = s.malloc(8 << 20);
            for round in 0..3u64 {
                for page in 0..2048u64 {
                    s.write(&mut t, a + page * 4096, &[(idx as u8 + 1) * 7; 16]);
                    if page % 256 == 0 {
                        s.swapper_tick(&mut t);
                    }
                }
                for page in (0..2048u64).step_by(3) {
                    let mut b = [0u8; 16];
                    s.read(&mut t, a + page * 4096, &mut b);
                    assert_eq!(b, [(idx as u8 + 1) * 7; 16], "enclave {idx} round {round}");
                }
            }
            // After ballooning, each EPC++ respects its share.
            let share_bytes = m.driver.available_epc() * 4096;
            assert!(
                s.frame_limit() * 4096 <= share_bytes,
                "EPC++ {} frames exceeds share {} bytes",
                s.frame_limit(),
                share_bytes
            );
            t.exit();
        }));
    }
    for h in handles {
        h.join().expect("enclave thread");
    }
}

#[test]
fn fleet_serves_while_maintenance_ticks_on_another_thread() {
    // Two replicas, each owning one of two sockets, served from this
    // thread while a second thread runs the maintenance plane's delta
    // rounds against them.
    let m = SgxMachine::new(MachineConfig::tiny());
    let ut = ThreadCtx::untrusted(&m, 1);
    let fds: Vec<_> = (0..2).map(|_| m.host.socket(&ut, 256 << 10)).collect();
    let svc = with_syscalls(RpcService::builder(&m), &m)
        .workers(2, &[2, 3])
        .build();
    let wire = Arc::new(Session::established([9u8; 16]));
    let sealer: Arc<dyn Sealer> = Arc::new(AesGcm128::new(&[0x44u8; 16]));
    let maint = MaintenanceConfig {
        // The serving loop's pace is this thread's, not the ticker's:
        // no replica is failed over for being slower than it.
        hb_miss_threshold: u64::MAX,
        ..MaintenanceConfig::default()
    };
    let fk = Arc::new(FleetKvs::new(
        &m,
        &fds,
        ServerIoConfig::with_buf_len(16 << 10).batch(4),
        IoPath::Rpc(Arc::new(svc)),
        Arc::clone(&wire),
        sealer,
        FleetConfig::small(2).with_maintenance(maint),
        |ctx, kvs| {
            kvs.set(ctx, b"seed", b"v");
        },
    ));
    let maintenance = {
        let fk = Arc::clone(&fk);
        Ticker::spawn(move || {
            fk.maintenance_tick();
        })
    };
    const CONNS: u64 = 8;
    // At least 32 rounds, and on until a delta round has landed.
    for round in 0u32.. {
        if round >= 32 && m.stats.snapshot().maint_chunks > 0 {
            break;
        }
        assert!(round < 100_000, "no delta round ever ran");
        // Per connection, a SET of its own key and a GET of it: per
        // shard, the replies come back in push order.
        let mut expect: Vec<VecDeque<Vec<u8>>> = vec![VecDeque::new(); fds.len()];
        for conn in 0..CONNS {
            let (s, _) = fk.map().route_replica(conn);
            let key = format!("own-{conn}");
            let value = [round as u8; 24];
            for req in [build_set(key.as_bytes(), &value), build_get(key.as_bytes())] {
                m.host.push_request(&ut, fds[s], &wire.encrypt(&req));
            }
            expect[s].push_back(vec![1]);
            let mut hit = vec![1];
            hit.extend_from_slice(&24u32.to_le_bytes());
            hit.extend_from_slice(&value);
            expect[s].push_back(hit);
        }
        let mut done = 0;
        while done < 2 * CONNS as usize {
            let got = fk.pump();
            assert!(got > 0, "queued requests must be served");
            done += got;
        }
        for (s, want) in expect.iter_mut().enumerate() {
            while let Some(resp) = m.host.pop_response(fds[s]) {
                let want = want.pop_front().expect("no surplus reply");
                assert_eq!(wire.decrypt(&resp), want, "round {round} shard {s}");
            }
            assert!(want.is_empty(), "round {round} lost a reply on shard {s}");
        }
    }
    maintenance.stop();
    assert!(m.stats.snapshot().maint_chunks > 0);
}
