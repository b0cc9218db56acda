//! The fleet maintenance worker thread.
//!
//! [`FleetKvs::maintenance_tick`] is the whole plane — failure
//! detection, queued rejoins, engine byte-work, and delta rounds (see
//! the `fleet_io` module docs). This module only adds
//! the *driver*: a condvar-interruptible worker on the maintenance
//! core, the same shape as the SUVM swapper
//! ([`Swapper`](eleos_core::Swapper)).
//!
//! [`MaintenanceCtx::spawn`] runs ticks on a real background thread;
//! deterministic experiments and the equivalence tests instead call
//! [`FleetKvs::maintenance_tick`] at chosen points — the tick is the
//! unit of determinism, the thread is just a pacemaker.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::fleet_io::FleetKvs;

/// Handle to a running maintenance worker; stops it on drop.
pub struct MaintenanceCtx {
    state: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

impl MaintenanceCtx {
    /// Spawns the worker for `fleet`, ticking every `interval`. The
    /// inter-tick sleep is a condvar wait, so dropping the handle
    /// stops the thread promptly rather than after up to a full
    /// interval. The tick itself is a no-op when the fleet was built
    /// without [`crate::fleet_io::FleetConfig::with_maintenance`].
    #[must_use]
    pub fn spawn(fleet: &Arc<FleetKvs>, interval: Duration) -> Self {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let state2 = Arc::clone(&state);
        let fleet = Arc::clone(fleet);
        let thread = std::thread::spawn(move || {
            let (stop, wake) = &*state2;
            loop {
                if *stop.lock().unwrap() {
                    return;
                }
                fleet.maintenance_tick();
                let guard = stop.lock().unwrap();
                let (guard, _) = wake
                    .wait_timeout_while(guard, interval, |stopped| !*stopped)
                    .unwrap();
                if *guard {
                    return;
                }
            }
        });
        Self {
            state,
            thread: Some(thread),
        }
    }

    /// Stops the thread and waits for it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let (stop, wake) = &*self.state;
        *stop.lock().unwrap() = true;
        wake.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MaintenanceCtx {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use eleos_crypto::gcm::AesGcm128;
    use eleos_crypto::Sealer;
    use eleos_enclave::machine::{MachineConfig, SgxMachine};
    use eleos_enclave::thread::ThreadCtx;
    use eleos_rpc::{with_syscalls, RpcService};

    use crate::fleet_io::{FleetConfig, FleetKvs, MaintenanceConfig};
    use crate::io::{IoPath, ServerIoConfig};
    use crate::wire::Session;

    #[test]
    fn worker_ticks_and_stops_promptly() {
        let m = SgxMachine::new(MachineConfig::tiny());
        let ut = ThreadCtx::untrusted(&m, 1);
        let fds = vec![m.host.socket(&ut, 256 << 10)];
        let svc = with_syscalls(RpcService::builder(&m), &m)
            .workers(2, &[2, 3])
            .build();
        let wire = Arc::new(Session::established([9u8; 16]));
        let sealer: Arc<dyn Sealer> = Arc::new(AesGcm128::new(&[0x44u8; 16]));
        let fk = Arc::new(FleetKvs::new(
            &m,
            &fds,
            ServerIoConfig::with_buf_len(16 << 10).batch(4).shards(1),
            IoPath::Rpc(Arc::new(svc)),
            wire,
            sealer,
            FleetConfig::small(2).with_maintenance(MaintenanceConfig::default()),
            |ctx, kvs| {
                kvs.set(ctx, b"k", b"v");
            },
        ));
        let worker = MaintenanceCtx::spawn(&fk, Duration::from_millis(1));
        // The worker's delta rounds run concurrently with this
        // thread; wait until at least one landed.
        while m.stats.snapshot().maint_chunks == 0 {
            std::thread::yield_now();
        }
        worker.stop();
        assert!(m.stats.snapshot().maint_chunks > 0);
    }
}
