//! Order statistics, host timing and memory readout.

use std::sync::atomic::{AtomicBool, Ordering};

/// The exact nearest-rank percentile: the smallest sample with at least
/// `q` of the samples at or below it. Sorts `samples`.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// CPU time the calling thread has consumed so far, in ns
/// (`/proc/thread-self/schedstat`, first field; the kernel brings it up
/// to date at every tick and context switch, so it is at most 4 ms
/// stale).
///
/// The host-time metrics are the bench thread's CPU time, not wall
/// time: the guest kernel accounts it net of hypervisor steal, and it
/// leaves out the time the bench thread sleeps in the RPC ring's
/// back-off waiting for the worker. On the shared reference box those
/// two swing wall time by up to 7x from one minute to the next while
/// the work the simulator does per op stays put.
pub fn cpu_ns() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("read /proc/thread-self/schedstat");
    let on_cpu = stat.split(' ').next().expect("schedstat's first field");
    on_cpu.parse().expect("on-CPU ns")
}

/// Runs `f` beside a thread that spins in user mode, so that the box's
/// CPUs never all go idle while `f` runs.
///
/// The RPC worker sleeps between jobs and the bench thread sleeps
/// waiting for it, so left alone the virtual CPUs halt and wake
/// thousands of times a second, and on a virtual machine the cost of
/// each wake-up depends on what the neighbours are doing: the same
/// `kvs-resident` phase took 2.5 s, 4.5 s or 11 s of wall time (the
/// issue's "occasionally bimodal" host time). Beside a thread that is
/// busy in user mode it takes 2.3-2.5 s every time (a `yield_now()` loop
/// does not have the effect). This is the benchmark's stand-in for
/// booting with `idle=poll`: measurement hygiene, like pinning a clock
/// frequency. The spinner never touches the simulation: every simulated
/// number is bit-identical with and without it.
pub fn with_cpus_awake<R>(f: impl FnOnce() -> R) -> R {
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        // Dropped when `f` returns *or unwinds*, so the scope's join
        // never waits on a spinner nobody will stop.
        let _stop = StopOnDrop(&stop);
        f()
    })
}

/// Host CPU time per op over a measured phase.
///
/// The phase is cut into [`HOST_BLOCKS`] blocks of
/// [`SEGMENTS_PER_BLOCK`] equal op-count segments; the figure is the
/// mean over the blocks of each block's *fastest* segment. On the
/// shared reference box the neighbours slow the cores for anything from
/// a fraction of a second to minutes, and only ever slow them: over
/// eight runs in a noisy hour the median segment spread by 10-19 % of
/// itself (quartile to quartile) and this figure by 2-10 %. Blocks,
/// because `kvs-churn` costs more per op as it goes on: the fastest
/// segment of the whole phase would only ever see its cheap start.
pub struct HostTimer {
    segment_ops: u64,
    mark_ops: u64,
    mark_ns: u64,
    start_ns: u64,
    ns_per_op: Vec<f64>,
}

pub const HOST_BLOCKS: usize = 5;
pub const SEGMENTS_PER_BLOCK: usize = 8;

impl HostTimer {
    pub fn start(total_ops: u64) -> Self {
        let now = cpu_ns();
        Self {
            segment_ops: (total_ops / (HOST_BLOCKS * SEGMENTS_PER_BLOCK) as u64).max(1),
            mark_ops: 0,
            mark_ns: now,
            start_ns: now,
            ns_per_op: Vec::new(),
        }
    }

    /// Called at batch boundaries with the ops completed so far; closes
    /// a segment whenever one has filled.
    pub fn tick(&mut self, done_ops: u64) {
        let ops = done_ops - self.mark_ops;
        if ops >= self.segment_ops {
            let now = cpu_ns();
            self.ns_per_op
                .push((now - self.mark_ns) as f64 / ops as f64);
            self.mark_ns = now;
            self.mark_ops = done_ops;
        }
    }

    /// The mean of the blocks' fastest segments. A phase cut short (the
    /// server stopped answering) before one segment filled reports its
    /// overall mean.
    pub fn ns_per_op(self, done_ops: u64) -> f64 {
        if self.ns_per_op.is_empty() {
            return (cpu_ns() - self.start_ns) as f64 / done_ops.max(1) as f64;
        }
        let fastest: Vec<f64> = self
            .ns_per_op
            .chunks(SEGMENTS_PER_BLOCK)
            .map(|block| block.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        fastest.iter().sum::<f64>() / fastest.len() as f64
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_the_nearest_rank_order_statistic() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        let mut one = [7u64];
        assert_eq!(percentile(&mut one, 0.99), 7);
        let mut odd = [5u64, 1, 9];
        assert_eq!(percentile(&mut odd, 0.50), 5);
        // 1000 samples: p99 has exactly ten samples beyond it.
        let mut k: Vec<u64> = (0..1000).collect();
        assert_eq!(percentile(&mut k, 0.99), 989);
    }

    #[test]
    fn host_timer_averages_the_fastest_segment_of_each_block() {
        let mut t = HostTimer::start(400);
        for done in (5..=400).step_by(5) {
            t.tick(done);
        }
        assert_eq!(t.ns_per_op.len(), HOST_BLOCKS * SEGMENTS_PER_BLOCK);
        // Block k's segments cost 100k + 0..8; a disturbance triples
        // one segment of block 2.
        t.ns_per_op = (0..40).map(|i| f64::from(100 * (i / 8) + i % 8)).collect();
        t.ns_per_op[16] *= 3.0;
        assert_eq!(
            t.ns_per_op(400),
            (0.0 + 100.0 + 201.0 + 300.0 + 400.0) / 5.0
        );
        assert!(HostTimer::start(100).ns_per_op(0) >= 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib() > 1.0);
    }

    #[test]
    fn cpu_time_advances_with_work_and_not_with_sleep() {
        let c0 = cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = cpu_ns() - c0;
        let t0 = std::time::Instant::now();
        let mut x = 0u64;
        while t0.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let worked = cpu_ns() - c0 - slept;
        assert!(
            worked > 10_000_000,
            "30 ms of spinning used {worked} ns of CPU"
        );
        assert!(
            slept < worked,
            "sleeping used {slept} ns, spinning {worked} ns"
        );
    }
}
