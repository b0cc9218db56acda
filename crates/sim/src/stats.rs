//! Shared event counters for the simulated machine.
//!
//! A single [`Stats`] instance hangs off the machine; all components
//! (LLC, TLBs, driver, SUVM, RPC) increment it with relaxed atomics.
//! Experiments take [`Stats::snapshot`]s before and after a phase and
//! subtract them — this is how the harness reports fault and IPI counts
//! (e.g. Table 2 of the paper).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets in the log-linear latency histogram: values 0–7
/// map one-to-one, every power-of-two octave above that is split into
/// 8 sub-buckets (HdrHistogram-style, ~12.5% worst-case resolution),
/// up to the full `u64` range.
pub const HIST_BUCKETS: usize = 496;

fn hist_bucket(v: u64) -> usize {
    if v < 8 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as u64; // floor(log2 v), >= 3
    (((exp - 2) * 8) + ((v >> (exp - 3)) - 8)) as usize
}

fn hist_value(bucket: usize) -> u64 {
    if bucket < 8 {
        return bucket as u64;
    }
    let group = (bucket / 8) as u64; // octave index, >= 1
    let off = (bucket % 8) as u64;
    (8 + off) << (group - 1)
}

/// A live, atomically updated log-linear histogram of `u64` samples
/// (cycles of sojourn, in practice). Recording is a single relaxed
/// `fetch_add`, so any core can stamp samples concurrently.
pub struct Hist {
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Hist {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[hist_bucket(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the bucket counts.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }

    /// Clears all buckets.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

impl core::fmt::Debug for Hist {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// A point-in-time copy of a [`Hist`], with percentile readout.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    buckets: [u64; HIST_BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0u64; HIST_BUCKETS],
        }
    }
}

impl HistSnapshot {
    /// Total number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The value at quantile `q` in `[0, 1]` — the lower bound of the
    /// first bucket whose cumulative count reaches `ceil(q * count)`
    /// (exact below 8, within ~12.5% above). Returns 0 when empty.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return hist_value(i);
            }
        }
        hist_value(HIST_BUCKETS - 1)
    }

    /// Median sample value.
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th-percentile sample value.
    #[must_use]
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th-percentile sample value.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

impl core::ops::Sub for HistSnapshot {
    type Output = HistSnapshot;
    fn sub(self, rhs: HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].wrapping_sub(rhs.buckets[i])),
        }
    }
}

impl core::fmt::Debug for HistSnapshot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Hist {{ count: {}, p50: {}, p95: {}, p99: {} }}",
            self.count(),
            self.p50(),
            self.p95(),
            self.p99()
        )
    }
}

macro_rules! stats {
    ($(#[$doc:meta] $name:ident),+ $(,)?) => {
        /// Live, atomically updated counters.
        #[derive(Debug, Default)]
        pub struct Stats {
            $(#[$doc] pub $name: AtomicU64,)+
            /// Per-op sojourn (enqueue-to-reap latency) in simulated
            /// cycles, stamped by the serving path's scatter-gather
            /// reaps from the enqueue timestamps in the wire
            /// descriptors.
            pub sojourn: Hist,
        }

        /// A point-in-time copy of [`Stats`].
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(#[$doc] pub $name: u64,)+
            /// Per-op sojourn histogram (cycles).
            pub sojourn: HistSnapshot,
        }

        impl Stats {
            /// Every counter under its field name, in declaration order.
            fn counters(&self) -> Vec<(&'static str, &AtomicU64)> {
                vec![$((stringify!($name), &self.$name)),+]
            }

            /// Copies all counters.
            #[must_use]
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)+
                    sojourn: self.sojourn.snapshot(),
                }
            }
        }

        impl StatsSnapshot {
            /// Every counter under its field name, in declaration order.
            fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name)),+]
            }
        }

        impl core::ops::Sub for StatsSnapshot {
            type Output = StatsSnapshot;
            fn sub(self, rhs: StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.wrapping_sub(rhs.$name),)+
                    sojourn: self.sojourn - rhs.sojourn,
                }
            }
        }
    };
}

stats! {
    /// LLC hits.
    llc_hits,
    /// LLC misses.
    llc_misses,
    /// LLC misses whose target was EPC.
    llc_misses_epc,
    /// Dirty-line write-backs out of the LLC.
    llc_writebacks,
    /// TLB hits.
    tlb_hits,
    /// TLB misses (page walks).
    tlb_misses,
    /// Full TLB flushes (enclave exits, AEX).
    tlb_flushes,
    /// Synchronous enclave exits (EEXIT executed).
    enclave_exits,
    /// Enclave (re-)entries.
    enclave_enters,
    /// OCALLs performed through the SDK path.
    ocalls,
    /// System calls executed by the host OS.
    syscalls,
    /// Kernel-metadata scratch walks performed by host syscalls (one per trap that touches socket state, regardless of batch size).
    kernel_meta_reads,
    /// Asynchronous enclave exits caused by IPIs.
    aex,
    /// Inter-processor interrupts sent by the driver.
    ipis,
    /// Hardware EPC page faults handled by the driver.
    hw_faults,
    /// EPC pages evicted by the driver (EWB).
    hw_evictions,
    /// EPC pages loaded by the driver (ELDU).
    hw_loads,
    /// SUVM major faults (page not in EPC++).
    suvm_major_faults,
    /// SUVM minor faults (page resident, spointer unlinked).
    suvm_minor_faults,
    /// SUVM page evictions from EPC++.
    suvm_evictions,
    /// SUVM evictions skipped because the page was clean.
    suvm_clean_skips,
    /// SUVM direct (sub-page) backing-store accesses.
    suvm_direct_accesses,
    /// RPC calls served exit-lessly.
    rpc_calls,
    /// RPC batches submitted (a `submit_batch`/`wait_all` round trip).
    rpc_batches,
    /// RPC posts that found the ring full and had to back off.
    rpc_ring_full,
    /// RPC worker poll sweeps that found no posted job.
    rpc_idle_polls,
    /// Bounded-spin yields: a claim attempt exceeded the idle-poll threshold and ceded the CPU with `thread::yield_now`.
    rpc_idle_yields,
    /// RPC calls to unregistered function ids (error sentinel returned).
    rpc_errors,
    /// Bytes moved by seal/unseal operations.
    sealed_bytes,
    /// Wire-crypto batches processed (one setup amortized per batch).
    crypto_batches,
    /// Wire messages sealed/opened through the batch pipeline.
    crypto_msgs,
    /// Fixed setup cycles charged by the wire-crypto pipeline (full for batch leaders, a quarter for follow-ons).
    crypto_setup_cycles,
    /// SUVM dirty victims parked on the write-back queue (batched mode).
    suvm_wb_queued,
    /// SUVM write-back drains that sealed at least one page.
    suvm_wb_batches,
    /// SUVM pages sealed by batched write-back drains.
    suvm_wb_pages,
    /// Queued SUVM victims rescued by a pin before write-back.
    suvm_wb_rescues,
    /// High-water mark of the SUVM write-back queue depth.
    suvm_wb_queue_peak,
    /// SUVM page-cache hits (a lookup that found its page resident).
    suvm_hits,
    /// High-water mark of EPC frames any enclave held *beyond* its fair share while siblings were active (fleet contention pressure).
    epc_over_share_peak,
    /// Snapshots sealed by the fleet tier (quiesce-at-fence captures).
    fleet_snapshots,
    /// Snapshots restored into a replica (failover takeovers and cold rejoins).
    fleet_restores,
    /// Replica failovers: a replica's shards reassigned to survivors.
    fleet_failovers,
    /// Messages moved over exit-less cross-enclave channels.
    xchan_msgs,
    /// Payload bytes moved over exit-less cross-enclave channels.
    xchan_bytes,
    /// Attestation handshakes completed (evidence verified, session established).
    session_handshakes,
    /// Session key-epoch rotations begun (double-buffered, stall-free).
    rekeys,
    /// Sessions revoked (shard slot killed, queued traffic dropped).
    revocations,
    /// Messages rejected without serving: bad evidence, replayed handshake nonce, unknown key epoch, or a revoked session.
    auth_failures,
    /// Host-written receive results the enclave refused to act on: a `recv_mmsg` count above the requested depth, or a descriptor length above its stripe.
    desc_rejects,
    /// Replies a server did not send because the sealed message outgrew its transmit slot (a multi-key `get` past the batch stripe, a reply past `buf_len`); the rest of the batch still went out.
    reply_rejects,
    /// Decrypted request bodies a server refused to act on: truncated header, unknown opcode, or lengths past the body.
    malformed_requests,
    /// Replica-state transfers a receiver refused to apply: broken chunk framing, a malformed snapshot frame, an epoch other than the one the fence minted (a replay), or a section that failed authentication.
    frame_rejects,
    /// Whole slabs the rebalancer reassigned from a cold class to a starved one.
    slab_moves,
    /// Live items relocated out of departing slabs during rebalancing moves.
    slab_items_relocated,
    /// Segment-store merge passes (compacting a TTL bucket's oldest segments).
    seg_merges,
    /// Whole segments reclaimed proactively because every item had expired.
    seg_expired_segments,
    /// Items dropped because their TTL deadline passed (lazy get-side expiry plus segment expiry sweeps).
    expired_items,
    /// Chunks of replica-state transfers (delta rounds, failovers, rejoins) staged on the cross-enclave channel.
    maint_chunks,
    /// Serving-core cycles stalled in maintenance byte-work run inline (the engine tick inside `Kvs::fence`, fleet state transfers inside a kill/respawn fence, a segment SET reclaiming for itself); 0 from fences when a maintenance plane runs the same work on its own core.
    maint_stall_cycles,
    /// Items carried by `Kvs::snapshot_since` snapshots (`base = 0` carries the whole store).
    snapshot_delta_items,
    /// Segment-store merge passes the maintenance tick ran ahead of need, to keep free segments in reserve.
    bg_merges,
    /// Heartbeat ticks that found a replica's pump counter stalled (failure-detector evidence).
    hb_misses,
}

impl Stats {
    /// Resets all counters to zero.
    pub fn reset(&self) {
        for (_, counter) in self.counters() {
            counter.store(0, Ordering::Relaxed);
        }
        self.sojourn.reset();
    }

    /// Convenience relaxed increment.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Convenience relaxed add. Adding zero writes nothing, so a caller
    /// that publishes a usually-zero count does not pull the counter's
    /// cache line away from the threads that do write it.
    pub fn add(counter: &AtomicU64, n: u64) {
        if n == 0 {
            return;
        }
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Convenience relaxed high-water mark update.
    pub fn peak(counter: &AtomicU64, v: u64) {
        counter.fetch_max(v, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// A compact human-readable summary: every non-zero counter as
    /// `field_name=value`, in declaration order, then the sojourn
    /// percentiles when any op was stamped.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut parts: Vec<String> = self
            .counters()
            .into_iter()
            .filter(|&(_, v)| v > 0)
            .map(|(name, v)| format!("{name}={v}"))
            .collect();
        if self.sojourn.count() > 0 {
            parts.push(format!(
                "sojourn_p50={} sojourn_p95={} sojourn_p99={}",
                self.sojourn.p50(),
                self.sojourn.p95(),
                self.sojourn.p99()
            ));
        }
        if parts.is_empty() {
            "(idle)".to_string()
        } else {
            parts.join(" ")
        }
    }
}

impl core::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_delta() {
        let s = Stats::default();
        Stats::bump(&s.llc_hits);
        Stats::add(&s.llc_misses, 5);
        let a = s.snapshot();
        Stats::add(&s.llc_misses, 2);
        Stats::bump(&s.hw_faults);
        let b = s.snapshot();
        let d = b - a;
        assert_eq!(d.llc_hits, 0);
        assert_eq!(d.llc_misses, 2);
        assert_eq!(d.hw_faults, 1);
        assert_eq!(b.llc_misses, 7);
    }

    #[test]
    fn summary_shows_only_nonzero() {
        let s = Stats::default();
        assert_eq!(s.snapshot().summary(), "(idle)");
        Stats::add(&s.enclave_exits, 3);
        Stats::bump(&s.hw_faults);
        let text = s.snapshot().to_string();
        assert!(text.contains("enclave_exits=3"));
        assert!(text.contains("hw_faults=1"));
        assert!(!text.contains("ipis"));
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = Stats::default();
        Stats::bump(&s.ipis);
        Stats::bump(&s.aex);
        s.sojourn.record(1234);
        s.reset();
        let snap = s.snapshot();
        assert_eq!(snap.ipis, 0);
        assert_eq!(snap.aex, 0);
        assert_eq!(snap.sojourn.count(), 0);
    }

    #[test]
    fn hist_buckets_are_exact_below_eight() {
        let h = Hist::default();
        for v in 0..8u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 8);
        assert_eq!(s.percentile(1.0 / 8.0), 0);
        assert_eq!(s.percentile(1.0), 7);
    }

    #[test]
    fn hist_resolution_stays_within_one_eighth() {
        // The log-linear scheme guarantees the reported bucket value is
        // within 12.5% of any recorded sample.
        for v in [8u64, 9, 100, 1_000, 123_456, 1 << 40, u64::MAX / 3] {
            let h = Hist::default();
            h.record(v);
            let p = h.snapshot().percentile(1.0);
            assert!(p <= v, "bucket value {p} above sample {v}");
            assert!(
                (v - p) as f64 <= v as f64 / 8.0 + 1.0,
                "bucket value {p} too far below sample {v}"
            );
        }
    }

    #[test]
    fn hist_percentiles_and_delta() {
        let h = Hist::default();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(100_000);
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.p50(), hist_value(hist_bucket(100)));
        assert_eq!(s.p95(), hist_value(hist_bucket(100)));
        assert_eq!(s.p99(), hist_value(hist_bucket(100)));
        assert_eq!(s.percentile(1.0), hist_value(hist_bucket(100_000)));
        // Subtracting an earlier snapshot removes its samples.
        h.record(100);
        let d = h.snapshot() - s;
        assert_eq!(d.count(), 1);
        assert_eq!(d.p99(), hist_value(hist_bucket(100)));
    }

    #[test]
    fn hist_bucket_value_is_monotone_inverse() {
        let mut last = None;
        for b in 0..HIST_BUCKETS {
            let v = hist_value(b);
            assert_eq!(hist_bucket(v), b, "bucket {b} not a fixed point");
            if let Some(prev) = last {
                assert!(v > prev, "bucket values must be strictly increasing");
            }
            last = Some(v);
        }
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn summary_prints_every_counter_under_its_field_name() {
        let s = Stats::default();
        let live = s.counters();
        assert_eq!(live.len(), 62);
        for (i, (_, counter)) in live.iter().enumerate() {
            Stats::add(counter, 1_000 + i as u64);
        }
        let text = format!(" {} ", s.snapshot().summary());
        for (i, (name, _)) in live.iter().enumerate() {
            let want = format!(" {name}={} ", 1_000 + i);
            assert!(text.contains(&want), "{want:?} missing from {text:?}");
        }
    }

    #[test]
    fn snapshot_stays_small_enough_for_a_default_test_stack() {
        // 133 872 bytes with the replica x shard grid; debug builds
        // stack several copies per `snapshot() - s0` frame.
        assert!(std::mem::size_of::<StatsSnapshot>() <= 8 << 10);
    }

    #[test]
    fn summary_includes_sojourn_percentiles() {
        let s = Stats::default();
        s.sojourn.record(64);
        let text = s.snapshot().summary();
        assert!(text.contains("sojourn_p50=64"), "{text}");
    }
}
