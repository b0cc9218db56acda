//! SUVM configuration.

/// EPC++ eviction policy.
///
/// §3.2.2: "user code has full control over the spointer's page table,
/// page size, **and eviction policy**" — hardware paging offers no such
/// choice. CLOCK is the default; FIFO mirrors what the (opaque) SGX
/// driver effectively does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictPolicy {
    /// Second-chance CLOCK over the frame pool (default).
    Clock,
    /// Evict the page resident the longest, ignoring reuse.
    Fifo,
}

impl EvictPolicy {
    /// Short label used in experiment headers and JSON output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            EvictPolicy::Clock => "clock",
            EvictPolicy::Fifo => "fifo",
        }
    }
}

/// Configuration of one [`crate::Suvm`] instance.
///
/// The paper exposes "a low-level tuning interface for expert runtime
/// developers" (§3) — page size, EPC++ size, sub-page granularity and
/// the eviction optimizations are all set here. The page size is a
/// runtime value (the paper fixes it at compile time, §3.4).
#[derive(Debug, Clone)]
pub struct SuvmConfig {
    /// EPC++ page size in bytes (power of two; default 4 KiB).
    pub page_size: usize,
    /// The unit an evicted page is sealed in (power of two dividing
    /// `page_size`; default 1 KiB — the paper's §6.1.2 configuration).
    /// A page leaves EPC++ as `page_size / sub_page_size` independently
    /// authenticated units, which is what lets an access to a cold
    /// page unseal only the units its bytes span instead of faulting
    /// the page in (§3.2.4, [`crate::Access`]); each unit pays its own
    /// crypto set-up on a whole-page fault or write-back.
    /// `sub_page_size == page_size` is the whole-page seal format:
    /// one unit, nothing to bypass to, every miss faults — the paper's
    /// EPC++-only configuration.
    pub sub_page_size: usize,
    /// EPC++ capacity in bytes (default 60 MiB, the paper's §6.1.2
    /// setting).
    pub epcpp_bytes: usize,
    /// Backing-store capacity in bytes (power of two; default 2 GiB).
    pub backing_bytes: usize,
    /// Skip write-back of clean pages on eviction (§3.2.4; default on).
    pub clean_skip: bool,
    /// Free-frame low watermark the swapper maintains (clamped to half
    /// the current pool).
    pub free_watermark: usize,
    /// EPC bytes the enclave needs outside EPC++ (code, heap, SUVM
    /// metadata); the ballooning logic reserves this from the driver
    /// share. The paper's prototype keeps page tables and crypto
    /// metadata in EPC and lets native paging evict them under pressure
    /// (§4.1/§4.2, visible as Fig 7's slowdown past ~1 GB): once the
    /// estimated metadata footprint exceeds this, fault paths are
    /// charged the amortized hardware faults those accesses would take.
    pub headroom_bytes: usize,
    /// EPC++ eviction policy.
    pub policy: EvictPolicy,
}

impl Default for SuvmConfig {
    fn default() -> Self {
        Self {
            page_size: 4096,
            sub_page_size: 1024,
            epcpp_bytes: 60 << 20,
            backing_bytes: 2 << 30,
            clean_skip: true,
            free_watermark: 8,
            headroom_bytes: 4 << 20,
            policy: EvictPolicy::Clock,
        }
    }
}

impl SuvmConfig {
    /// A small configuration for unit tests: 16 frames, whole-page
    /// seals.
    #[must_use]
    pub fn tiny() -> Self {
        Self {
            page_size: 4096,
            sub_page_size: 4096,
            epcpp_bytes: 16 * 4096,
            backing_bytes: 1 << 20,
            clean_skip: true,
            free_watermark: 2,
            headroom_bytes: 64 << 10,
            policy: EvictPolicy::Clock,
        }
    }

    /// Number of EPC++ frames.
    #[must_use]
    pub fn frames(&self) -> usize {
        self.epcpp_bytes / self.page_size
    }

    /// Validates the invariants between the fields.
    ///
    /// # Panics
    /// Panics on an inconsistent configuration.
    pub fn validate(&self) {
        assert!(self.page_size.is_power_of_two(), "page_size must be 2^n");
        assert!(
            self.sub_page_size.is_power_of_two()
                && self.page_size.is_multiple_of(self.sub_page_size),
            "sub_page_size must be a power of two dividing page_size"
        );
        assert!(
            self.epcpp_bytes.is_multiple_of(self.page_size) && self.epcpp_bytes > 0,
            "epcpp_bytes must be a positive multiple of page_size"
        );
        assert!(
            (self.backing_bytes as u64).is_power_of_two(),
            "backing_bytes must be a power of two (buddy allocator)"
        );
        assert!(
            self.backing_bytes.is_multiple_of(self.page_size),
            "backing_bytes must be page aligned"
        );
        assert!(self.frames() >= 2, "need at least two EPC++ frames");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SuvmConfig::default().validate();
        SuvmConfig::tiny().validate();
        assert_eq!(SuvmConfig::tiny().frames(), 16);
    }

    #[test]
    #[should_panic(expected = "sub_page_size")]
    fn bad_subpage_rejected() {
        SuvmConfig {
            sub_page_size: 3000,
            ..SuvmConfig::tiny()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "two EPC++ frames")]
    fn too_few_frames_rejected() {
        SuvmConfig {
            epcpp_bytes: 4096,
            ..SuvmConfig::tiny()
        }
        .validate();
    }
}
