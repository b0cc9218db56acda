//! The data-space abstraction the evaluation applications are written
//! against.
//!
//! Every server in the paper's evaluation is run in several memory
//! configurations: untrusted (native), enclave memory under SGX
//! hardware paging ("vanilla SGX"), and SUVM (cached or direct).
//! [`DataSpace`] lets one application implementation target all of
//! them, which is what makes the head-to-head figures meaningful.

use std::sync::Arc;

use eleos_core::{Access, Suvm};
use eleos_enclave::enclave::Enclave;
use eleos_enclave::machine::SgxMachine;
use eleos_enclave::thread::ThreadCtx;

/// A memory backend for application data.
#[derive(Clone)]
pub enum DataSpace {
    /// Plain untrusted memory (the no-SGX baseline, and the clear
    /// metadata pool of the Eleos memcached port, §5.1).
    Untrusted(Arc<SgxMachine>),
    /// Enclave-linear memory under SGX hardware paging.
    Enclave(Arc<Enclave>),
    /// SUVM secure memory.
    Suvm {
        /// The SUVM instance.
        suvm: Arc<Suvm>,
        /// How an access reaches a page that is not in EPC++.
        access: Access,
    },
}

impl DataSpace {
    /// A SUVM-backed space that picks the page cache or direct
    /// sub-page access per access ([`Access::Adaptive`]) — what every
    /// server gets.
    #[must_use]
    pub fn suvm(suvm: &Arc<Suvm>) -> Self {
        Self::suvm_with(suvm, Access::Adaptive)
    }

    /// A SUVM-backed space forced through the page cache (the paper's
    /// EPC++ rows).
    #[must_use]
    pub fn suvm_cached(suvm: &Arc<Suvm>) -> Self {
        Self::suvm_with(suvm, Access::Cached)
    }

    /// A SUVM-backed space forced to direct sub-page access (§3.2.4,
    /// the paper's direct rows).
    #[must_use]
    pub fn suvm_direct(suvm: &Arc<Suvm>) -> Self {
        Self::suvm_with(suvm, Access::Direct)
    }

    fn suvm_with(suvm: &Arc<Suvm>, access: Access) -> Self {
        let suvm = Arc::clone(suvm);
        DataSpace::Suvm { suvm, access }
    }

    /// Allocates `len` bytes, returning a space-local address.
    #[must_use]
    pub fn alloc(&self, len: usize) -> u64 {
        match self {
            DataSpace::Untrusted(m) => m.alloc_untrusted(len),
            DataSpace::Enclave(e) => e.alloc(len),
            DataSpace::Suvm { suvm, .. } => suvm.malloc(len),
        }
    }

    /// Frees an allocation.
    pub fn free(&self, addr: u64) {
        match self {
            DataSpace::Untrusted(m) => m.free_untrusted(addr),
            DataSpace::Enclave(e) => e.free(addr),
            DataSpace::Suvm { suvm, .. } => suvm.free(addr),
        }
    }

    /// Reads `buf.len()` bytes at `addr`.
    pub fn read(&self, ctx: &mut ThreadCtx, addr: u64, buf: &mut [u8]) {
        match self {
            DataSpace::Untrusted(_) => ctx.read_untrusted(addr, buf),
            DataSpace::Enclave(_) => ctx.read_enclave(addr, buf),
            DataSpace::Suvm { suvm, access } => suvm.span(addr, *access).read(ctx, buf),
        }
    }

    /// Reads a length-prefixed record through one pinned span: fills
    /// `head` from `addr`, asks `tail_len` how many of the bytes that
    /// follow the caller wants (`None` = not this record), and returns
    /// them. On SUVM the head and tail share one translation per page
    /// (a [`SpanCursor`](eleos_core::SpanCursor)) and, where the cursor
    /// bypasses EPC++, one unseal per sub-page; the other spaces read
    /// sequentially.
    pub fn read_record(
        &self,
        ctx: &mut ThreadCtx,
        addr: u64,
        head: &mut [u8],
        tail_len: impl FnOnce(&[u8]) -> Option<usize>,
    ) -> Option<Vec<u8>> {
        if let DataSpace::Suvm { suvm, access } = self {
            let mut span = suvm.span(addr, *access);
            span.read(ctx, head);
            let mut tail = vec![0u8; tail_len(head)?];
            span.read(ctx, &mut tail);
            return Some(tail);
        }
        self.read(ctx, addr, head);
        let mut tail = vec![0u8; tail_len(head)?];
        self.read(ctx, addr + head.len() as u64, &mut tail);
        Some(tail)
    }

    /// Writes `data` at `addr`.
    pub fn write(&self, ctx: &mut ThreadCtx, addr: u64, data: &[u8]) {
        match self {
            DataSpace::Untrusted(_) => ctx.write_untrusted(addr, data),
            DataSpace::Enclave(_) => ctx.write_enclave(addr, data),
            DataSpace::Suvm { suvm, access } => match access {
                Access::Cached => suvm.write(ctx, addr, data),
                Access::Direct | Access::Adaptive => suvm.write_direct(ctx, addr, data),
            },
        }
    }

    /// Reads a little-endian `u64`.
    #[must_use]
    pub fn read_u64(&self, ctx: &mut ThreadCtx, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(ctx, addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&self, ctx: &mut ThreadCtx, addr: u64, v: u64) {
        self.write(ctx, addr, &v.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    #[must_use]
    pub fn read_u32(&self, ctx: &mut ThreadCtx, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(ctx, addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&self, ctx: &mut ThreadCtx, addr: u64, v: u32) {
        self.write(ctx, addr, &v.to_le_bytes());
    }

    /// Human-readable backend name (used in experiment output).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            DataSpace::Untrusted(_) => "untrusted",
            DataSpace::Enclave(_) => "enclave",
            DataSpace::Suvm { access, .. } => match access {
                Access::Cached => "suvm-cached",
                Access::Direct => "suvm-direct",
                Access::Adaptive => "suvm",
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eleos_core::SuvmConfig;
    use eleos_enclave::machine::MachineConfig;

    fn harness() -> (Arc<SgxMachine>, Arc<Enclave>, Arc<Suvm>) {
        let m = SgxMachine::new(MachineConfig::scaled(4));
        let e = m.driver.create_enclave(&m, 2 << 20);
        let t = ThreadCtx::for_enclave(&m, &e, 0);
        let s = Suvm::new(&t, SuvmConfig::tiny());
        (m, e, s)
    }

    #[test]
    fn all_spaces_roundtrip() {
        let (m, e, s) = harness();
        let spaces = [
            DataSpace::Untrusted(Arc::clone(&m)),
            DataSpace::Enclave(Arc::clone(&e)),
            DataSpace::suvm(&s),
        ];
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        for space in &spaces {
            let a = space.alloc(256);
            space.write(&mut t, a, b"space data");
            let mut buf = [0u8; 10];
            space.read(&mut t, a, &mut buf);
            assert_eq!(&buf, b"space data", "{}", space.label());
            space.write_u64(&mut t, a + 100, 0xabcd);
            assert_eq!(space.read_u64(&mut t, a + 100), 0xabcd);
            space.free(a);
        }
        t.exit();
    }

    #[test]
    fn read_record_returns_the_tail_the_caller_asks_for() {
        let (m, e, s) = harness();
        let spaces = [
            DataSpace::Untrusted(Arc::clone(&m)),
            DataSpace::Enclave(Arc::clone(&e)),
            DataSpace::suvm(&s),
        ];
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        for space in &spaces {
            // A record straddling a page boundary of the space.
            let a = space.alloc(2 * 4096) + 4090;
            space.write(&mut t, a, b"\x05\0\0\0hello, tail");
            let mut head = [0u8; 4];
            let tail = space.read_record(&mut t, a, &mut head, |h| {
                Some(u32::from_le_bytes(h.try_into().unwrap()) as usize)
            });
            assert_eq!(tail.as_deref(), Some(&b"hello"[..]), "{}", space.label());
            let none = space.read_record(&mut t, a, &mut head, |_| None);
            assert_eq!(none, None, "{}", space.label());
            assert_eq!(head, [5, 0, 0, 0], "the head is filled either way");
        }
        t.exit();
    }

    #[test]
    fn direct_space_roundtrip() {
        let m = SgxMachine::new(MachineConfig::scaled(4));
        let e = m.driver.create_enclave(&m, 2 << 20);
        let t0 = ThreadCtx::for_enclave(&m, &e, 0);
        let s = Suvm::new(
            &t0,
            SuvmConfig {
                sub_page_size: 1024,
                ..SuvmConfig::tiny()
            },
        );
        let space = DataSpace::suvm_direct(&s);
        let mut t = ThreadCtx::for_enclave(&m, &e, 0);
        t.enter();
        let a = space.alloc(8192);
        space.write(&mut t, a + 100, b"direct space");
        let mut buf = [0u8; 12];
        space.read(&mut t, a + 100, &mut buf);
        assert_eq!(&buf, b"direct space");
        assert_eq!(space.label(), "suvm-direct");
        t.exit();
    }
}
