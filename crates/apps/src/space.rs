//! The data-space abstraction the evaluation applications are written
//! against.
//!
//! Every server in the paper's evaluation is run in several memory
//! configurations: untrusted (native), enclave memory under SGX
//! hardware paging ("vanilla SGX"), and SUVM (cached or direct).
//! [`DataSpace`] lets one application implementation target all of
//! them, which is what makes the head-to-head figures meaningful.

use std::sync::Arc;

use eleos_core::{Access, SpanCursor, Suvm};
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

    /// A cursor at `addr` for a request's accesses to one record. On
    /// SUVM it is a [`SpanCursor`]: one translation per page, and
    /// where the cursor bypasses EPC++, one unseal per sub-page and
    /// writes that re-seal only what they touch. On the other spaces
    /// its reads and writes are [`Self::read`] and [`Self::write`] at
    /// its position.
    #[must_use]
    pub fn cursor(&self, addr: u64) -> Cursor<'_> {
        match self {
            DataSpace::Suvm { suvm, access } => Cursor::Suvm(suvm.span(addr, *access)),
            _ => Cursor::Plain {
                space: self,
                pos: addr,
            },
        }
    }

    /// Writes `data` at `addr`.
    pub fn write(&self, ctx: &mut ThreadCtx, addr: u64, data: &[u8]) {
        match self {
            DataSpace::Untrusted(_) => ctx.write_untrusted(addr, data),
            DataSpace::Enclave(_) => ctx.write_enclave(addr, data),
            DataSpace::Suvm { suvm, access } => suvm.span(addr, *access).write(ctx, data),
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

/// A sequential position in a [`DataSpace`] ([`DataSpace::cursor`]).
pub enum Cursor<'a> {
    /// SUVM: a pinned span.
    Suvm(SpanCursor<'a>),
    /// Any other space: plain reads and writes at `pos`.
    Plain {
        /// The space.
        space: &'a DataSpace,
        /// The next access's address.
        pos: u64,
    },
}

impl Cursor<'_> {
    /// Moves the cursor to `addr`.
    pub fn seek(&mut self, addr: u64) {
        match self {
            Cursor::Suvm(span) => span.seek(addr),
            Cursor::Plain { pos, .. } => *pos = addr,
        }
    }

    /// Reads the next `buf.len()` bytes and advances.
    pub fn read(&mut self, ctx: &mut ThreadCtx, buf: &mut [u8]) {
        match self {
            Cursor::Suvm(span) => span.read(ctx, buf),
            Cursor::Plain { space, pos } => {
                space.read(ctx, *pos, buf);
                *pos += buf.len() as u64;
            }
        }
    }

    /// Writes `data` and advances.
    pub fn write(&mut self, ctx: &mut ThreadCtx, data: &[u8]) {
        match self {
            Cursor::Suvm(span) => span.write(ctx, data),
            Cursor::Plain { space, pos } => {
                space.write(ctx, *pos, data);
                *pos += data.len() as u64;
            }
        }
    }

    /// Reads the next little-endian `u64` and advances.
    #[must_use]
    pub fn read_u64(&mut self, ctx: &mut ThreadCtx) -> u64 {
        let mut b = [0u8; 8];
        self.read(ctx, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` and advances.
    pub fn write_u64(&mut self, ctx: &mut ThreadCtx, v: u64) {
        self.write(ctx, &v.to_le_bytes());
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
    fn a_cursor_reads_a_record_across_a_page_boundary() {
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
            let mut cur = space.cursor(a);
            let mut head = [0u8; 4];
            cur.read(&mut t, &mut head);
            assert_eq!(head, [5, 0, 0, 0], "{}", space.label());
            let mut tail = vec![0u8; u32::from_le_bytes(head) as usize];
            cur.read(&mut t, &mut tail);
            assert_eq!(tail, b"hello", "{}", space.label());
            // Back to the head, rewritten through the same cursor.
            cur.seek(a + 4);
            cur.write(&mut t, b"HELLO");
            drop(cur);
            let mut buf = [0u8; 9];
            space.read(&mut t, a, &mut buf);
            assert_eq!(&buf, b"\x05\0\0\0HELLO", "{}", space.label());
        }
        t.exit();
    }

    #[test]
    fn a_plain_cursor_charges_what_reads_and_writes_charge() {
        // The same script of accesses, through a cursor and through
        // `DataSpace::read`/`write` at the same addresses, on two
        // identical rigs: same clock, same counters.
        let script = |plain: bool, untrusted: bool| {
            let (m, e, _s) = harness();
            let space = if untrusted {
                DataSpace::Untrusted(Arc::clone(&m))
            } else {
                DataSpace::Enclave(Arc::clone(&e))
            };
            let mut t = ThreadCtx::for_enclave(&m, &e, 0);
            t.enter();
            let a = space.alloc(64 << 10);
            let (s0, c0) = (m.stats.snapshot(), t.now());
            let mut buf = [0u8; 40];
            let mut cur = space.cursor(a + 4000);
            for (i, at) in [4000u64, 4100, 9000, 4100, 30_000, 4060]
                .into_iter()
                .enumerate()
            {
                let data = [i as u8; 40];
                if plain {
                    space.read(&mut t, a + at, &mut buf[..16]);
                    space.write(&mut t, a + at + 16, &data);
                    space.read(&mut t, a + at + 56, &mut buf);
                } else {
                    cur.seek(a + at);
                    cur.read(&mut t, &mut buf[..16]);
                    cur.write(&mut t, &data);
                    cur.read(&mut t, &mut buf);
                }
            }
            drop(cur);
            t.exit();
            (t.now() - c0, m.stats.snapshot() - s0)
        };
        for untrusted in [true, false] {
            assert_eq!(script(true, untrusted), script(false, untrusted));
        }
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
