//! An in-memory host filesystem with POSIX-flavoured syscalls.
//!
//! Enclaves have no direct OS access, so file I/O takes the same two
//! routes as the socket calls: OCALL (exit per call) or Eleos's
//! exit-less RPC. Like `recv`/`send`, every call charges the syscall
//! trap cost and copies through kernel buffers with charged accesses —
//! the page-cache traffic pollutes the LLC exactly like socket I/O.

use std::collections::HashMap;

use parking_lot::Mutex;

use eleos_sim::stats::Stats;

use crate::thread::ThreadCtx;

/// A file descriptor in the host filesystem (distinct from socket
/// [`crate::host::Fd`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileFd(pub u32);

/// Kernel bookkeeping bytes touched per file syscall (dentry, inode,
/// page-cache radix nodes).
const FS_META_BYTES: usize = 1024;

struct File {
    data: Vec<u8>,
}

struct OpenFile {
    path: String,
    offset: usize,
}

/// The filesystem: a flat namespace of in-memory files.
pub struct HostFs {
    files: Mutex<HashMap<String, File>>,
    open: Mutex<HashMap<FileFd, OpenFile>>,
    next_fd: Mutex<u32>,
    /// Untrusted address of the shared kernel metadata footprint.
    meta: Mutex<Option<u64>>,
}

/// Errors surfaced to callers (mapped to negative returns over RPC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// Path does not exist.
    NotFound,
    /// Bad file descriptor.
    BadFd,
}

impl Default for HostFs {
    fn default() -> Self {
        Self::new()
    }
}

impl HostFs {
    /// An empty filesystem.
    #[must_use]
    pub fn new() -> Self {
        Self {
            files: Mutex::new(HashMap::new()),
            open: Mutex::new(HashMap::new()),
            next_fd: Mutex::new(100),
            meta: Mutex::new(None),
        }
    }

    fn touch_meta(&self, ctx: &mut ThreadCtx) {
        let addr = {
            let mut g = self.meta.lock();
            *g.get_or_insert_with(|| ctx.machine.alloc_untrusted(FS_META_BYTES))
        };
        let mut scratch = vec![0u8; FS_META_BYTES];
        ctx.read_untrusted(addr, &mut scratch);
    }

    /// `open(2)` with `O_CREAT`: opens (creating if absent) the file at
    /// `path`, position 0.
    pub fn open(&self, ctx: &mut ThreadCtx, path: &str) -> FileFd {
        assert!(!ctx.in_enclave(), "syscall from trusted mode");
        ctx.compute(ctx.machine.cfg.costs.syscall);
        Stats::bump(&ctx.machine.stats.syscalls);
        self.touch_meta(ctx);
        self.files
            .lock()
            .entry(path.to_string())
            .or_insert_with(|| File { data: Vec::new() });
        let fd = {
            let mut n = self.next_fd.lock();
            let fd = FileFd(*n);
            *n += 1;
            fd
        };
        self.open.lock().insert(
            fd,
            OpenFile {
                path: path.to_string(),
                offset: 0,
            },
        );
        fd
    }

    /// `close(2)`.
    pub fn close(&self, ctx: &mut ThreadCtx, fd: FileFd) -> Result<(), FsError> {
        assert!(!ctx.in_enclave(), "syscall from trusted mode");
        ctx.compute(ctx.machine.cfg.costs.syscall);
        Stats::bump(&ctx.machine.stats.syscalls);
        self.open
            .lock()
            .remove(&fd)
            .map(|_| ())
            .ok_or(FsError::BadFd)
    }

    /// `read(2)`: copies up to `len` bytes from the current offset
    /// into untrusted memory at `buf_addr`. Returns bytes read.
    pub fn read(
        &self,
        ctx: &mut ThreadCtx,
        fd: FileFd,
        buf_addr: u64,
        len: usize,
    ) -> Result<usize, FsError> {
        assert!(!ctx.in_enclave(), "syscall from trusted mode");
        ctx.compute(ctx.machine.cfg.costs.syscall);
        Stats::bump(&ctx.machine.stats.syscalls);
        self.touch_meta(ctx);
        let (payload, new_off) = {
            let open = self.open.lock();
            let of = open.get(&fd).ok_or(FsError::BadFd)?;
            let files = self.files.lock();
            let f = files.get(&of.path).ok_or(FsError::NotFound)?;
            let n = len.min(f.data.len().saturating_sub(of.offset));
            (f.data[of.offset..of.offset + n].to_vec(), of.offset + n)
        };
        // Page-cache -> user copy, charged.
        ctx.write_untrusted(buf_addr, &payload);
        if let Some(of) = self.open.lock().get_mut(&fd) {
            of.offset = new_off;
        }
        Ok(payload.len())
    }

    /// `write(2)`: appends-at-offset from untrusted memory. Returns
    /// bytes written.
    pub fn write(
        &self,
        ctx: &mut ThreadCtx,
        fd: FileFd,
        buf_addr: u64,
        len: usize,
    ) -> Result<usize, FsError> {
        assert!(!ctx.in_enclave(), "syscall from trusted mode");
        ctx.compute(ctx.machine.cfg.costs.syscall);
        Stats::bump(&ctx.machine.stats.syscalls);
        self.touch_meta(ctx);
        let mut payload = vec![0u8; len];
        ctx.read_untrusted(buf_addr, &mut payload);
        let mut open = self.open.lock();
        let of = open.get_mut(&fd).ok_or(FsError::BadFd)?;
        let mut files = self.files.lock();
        let f = files.get_mut(&of.path).ok_or(FsError::NotFound)?;
        if f.data.len() < of.offset + len {
            f.data.resize(of.offset + len, 0);
        }
        f.data[of.offset..of.offset + len].copy_from_slice(&payload);
        of.offset += len;
        Ok(len)
    }

    /// `lseek(2)` (`SEEK_SET`).
    pub fn seek(&self, ctx: &mut ThreadCtx, fd: FileFd, offset: usize) -> Result<(), FsError> {
        assert!(!ctx.in_enclave(), "syscall from trusted mode");
        ctx.compute(ctx.machine.cfg.costs.syscall);
        Stats::bump(&ctx.machine.stats.syscalls);
        self.open
            .lock()
            .get_mut(&fd)
            .map(|of| of.offset = offset)
            .ok_or(FsError::BadFd)
    }

    /// `fstat(2)`-lite: the file's size.
    pub fn size(&self, ctx: &mut ThreadCtx, fd: FileFd) -> Result<usize, FsError> {
        assert!(!ctx.in_enclave(), "syscall from trusted mode");
        ctx.compute(ctx.machine.cfg.costs.syscall);
        Stats::bump(&ctx.machine.stats.syscalls);
        let open = self.open.lock();
        let of = open.get(&fd).ok_or(FsError::BadFd)?;
        let files = self.files.lock();
        Ok(files.get(&of.path).ok_or(FsError::NotFound)?.data.len())
    }

    /// `unlink(2)`.
    pub fn unlink(&self, ctx: &mut ThreadCtx, path: &str) -> Result<(), FsError> {
        assert!(!ctx.in_enclave(), "syscall from trusted mode");
        ctx.compute(ctx.machine.cfg.costs.syscall);
        Stats::bump(&ctx.machine.stats.syscalls);
        self.files
            .lock()
            .remove(path)
            .map(|_| ())
            .ok_or(FsError::NotFound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineConfig, SgxMachine};

    fn rig() -> (std::sync::Arc<SgxMachine>, ThreadCtx) {
        let m = SgxMachine::new(MachineConfig::tiny());
        let t = ThreadCtx::untrusted(&m, 0);
        (m, t)
    }

    #[test]
    fn open_write_seek_read() {
        let (m, mut t) = rig();
        let buf = m.alloc_untrusted(256);
        let fd = m.fs.open(&mut t, "/data/log");
        t.write_untrusted(buf, b"hello file");
        assert_eq!(m.fs.write(&mut t, fd, buf, 10).unwrap(), 10);
        assert_eq!(m.fs.size(&mut t, fd).unwrap(), 10);
        m.fs.seek(&mut t, fd, 6).unwrap();
        let n = m.fs.read(&mut t, fd, buf + 100, 64).unwrap();
        assert_eq!(n, 4);
        let mut got = vec![0u8; 4];
        t.read_untrusted(buf + 100, &mut got);
        assert_eq!(&got, b"file");
        m.fs.close(&mut t, fd).unwrap();
        assert_eq!(m.fs.close(&mut t, fd), Err(FsError::BadFd));
    }

    #[test]
    fn files_persist_across_opens() {
        let (m, mut t) = rig();
        let buf = m.alloc_untrusted(64);
        let fd = m.fs.open(&mut t, "/a");
        t.write_untrusted(buf, b"persist");
        m.fs.write(&mut t, fd, buf, 7).unwrap();
        m.fs.close(&mut t, fd).unwrap();
        let fd2 = m.fs.open(&mut t, "/a");
        assert_eq!(m.fs.size(&mut t, fd2).unwrap(), 7);
        m.fs.unlink(&mut t, "/a").unwrap();
        assert_eq!(m.fs.unlink(&mut t, "/a"), Err(FsError::NotFound));
    }

    #[test]
    fn read_past_eof_is_short() {
        let (m, mut t) = rig();
        let buf = m.alloc_untrusted(64);
        let fd = m.fs.open(&mut t, "/short");
        assert_eq!(m.fs.read(&mut t, fd, buf, 64).unwrap(), 0);
    }

    #[test]
    fn syscall_costs_charged() {
        let (m, mut t) = rig();
        let fd = m.fs.open(&mut t, "/x");
        let c0 = t.now();
        let _ = m.fs.size(&mut t, fd);
        assert!(t.now() - c0 >= m.cfg.costs.syscall);
        assert!(m.stats.snapshot().syscalls >= 2);
    }
}
