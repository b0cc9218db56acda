//! Criterion microbenchmarks of the implementation's hot paths (real
//! wall time of this library, as opposed to the simulated cycles the
//! `repro` binary reports).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use eleos_core::{SPtr, Suvm, SuvmConfig};
use eleos_crypto::gcm::AesGcm128;
use eleos_crypto::Sealer;
use eleos_enclave::machine::{MachineConfig, SgxMachine};
use eleos_enclave::thread::ThreadCtx;
use eleos_rpc::{RpcService, UntrustedFn};
use eleos_sim::alloc::BuddyAllocator;
use eleos_sim::costs::AccessKind;
use eleos_sim::llc::{CacheCtx, Llc, LlcConfig};

fn bench_crypto(c: &mut Criterion) {
    let gcm = AesGcm128::new(&[7u8; 16]);
    let mut g = c.benchmark_group("crypto");
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("gcm_seal_4k_page", |b| {
        let mut page = vec![0xa5u8; 4096];
        b.iter(|| {
            let tag = gcm.seal(&[1u8; 12], b"page", black_box(&mut page));
            black_box(tag)
        });
    });
    g.bench_function("gcm_seal_open_1k_subpage", |b| {
        let mut sub = vec![0x5au8; 1024];
        b.iter(|| {
            let tag = gcm.seal(&[2u8; 12], b"sub", &mut sub);
            gcm.open(&[2u8; 12], b"sub", &mut sub, &tag).unwrap();
        });
    });
    g.finish();
}

fn bench_llc(c: &mut Criterion) {
    let mut llc = Llc::new(&LlcConfig::default());
    let mut addr = 0u64;
    c.bench_function("llc_access_line", |b| {
        b.iter(|| {
            addr = addr.wrapping_add(64) & 0xfff_ffff;
            black_box(llc.access_line(CacheCtx::Enclave, addr, AccessKind::Read))
        });
    });
}

fn bench_buddy(c: &mut Criterion) {
    c.bench_function("buddy_alloc_free", |b| {
        let mut a = BuddyAllocator::new(1 << 20, 16);
        b.iter(|| {
            let x = a.alloc(100).unwrap();
            a.free(black_box(x)).unwrap();
        });
    });
}

fn suvm_rig() -> (Arc<SgxMachine>, Arc<Suvm>, ThreadCtx) {
    let m = SgxMachine::new(MachineConfig::scaled(8));
    let e = m.driver.create_enclave(&m, 8 << 20);
    let t0 = ThreadCtx::for_enclave(&m, &e, 0);
    let s = Suvm::new(
        &t0,
        SuvmConfig {
            sub_page_size: 4096, // EPC++-only rig: whole-page seals
            epcpp_bytes: 1 << 20,
            backing_bytes: 8 << 20,
            ..SuvmConfig::default()
        },
    );
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    (m, s, t)
}

fn bench_spointer(c: &mut Criterion) {
    let (_m, s, mut t) = suvm_rig();
    let sva = s.malloc(4096);
    let p: SPtr<u64> = SPtr::new(&s, sva);
    p.set(&mut t, 1);
    c.bench_function("spointer_linked_get", |b| {
        b.iter(|| black_box(p.get(&mut t)));
    });
}

fn bench_suvm_fault(c: &mut Criterion) {
    let (_m, s, mut t) = suvm_rig();
    // 4 MiB working set through a 1 MiB cache: every page read is a
    // major fault + clean eviction.
    let sva = s.malloc(4 << 20);
    s.memset(&mut t, sva, 4 << 20, 1);
    let mut page = 0u64;
    let mut buf = [0u8; 64];
    c.bench_function("suvm_major_fault_roundtrip", |b| {
        b.iter(|| {
            page = (page + 97) % 1024;
            s.read(&mut t, sva + page * 4096, &mut buf);
        });
    });
}

fn bench_rpc(c: &mut Criterion) {
    let m = SgxMachine::new(MachineConfig::scaled(8));
    let svc = RpcService::builder(&m)
        .register(1, UntrustedFn::new(|_c, a| a[0]))
        .workers(1, &[3])
        .build();
    let e = m.driver.create_enclave(&m, 1 << 20);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    c.bench_function("rpc_roundtrip", |b| {
        b.iter(|| black_box(svc.call(&mut t, 1, [7, 0, 0, 0])));
    });
}

fn bench_containers(c: &mut Criterion) {
    use eleos_core::SHashMap;
    let (_m, s, mut t) = suvm_rig();
    let mut map = SHashMap::new(&s, &mut t, 4096);
    for i in 0..1000u32 {
        map.insert(&mut t, &i.to_le_bytes(), &[7u8; 64]);
    }
    let mut i = 0u32;
    c.bench_function("shashmap_get_hit", |b| {
        b.iter(|| {
            i = (i + 331) % 1000;
            black_box(map.get(&mut t, &i.to_le_bytes()))
        });
    });
}

fn bench_shared_region(c: &mut Criterion) {
    use eleos_core::shared::SharedRegion;
    let m = SgxMachine::new(MachineConfig::scaled(8));
    let e = m.driver.create_enclave(&m, 4 << 20);
    let region = SharedRegion::establish(&m, 4 << 20, [1; 16]);
    let tok = region.join(&e);
    let mut t = ThreadCtx::for_enclave(&m, &e, 0);
    t.enter();
    let buf = tok.alloc(64 << 10);
    tok.write(&mut t, buf, &[5u8; 4096]);
    let mut out = [0u8; 256];
    c.bench_function("shared_region_read_256b", |b| {
        b.iter(|| {
            tok.read(&mut t, buf + 100, &mut out);
            black_box(out[0])
        });
    });
}

fn bench_host_fs(c: &mut Criterion) {
    let m = SgxMachine::new(MachineConfig::scaled(8));
    let mut t = ThreadCtx::untrusted(&m, 0);
    let fd = m.fs.open(&mut t, "/bench");
    let buf = m.alloc_untrusted(4096);
    t.write_untrusted(buf, &[9u8; 4096]);
    m.fs.write(&mut t, fd, buf, 4096).unwrap();
    c.bench_function("host_fs_pread_4k", |b| {
        b.iter(|| {
            m.fs.seek(&mut t, fd, 0).unwrap();
            black_box(m.fs.read(&mut t, fd, buf, 4096).unwrap())
        });
    });
}

criterion_group!(
    benches,
    bench_crypto,
    bench_llc,
    bench_buddy,
    bench_spointer,
    bench_suvm_fault,
    bench_rpc,
    bench_containers,
    bench_shared_region,
    bench_host_fs
);
criterion_main!(benches);
