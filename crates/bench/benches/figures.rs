//! Criterion wrappers over the figure kernels at a tiny scale — these
//! track the wall-clock cost of regenerating each experiment (the
//! simulated-cycle results themselves come from `cargo run --bin
//! repro`, one target per table/figure).

use criterion::{criterion_group, criterion_main, Criterion};

use eleos_apps::loadgen::ParamLoad;
use eleos_apps::param_server::TableKind;
use eleos_bench::harness::{run_param_server, Mode, Rig, Scale};

const TINY: Scale = Scale(64);

fn bench_fig1_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_param_server");
    g.sample_size(10);
    for mode in [Mode::Native, Mode::SgxOcall, Mode::EleosSuvm] {
        g.bench_function(mode.label(), |b| {
            b.iter(|| {
                let rig = Rig::new(TINY, mode, 1 << 20, false);
                let mut load = ParamLoad::new(7, 1000, 1, None);
                run_param_server(&rig, TableKind::OpenAddressing, 1000, 200, 20, move || {
                    load.next_plain()
                })
            });
        });
    }
    g.finish();
}

fn bench_fig7_kernel(c: &mut Criterion) {
    use eleos_core::{Suvm, SuvmConfig};
    use eleos_enclave::thread::ThreadCtx;
    let mut g = c.benchmark_group("fig7_suvm_vs_sgx");
    g.sample_size(10);
    g.bench_function("suvm_random_reads", |b| {
        b.iter(|| {
            let m = eleos_bench::harness::paper_machine(TINY);
            let e = m.driver.create_enclave(&m, 4 << 20);
            let t0 = ThreadCtx::for_enclave(&m, &e, 0);
            let s = Suvm::new(
                &t0,
                SuvmConfig {
                    sub_page_size: 4096, // EPC++-only rig: whole-page seals
                    epcpp_bytes: 256 << 10,
                    backing_bytes: 4 << 20,
                    ..SuvmConfig::default()
                },
            );
            let mut t = ThreadCtx::for_enclave(&m, &e, 0);
            t.enter();
            let a = s.malloc(1 << 20);
            let mut buf = [0u8; 4096];
            for i in 0..512u64 {
                s.read(&mut t, a + (i * 97 % 256) * 4096, &mut buf);
            }
            t.exit();
        });
    });
    g.bench_function("sgx_random_reads", |b| {
        b.iter(|| {
            let m = eleos_bench::harness::paper_machine(TINY);
            let e = m.driver.create_enclave(&m, 4 << 20);
            let mut t = ThreadCtx::for_enclave(&m, &e, 0);
            t.enter();
            let a = e.alloc(1 << 20);
            let mut buf = [0u8; 4096];
            for i in 0..512u64 {
                t.read_enclave(a + (i * 97 % 256) * 4096, &mut buf);
            }
            t.exit();
        });
    });
    g.finish();
}

criterion_group!(benches, bench_fig1_kernel, bench_fig7_kernel);
criterion_main!(benches);
