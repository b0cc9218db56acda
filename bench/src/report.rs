//! Metric names, units and the result line. `BENCHMARK.json` lists
//! exactly the names produced here; a unit test holds the two together.

use std::fmt::Write as _;

use eleos_sim::stats::StatsSnapshot;

use crate::drive::Phase;
use crate::measure::{peak_rss_mib, percentile};
use crate::probes::{self, Probe};
use crate::trace::Tracer;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `a / b`, or 0 when nothing was counted.
fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The seven end-to-end metrics of one untraced measured phase.
pub fn end_to_end(setup_s: f64, phase: &mut Phase) -> Vec<Metric> {
    let replies = phase.latencies.len() as u64;
    vec![
        metric("setup_s", setup_s, "s"),
        metric(
            "sim_cycles_per_op",
            ratio(phase.busy_cycles, replies),
            "cycles",
        ),
        metric(
            "reply_p50_cycles",
            percentile(&mut phase.latencies, 0.50) as f64,
            "cycles",
        ),
        metric(
            "reply_p99_cycles",
            percentile(&mut phase.latencies, 0.99) as f64,
            "cycles",
        ),
        metric(
            "get_hit_ratio",
            ratio(phase.tally.get_hits, phase.tally.gets),
            "ratio",
        ),
        metric("host_ns_per_op", phase.host_ns_per_op, "ns"),
        metric("host_peak_rss_mb", peak_rss_mib(), "MiB"),
    ]
}

/// Spans on the serving core's clock (together they must account for
/// every cycle it spends), the one on the maintenance core's, and the
/// host-only ones.
pub const SERVE_SPANS: [&str; 6] = [
    "apps.io.recv",
    "apps.kvs.serve",
    "apps.io.send",
    "apps.kvs.fence",
    "apps.fleet_io.pump",
    "apps.fleet_io.poll",
];
pub const MAINT_SPAN: &str = "apps.fleet_io.maint";
pub const HOST_SPANS: [&str; 2] = ["apps.loadgen.push", "bench.verify"];

type Counter = (&'static str, fn(&StatsSnapshot) -> u64);

/// Exact deltas of `machine.stats` over the measured phase, reported
/// per op under the name of the layer that counts them.
const COUNTERS: [Counter; 32] = [
    ("sim.llc_misses", |s| s.llc_misses),
    ("sim.llc_misses_epc", |s| s.llc_misses_epc),
    ("sim.tlb_misses", |s| s.tlb_misses),
    ("sim.tlb_flushes", |s| s.tlb_flushes),
    ("enclave.exits", |s| s.enclave_exits),
    ("enclave.ocalls", |s| s.ocalls),
    ("enclave.syscalls", |s| s.syscalls),
    ("enclave.kernel_meta_reads", |s| s.kernel_meta_reads),
    ("enclave.hw_faults", |s| s.hw_faults),
    ("enclave.hw_evictions", |s| s.hw_evictions),
    ("enclave.ipis", |s| s.ipis),
    ("enclave.aex", |s| s.aex),
    ("rpc.calls", |s| s.rpc_calls),
    ("rpc.batches", |s| s.rpc_batches),
    ("rpc.ring_full", |s| s.rpc_ring_full),
    ("rpc.idle_yields", |s| s.rpc_idle_yields),
    ("rpc.xchan_msgs", |s| s.xchan_msgs),
    ("rpc.xchan_bytes", |s| s.xchan_bytes),
    ("crypto.batches", |s| s.crypto_batches),
    ("crypto.msgs", |s| s.crypto_msgs),
    ("crypto.setup_cycles", |s| s.crypto_setup_cycles),
    ("crypto.sealed_bytes", |s| s.sealed_bytes),
    ("core.major_faults", |s| s.suvm_major_faults),
    ("core.minor_faults", |s| s.suvm_minor_faults),
    ("core.evictions", |s| s.suvm_evictions),
    ("core.wb_pages", |s| s.suvm_wb_pages),
    ("apps.storage.slab_moves", |s| s.slab_moves),
    ("apps.storage.maint_stall_cycles", |s| s.maint_stall_cycles),
    ("apps.fleet_io.maint_chunks", |s| s.maint_chunks),
    ("apps.fleet_io.delta_items", |s| s.snapshot_delta_items),
    ("apps.fleet_io.hb_misses", |s| s.hb_misses),
    ("apps.wire.auth_failures", |s| s.auth_failures),
];

/// Every per-layer metric of one traced run. `plain` is the untraced
/// phase over the same ops (for the tracing overhead), `reference` the
/// paper-baseline phase where the workload has one.
pub fn per_layer(
    plain: &Phase,
    traced: &Phase,
    tracer: &Tracer,
    probed: &[Probe],
    reference: Option<&Phase>,
) -> Vec<Metric> {
    let ops = traced.latencies.len() as u64;
    let per_op = |n: u64| ratio(n, ops);
    let mut out = Vec::new();

    for name in SERVE_SPANS.into_iter().chain([MAINT_SPAN]) {
        let t = tracer.totals(name);
        out.push(metric(
            format!("{name}.sim_cycles_per_op"),
            per_op(t.sim_cycles),
            "cycles",
        ));
        out.push(metric(
            format!("{name}.host_ns_per_op"),
            per_op(t.host_ns),
            "ns",
        ));
        out.push(metric(format!("{name}.calls"), t.calls as f64, "count"));
    }
    for name in HOST_SPANS {
        let t = tracer.totals(name);
        out.push(metric(
            format!("{name}.host_ns_per_op"),
            per_op(t.host_ns),
            "ns",
        ));
        out.push(metric(format!("{name}.calls"), t.calls as f64, "count"));
    }

    let s = &traced.stats;
    for (name, read) in COUNTERS {
        out.push(metric(name, per_op(read(s)), "1/op"));
    }
    out.push(metric(
        "core.clean_skip_ratio",
        ratio(s.suvm_clean_skips, s.suvm_evictions),
        "ratio",
    ));
    out.push(metric(
        "apps.io.batch_depth_mean",
        ratio(ops, traced.nonempty_reaps),
        "ops",
    ));
    out.push(metric(
        "apps.io.queue_wait_p50_cycles",
        s.sojourn.p50() as f64,
        "cycles",
    ));
    out.push(metric(
        "apps.io.queue_wait_p99_cycles",
        s.sojourn.p99() as f64,
        "cycles",
    ));
    out.push(metric(
        "apps.storage.evictions",
        per_op(traced.storage_evictions),
        "1/op",
    ));
    out.push(metric(
        "apps.loadgen.max_lateness_cycles",
        traced.max_lateness as f64,
        "cycles",
    ));

    for name in probes::NAMES {
        let p = probed.iter().find(|p| p.name == name);
        out.push(metric(
            format!("{name}.sim_cycles"),
            p.map_or(0.0, |p| p.sim_cycles),
            "cycles",
        ));
        out.push(metric(
            format!("{name}.host_ns"),
            p.map_or(0.0, |p| p.host_ns),
            "ns",
        ));
    }

    out.push(metric(
        "bench.trace_overhead_pct",
        (traced.host_ns_per_op / plain.host_ns_per_op - 1.0) * 100.0,
        "%",
    ));
    let sgx = reference.map_or(0.0, |r| ratio(r.busy_cycles, r.latencies.len() as u64));
    out.push(metric("ref.sgx_cycles_per_op", sgx, "cycles"));
    let eleos = ratio(traced.busy_cycles, ops);
    out.push(metric(
        "ref.speedup_vs_sgx",
        if eleos > 0.0 { sgx / eleos } else { 0.0 },
        "x",
    ));
    out
}

/// A number as JSON: Rust's shortest round-trip form, which keeps every
/// measured digit.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v}")
}

/// The one-line result object the driver reads from the last line of
/// standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(
            10,
            1,
            &[metric("a.b", 1.5, "ms"), metric("c", 2.0, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}, \"c\": {\"value\": 2, \"unit\": \"count\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
