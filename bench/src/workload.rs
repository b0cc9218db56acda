//! The four workloads and the machine they all run on. Every number
//! here is a constant of the benchmark, recorded in `README.md`; none is
//! an option, because a later PR is compared against these exact cells.

/// The paper's §6 hardware divided by 8, so the fits-LLC / fits-EPC /
/// exceeds-EPC regimes survive while a set-up stays at a few seconds.
pub const EPC_BYTES: usize = (93 << 20) / 8;
pub const LLC_BYTES: usize = 1 << 20;
pub const LLC_WAYS: usize = 16;
pub const EPCPP_BYTES: usize = (60 << 20) / 8;
pub const HEADROOM_BYTES: usize = 2 << 20;

/// Receive/transmit staging per socket, and the kernel ring behind it.
pub const IO_BUF_BYTES: usize = 256 << 10;
pub const SOCKET_STAGING: usize = 4 << 20;
/// Adaptive sub-batch depth range of every server in the benchmark.
pub const BATCH_MIN: usize = 1;
pub const BATCH_MAX: usize = 32;

/// Requests a closed loop keeps in flight.
pub const IN_FLIGHT: usize = 256;
/// Requests served and discarded before the counters are reset.
pub const WARMUP_OPS: u64 = 2_048;
/// An open-loop arrival that finds this many requests queued is
/// refused and counts as a failed op.
pub const MAX_BACKLOG: usize = 4_096;

/// The share of a measured phase after which SETs switch from
/// `value_len` to `value_len_late`. A third, not a half: with two equal
/// halves the median reply latency sits exactly on the step between the
/// cheap and the dear half and jumps from one to the other with the
/// seed.
pub const LATE_VALUES_FROM: f64 = 1.0 / 3.0;

/// `fleet-open` geometry.
pub const FLEET_REPLICAS: usize = 2;
pub const FLEET_SHARDS: usize = 4;
/// Pump rounds between maintenance ticks.
pub const MAINT_EVERY: u64 = 16;

/// Simulated cores: replicas and single servers serve on 0, the
/// maintenance plane ticks on 1, the load generator stamps from 2,
/// probes that need their own enclave run on 3, and the one RPC worker
/// polls on the machine's last core (the `RpcService` default).
pub const SERVE_CORE: usize = 0;
pub const MAINT_CORE: usize = 1;
pub const LOADGEN_CORE: usize = 2;
pub const PROBE_CORE: usize = 3;

/// Which lower layers a workload's traced run probes on its warm rig.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeSet {
    /// RPC ring, OCALL, wire crypto, memory hierarchy.
    RpcAndMemory,
    /// SUVM hit and clean fault, hardware EPC fault, page seal.
    CleanPaging,
    /// SUVM fault with a dirty victim.
    DirtyPaging,
    /// Cross-enclave channel and snapshot/restore.
    FleetPlumbing,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    Uniform,
    Zipf(f64),
    /// Uniform inside the issuing connection's own `n_keys / conns`
    /// slice, so a key is only ever touched through one socket and
    /// replies stay checkable on a multi-socket server.
    ConnSlice,
}

pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why this workload exists.
    pub why: &'static str,
    pub conns: u32,
    pub n_keys: u32,
    pub key_len: usize,
    /// Length of the values the store is filled with, and of SETs in the
    /// first [`LATE_VALUES_FROM`] of the measured phase.
    pub value_len: u32,
    /// Length of SETs after that.
    pub value_len_late: u32,
    pub set_pct: u32,
    pub keys: KeyDist,
    /// KV data in SUVM (metadata clear, CAT on) instead of enclave
    /// linear memory.
    pub suvm: bool,
    /// Value-pool limit of the store.
    pub mem_limit: u64,
    /// `Some(mean gap)`: open-loop Poisson arrivals into the replicated
    /// fleet. `None`: the closed loop into one enclave.
    pub open_gap: Option<u64>,
    /// Whether the store may evict, so a GET of a written key may miss.
    pub may_miss: bool,
    pub probes: ProbeSet,
    /// Whether the traced run also serves a tenth of the ops in the
    /// paper's baseline mode (OCALL syscalls, SGX hardware paging).
    pub reference_row: bool,
    /// Measured ops per `--seconds` second: calibrated once on the
    /// 2-core reference box so the measured phase takes at most about
    /// `--seconds` of wall time, then fixed. An op count derived from a
    /// constant (not from a clock) keeps every simulated number a
    /// function of the seed alone.
    pub ops_per_second: u64,
}

impl Spec {
    pub fn dataset_bytes(&self) -> usize {
        self.n_keys as usize * (self.key_len + self.value_len as usize)
    }
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "kvs-resident",
        why: "data fits the LLC: rpc, apps.io, wire crypto and host syscalls do all the work, core and storage none",
        conns: 64,
        n_keys: 4_096,
        key_len: 16,
        value_len: 64,
        value_len_late: 64,
        set_pct: 0,
        keys: KeyDist::Uniform,
        suvm: false,
        mem_limit: 8 << 20,
        open_gap: None,
        may_miss: false,
        probes: ProbeSet::RpcAndMemory,
        reference_row: true,
        ops_per_second: 100_000,
    },
    Spec {
        name: "kvs-paging",
        why: "paper Fig 11 cell, 62 MiB of 1 KiB values over 7.5 MiB EPC++: SUVM faults and page crypto dominate, rpc is ~3%",
        conns: 64,
        n_keys: 62_272,
        key_len: 20,
        value_len: 1_024,
        value_len_late: 1_024,
        set_pct: 0,
        keys: KeyDist::Uniform,
        suvm: true,
        mem_limit: 93 << 20,
        open_gap: None,
        may_miss: false,
        probes: ProbeSet::CleanPaging,
        reference_row: true,
        ops_per_second: 14_000,
    },
    Spec {
        name: "kvs-churn",
        why: "50% SET Zipf over a 24 MiB pool with a 128 B to 1 KiB value shift: dirty evictions, slab allocation, LRU misses",
        conns: 64,
        n_keys: 60_000,
        key_len: 20,
        value_len: 128,
        value_len_late: 1_024,
        set_pct: 50,
        keys: KeyDist::Zipf(0.99),
        suvm: true,
        mem_limit: 24 << 20,
        open_gap: None,
        may_miss: true,
        probes: ProbeSet::DirtyPaging,
        reference_row: false,
        ops_per_second: 30_000,
    },
    Spec {
        name: "fleet-open",
        why: "open-loop Poisson arrivals at a fixed rate into 2 replicas with maintenance on: the latency regime, shallow batches",
        conns: 64,
        n_keys: 4_096,
        key_len: 16,
        value_len: 64,
        value_len_late: 64,
        set_pct: 10,
        keys: KeyDist::ConnSlice,
        suvm: false,
        mem_limit: 8 << 20,
        open_gap: Some(6_000),
        may_miss: false,
        probes: ProbeSet::FleetPlumbing,
        reference_row: false,
        ops_per_second: 4_000,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}
