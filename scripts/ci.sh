#!/usr/bin/env bash
# Tier-1 gate plus style/lint checks, fully offline (all dependencies
# are vendored under vendor/). Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== one implementation each (no deleted second path reappears)"
# PR 15 folded the fence-synchronous and background kill/respawn, the
# two channel protocols, the engines' background flag and three of
# Kvs's five snapshot entry points into one implementation each; the
# only survivor of these names is `Kvs::set_background` (who calls the
# maintenance tick) — and the warm-restart example's own file name.
if grep -rnE 'kill_background|respawn_background|snapshot_over_channel|recv_restore|MSG_EPOCH|MSG_SNAPSHOT|sealed_snapshot|restore_snapshot|from_chunks|fn set_background' \
        crates/*/src src examples tests \
    | grep -vE '^crates/apps/src/kvs\.rs:[0-9]+: +pub fn set_background\(' \
    | grep -vF -- '--example sealed_snapshot' ; then
    echo "a deleted name is back (see above)"
    exit 1
fi
# PR 17 collapsed SUVM paging to CLOCK / FIFO, the one buddy store and
# the one per-domain sealer.
if grep -rnE 'StripedStore|StoreKind|BackingStore|build_store|SealerConfig|sealer_name\b|LruApprox|RandomPolicy|Slru|VictimClass|protected_cap|model_metadata_pressure|suvm_hits_pro|suvm_evictions_pro' \
        crates/*/src src examples tests ; then
    echo "a deleted SUVM paging name is back (see above)"
    exit 1
fi

# PR 18 put one syscall table behind `IoPath` (no libOS shim, no second
# path enum) and one serve loop behind every front-end (`ServerIo::
# serve_on`/`serve`/`serve_one` over a `process` closure), and deleted
# the dead load-generator and label helpers.
if grep -rnE 'LibOs|SyscallMode|handle_text_request|handle_text_batch|fn handle_request|recv_many|fill_socket|FaceLoad|get_plain_zipf|rekey_label|balance_label' \
        crates/*/src src examples tests ; then
    echo "a deleted syscall-shim / serve-loop name is back (see above)"
    exit 1
fi
# PR 19 made `Stats` flat (per-shard numbers live in `ServerIo`, read by
# `shard_stats`), deleted the write-only engine gauges and the NUMA
# model, and with them the 8 MiB test-stack setting.
if grep -rnE 'FleetShardStats|FleetShardSnapshot|ShardStatsSnapshot|StorageClassStats|StorageClassSnapshot|MAX_SHARDS|MAX_REPLICAS|MAX_STORAGE_CLASSES|publish_gauges|numa_nodes|bind_numa|numa_remote' \
        crates/*/src src examples tests ; then
    echo "a deleted stat-grid / NUMA name is back (see above)"
    exit 1
fi
# PR 20 made direct-vs-cached a per-access choice (`Access`) and the
# sub-page seal the one seal format: no construction-time bool, no
# `seal_sub_pages` switch, no whole-page `SealState`.
if grep -rnE 'seal_sub_pages|SealState::Page|direct: (true|false)' \
        crates/*/src src examples tests ; then
    echo "a deleted direct-access switch is back (see above)"
    exit 1
fi
if git grep -nE 'RUST_MIN_STACK *=' -- . ':!ROADMAP.md' ':!CHANGES.md' ':!ISSUE.md' ; then
    echo "a tracked file sets RUST_MIN_STACK: shrink what is on the stack instead"
    exit 1
fi

echo "== build (release)"
cargo build --release --workspace --offline

echo "== tests"
cargo test --workspace --offline -q

echo "== e2e bench unit tests + smoke run (API surface, metric names)"
cargo test --offline --manifest-path bench/Cargo.toml -q

echo "== e2e kvs-paging guard (a cold record is read in place: only a re-read page is faulted in)"
# Exit 0 means the traced run's conservation checks held. A uniformly
# random GET unseals the sub-pages of its record and faults nothing in;
# what is left (0.03/op) is pages re-read within the reuse window. The
# 1.12 faults/op this guards against was every GET faulting its own
# record's pages, 1.32 every chain walk a stranger's as well.
cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
    --workload kvs-paging --seed 1 --seconds 2 --trace 1 | tail -n 1 > target/e2e_guard.json
python3 - <<'EOF'
import json, sys

run = json.load(open("target/e2e_guard.json"))
faults = run["metrics"]["core.major_faults"]["value"]
if run["failed"] != 0:
    sys.exit(f"kvs-paging: {run['failed']} of {run['attempted']} ops failed")
if faults > 0.1:
    sys.exit(f"kvs-paging: {faults:.3f} SUVM major faults/op, want <= 0.1")
print(f"   {run['attempted']} ops, 0 failed, {faults:.3f} major faults/op")
EOF

echo "== paging_bench smoke (exits non-zero unless batch >= 8 beats inline for every policy)"
cargo run --release -p eleos-bench --bin repro --offline -- paging_bench --quick --scale 16

echo "== crypto_bench smoke (exits non-zero unless every series is monotone in batch depth)"
cargo run --release -p eleos-bench --bin repro --offline -- crypto_bench --quick --scale 16

echo "== storage_bench smoke (exits non-zero unless its header claims hold on all 15 cells)"
cargo run --release -p eleos-bench --bin repro --offline -- storage_bench --quick --scale 8

echo "== serving_bench smoke"
# Scale 8, not 16: at 1/16 the LLC is barely larger than four shards'
# staging buffers, and the balance layer's extra buffer traffic
# (stolen runs land in the thief's stripes) drowns the round savings
# it exists to demonstrate.
cargo run --release -p eleos-bench --bin repro --offline -- serving_bench --quick --scale 8
python3 - <<'EOF'
import itertools, json, sys

cells = json.load(open("BENCH_serving.json"))["cells"]
# Cells are keyed by (load, policy, shards, balance, replicas, chaos).
# Fleet cells (the ones with per-replica op counts) re-run the
# replicas=1 configuration through the fleet harness, so they are kept
# apart from the single-enclave sweep.
sweep = [c for c in cells if not c["replica_ops"]]
by_cell = {
    (c["load"], c["policy"], c["shards"], c["balance"], c["replicas"], c["chaos"]): c
    for c in sweep
}
fleet = {
    (c["policy"], c["replicas"], c["chaos"]): c for c in cells if c["replica_ops"]
}

# Every (load, policy, shards, balance) sweep cell must be present,
# with percentiles; the skewed and churn shapes add balanced cells at
# 2 and 4 shards.
expected = [
    (load, policy, shards, "static", 1, "none")
    for load, policy, shards in itertools.product(
        ("steady", "bursty", "trickle", "skewed", "churn"),
        ("fixed-1", "fixed-8", "fixed-32", "adaptive"),
        (1, 2, 4),
    )
] + [
    (load, policy, shards, "balanced", 1, "none")
    for load, policy, shards in itertools.product(
        ("skewed", "churn"),
        ("fixed-1", "fixed-8", "fixed-32", "adaptive"),
        (2, 4),
    )
]
for key in expected:
    c = by_cell.get(key)
    if c is None:
        sys.exit(f"BENCH_serving.json missing cell {key}")
    if not (c["sojourn_p50"] <= c["sojourn_p95"] <= c["sojourn_p99"]):
        sys.exit(f"{key} percentiles not ordered")
    if c["sojourn_count"] == 0:
        sys.exit(f"{key} recorded no sojourn samples")
    for gauge in (
        "shard_backlog",
        "shard_depth",
        "steals_taken",
        "steals_given",
        "migrations",
        "shard_sojourn_p99",
    ):
        if len(c[gauge]) != c["shards"]:
            sys.exit(f"{key} gauge {gauge} has {len(c[gauge])} entries, want {c['shards']}")

for shards in (1, 2, 4):
    # Bursty load: the adaptive depth must grow into the burst and at
    # least match the shallow fixed policy's throughput.
    ad = by_cell[("bursty", "adaptive", shards, "static", 1, "none")]
    f1 = by_cell[("bursty", "fixed-1", shards, "static", 1, "none")]
    if ad["throughput_ops_s"] < f1["throughput_ops_s"]:
        sys.exit(
            f"bursty shards={shards}: adaptive throughput "
            f"{ad['throughput_ops_s']:.0f} below fixed-1 {f1['throughput_ops_s']:.0f}"
        )
    # Trickle load: adaptive serves each arrival instead of waiting
    # out a full fixed-32 batch, so its tail latency must not exceed
    # the deep fixed policy's.
    ad = by_cell[("trickle", "adaptive", shards, "static", 1, "none")]
    f32 = by_cell[("trickle", "fixed-32", shards, "static", 1, "none")]
    if ad["sojourn_p99"] > f32["sojourn_p99"]:
        sys.exit(
            f"trickle shards={shards}: adaptive p99 {ad['sojourn_p99']} "
            f"exceeds fixed-32 p99 {f32['sojourn_p99']}"
        )

# Skewed and churning load: the balance layer (re-pinning + stealing)
# must beat or match static pinning on busy cycles/op for the adaptive
# policy, and must not worsen its p99 sojourn.
for load, shards in itertools.product(("skewed", "churn"), (2, 4)):
    bal = by_cell[(load, "adaptive", shards, "balanced", 1, "none")]
    st = by_cell[(load, "adaptive", shards, "static", 1, "none")]
    if bal["busy_cycles_per_op"] > st["busy_cycles_per_op"]:
        sys.exit(
            f"{load} shards={shards}: balanced busy cycles/op "
            f"{bal['busy_cycles_per_op']:.0f} exceeds static {st['busy_cycles_per_op']:.0f}"
        )
    if bal["sojourn_p99"] > st["sojourn_p99"]:
        sys.exit(
            f"{load} shards={shards}: balanced p99 {bal['sojourn_p99']} "
            f"exceeds static p99 {st['sojourn_p99']}"
        )
# Fleet cells: the replicas axis on steady load plus the two chaos
# cells (kill 1 of 3 mid-backlog at 50% of the run, respawn at 75% —
# synchronous fence vs the background maintenance plane).
for key in [
    ("fixed-8", 1, "none"),
    ("fixed-8", 2, "none"),
    ("adaptive", 1, "none"),
    ("adaptive", 2, "none"),
    ("adaptive", 3, "kill-respawn"),
    ("adaptive", 3, "kill-respawn-bg"),
]:
    c = fleet.get(key)
    if c is None:
        sys.exit(f"BENCH_serving.json missing fleet cell {key}")
    # Zero lost replies, chaos or not: host socket queues outlive the
    # enclave and the heir restores before reaping inherited shards.
    if c["lost_replies"] != 0:
        sys.exit(f"fleet cell {key} lost {c['lost_replies']} replies")
    if len(c["replica_ops"]) != c["replicas"]:
        sys.exit(f"fleet cell {key} gauges {len(c['replica_ops'])} replicas")
    if sum(c["replica_ops"]) != c["ops"] or min(c["replica_ops"]) == 0:
        sys.exit(f"fleet cell {key} replica_ops {c['replica_ops']} != ops {c['ops']}")

# Steady state: adding a replica must not tax the pipeline — replicas=2
# (each replica serving its shard slice on its own core) stays within
# 5% busy cycles/op of the single-enclave baseline.
for policy in ("fixed-8", "adaptive"):
    one = fleet[(policy, 1, "none")]["busy_cycles_per_op"]
    two = fleet[(policy, 2, "none")]["busy_cycles_per_op"]
    if two > one * 1.05:
        sys.exit(
            f"fleet {policy}: replicas=2 busy cycles/op {two:.0f} more than "
            f"5% over the single-enclave baseline {one:.0f}"
        )

# Chaos cells: the fence protocols ran, and each stayed under the
# recovery budget. The budget is the *synchronous* cell's busy span
# for both labels: the sync fences run inside that span by
# construction, and the background plane's maintenance-core cycles
# replace that on-path work, so they must stay the same magnitude —
# the bg cell's own (smaller, that is the win) span is not the bound.
budget = (
    fleet[("adaptive", 3, "kill-respawn")]["busy_cycles_per_op"]
    * fleet[("adaptive", 3, "kill-respawn")]["ops"]
)
for label in ("kill-respawn", "kill-respawn-bg"):
    chaos = fleet[("adaptive", 3, label)]
    for fence in ("failover_cycles", "recovery_cycles"):
        if not 0 < chaos[fence] < budget:
            sys.exit(
                f"{label} cell {fence} {chaos[fence]} outside (0, {budget:.0f}) budget"
            )

# Background maintenance plane: the kill/respawn byte-work runs on the
# maintenance core, so the stranded backlog's failover-window p99
# collapses (at least 2x lower than the synchronous fence) while busy
# cycles/op stays at or below the synchronous cell's. The plane must
# actually have run: delta chunks streamed, heartbeat misses observed.
sync_chaos = fleet[("adaptive", 3, "kill-respawn")]
bg_chaos = fleet[("adaptive", 3, "kill-respawn-bg")]
if bg_chaos["maint_chunks"] == 0:
    sys.exit("kill-respawn-bg streamed no delta chunks")
# The two cells run the same kill/respawn code: inline it stalls the
# serving cores for every cycle of the transfers, on the plane for none.
if bg_chaos["maint_stall_cycles"] != 0:
    sys.exit(
        f"kill-respawn-bg stalled the serving path {bg_chaos['maint_stall_cycles']} cycles"
    )
if sync_chaos["maint_stall_cycles"] == 0:
    sys.exit("kill-respawn recorded no serving-path stall for its inline transfers")
if bg_chaos["hb_misses"] == 0:
    sys.exit("kill-respawn-bg observed no heartbeat misses")
if bg_chaos["sojourn_p99"] > sync_chaos["sojourn_p99"] * 0.5:
    sys.exit(
        f"background chaos p99 {bg_chaos['sojourn_p99']} not at least 2x below "
        f"the synchronous fence's {sync_chaos['sojourn_p99']}"
    )
if bg_chaos["busy_cycles_per_op"] > sync_chaos["busy_cycles_per_op"]:
    sys.exit(
        f"background chaos busy cycles/op {bg_chaos['busy_cycles_per_op']:.0f} "
        f"exceeds the synchronous cell's {sync_chaos['busy_cycles_per_op']:.0f}"
    )

# Session cells: the rekey sweep on the steady/adaptive/1-shard
# baseline plus the two-session revocation chaos cell.
session = {
    c["chaos"]: c
    for c in cells
    if c["chaos"].startswith("rekey-") or c["chaos"] == "revoke"
}
for label in ("rekey-inf", "rekey-4096", "rekey-1024", "rekey-256"):
    c = session.get(label)
    if c is None:
        sys.exit(f"BENCH_serving.json missing session cell {label}")
    # Epoch rotation is double-buffered: the old epoch drains while the
    # new one serves, so nothing is ever dropped or rejected.
    if c["lost_replies"] != 0:
        sys.exit(f"session cell {label} lost {c['lost_replies']} replies")
    if c["auth_failures"] != 0:
        sys.exit(f"session cell {label} had {c['auth_failures']} auth failures")
if session["rekey-inf"]["rekeys"] != 0:
    sys.exit("rekey-inf cell rotated keys")
if session["rekey-256"]["rekeys"] == 0:
    sys.exit("rekey-256 cell never rotated keys")

# A session that never rotates must cost what the static-key pipeline
# cost before the lifecycle existed (within 2% of the PR 7 baseline
# cell), and rotating every 4096 requests stays within 5% of it.
baseline = by_cell[("steady", "adaptive", 1, "static", 1, "none")][
    "busy_cycles_per_op"
]
inf = session["rekey-inf"]["busy_cycles_per_op"]
if inf > baseline * 1.02:
    sys.exit(
        f"rekey-inf busy cycles/op {inf:.0f} more than 2% over the "
        f"static-key baseline {baseline:.0f}"
    )
rk = session["rekey-4096"]["busy_cycles_per_op"]
if rk > baseline * 1.05:
    sys.exit(
        f"rekey-4096 busy cycles/op {rk:.0f} more than 5% over the "
        f"static-key baseline {baseline:.0f}"
    )

# Revocation chaos: the revoked session's queued traffic is dropped and
# counted; the surviving session loses nothing.
rv = session.get("revoke")
if rv is None:
    sys.exit("BENCH_serving.json missing the revoke cell")
if rv["lost_replies"] != 0:
    sys.exit(f"revoke cell: surviving session lost {rv['lost_replies']} replies")
if rv["auth_failures"] == 0:
    sys.exit("revoke cell dropped no traffic")
print(
    f"   {len(cells)} cells, adaptive rides burst throughput and trickle tail "
    f"latency, balance beats static pinning under skew, replicas=2 within 5% "
    f"of single-enclave, chaos cells lost 0 replies, background maintenance "
    f"cuts the failover-window p99 {sync_chaos['sojourn_p99'] / max(bg_chaos['sojourn_p99'], 1):.1f}x, "
    f"rekey-inf within 2% of the static-key baseline, revocation spares the "
    f"surviving session"
)
EOF

echo "== fmt"
cargo fmt --all --check

echo "== clippy"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -p 'eleos*'

echo "CI OK"
