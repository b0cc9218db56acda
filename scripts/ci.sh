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
# PR 19 made `Stats` flat, deleted the write-only engine gauges and the
# NUMA model, and with them the 8 MiB test-stack setting.
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
# PR 21 deleted what nothing called (eleos-core's C-style shim, secure
# containers and runtime builder), the criterion harness with its
# vendored stub, and the bench JSON files only a Python heredoc read
# (`BENCH[_]`, so that this script does not itself spell their names).
if grep -rnE 'RawSPtr|suvm_malloc|sptr_(read|write|add|deref_u64|set_u64)|SBox|SVec|SHashMap|EleosBuilder|criterion|BENCH[_](rpc|paging|serving)\.json|run_pf_latency' \
        crates/*/src src examples tests Cargo.toml crates/*/Cargo.toml .gitignore ; then
    echo "a deleted uncalled-API / second-harness name is back (see above)"
    exit 1
fi
# PR 22 made `shard_for` the only placement: no balance layer (re-pin,
# steal, second send wave), no `churn` load shape, no per-shard CAT
# classes.
if grep -rnE 'BalanceConfig|steal_pass|steals_(taken|given)|\.balanced\(|\.routed\(|\.repin\(|hottest_conns|shard_weights|server_io_balanced|partition_shards|set_shard_class|shard_class_of|with_shard_class|CacheCtx::Shard|MAX_SHARD_CLASSES|ConnStream::churn' \
        crates/*/src src examples tests ; then
    echo "a deleted shard-balance / shard-class name is back (see above)"
    exit 1
fi
# PR 28 left the KVS one storage engine: no segment store, no engine
# trait or config enum, no rebalancer knobs (the rebalancer is
# `Kvs::with_rebalancer`), and none of the segment store's costs or
# stats.
if grep -rnE 'SegmentEngine|SegmentConfig|EngineConfig|StorageEngine|build_engine|RebalanceConfig|engine_label|seg_merge|bg_merges|seg_expired_segments|spill_part_key' \
        crates/*/src src examples tests ; then
    echo "a deleted storage-engine name is back (see above)"
    exit 1
fi
# SUVM has one victim hand (no policy trait or policy objects) and no
# pacemaker threads: the swapper is `Suvm::swapper_tick` and the
# maintenance plane `FleetKvs::maintenance_tick`, each driven by its
# caller.
if grep -rnE 'EvictionPolicy|ClockPolicy|FifoPolicy|build_policy|\bSwapper\b|MaintenanceCtx|swapper::|apps::maintenance' \
        crates/*/src src examples tests ; then
    echo "a deleted eviction-policy / pacemaker-thread name is back (see above)"
    exit 1
fi
# PR 30 made a replica its `FleetKvs` slot: no substrate-level fleet
# layer with its own lifecycle states, and a fair-share ioctl that takes
# no enclave id.
if grep -rnE '\bReplicaState\b|enclave::fleet|\bFleet::|mark_draining|mark_serving|available_epc_for|\.fleet\(\)' \
        crates/*/src crates/*/tests src examples tests ; then
    echo "a deleted fleet-lifecycle name is back (see above)"
    exit 1
fi
# The send is streamed in groups: an RPC batch keeps one `(posted_at,
# worker_cycles)` pair per group of posts and waits for their serialized
# finish, not one submission stamp.
if grep -rnE '\bsubmitted_at\b' \
        crates/*/src crates/*/tests src examples tests ; then
    echo "a deleted RPC-batch name is back (see above)"
    exit 1
fi
# The receive leg is streamed on one worker: `read_run` is told when it
# reads (`Lines`: after the wait, or line by line as published) instead
# of taking one clock reading, a batch keeps each job's cycles
# (`RpcBatch::collect`) instead of summing them per group, and the open
# path's acceptance rule and keys live in `OpenGate` alone: a streamed
# reap bills and opens under one gate, not a gate rebuilt per open
# (`gate_in`) and keys looked up again per frame.
if grep -rnE 'read_run\(ctx, run, stripe, n, now|groups\[group\]|ctr_for\(Self::epoch_of\(nonce\)\)\.is_some|\bgate_in\b|Some\(ctr\) = self\.ctr_for' \
        crates/*/src crates/*/tests src examples tests ; then
    echo "a superseded receive-leg shape is back (see above)"
    exit 1
fi
# A one-worker ring is one timeline: each job runs when it is posted
# and its batch hands back when it ran (`RpcBatch::jobs`), so nothing
# settles a batch host-side before charging it, replays a settled reap
# (`Settled`, its `rebase`), makes a send wait for a reap posted ahead
# or runs caller work between a settle and a charge.
if grep -rnE 'RpcBatch::collect|\.collect\(&mut|\bSettled\b|\brebase\b|wait_for_ahead|wait_all_with' \
        crates/*/src crates/*/tests src examples tests ; then
    echo "a deleted RPC-settle name is back (see above)"
    exit 1
fi
# Every RPC send is waited for before it returns: no deferred send held
# between batches, and no `flush` for a caller to remember. Only
# `bench/src/rig.rs` still calls `async_send`, with `false`.
if grep -rnE 'pending_send|async_send\(true|fn flush\(&self|\b(io|io_a|io_b|fk)\.flush\(' \
        crates/*/src crates/*/tests src examples tests ; then
    echo "a deleted deferred-send name is back (see above)"
    exit 1
fi
# A reap asks each shard for `batch_max` and takes what the socket
# queues: no per-shard AIMD depth controller, no floor to adapt from.
# Only `bench/src/rig.rs` still calls `adaptive`, a hidden shim for
# `batch(max)`.
if grep -rnE 'fn adapt\b|EWMA_SCALE|is_adaptive|batch_min|\.ewma\b' \
        crates/*/src crates/*/tests src examples tests ; then
    echo "a deleted depth-controller name is back (see above)"
    exit 1
fi
# Batched crypto is the only serving crypto, and a server's shard count
# is its socket set: no per-message mode or its labels, no second
# decrypt entry point, no declared count to check against the set. Only
# `bench/src/rig.rs` still calls `shards`, a hidden shim.
if grep -rnE '\bbatched_crypto\b|crypto_label|policy_label|decrypt_batch_reporting_drops|config declares|per-msg' \
        crates/*/src crates/*/tests src examples tests ; then
    echo "a deleted crypto-mode / shard-declaration name is back (see above)"
    exit 1
fi
# A crypto batch is billed by its key and the serve round, never by a
# flag: outside a round SUVM bills a page, a bypass cursor and a
# write-through as one batch each, and per-message billing is one call
# per message. Only
# `bench/src/probes.rs` still calls the flagged shape, a hidden shim.
if grep -rnE 'charge_crypto_batch(_from)?\(.*, (true|false)\)|Inline eviction is a batch of one' \
        crates/*/src crates/*/tests src examples tests ; then
    echo "a deleted crypto-billing flag is back (see above)"
    exit 1
fi
# A serve round's batch index per key lives in `ThreadCtx` alone: no
# hand-threaded index in the reap's bill, the send, the bypass cursor,
# the write-through or the shared region, and no billing by offset.
if grep -rnE 'charge_crypto_batch_from|self\.opened\b|(opened|billed) \+= [12]\b|self\.next \+= lens|sealed \+ start|encrypt_batch_in_enclave\((ctx|&mut t), [^,()]+, ' \
        crates/*/src crates/*/tests src examples tests ; then
    echo "a deleted hand-threaded crypto-batch index is back (see above)"
    exit 1
fi
# A request reads a record through `DataSpace::cursor`, whose SUVM arm
# is the span cursor that also writes it: no second record reader.
if grep -rnE 'DataSpace::read_record|\.read_record\(' \
        crates/*/src crates/*/tests src examples tests ; then
    echo "a deleted record-reader name is back (see above)"
    exit 1
fi
# The RPC ring is one timeline with k lanes, run by one host thread:
# no second timing model that divides a batch's worker cycles by the
# workers that could share them, and no worker count for a caller to
# branch on.
if grep -rnE 'cycles / lanes|n_workers|worker_count' \
        crates/*/src crates/*/tests src examples tests ; then
    echo "a deleted multi-worker RPC name is back (see above)"
    exit 1
fi
# A dirty page leaves EPC++ one way, the inline claim: the batched
# write-back queue and `repro paging_bench` are deleted. The docs are
# searched too; `bench/README.md`, frozen with the instrument, is not.
if grep -rnE 'wb_batch|drain_writeback|detach_victims|writeback_queue_len|suvm_wb_(queued|batches|rescues|queue_peak)|skip_queued|paging_bench' \
        crates/*/src crates/*/tests src examples tests bench/src docs README.md DESIGN.md ; then
    echo "a deleted write-back-queue name is back (see above)"
    exit 1
fi
# SUVM has one page table: a page's frame and seal state change under one
# shard lock, so there is no inverse table beside the crypto table, no
# copy-less seal state with its own drop protocol, and no unchecked read
# of a seal in progress.
if grep -rnE 'InversePt|NoCopy|drop_copy|read_unit|with_bucket|seals\.get_unchecked' \
        crates/*/src tests examples docs ; then
    echo "a deleted SUVM page-table name is back (see above)"
    exit 1
fi
# The LLC walks a span in one pass over compact per-set state: no
# per-way flag bytes or tick array beside the tag words, and no caller
# that loops over a span one `access_line` at a time. The pre-walk model
# lives on only as the test oracle in `crates/sim/src/llc/oracle.rs`.
if grep -rnE 'F_VALID|F_DIRTY|flags: Vec<u8>|self\.flags\b|victim_tick|access_line\(cctx, line' \
        crates/*/src crates/*/tests src examples tests \
    | grep -v '^crates/sim/src/llc/oracle\.rs:' ; then
    echo "a deleted per-line LLC name is back (see above)"
    exit 1
fi
# Every counter has a reader: no per-shard gauges in `ServerIo`, no
# `Stats` counter only a bump site touches (TLB hits, expired items,
# idle worker polls), no host socket byte counts, no per-instance SUVM
# counters beyond `Suvm::major_faults`, and no `serving_bench` column
# that only counted gauge rows.
if grep -rnE 'ShardSnapshot|shard_stats|shard_count|read_backlogs|tlb_hits|expired_items|rpc_idle_polls|byte_counts|LocalStats|LocalSnapshot|debug_seal_entries|shard_rows' \
        crates/*/src crates/*/tests src examples tests bench/src docs README.md DESIGN.md ; then
    echo "a deleted write-only telemetry name is back (see above)"
    exit 1
fi
# A snapshot is one `kvs-items` section: no engine-metadata section
# beside it, which no restore read, and no engine label or layout blob
# to fill one.
if grep -rnE 'STORAGE_META_SECTION|storage-meta|meta_blob' \
        crates/*/src crates/*/tests src examples tests bench/src docs README.md DESIGN.md ; then
    echo "a deleted snapshot-section name is back (see above)"
    exit 1
fi
# PR 23 brought the first `unsafe` into the tree: the hardware AES /
# CLMUL kernels. It lives in one module; seven crates `forbid` it, and
# this keeps it out of tests and examples too (`-w`: the lint names
# `unsafe_code` / `undocumented_unsafe_blocks` are other words).
if grep -rnw unsafe crates/*/src src tests examples \
    | grep -v '^crates/crypto/src/hw\.rs:' ; then
    echo "unsafe outside crates/crypto/src/hw.rs (see above)"
    exit 1
fi
if git grep -nE 'RUST_MIN_STACK *=' -- . ':!ROADMAP.md' ':!CHANGES.md' ':!ISSUE.md' ; then
    echo "a tracked file sets RUST_MIN_STACK: shrink what is on the stack instead"
    exit 1
fi

echo "== every repo path the docs name in backticks exists"
# One place per fact: a doc points at the file that holds it. A path
# may carry a `::item` or `:line` suffix (dropped) or one `{a,b}` list.
checked=0
for path in $(grep -ohE '`(crates|tests|docs|scripts|bench|examples)/[^` ]*`' docs/*.md DESIGN.md README.md \
        | tr -d '`' | sed -E 's/::.*//; s/:[0-9].*//' | sort -u); do
    case $path in
        *'{'*'}'*)
            prefix=${path%%\{*} rest=${path#*\{}
            suffix=${rest#*\}}
            IFS=, read -ra alts <<< "${rest%%\}*}"
            files=()
            for alt in "${alts[@]}"; do files+=("$prefix$alt$suffix"); done ;;
        *) files=("$path") ;;
    esac
    for f in "${files[@]}"; do
        checked=$((checked + 1))
        if [ ! -e "$f" ]; then
            echo "$f is named in the docs but does not exist" >&2
            exit 1
        fi
    done
done
echo "   $checked paths, all present"

echo "== every back-ticked path::item the docs name is declared in that file"
items=0
for ref in $(grep -ohE '`(crates|tests|docs|scripts|bench|examples)/[^` ]*::[A-Za-z_][A-Za-z0-9_]*`' docs/*.md DESIGN.md README.md \
        | tr -d '`' | sort -u); do
    file=${ref%%::*} item=${ref##*::}
    items=$((items + 1))
    if ! grep -qE "\b(fn|struct|enum|trait|const|mod|type) $item\b" "$file"; then
        echo "$ref is named in the docs but $file declares no $item" >&2
        exit 1
    fi
done
echo "   $items items, all declared"

echo "== build (release)"
cargo build --release --workspace --offline

echo "== tests"
# Built first so the wall time printed is the suites' own: the parent
# number for the next host-time claim.
cargo test --workspace --offline -q --no-run
tests_started=$SECONDS
cargo test --workspace --offline -q
echo "== tests took $((SECONDS - tests_started)) s"

echo "== host ns per memory-model step (timing for the log, never fails the build)"
# The parent numbers for the next host-time claim (ROADMAP N6).
cargo test --release --offline -q -p eleos-enclave --test host_cost -- --ignored --nocapture \
    | grep '^|' || echo "   (the host-cost timing did not run)"

echo "== host us per delta round (timing for the log, never fails the build)"
# One bounded and one whole `Kvs::snapshot_since` on fleet-open's store.
cargo test --release --offline -q --test host_cost -- --ignored --nocapture \
    | grep '^|' || echo "   (the delta-round timing did not run)"

echo "== e2e bench unit tests + smoke run (API surface, metric names)"
cargo test --offline --manifest-path bench/Cargo.toml -q

echo "== e2e kvs-paging guard (a cold record is read in place: only a page re-read at the reuse rate is faulted in, its sub-pages opened as one crypto batch)"
# Exit 0 means the traced run's conservation checks held. A uniformly
# random GET unseals the sub-pages of its record and faults nothing in;
# what is left (0.0026/op) is pages whose last two read-miss gaps fell
# inside twice the reuse window by chance. Judging reuse from one gap
# read 0.031/op here; 1.12 was every GET faulting its own record's
# pages, 1.32 every chain walk a stranger's as well. A GET's
# unseals are one crypto batch, and a serve round bills each key's
# crypto as one: 400 set-up cycles/op (417 while one short gap
# promoted a page), against 698 with a batch per GET and 1 012 when
# each 1 KiB unit paid the full set-up.
cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
    --workload kvs-paging --seed 1 --seconds 2 --trace 1 | tail -n 1 > target/e2e_guard.json
# One number out of the one-line result: `"name": N` or `"name": {"value": N, ...`.
guard_field() {
    sed -nE "s/.*\"$1\": (\{\"value\": )?([0-9.e+-]+).*/\2/p" target/e2e_guard.json
}
attempted=$(guard_field attempted)
failed=$(guard_field failed)
faults=$(guard_field 'core\.major_faults')
setup=$(guard_field 'crypto\.setup_cycles')
: "${attempted:?no attempted count in the guard run}" "${failed:?no failed count}" "${faults:?no core.major_faults}" "${setup:?no crypto.setup_cycles}"
if [ "$failed" != 0 ]; then
    echo "kvs-paging: $failed of $attempted ops failed" >&2
    exit 1
fi
if awk -v f="$faults" 'BEGIN { exit !(f > 0.01) }'; then
    printf 'kvs-paging: %.4f SUVM major faults/op, want <= 0.01\n' "$faults" >&2
    exit 1
fi
if awk -v c="$setup" 'BEGIN { exit !(c > 480) }'; then
    printf 'kvs-paging: %.1f crypto set-up cycles/op, want <= 480\n' "$setup" >&2
    exit 1
fi
printf '   %s ops, 0 failed, %.4f major faults/op, %.1f crypto set-up cycles/op\n' "$attempted" "$faults" "$setup"

echo "== e2e kvs-churn guard (a read item gets a second chance at the LRU tail; memory is allocated on first write, consumed socket-ring pages are released and a dirtied SUVM page drops its stale sealed copy)"
# The one workload whose GETs miss: half its ops are SETs into a pool
# that evicts. Move-on-hit, which second-chance eviction replaced, read
# 0.9585 here; second chance reads 0.9703. Its peak RSS read 74.8 MiB
# while every EPC frame and untrusted page lock was allocated up front,
# 45.3 since both appear on first write, 46.8 before a receive released
# the socket-ring pages it had consumed, 42.9 since (42.7 just before
# the next change; 42.7-43.1 over seeds 1-5), and 41.0 since a dirtied
# SUVM page releases its stale sealed copy (40.9-41.1 over seeds 1-5).
cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
    --workload kvs-churn --seed 1 --seconds 6 | tail -n 1 > target/e2e_guard.json
attempted=$(guard_field attempted)
failed=$(guard_field failed)
hits=$(guard_field get_hit_ratio)
rss=$(guard_field host_peak_rss_mb)
: "${attempted:?no attempted count in the guard run}" "${failed:?no failed count}" "${hits:?no get_hit_ratio}" "${rss:?no host_peak_rss_mb}"
if [ "$failed" != 0 ]; then
    echo "kvs-churn: $failed of $attempted ops failed" >&2
    exit 1
fi
if awk -v h="$hits" 'BEGIN { exit !(h < 0.965) }'; then
    printf 'kvs-churn: GET hit ratio %.4f, want >= 0.965\n' "$hits" >&2
    exit 1
fi
if awk -v r="$rss" 'BEGIN { exit !(r > 42) }'; then
    printf 'kvs-churn: peak RSS %.1f MiB, want <= 42\n' "$rss" >&2
    exit 1
fi
printf '   %s ops, 0 failed, GET hit ratio %.4f, peak RSS %.1f MiB\n' "$attempted" "$hits" "$rss"

echo "== param_server guard (an update's value read and write go through the cursor that read its key)"
# The eleos row of the example: an update's value read at reuse
# distance 1 used to fault in the page its key read had just bypassed
# (8 920 SUVM faults); through one cursor per key it read 611, and 78
# since a page needs two short read-miss gaps to be faulted in. The
# example repeats byte for byte.
cargo run --release --offline --quiet --example param_server > target/param_server.txt
ps_faults=$(sed -nE 's/^eleos .*suvm faults +([0-9]+).*/\1/p' target/param_server.txt)
: "${ps_faults:?no eleos row in the param_server output}"
if [ "$ps_faults" -gt 200 ]; then
    echo "param_server: $ps_faults SUVM faults on the eleos row, want <= 200" >&2
    exit 1
fi
echo "   eleos row: $ps_faults SUVM faults"

echo "== e2e fleet-open latency guard (a reap takes what each socket queues; each socket has an RPC lane of its own; memory is allocated on first write and consumed socket-ring and channel pages are released)"
# The open-loop workload: a request queued behind another on its shard
# is reaped with it, not a replica pump later. Seed 7 reads reply p50
# 22 260 cycles and peak RSS 5.96-6.11 MiB over four runs.
cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
    --workload fleet-open --seed 7 --seconds 6 | tail -n 1 > target/e2e_guard.json
attempted=$(guard_field attempted)
failed=$(guard_field failed)
p50=$(guard_field reply_p50_cycles)
rss=$(guard_field host_peak_rss_mb)
: "${attempted:?no attempted count in the guard run}" "${failed:?no failed count}" "${p50:?no reply_p50_cycles}" "${rss:?no host_peak_rss_mb}"
if [ "$failed" != 0 ]; then
    echo "fleet-open: $failed of $attempted ops failed" >&2
    exit 1
fi
if awk -v p="$p50" 'BEGIN { exit !(p > 23000) }'; then
    printf 'fleet-open: reply p50 %s cycles, want <= 23000\n' "$p50" >&2
    exit 1
fi
if awk -v r="$rss" 'BEGIN { exit !(r > 7) }'; then
    printf 'fleet-open: peak RSS %.1f MiB, want <= 7\n' "$rss" >&2
    exit 1
fi
printf '   %s ops, 0 failed, reply p50 %s cycles, peak RSS %.1f MiB\n' "$attempted" "$p50" "$rss"

echo "== e2e determinism on every workload (no CAT: a lane racing the serving thread would move the cycles)"
# The RPC ring is one timeline: a lane copies the next batch in while
# the enclave serves, transmits while it decrypts, and on fleet-open
# (two shards per replica, a lane each, no CAT) copies one shard's run
# while the enclave serves the other. That overlap is modelled, not
# raced, so two runs of one seed must agree exactly.
det_fields() {
    for f in sim_cycles_per_op reply_p50_cycles reply_p99_cycles; do
        sed -nE "s/.*\"$f\": (\{\"value\": )?([0-9.e+-]+).*/$f \2/p" "$1"
    done
}
for workload in kvs-resident kvs-paging kvs-churn fleet-open; do
    for run in 1 2; do
        cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
            --workload "$workload" --seed 7 --seconds 1 | tail -n 1 > "target/e2e_det_$run.json"
    done
    first=$(det_fields target/e2e_det_1.json)
    second=$(det_fields target/e2e_det_2.json)
    if [ "$(printf '%s\n' "$first" | wc -l)" != 3 ] || [ "$first" != "$second" ]; then
        printf '%s seed 7 did not repeat:\n%s\nvs\n%s\n' "$workload" "$first" "$second" >&2
        exit 1
    fi
    printf '%s\n' "$first" | sed "s/^/   $workload /"
done

echo "== golden results (every e2e and repro simulated value equals scripts/golden/)"
# The seed-7 double runs above catch non-determinism inside one build;
# this catches a value that moved between commits and still repeats. A
# change that moves one rewrites the files (`scripts/golden.sh --write`)
# and commits them: their diff is the old → new list.
scripts/golden.sh

echo "== rpc_bench smoke (exits non-zero unless every batched depth beats call(), the cost falls through depth 16 and stays within 5% of its minimum past it)"
cargo run --release -p eleos-bench --bin repro --offline -- rpc_bench --quick --scale 16

echo "== crypto_bench smoke (exits non-zero unless every (server, workers) series is monotone in batch depth)"
cargo run --release -p eleos-bench --bin repro --offline -- crypto_bench --quick --scale 16

echo "== storage_bench smoke (exits non-zero unless its header claims hold on all 9 cells)"
cargo run --release -p eleos-bench --bin repro --offline -- storage_bench --quick --scale 8

echo "== serving_bench smoke (exits non-zero unless its header claims hold on all 47 cells)"
# Both scales: the `kill-respawn-bg` p99 claim (at least 2x below the
# synchronous fence's) reads 147 456 against 524 288 (3.6x) at 1/8 and
# 180 224 (2.9x) at 1/16, the same in every run.
cargo run --release -p eleos-bench --bin repro --offline -- serving_bench --quick --scale 8
cargo run --release -p eleos-bench --bin repro --offline -- serving_bench --quick --scale 16

echo "== repro determinism on four RPC lanes (no CAT: one host thread runs every lane)"
# `serving_bench` serves up to four sockets on four lanes; two runs of
# it must print the same cells, once the wall-clock line is dropped.
for run in 1 2; do
    cargo run --release -p eleos-bench --bin repro --offline --quiet -- serving_bench --quick --scale 16 \
        | grep -v ' took ' > "target/repro_det_$run.txt"
done
if ! diff target/repro_det_1.txt target/repro_det_2.txt; then
    echo "serving_bench --quick --scale 16 did not repeat (see above)" >&2
    exit 1
fi
echo "   serving_bench: $(wc -l < target/repro_det_1.txt) lines, identical"

echo "== fmt"
cargo fmt --all --check

echo "== clippy"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -p 'eleos*'

echo "CI OK"
