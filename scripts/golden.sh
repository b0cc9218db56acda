#!/usr/bin/env bash
# Golden results: every simulated value the e2e benchmark and the
# deterministic `repro` targets print, regenerated and diffed against
# the files committed in scripts/golden/. A change that claims "no
# simulated value moved" must leave the diff empty; a change that moves
# one commits the regenerated files, and their git diff is the old → new
# list. Host fields (`host_*`, `setup_s`, wall-clock `took` lines, the
# trace overhead) are never written: they differ from run to run.
#
#   scripts/golden.sh            regenerate into target/golden and diff
#   scripts/golden.sh --write    regenerate into scripts/golden
#
# Run from anywhere; it builds what it runs (release, offline).
set -euo pipefail
cd "$(dirname "$0")/.."

golden=scripts/golden
out=target/golden
case "${1:-}" in
    --write) out=$golden ;;
    '') ;;
    *) echo "usage: $0 [--write]" >&2; exit 2 ;;
esac
mkdir -p "$out"

e2e() {
    cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- "$@"
}
repro() {
    cargo run --release --offline --quiet -p eleos-bench --bin repro -- "$@" | grep -v ' took '
}

# One row per workload and seed: the e2e result line's deterministic
# fields, as printed (`"name": N` or `"name": {"value": N, ...`).
fields=(attempted failed sim_cycles_per_op reply_p50_cycles reply_p99_cycles get_hit_ratio)
{
    printf 'workload\tseed'
    printf '\t%s' "${fields[@]}"
    printf '\n'
    for workload in kvs-resident kvs-paging kvs-churn fleet-open; do
        for seed in 1 2 3; do
            result=$(e2e --workload "$workload" --seed "$seed" --seconds 6 | tail -n 1)
            printf '%s\t%s' "$workload" "$seed"
            for f in "${fields[@]}"; do
                v=$(sed -nE "s/.*\"$f\": (\{\"value\": )?([0-9.e+-]+).*/\2/p" <<< "$result")
                printf '\t%s' "${v:?no $f in the $workload seed $seed result}"
            done
            printf '\n'
        done
    done
} > "$out/e2e.tsv"

# The per-layer metrics of a traced run, minus the host-time ones. The
# run exits non-zero if its cycle-conservation checks fail.
for workload in kvs-paging kvs-churn; do
    e2e --workload "$workload" --seed 1 --seconds 2 --trace 1 \
        | grep -vE '^[#{]' | grep -vE 'host|setup_s|trace_overhead' > "$out/trace-$workload.txt"
done

{
    repro costs table1 fig2a fig6a fig6b fig8a table3 fig11 ablate_clean --scale 16
    repro serving_bench --quick --scale 16
} > "$out/repro.txt"

if [ "$out" = "$golden" ]; then
    echo "   wrote $(ls "$golden" | wc -l) files to $golden"
    exit 0
fi
if ! diff -ru "$golden" "$out"; then
    echo "a simulated value moved (see the diff above; scripts/golden.sh --write records it)" >&2
    exit 1
fi
echo "   $(cat "$golden"/* | wc -l) lines, identical"
