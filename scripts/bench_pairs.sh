#!/usr/bin/env sh
# The pair protocol behind every speed claim (choosing-metrics §8):
# alternating parent/change runs of the benchmark, one workload and one
# seed at a time, summarized per end-to-end metric.
#
# Usage: scripts/bench_pairs.sh <parent-ref> [--pairs N] [--first-seed F]
#                              [--seconds S] [--metric M]
#                              [--traced M1,M2,...] [workload...]
#
#   <parent-ref>  the commit to compare the working tree against. Its
#                 files are unpacked (git archive) under
#                 target/pairs/parent-<sha>/ — no worktree bookkeeping
#                 is left in .git.
#   --pairs N     pairs per workload (default 10)
#   --first-seed F
#                 seeds F..F+N-1 (default 1); a claim made on seeds
#                 1..10 is re-checked on fresh ones with --first-seed 11
#   --seconds S   timed seconds per run (default: run_seconds in
#                 BENCHMARK.json)
#   --metric M    after the summary, one `seed  parent → change  ratio`
#                 row per seed of end-to-end metric M, per workload: a
#                 single disturbed seed can decide a median, and these
#                 rows show which one did
#   --traced M1,M2,...
#                 after the pairs, one `--trace 1` run per side and
#                 workload at seed 1, printed as `metric  parent → change`
#                 for each named per-layer metric (choosing-metrics §6.6:
#                 where the saving appears, and the counts that repeat)
#   workload...   default: every workload BENCHMARK.json names
#
# Both benchmark/ packages are built --offline into their own
# CARGO_TARGET_DIR under target/pairs/. Each run is
# `run --workload W --seed i --seconds S --trace 0`, as the gate starts
# it, from inside its own tree; odd seeds run the parent first, even
# seeds the change. Every value lands in target/pairs/results.tsv
# (workload, seed, side, metric, value); the summary prints, per
# workload and end-to-end metric, each side's median and quartiles
# (linear interpolation between order statistics), the ratio of the
# medians, the pairs the change won (ties count for neither side), and
# on how many seeds `canonical_digest` matched, with each side's
# failed/attempted totals. A run whose checks fail is reported and still
# counted.
#
# The digest hashes the report's fingerprint, so it also differs when
# only the fingerprint's format changed. The line after it says on how
# many seeds `mean_jct_s`, `makespan_s` and `cpu_util` were bit-equal
# (the benchmark prints every digit a float needs): on the sim_*
# workloads these are simulated outputs, so N of N there shows the
# simulation itself did not move; on the ps_* workloads they are host
# timings and differ run to run.
set -eu

cd "$(dirname "$0")/.."
ROOT=$(pwd)

[ $# -ge 1 ] || { sed -n '2,10p' "$0" >&2; exit 2; }
PARENT_REF=$1
shift
PAIRS=10
FIRST_SEED=1
SECONDS_PER_RUN=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
WORKLOADS=""
TRACED=""
METRIC=""
while [ $# -gt 0 ]; do
    case "$1" in
        --pairs) PAIRS=$2; shift 2 ;;
        --first-seed) FIRST_SEED=$2; shift 2 ;;
        --seconds) SECONDS_PER_RUN=$2; shift 2 ;;
        --traced) TRACED=$2; shift 2 ;;
        --metric) METRIC=$2; shift 2 ;;
        --*) echo "unknown option: $1" >&2; exit 2 ;;
        *) WORKLOADS="$WORKLOADS $1"; shift ;;
    esac
done
if [ -z "$WORKLOADS" ]; then
    WORKLOADS=$(awk '/"workloads"/ {on = 1} /"end_to_end"/ {on = 0}
        on && /"name"/ {gsub(/[",]/, ""); print $2}' BENCHMARK.json)
fi
# "name direction" per end-to-end metric, as BENCHMARK.json declares them.
METRICS=$(awk '/"end_to_end"/ {on = 1} /"per_layer"/ {on = 0}
    on && /"name"/ {gsub(/[",]/, ""); name = $2}
    on && /"better"/ {gsub(/[",]/, ""); print name, $2}' BENCHMARK.json)

SHA=$(git rev-parse --verify "$PARENT_REF^{commit}")
PAIR_DIR=$ROOT/target/pairs
PARENT_TREE=$PAIR_DIR/parent-$SHA
if [ ! -d "$PARENT_TREE" ]; then
    mkdir -p "$PARENT_TREE"
    git archive "$SHA" | tar -x -C "$PARENT_TREE"
fi

echo "==> building parent ($SHA) and change (working tree)" >&2
CARGO_TARGET_DIR=$PAIR_DIR/parent-target cargo build --release --quiet --offline \
    --manifest-path "$PARENT_TREE/benchmark/Cargo.toml"
CARGO_TARGET_DIR=$PAIR_DIR/change-target cargo build --release --quiet --offline \
    --manifest-path "$ROOT/benchmark/Cargo.toml"

RESULTS=$PAIR_DIR/results.tsv
: > "$RESULTS"

# one_run <side> <tree> <workload> <seed>: appends the run's metrics
# and digest to $RESULTS.
one_run() {
    out=$(cd "$2" && "$PAIR_DIR/$1-target/release/harmony-benchmark" run \
        --workload "$3" --seed "$4" --seconds "$SECONDS_PER_RUN" --trace 0) ||
        echo "    $1 run of $3 seed $4 exited non-zero (a check failed)" >&2
    printf '%s\n' "$out" | tail -n 1 | tr ',{' '\n\n' |
        awk -v row="$3	$4	$1" '
            /^ *"[a-z_]+": *$/ { name = $0; gsub(/[ ":]/, "", name); next }
            /^ *"(value|attempted|failed)":/ {
                if ($1 != "\"value\":") { name = $1; gsub(/[":]/, "", name) }
                print row "\t" name "\t" $2
            }' >> "$RESULTS"
    digest=$(printf '%s\n' "$out" | awk '$1 == "canonical_digest" {print $2; exit}')
    printf '%s\t%s\t%s\tcanonical_digest\t%s\n' "$3" "$4" "$1" "$digest" >> "$RESULTS"
}

for w in $WORKLOADS; do
    seed=$FIRST_SEED
    while [ "$seed" -lt $((FIRST_SEED + PAIRS)) ]; do
        echo "==> $w pair $((seed - FIRST_SEED + 1))/$PAIRS, seed $seed" >&2
        if [ $((seed % 2)) -eq 1 ]; then
            one_run parent "$PARENT_TREE" "$w" "$seed"
            one_run change "$ROOT" "$w" "$seed"
        else
            one_run change "$ROOT" "$w" "$seed"
            one_run parent "$PARENT_TREE" "$w" "$seed"
        fi
        seed=$((seed + 1))
    done
done

echo "parent $SHA vs working tree: $PAIRS pairs (seeds $FIRST_SEED..$((FIRST_SEED + PAIRS - 1))), $SECONDS_PER_RUN s per run, $(nproc) cores"
printf '%s\n' "$METRICS" | awk -F'\t' -v workloads="$WORKLOADS" '
    function quantile(v, n, q,    pos, lo) {
        pos = (n - 1) * q + 1; lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    # Sorts the values of one (workload, metric, side) and sets med/q1/q3.
    function summarize(key, n,    i, j, t, v) {
        for (i = 1; i <= n; i++) v[i] = val[key, i]
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        med = quantile(v, n, 0.5); q1 = quantile(v, n, 0.25); q3 = quantile(v, n, 0.75)
    }
    NR == FNR { split($0, f, " "); order[++nm] = f[1]; better[f[1]] = f[2]; next }
    $4 == "canonical_digest" { digest[$1, $2, $3] = $5; seeds[$1, $2] = 1; next }
    { k = $1 SUBSEP $4 SUBSEP $3; val[k, ++cnt[k]] = $5; at[$1, $4, $3, $2] = $5; seeds[$1, $2] = 1 }
    END {
        sides["parent"]; sides["change"]
        ne = split("mean_jct_s makespan_s cpu_util", exact, " ")
        nw = split(workloads, ws, " ")
        for (wi = 1; wi <= nw; wi++) {
            w = ws[wi]; same = 0; total = 0
            for (key in seeds) {
                split(key, p, SUBSEP)
                if (p[1] != w) continue
                total++
                if (digest[w, p[2], "parent"] != "" && digest[w, p[2], "parent"] == digest[w, p[2], "change"]) same++
                for (side in sides) { failed[side] += at[w, "failed", side, p[2]]; tried[side] += at[w, "attempted", side, p[2]] }
            }
            printf "\n%s — canonical_digest identical on %d of %d seeds; failed/attempted parent %d/%d, change %d/%d\n",
                w, same, total, failed["parent"], tried["parent"], failed["change"], tried["change"]
            delete failed; delete tried
            printf "  bit-equal on"
            for (ei = 1; ei <= ne; ei++) {
                m = exact[ei]; equal = 0
                for (key in seeds) {
                    split(key, p, SUBSEP)
                    if (p[1] != w) continue
                    a = at[w, m, "parent", p[2]] ""; b = at[w, m, "change", p[2]] ""
                    if (a != "" && a == b) equal++
                }
                printf "%s %s %d of %d seeds", (ei > 1 ? ";" : ""), m, equal, total
            }
            printf "\n"
            printf "  %-16s %-38s %-38s %7s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "ratio", "pairs won"
            for (mi = 1; mi <= nm; mi++) {
                m = order[mi]; won = 0; lost = 0
                for (key in seeds) {
                    split(key, p, SUBSEP)
                    if (p[1] != w) continue
                    a = at[w, m, "parent", p[2]] + 0; b = at[w, m, "change", p[2]] + 0
                    if (better[m] == "lower") { t = a; a = b; b = t }
                    if (b > a) won++; else if (b < a) lost++
                }
                summarize(w SUBSEP m SUBSEP "parent", cnt[w, m, "parent"]); pm = med; pq1 = q1; pq3 = q3
                summarize(w SUBSEP m SUBSEP "change", cnt[w, m, "change"])
                printf "  %-16s %-38s %-38s %7s  %d/%d (lost %d; %s is better)\n", m,
                    sprintf("%.6g [%.6g, %.6g]", pm, pq1, pq3), sprintf("%.6g [%.6g, %.6g]", med, q1, q3),
                    pm != 0 ? sprintf("x%.3f", med / pm) : "-", won, total, lost, better[m]
            }
        }
    }' - "$RESULTS"

if [ -n "$METRIC" ]; then
    for w in $WORKLOADS; do
        printf '\n%s — %s per seed\n' "$w" "$METRIC"
        awk -F'\t' -v w="$w" -v m="$METRIC" -v first="$FIRST_SEED" -v pairs="$PAIRS" '
            $1 == w && $4 == m { v[$2, $3] = $5 }
            END {
                for (seed = first; seed < first + pairs; seed++) {
                    if (!((seed, "parent") in v) || !((seed, "change") in v)) {
                        printf "  %4d  no value\n", seed
                        continue
                    }
                    a = v[seed, "parent"]; b = v[seed, "change"]
                    printf "  %4d  %.6g → %.6g  %s\n", seed, a, b, a != 0 ? sprintf("x%.3f", b / a) : "-"
                }
            }' "$RESULTS"
    done
fi

[ -n "$TRACED" ] || exit 0

# traced_run <side> <tree> <workload>: one traced run at seed 1; its
# rows are `  <metric> <value> <unit> ...`.
traced_run() {
    (cd "$2" && "$PAIR_DIR/$1-target/release/harmony-benchmark" run \
        --workload "$3" --seed 1 --seconds "$SECONDS_PER_RUN" --trace 1) ||
        echo "    $1 traced run of $3 exited non-zero (a check failed)" >&2
}

for w in $WORKLOADS; do
    echo "==> $w traced" >&2
    traced_run parent "$PARENT_TREE" "$w" > "$PAIR_DIR/traced-parent.txt"
    traced_run change "$ROOT" "$w" > "$PAIR_DIR/traced-change.txt"
    printf '\n%s — traced, seed 1, %s s\n' "$w" "$SECONDS_PER_RUN"
    awk -v names="$TRACED" '
        function plain(v) { if (v ~ /\./) { sub(/0+$/, "", v); sub(/\.$/, "", v) } return v }
        NR == FNR { parent[$1] = $2; next }
        { change[$1] = $2; unit[$1] = $3 }
        END {
            n = split(names, m, ",")
            for (i = 1; i <= n; i++)
                if (m[i] in change || m[i] in parent)
                    printf "  %-32s %s → %s %s\n", m[i], plain(parent[m[i]]), plain(change[m[i]]), unit[m[i]]
                else
                    printf "  %-32s not a metric of this benchmark\n", m[i]
        }' "$PAIR_DIR/traced-parent.txt" "$PAIR_DIR/traced-change.txt"
done
