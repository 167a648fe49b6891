#!/usr/bin/env sh
# Where one benchmark workload spends its CPU: builds the benchmark with
# debug info, runs the workload under gprofng's clock profiler, and
# prints the hottest functions and source lines.
#
# Usage: scripts/profile.sh <workload> [--seed N] [--seconds S]
#
#   <workload>   a workload BENCHMARK.json names, e.g. sim_batch_exact
#   --seed N     workload seed (default 1)
#   --seconds S  timed seconds of the run (default 30; the benchmark
#                accepts at most 60)
#
# Clock sampling is coarse: a 30 s run on a 2-core box yields only about
# 300 samples, so a row under 1 % is a handful of samples and may come
# and go between runs. Keep runs at 30 s or longer, and compare shares
# between profiles of equal length rather than ranks.
#
# What it cannot see. Where the kernel refuses the collector's interval
# timer (as on the 2-core VM the profiles in DESIGN.md were taken on),
# the experiment header warns "Collection interval timer period was
# changed (10007 -> 0); profile data may be unreliable", and then only
# the main thread is sampled, at about a tenth of the nominal 100 Hz: a
# 30 s sim_long_jobs run yields about 3 s of sampled CPU. Every other
# thread is invisible — the PS runtime's executor threads, where its
# COMP and APPLY subtasks run, and Algorithm 1's scan helpers — so a
# share of CPU samples is a share of the main thread's time, and the
# PS runtime is attributed by the per-layer rows of
# `scripts/bench_pairs.sh --traced` (ps.subtask.*,
# ps.runtime.overhead_frac, ps.executor.cpu_idle_frac), not by
# profiles. The script prints the collector's warnings and the sampled
# threads before the tables, so each profile says which case it is.
#
# The benchmark package is built --offline with
# CARGO_PROFILE_RELEASE_DEBUG=true into its own CARGO_TARGET_DIR,
# target/profile/, so the optimized build the pair script measures is
# left alone. The run is `run --workload W --seed N --seconds S
# --trace 0`, as the gate starts it; the experiment is kept at
# target/profile/<workload>-seed<N>.er for further `gprofng display
# text` queries (e.g. `-fsingle <function> -callers-callees`).
# Needs gprofng (GNU binutils 2.39 or later).
set -eu

cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,11p' "$0" >&2; exit 2; }
WORKLOAD=$1
shift
SEED=1
SECONDS_PER_RUN=30
while [ $# -gt 0 ]; do
    case "$1" in
        --seed) SEED=$2; shift 2 ;;
        --seconds) SECONDS_PER_RUN=$2; shift 2 ;;
        *) echo "unknown argument: $1" >&2; exit 2 ;;
    esac
done
command -v gprofng >/dev/null || { echo "gprofng not found" >&2; exit 2; }

OUT=$(pwd)/target/profile
mkdir -p "$OUT"
echo "==> building the benchmark with debug info into $OUT" >&2
CARGO_PROFILE_RELEASE_DEBUG=true CARGO_TARGET_DIR=$OUT \
    cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml

EXP=$OUT/$WORKLOAD-seed$SEED.er
echo "==> profiling $WORKLOAD, seed $SEED, $SECONDS_PER_RUN s" >&2
gprofng collect app -O "$EXP" "$OUT/release/harmony-benchmark" \
    run --workload "$WORKLOAD" --seed "$SEED" --seconds "$SECONDS_PER_RUN" \
    --trace 0 >/dev/null

# The collector's warnings and errors, then CPU time per sampled thread.
gprofng display text -header "$EXP" | grep -i -e warning -e error || true
gprofng display text -threads "$EXP"

# Exclusive and inclusive CPU, hottest exclusive first.
gprofng display text -metrics e.%totalcpu:i.%totalcpu -sort e.totalcpu \
    -limit 40 -functions -lines "$EXP"
