#!/usr/bin/env sh
# Repo-wide hygiene gate: formatting, lints, docs, build, tests.
#
# Always: cargo fmt --check, clippy -D warnings, rustdoc -D warnings
# (intra-doc links across the workspace: a rename must not leave a
# dangling [`link`]), release build, a `cargo check` of the standalone
# benchmark/ package (it binds to the crates' public API from outside
# the workspace, so a public-API deletion that breaks it must fail
# here, not only under --bench-smoke), the whole test suite, then release
# reruns of the thread-timing-sensitive gates (profile_feedback,
# profile_props, schedule_props, regroup_props, golden_digests,
# scheduler_integration — the 2000-job sparse-mode quality and
# decision-time bounds — ps_goldens, the harmony-ps suite, the
# subtask-discipline tests, ps_training), the keyed-noise table spec
# and the group-advance order test. The simulator's
# driver lives in crates/sim/src/driver/ (one file per concern, its
# unit tests in driver/tests.rs); tests/golden_digests.rs pins its
# bytes across commits.
#
# Usage: scripts/check.sh [--bench-smoke] [--bench]
#   --bench-smoke  additionally run the simulator coalesced-pass and
#                  open-loop-admission acceptance gates and the PS
#                  sparse-wire and live-migration gates at tiny scale,
#                  the PS steady-state allocation audit (counting
#                  global allocator, `alloc-count` feature), one run
#                  each of the fig14_vs_oracle (the exact oracle at 10
#                  jobs), fig10_main_comparison (the Fig. 10 table
#                  and Harmony's seed sweep), ablation_techniques
#                  (the §V-C table and its seed sweep) and
#                  microbench_reload (the §V-G row: adaptive α against
#                  the fixed-α sweep on one pinned group) experiment
#                  binaries, and build, smoke-run and
#                  test the standalone benchmark package (benchmark/,
#                  the BENCHMARK.json gate).
#   --bench        additionally run the regression gate: a full
#                  benchmark set (3 runs per workload, seeds 1..3,
#                  about 6 minutes) compared against the committed
#                  benchmark/baselines/run-a.json by the bounds in
#                  BENCHMARK.json. `compare` exits 1 on any REGRESSION
#                  or MORE FAILURES row, and so does this script.
set -eu

cd "$(dirname "$0")/.."

BENCH_SMOKE=0
BENCH=0
for arg in "$@"; do
    case "$arg" in
        --bench-smoke) BENCH_SMOKE=1 ;;
        --bench) BENCH=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo check benchmark/ (public-API consumer outside the workspace)"
cargo check --manifest-path benchmark/Cargo.toml

echo "==> cargo test"
cargo test --workspace --quiet

# The closed-loop profiling suites run again in release mode: the
# virtual-clock determinism gate replays a real multi-threaded
# training run and must be bit-identical under release scheduling
# jitter too, and the Eq. 2 property tests are cheap enough to rerun.
echo "==> closed-loop profiling determinism gate (virtual clock, release)"
cargo test --release -q -p harmony --test profile_feedback
echo "==> Eq. 2 normalization property tests (release)"
cargo test --release -q -p harmony-core --test profile_props
# The scan's helper threads interleave differently at release speed;
# thread-count independence and the pinned digests must hold there too
# (regroup_props pins the regrouper's decisions and drives the helpers
# through warm cache/scratch pairs). scheduler_integration holds the
# sparse scan at 2000 jobs to >= 0.95x its pinned score and < 5 s a
# decision, at the speed the bound is stated for.
echo "==> Algorithm 1 scan determinism gates (release)"
cargo test --release -q -p harmony-core --test schedule_props
cargo test --release -q -p harmony-core --test regroup_props
cargo test --release -q -p harmony --test golden_digests
cargo test --release -q -p harmony --test scheduler_integration
# Keyed straggler noise: the tables' spec (10^6 keys per cell against
# the exact quantile, release only) and the group-advance order test
# (every golden scenario with each round of group advances reversed).
echo "==> keyed noise tables and group-advance order independence (release)"
cargo test --release -q -p harmony-sim --lib noise::tests::tables_match_the_exact_quantile
cargo test --release -q -p harmony-sim --lib driver::tests::group_clocks
# The PS runtime's slot threads race at release speed too; its
# pinned model and loss digests, its node executors' slot bounds and
# the subtask discipline they run must hold under either build.
echo "==> PS training digests, node executors and subtask discipline (release)"
cargo test --release -q -p harmony --test ps_goldens
cargo test --release -q -p harmony-ps
cargo test --release -q -p harmony-core discipline
cargo test --release -q -p harmony --test ps_training

if [ "$BENCH_SMOKE" = 1 ]; then
    echo "==> coalesced-pass acceptance gate (1% JCT/utilization bound + flag-off bit-identity)"
    cargo test --release -q -p harmony --test coalesce_acceptance

    echo "==> open-loop admission acceptance gate (capture byte-identity + churn matrix + admission books)"
    cargo test --release -q -p harmony --test open_loop_acceptance

    echo "==> PS sparse-wire smoke (smaller wire on sparse workloads; ps_goldens holds its bits)"
    cargo test --release -q -p harmony --test ps_equivalence \
        sparse_push_shrinks_the_wire_on_sparse_workloads

    echo "==> live-migration equivalence smoke (migrate == checkpoint/restart bytes)"
    cargo test --release -q -p harmony --test migration_equivalence \
        tiny_scale_migration_matches_restart

    echo "==> PS steady-state allocation audit (alloc-count)"
    cargo test --release -q -p harmony --features alloc-count --test ps_alloc

    echo "==> Figure 14 vs the exact oracle (experiment binary, release)"
    cargo run --release -q -p harmony-bench --bin fig14_vs_oracle >/dev/null

    echo "==> Figure 10 main comparison and seed sweep (experiment binary, release)"
    cargo run --release -q -p harmony-bench --bin fig10_main_comparison >/dev/null

    echo "==> §V-C technique ablation and seed sweep (experiment binary, release)"
    cargo run --release -q -p harmony-bench --bin ablation_techniques >/dev/null

    echo "==> §V-G dynamic reloading micro-benchmark (experiment binary, release)"
    cargo run --release -q -p harmony-bench --bin microbench_reload >/dev/null

    echo "==> benchmark package (BENCHMARK.json gate: smoke run + its tests)"
    cargo run --release -q --manifest-path benchmark/Cargo.toml -- run --smoke >/dev/null
    cargo test --release -q --manifest-path benchmark/Cargo.toml
fi

if [ "$BENCH" = 1 ]; then
    echo "==> benchmark regression gate (3 runs per workload vs benchmark/baselines/run-a.json)"
    mkdir -p target
    cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- \
        run --seed 1 --runs 3 --out target/bench_gate.json
    cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- \
        compare benchmark/baselines/run-a.json target/bench_gate.json
fi

echo "All checks passed."
