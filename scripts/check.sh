#!/usr/bin/env sh
# Repo-wide hygiene gate: formatting, lints, docs, build, tests.
#
# Always: cargo fmt --check, clippy -D warnings, rustdoc -D warnings
# (intra-doc links across the workspace: a rename must not leave a
# dangling [`link`]), release build, the whole test suite, then release
# reruns of the thread-timing-sensitive gates (profile_feedback,
# profile_props, schedule_props, golden_digests, ps_goldens). The simulator's
# driver lives in crates/sim/src/driver/ (one file per concern, its
# unit tests in driver/tests.rs); tests/golden_digests.rs pins its
# bytes across commits.
#
# Usage: scripts/check.sh [--bench-smoke] [--bench]
#   --bench-smoke  additionally run the simulator coalesced-pass and
#                  open-loop-admission acceptance gates and the PS
#                  sparse-wire and live-migration gates at tiny scale,
#                  the PS steady-state allocation audit (counting
#                  global allocator, `alloc-count` feature), and
#                  build, smoke-run and test the standalone benchmark
#                  package (benchmark/, the BENCHMARK.json gate): it
#                  binds to the crates' public API from outside the
#                  workspace, so only this step notices a change that
#                  stops it compiling.
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
# thread-count independence and the pinned digests must hold there too.
echo "==> Algorithm 1 scan determinism gates (release)"
cargo test --release -q -p harmony-core --test schedule_props
cargo test --release -q -p harmony --test golden_digests
# The PS runtime's executor threads race at release speed too; its
# pinned model and loss digests must hold under either build.
echo "==> PS training digests (release)"
cargo test --release -q -p harmony --test ps_goldens

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
