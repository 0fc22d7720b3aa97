#!/usr/bin/env bash
# Full local gate: release build, tests, lints, formatting.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (default-members: the whole workspace)"
cargo test -q

echo "==> serve smoke (one request per endpoint over TCP)"
cargo run --release -p atnn-serve --bin atnn_serve -- --scale tiny --smoke

echo "==> serve-shard-smoke (scatter-gather across 3 shards, hot swap, clean shutdown)"
cargo run --release -p atnn-serve --bin atnn_serve -- --scale tiny --smoke --shards 3 --event-threads 2

echo "==> loadgen smoke (512 connections must clear 2x the pre-event-loop baseline)"
cargo run --release -p atnn-bench --bin serve_loadgen -- --smoke

echo "==> allocation budget (steady-state train step, counting allocator)"
cargo test --release -q -p atnn-core --test alloc_budget

echo "==> gemm smoke (tiled kernel must beat naive at 256^3; fast-math must not trail avx2)"
cargo run --release -p atnn-bench --bin gemm_bench -- --smoke

echo "==> backend-matrix (kernel + autograd suites under each bit-identical backend)"
# fastmath is deliberately absent here: it trades bit-identity for FMA
# throughput, so the bit-exactness suites would fail under it by design.
# Its tolerance contract is pinned by the backend_parity suite below.
ATNN_BACKEND=scalar cargo test --release -q -p atnn-tensor -p atnn-autograd
ATNN_BACKEND=avx2 cargo test --release -q -p atnn-tensor -p atnn-autograd
cargo test --release -q -p atnn-tensor --test backend_parity

echo "==> ann smoke (recall@10 >= 0.95 at default nprobe, full probe bit-identical)"
cargo run --release -p atnn-bench --bin ann_bench -- --smoke

echo "==> quant smoke (int8 tables >= 3.5x smaller at dim 64, same-probe recall@10 >= 0.99)"
cargo run --release -p atnn-bench --bin quant_bench -- --smoke

echo "==> quant-serve smoke (int8 snapshot round-trip through every endpoint + hot swap)"
cargo run --release -p atnn-serve --bin atnn_serve -- --scale tiny --smoke --quantized

echo "==> publish smoke (1% delta republish at 100k rows >= 5x full, delta bit-exact)"
cargo run --release -p atnn-bench --bin publish_bench -- --smoke

echo "==> benchmark tests (the package pins the public API of tensor/ann/serve/core from outside)"
# --release so the dependency build is shared with the smoke run below.
cargo test --release -q --manifest-path benchmark/Cargo.toml

echo "==> benchmark smoke (all four workloads at 1/20 duration, every reply checked by the oracle)"
# One retry: besides correctness the smoke fails a run whose load generator
# fell behind its send schedule, which a busy 2-CPU box does now and then.
benchmark/run.sh --smoke || benchmark/run.sh --smoke

echo "==> obs smoke (train one epoch with a JsonlSink, replay the event stream)"
cargo run --release --example obs_smoke

echo "==> cargo doc -p atnn-obs -p atnn-ann (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q -p atnn-obs -p atnn-ann

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "All checks passed."
