#!/usr/bin/env bash
# Builds the benchmark (release) and forwards every argument to it, from
# the repository root — the directory BENCHMARK.json's command assumes.
#
#   benchmark/run.sh --workload point_score --seed 1 --seconds 10 --trace 0
#   benchmark/run.sh --repeat 10 --out benchmark/results/mine.json
#   benchmark/run.sh --compare benchmark/results/reference.json benchmark/results/mine.json
#   benchmark/run.sh --smoke
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"
