#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments; README.md
# beside this file lists them. With none it runs every workload, untraced
# and traced, each in a fresh process.
#
# The build goes to $CARGO_TARGET_DIR, or target/benchmark, which the
# repository's .gitignore already covers. Its output goes to stderr so
# that a run's last line of stdout is its result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --quiet --locked --offline \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/spfactor-benchmark" "$@"
