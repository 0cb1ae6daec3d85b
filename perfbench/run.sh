#!/usr/bin/env bash
# Builds the benchmark package from source and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Cargo's output goes to standard error, so
# the result object stays the last line of standard output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/perfbench" "$@"
