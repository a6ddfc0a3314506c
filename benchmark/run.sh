#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it; see README.md.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1   one run; the last
#                                                          stdout line is the
#                                                          result object
#   run.sh [--seed N] [--workload W] [--smoke] [--repeat K]   the suite
#   run.sh --bless                                         write expected/
#   run.sh --describe                                      print BENCHMARK.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Build into the repository's target/ unless the caller chose a directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"

# The build talks on stderr: stdout belongs to the metrics.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/jgi-benchmark" --dir "$here" "$@"
