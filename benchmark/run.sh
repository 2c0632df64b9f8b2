#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the given
# arguments; with none, every workload runs untraced and then traced.
# See README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
