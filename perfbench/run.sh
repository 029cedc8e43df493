#!/usr/bin/env bash
# Builds shapctl and the benchmark from this checkout, then runs the
# benchmark with the given arguments:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
dune build --root . ./bin/shapctl.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
