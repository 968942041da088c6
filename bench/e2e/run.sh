#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it with the given
# arguments, from the repository root:
#
#   bash bench/e2e/run.sh --workload plan-cold --seed 1 --seconds 25 --trace 0
#
# Exits nonzero without a result when the tree holds no source to build.
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: no gadget_planner source tree at $(pwd)" >&2
  exit 2
fi
dune build --root . --display quiet bench/e2e/main.exe bench/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
