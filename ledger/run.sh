#!/usr/bin/env bash
# The repository benchmark.  From the repository root:
#
#   bash ledger/run.sh --workload hdfs --seed 1 --seconds 20 --trace 0
#   bash ledger/run.sh ledger --seconds 20 --trace --out ledger.json
#   bash ledger/run.sh compare before.json after.json
#
# Builds the benchmark from source, then runs it with the given arguments
# (see ledger/main.ml).  Build output goes to stderr; everything the build
# and the runs write stays inside the repository (_build/ and .ledger/).
set -euo pipefail

if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi

# no shared dune cache outside the repository
export DUNE_CACHE=disabled
export XDG_CACHE_HOME="$PWD/.ledger/cache"

dune build --root . ./ledger/main.exe >&2
exec ./_build/default/ledger/main.exe "$@"
