#!/usr/bin/env bash
# Builds cecsan_bench and the cecsan_serve daemon from this checkout's
# sources, then runs one workload:
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the root of the repository.  Build output goes to stderr;
# standard output is the benchmark's alone, ending in its JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f bin/cecsan_serve.ml ]; then
  echo "run.sh: run from the root of a cecsan checkout" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true

# the build stays inside the checkout: no shared dune cache
export DUNE_CACHE=disabled
dune build --root . bench/e2e/cecsan_bench.exe bin/cecsan_serve.exe 1>&2

exec ./_build/default/bench/e2e/cecsan_bench.exe run \
  --serve-exe ./_build/default/bin/cecsan_serve.exe "$@"
