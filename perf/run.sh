#!/bin/sh
# Build the benchmark from this checkout and run it:
#   sh perf/run.sh --workload varmail --seed 1 --seconds 10 --trace 0
# Everything it builds or writes stays under .bench_build/.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perf/dune ]; then
  echo "perf/run.sh: run from the root of a full source checkout" >&2
  exit 2
fi
mkdir -p .bench_build/tmp
TMPDIR="$PWD/.bench_build/tmp" DUNE_CACHE=disabled dune build --root . --build-dir "$PWD/.bench_build/dune" --profile release \
  -j 2 --display quiet ./perf/main.exe >&2
exec ./.bench_build/dune/default/perf/main.exe "$@"
