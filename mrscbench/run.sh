#!/usr/bin/env bash
# Build the benchmark and the crnsgate/crnserved binaries from this
# checkout's sources, then run one workload:
#
#   bash mrscbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Must be started from a checkout of the repository: without its
# sources there is nothing to build, and it exits 2 without a result.
set -u
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$root" || exit 2
for need in dune-project lib bin bench/host; do
  if [ ! -e "$need" ]; then
    echo "mrscbench: $root is not a checkout of the repository (no $need)" >&2
    exit 2
  fi
done
# keep every build artifact inside the checkout
export DUNE_CACHE=disabled
if ! dune build --root . ./mrscbench/mrscbench.exe ./bin/crnsgate.exe \
  ./bin/crnserved.exe 1>&2; then
  echo "mrscbench: build failed" >&2
  exit 3
fi
exec ./_build/default/mrscbench/mrscbench.exe \
  --gate ./_build/default/bin/crnsgate.exe \
  --served ./_build/default/bin/crnserved.exe "$@"
