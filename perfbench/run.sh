#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it:
#
#   bash perfbench/run.sh --workload <fleet|soak|lifecycle> --seed <n> \
#       --seconds <n> --trace <0|1>
#
# Build output goes to stderr, so the benchmark's JSON stays the last line
# of stdout. Everything is written inside the checkout: dune's _build/,
# temporary files under perfbench/_tmp/, traces under perfbench/_out/.
set -u
root="$(cd "$(dirname "$0")/.." && pwd)" || exit 2
cd "$root" || exit 2
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $root holds no dune-project and lib/; run from a full checkout" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found on PATH" >&2
  exit 2
fi
mkdir -p perfbench/_tmp || exit 2
export TMPDIR="$root/perfbench/_tmp"
export DUNE_CACHE=disabled
if ! dune build --root . --display quiet ./perfbench/perfbench.exe >&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/perfbench.exe "$@"
