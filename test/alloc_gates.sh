#!/usr/bin/env bash
# Run the allocation gates of the given alcotest executables: every case
# in an "allocation" group or whose name says "allocation". Each
# executable's own `list` numbers its cases, so a gate is picked by name
# and a case inserted above it cannot make this run another one. An
# executable that lists no gate is an error, so a renamed group cannot
# pass by running nothing.
#
#   bash alloc_gates.sh ./test_kernel.exe ./test_xpc.exe ...
set -euo pipefail
for exe in "$@"; do
  case $exe in */*) ;; *) exe=./$exe ;; esac
  # one "GROUP N1,N2,..." line per group that holds a gate
  picks=$("$exe" list --color=never | awk '
    $2 ~ /^[0-9]+$/ && /allocation/ {
      sel[$1] = sel[$1] (sel[$1] == "" ? "" : ",") $2
    }
    END { for (g in sel) print g, sel[g] }')
  if [ -z "$picks" ]; then
    echo "alloc-smoke: $exe lists no allocation gate" >&2
    exit 1
  fi
  while read -r group cases; do
    "$exe" test "^$group\$" "$cases" </dev/null
  done <<<"$picks"
done
