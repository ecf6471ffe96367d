#!/usr/bin/env bash
# Runs every `subsum ...` line of README.md's Commands block from an empty
# temporary directory and fails when one ends in another exit code than its
# comment names ("exits 3", "exits 4", ...; 0 when it names none) or is
# stopped after 10 s.  Each command's wall time, cold start included, is
# printed in ms next to its exit code.  Run it from the repository root:
#   bash .github/scripts/readme_commands.sh
set -e
root=$PWD
cd "$(mktemp -d)"
sed -n '/^Commands:/,/^```$/p' "$root/README.md" | grep '^subsum ' > commands.txt
while read -r full; do
  line=$(printf '%s\n' "$full" | sed 's/ *#.*$//')
  want=$(printf '%s\n' "$full" | sed -n 's/.*#.*exits \([0-9]\).*/\1/p')
  want=${want:-0}
  eval "set -- $line"
  shift
  code=0
  started=$(date +%s%N)
  PYTHONPATH="$root/src" timeout 10 python -m subsum.cli "$@" > /dev/null < /dev/null || code=$?
  ms=$(( ($(date +%s%N) - started) / 1000000 ))
  echo "exit $code (want $want) ${ms} ms: $line"
  [ "$code" -eq "$want" ] || exit 1
done < commands.txt
[ -s commands.txt ]
