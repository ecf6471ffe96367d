#!/usr/bin/env bash
# Runs every `subsum ...` line of README.md's Commands block from an empty
# temporary directory and fails when one ends in an undocumented exit code
# (over 7) or is stopped after 10 s.  Run it from the repository root:
#   bash .github/scripts/readme_commands.sh
set -e
root=$PWD
cd "$(mktemp -d)"
sed -n '/^Commands:/,/^```$/p' "$root/README.md" | grep '^subsum ' | sed 's/ *#.*$//' > commands.txt
while read -r line; do
  eval "set -- $line"
  shift
  code=0
  PYTHONPATH="$root/src" timeout 10 python -m subsum.cli "$@" > /dev/null < /dev/null || code=$?
  echo "exit $code: $line"
  [ "$code" -le 7 ] || exit 1
done < commands.txt
[ -s commands.txt ]
