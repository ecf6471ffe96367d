#!/usr/bin/env bash
# Runs every `subsum ...` line of README.md's Commands block twice from an
# empty temporary directory and fails when one ends in another exit code than
# its comment names ("exits 3", "exits 4", ...; 0 when it names none), is
# stopped after 10 s, or prints other stdout the second time than the first
# (identical inputs print byte-identical output), or another stdout digest
# than .github/scripts/readme_digests.txt lists for it, or is not listed there
# (each line there is a 16-hex sha256 prefix, two spaces, and the command as
# the Commands block gives it, comment removed; a change that alters a
# command's output updates its line).  Each run's wall time, cold
# start included, is printed in ms next to its exit code and stdout digest,
# a run over 1000 ms (README commands aim at 1 s) also prints a ::warning::
# line without failing the job, and the last line names the slowest run.
# Run it from the repository root:
#   bash .github/scripts/readme_commands.sh
set -e
root=$PWD
dir=$(mktemp -d); trap 'rm -rf "$dir"' EXIT; cd "$dir"
sed -n '/^Commands:/,/^```$/p' "$root/README.md" | grep '^subsum ' > commands.txt
slowest=-1
while read -r full; do
  line=$(printf '%s\n' "$full" | sed 's/ *#.*$//')
  want=$(printf '%s\n' "$full" | sed -n 's/.*#.*exits \([0-9]\).*/\1/p')
  want=${want:-0}
  listed=$(L="$line" awk 'substr($0, 19) == ENVIRON["L"] {print substr($0, 1, 16)}' \
    "$root/.github/scripts/readme_digests.txt")
  [ -n "$listed" ] || { echo "no digest listed for: $line"; exit 1; }
  eval "set -- $line"
  shift
  digests=()
  for run in 1 2; do
    code=0
    started=$(date +%s%N)
    PYTHONPATH="$root/src" timeout 10 python -m subsum.cli "$@" > stdout.txt < /dev/null || code=$?
    ms=$(( ($(date +%s%N) - started) / 1000000 ))
    digest=$(sha256sum stdout.txt | cut -c1-16)
    echo "exit $code (want $want) ${ms} ms stdout ${digest}: $line"
    [ "$ms" -le 1000 ] || echo "::warning::${ms} ms, over the 1 s aim: $line"
    [ "$ms" -le "$slowest" ] || { slowest=$ms; slowest_line=$line; }
    [ "$code" -eq "$want" ] || exit 1
    digests+=("$digest")
  done
  [ "${digests[0]}" = "${digests[1]}" ] || { echo "stdout differs between runs: $line"; exit 1; }
  [ "${digests[0]}" = "$listed" ] || { echo "stdout digest is not the listed $listed: $line"; exit 1; }
done < commands.txt
[ -s commands.txt ]
echo "slowest: ${slowest} ms: $slowest_line"
