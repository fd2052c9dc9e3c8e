#!/usr/bin/env bash
# Input-parallel scans through the real imfant_run binary: on a Table I
# ruleset merged at M=16, `--engine prefilter` and `--engine auto` at
# --input-threads 4 must scan input-parallel (no "declined" or "no
# input-parallel executor" note on stderr), and at --input-threads 4 and 1
# must report the match total of `--engine dense` on the same artifact.
#
# Usage: input_parallel_cli.sh <mfsac> <imfant_run> <dataset_gen>
set -u

MFSAC=$1
IMFANT=$2
DATAGEN=$3
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

"$DATAGEN" -n 64 -b 262144 -o . BRO >/dev/null || {
  echo "FAIL dataset_gen fixture"; exit 1; }
"$MFSAC" -M 16 --no-anml --emit-artifact bro.mfsa bro.rules >/dev/null || {
  echo "FAIL mfsac fixture"; exit 1; }

"$IMFANT" --engine dense --load-artifact bro.mfsa bro.stream > out.txt || {
  echo "FAIL dense reference scan"; exit 1; }
dense=$(grep '^total matches:' out.txt)
[ -n "$dense" ] || { echo "FAIL dense reference scan: no total"; exit 1; }
echo "ok   dense T=1: $dense"

FAILURES=0
for engine in prefilter auto; do
  for threads in 4 1; do
    "$IMFANT" --engine "$engine" --input-threads "$threads" \
      --load-artifact bro.mfsa bro.stream > out.txt 2> err.txt
    status=$?
    if [ "$status" -ne 0 ]; then
      echo "FAIL $engine T=$threads: exit $status"
      sed 's/^/    stderr: /' err.txt
      FAILURES=$((FAILURES + 1))
      continue
    fi
    if grep -q 'declined\|no input-parallel executor' err.txt; then
      echo "FAIL $engine T=$threads: input-parallel scan declined"
      sed 's/^/    stderr: /' err.txt
      FAILURES=$((FAILURES + 1))
    fi
    if [ "$threads" -gt 1 ] && ! grep -q '^input-parallel:' out.txt; then
      echo "FAIL $engine T=$threads: no input-parallel summary line"
      FAILURES=$((FAILURES + 1))
    fi
    total=$(grep '^total matches:' out.txt)
    if [ "$total" != "$dense" ]; then
      echo "FAIL $engine T=$threads: '$total' != dense '$dense'"
      FAILURES=$((FAILURES + 1))
      continue
    fi
    echo "ok   $engine T=$threads: $total"
  done
done

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES failure(s)"
  exit 1
fi
echo "all input-parallel CLI checks passed"
