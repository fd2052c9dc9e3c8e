#!/usr/bin/env bash
#===- cli_robustness.sh - CLI exit-code and diagnostics contract -------------===#
#
# Part of the mfsa project. MIT License.
#
# Drives the built mfsac / imfant_run / dataset_gen binaries through every
# documented failure mode and asserts the exit-code contract (CliInput.h):
#
#   0 ok, 1 runtime, 2 usage, 3 missing/unreadable input, 4 empty input,
#   5 artifact rejected with no usable fallback
#
# plus one-line "error: ..." diagnostics on stderr and the end-to-end
# artifact round trip (emit -> load -> identical match totals, corrupted ->
# diagnosed fallback, quarantined rule -> prefilter agrees with dense).
#
# Usage: cli_robustness.sh <mfsac> <imfant_run> <dataset_gen>
#
#===----------------------------------------------------------------------===#

set -u

MFSAC=$1
IMFANT=$2
DATAGEN=$3

WORK=$(mktemp -d "${TMPDIR:-/tmp}/mfsa-cli-XXXXXX")
trap 'rm -rf "$WORK"' EXIT
cd "$WORK" || exit 1

FAILURES=0

# check <label> <expected-exit> <cmd...>: runs the command, captures stderr,
# and verifies the exit code plus (for failures) a one-line error diagnostic.
check() {
  local label=$1 want=$2
  shift 2
  "$@" >stdout.txt 2>stderr.txt
  local got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $label: exit $got, want $want (cmd: $*)"
    sed 's/^/    stderr: /' stderr.txt
    FAILURES=$((FAILURES + 1))
    return
  fi
  # Usage errors (exit 2) print the usage text; every other failure must be
  # exactly one "error: " diagnostic line.
  if [ "$want" -ge 3 ]; then
    local lines
    lines=$(grep -c '^error: ' stderr.txt)
    if [ "$lines" -ne 1 ]; then
      echo "FAIL $label: want exactly one 'error: ' line on stderr, got $lines"
      sed 's/^/    stderr: /' stderr.txt
      FAILURES=$((FAILURES + 1))
      return
    fi
  fi
  echo "ok   $label"
}

# --- Fixtures ---------------------------------------------------------------
"$DATAGEN" -n 16 -b 8192 -o . BRO >/dev/null || {
  echo "FAIL dataset_gen fixture"; exit 1; }
: > empty.rules
: > empty.stream
printf 'this is not an artifact\n' > junk.mfsa
mkdir notafile.rules

# --- Usage errors (exit 2) --------------------------------------------------
check "mfsac: no arguments"            2 "$MFSAC"
check "mfsac: unknown flag"            2 "$MFSAC" --no-such-flag bro.rules
check "imfant_run: no arguments"       2 "$IMFANT"
check "imfant_run: unknown flag"       2 "$IMFANT" --bogus s.bin a.anml
check "mfsac: unknown engine"          2 "$MFSAC" --plan --engine sparse bro.rules
check "imfant_run: unknown engine"     2 "$IMFANT" --engine sparse s.bin a.anml
check "dataset_gen: no dataset"        2 "$DATAGEN"
check "dataset_gen: unknown dataset"   2 "$DATAGEN" NOPE

# --- Missing/unreadable inputs (exit 3) -------------------------------------
check "mfsac: missing rules file"      3 "$MFSAC" --no-anml nope.rules
check "mfsac: rules path is a dir"     3 "$MFSAC" --no-anml notafile.rules
check "imfant_run: missing stream"     3 "$IMFANT" nope.bin a.anml
check "imfant_run: missing fallback"   3 "$IMFANT" --load-artifact junk.mfsa \
                                         --fallback-rules nope.rules bro.stream

# --- Empty inputs (exit 4) --------------------------------------------------
check "mfsac: empty rules file"        4 "$MFSAC" --no-anml empty.rules
check "imfant_run: empty stream"       4 "$IMFANT" empty.stream a.anml

# --- Artifact round trip (exit 0) -------------------------------------------
check "mfsac: compile + emit artifact" 0 "$MFSAC" -M 4 --no-anml \
                                         --emit-artifact bro.mfsa bro.rules
check "imfant_run: load artifact"      0 "$IMFANT" --load-artifact bro.mfsa \
                                         bro.stream
ARTIFACT_MATCHES=$(grep '^total matches:' stdout.txt)

check "mfsac: compile to ANML"         0 "$MFSAC" -M 4 -o . bro.rules
check "imfant_run: run from ANML"      0 "$IMFANT" bro.stream mfsa_*.anml
ANML_MATCHES=$(grep '^total matches:' stdout.txt)

if [ "$ARTIFACT_MATCHES" != "$ANML_MATCHES" ] || [ -z "$ARTIFACT_MATCHES" ]; then
  echo "FAIL round trip: artifact run '$ARTIFACT_MATCHES' != ANML run '$ANML_MATCHES'"
  FAILURES=$((FAILURES + 1))
else
  echo "ok   round trip: $ARTIFACT_MATCHES both ways"
fi

# --- Prefilter over an artifact with a quarantined rule ---------------------
# The prefilter is built from the artifact's MFSAs. A malformed rule that
# `mfsac --isolate` quarantined is absent from them, so the engine must build
# (no fallback to dense) and report dense's total.
{ head -n 1 bro.rules; echo 'bad('; tail -n +2 bro.rules; } > isolate.rules
check "mfsac: --isolate artifact"      0 "$MFSAC" --isolate --no-anml \
                                         --emit-artifact isolate.mfsa isolate.rules
check "imfant_run: dense, quarantine"  0 "$IMFANT" --engine dense \
                                         --load-artifact isolate.mfsa bro.stream
ISOLATE_DENSE=$(grep '^total matches:' stdout.txt)
check "imfant_run: prefilter, quarantine" 0 "$IMFANT" --engine prefilter \
                                         --load-artifact isolate.mfsa bro.stream
ISOLATE_PREFILTER=$(grep '^total matches:' stdout.txt)
if grep -q 'falling back to dense' stderr.txt; then
  echo "FAIL prefilter on isolated artifact fell back to dense:"
  sed 's/^/    stderr: /' stderr.txt
  FAILURES=$((FAILURES + 1))
elif [ -z "$ISOLATE_DENSE" ] || [ "$ISOLATE_PREFILTER" != "$ISOLATE_DENSE" ]; then
  echo "FAIL prefilter '$ISOLATE_PREFILTER' != dense '$ISOLATE_DENSE'"
  FAILURES=$((FAILURES + 1))
else
  echo "ok   prefilter on isolated artifact: $ISOLATE_PREFILTER"
fi

# --- Rejected artifacts (exit 5 / diagnosed fallback) -----------------------
check "imfant_run: junk artifact, no fallback"    5 "$IMFANT" \
      --load-artifact junk.mfsa bro.stream
check "imfant_run: missing artifact, no fallback" 5 "$IMFANT" \
      --load-artifact nope.mfsa bro.stream

# A corrupted artifact with fallback rules must degrade to a recompile and
# still produce the same totals.
cp bro.mfsa corrupt.mfsa
printf '\xff' | dd of=corrupt.mfsa bs=1 seek=4500 conv=notrunc 2>/dev/null
check "imfant_run: corrupted artifact + fallback" 0 "$IMFANT" \
      --load-artifact corrupt.mfsa --fallback-rules bro.rules bro.stream
FALLBACK_MATCHES=$(grep '^total matches:' stdout.txt)
if ! grep -q '^warning: artifact rejected' stderr.txt; then
  echo "FAIL fallback: missing rejection warning on stderr"
  FAILURES=$((FAILURES + 1))
elif [ "$FALLBACK_MATCHES" != "$ARTIFACT_MATCHES" ]; then
  echo "FAIL fallback: '$FALLBACK_MATCHES' != '$ARTIFACT_MATCHES'"
  FAILURES=$((FAILURES + 1))
else
  echo "ok   fallback recompile: $FALLBACK_MATCHES"
fi

# --- Fault injection through the CLIs ---------------------------------------
MFSA_FAULT_STAGE=serialize:0 "$MFSAC" --no-anml --emit-artifact f.mfsa \
    bro.rules >/dev/null 2>stderr.txt
if [ $? -ne 1 ] || [ -e f.mfsa ]; then
  echo "FAIL fault serialize: expected exit 1 and no partial artifact"
  FAILURES=$((FAILURES + 1))
else
  echo "ok   fault serialize: diagnosed, no partial file"
fi
check "imfant_run: injected load fault, fallback" 0 env \
      MFSA_FAULT_STAGE=load:0 "$IMFANT" --load-artifact bro.mfsa \
      --fallback-rules bro.rules bro.stream

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES CLI robustness check(s) failed"
  exit 1
fi
echo "all CLI robustness checks passed"
