#!/usr/bin/env python3
"""Perf-regression gate comparing fresh BENCH_*.json reports to baselines.

Pairs each baseline report under --baseline-dir with the same-named file
under --fresh-dir and compares the headline "results" rows by (bench,
row-name) key. --fresh-dir may repeat: the comparison then uses the
direction-aware best of each row across the runs (fastest time, highest
throughput), which suppresses the additive scheduling noise of short smoke
runs — generate baselines the same way via --write-merged. Speedup rows
(unit "x") merge as their highest value too, the best-of-rounds rule CI's
speedup gates use; every other row comes from the first report. Only rows
whose unit states a wall-clock or throughput direction are gated:

  - lower-is-better : units s / ms / us / ns (elapsed time);
  - higher-is-better: units containing "/s" (throughput).

Rows in any other unit (ratios, rule counts, table-growth factors, ...) are
structural measurements, not performance, and are reported but never gate.
A gated row fails when it is worse than the baseline by more than
--threshold (default 0.15 = 15%). For time rows the tolerated delta is
threshold * max(baseline, --floor): scheduling jitter on a millisecond-scale
smoke row is a fixed cost, not a fraction, so rows below the floor
(default 0.05 s) get a floor-scaled absolute allowance instead of flapping. Baseline rows missing from the fresh
report, fresh rows with no baseline, and whole files on either side without
a counterpart are warnings, not failures — they mean the bench matrix
changed and the baselines need a refresh, which is a review decision.

Schema-v2 provenance (toolchain / build_type / simd_level) is compared when
both sides carry it: a mismatch is a warning by default because the numbers
are still the best available signal, or an error under --strict-provenance.

Pure stdlib. Exit 0 = no regression, 1 = regression or usage error.
Baselines are refreshed by re-running the bench set and copying the fresh
JSONs over bench/baselines/ (see docs/performance.md).
"""

import argparse
import glob
import json
import os
import sys

LOWER_BETTER_UNITS = {"s", "ms", "us", "ns"}
SECONDS_PER_UNIT = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9}
PROVENANCE_KEYS = ("toolchain", "build_type", "simd_level")


def direction(unit):
    """'lower', 'higher', or None when the unit does not gate."""
    if unit in LOWER_BETTER_UNITS:
        return "lower"
    if "/s" in unit:
        return "higher"
    return None


def load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def rows_by_name(doc):
    return {row["name"]: row for row in doc.get("results", [])}


def merge_direction(unit):
    """The direction merge_best takes the best in: a gated row's, or
    'higher' for a speedup (unit x); None keeps the first report's value."""
    return "higher" if unit == "x" else direction(unit)


def merge_best(docs):
    """One doc whose gated and speedup rows are the best across \p docs;
    the first doc supplies everything else (provenance, config, other
    rows)."""
    merged = json.loads(json.dumps(docs[0]))  # deep copy
    best = rows_by_name(merged)
    for other in docs[1:]:
        for name, row in rows_by_name(other).items():
            if name not in best or best[name].get("unit") != row.get("unit"):
                continue
            sense = merge_direction(row.get("unit", ""))
            if sense == "lower" and row["value"] < best[name]["value"]:
                best[name]["value"] = row["value"]
            elif sense == "higher" and row["value"] > best[name]["value"]:
                best[name]["value"] = row["value"]
    return merged


def compare_file(name, base_doc, fresh_doc, threshold, floor, warnings,
                 failures):
    for key in PROVENANCE_KEYS:
        base_val, fresh_val = base_doc.get(key), fresh_doc.get(key)
        if base_val is not None and fresh_val is not None \
                and base_val != fresh_val:
            warnings.append(
                f"{name}: {key} mismatch (baseline {base_val!r}, "
                f"fresh {fresh_val!r})")

    base_rows, fresh_rows = rows_by_name(base_doc), rows_by_name(fresh_doc)
    for row_name in sorted(set(base_rows) - set(fresh_rows)):
        warnings.append(f"{name}: baseline row '{row_name}' missing from "
                        "fresh report")
    for row_name in sorted(set(fresh_rows) - set(base_rows)):
        warnings.append(f"{name}: new row '{row_name}' has no baseline")

    gated = skipped = 0
    for row_name in sorted(set(base_rows) & set(fresh_rows)):
        base, fresh = base_rows[row_name], fresh_rows[row_name]
        if base.get("unit") != fresh.get("unit"):
            warnings.append(
                f"{name}: {row_name} unit changed "
                f"({base.get('unit')!r} -> {fresh.get('unit')!r})")
            continue
        sense = direction(base.get("unit", ""))
        if sense is None:
            skipped += 1
            continue
        base_val, fresh_val = base["value"], fresh["value"]
        if base_val <= 0:
            warnings.append(f"{name}: {row_name} baseline value "
                            f"{base_val} not positive; skipping")
            continue
        gated += 1
        change = fresh_val / base_val - 1.0
        if sense == "lower":
            floor_units = floor / SECONDS_PER_UNIT[base["unit"]]
            worse = fresh_val - base_val > threshold * max(base_val,
                                                           floor_units)
        else:
            worse = -change > threshold
        line = (f"{name}: {row_name}: {base_val:g} -> {fresh_val:g} "
                f"{base['unit']} ({change:+.1%}, {sense} is better)")
        if worse:
            failures.append(line)
        else:
            print(f"  ok    {line}")
    print(f"{name}: {gated} gated rows, {skipped} non-perf rows skipped")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", required=True,
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("--fresh-dir", required=True, action="append",
                        help="directory of freshly produced BENCH_*.json; "
                        "repeat to gate on the best row across runs")
    parser.add_argument("--write-merged", metavar="DIR",
                        help="also write the merged best-of fresh reports "
                        "to DIR (how baselines are produced)")
    parser.add_argument("--threshold", type=float, default=0.15,
                        metavar="FRACTION",
                        help="max tolerated relative regression "
                        "(default 0.15)")
    parser.add_argument("--floor", type=float, default=0.05,
                        metavar="SECONDS",
                        help="time rows below this get a floor-scaled "
                        "absolute allowance instead (default 0.05)")
    parser.add_argument("--strict-provenance", action="store_true",
                        help="treat toolchain/build_type/simd_level "
                        "mismatches as failures")
    args = parser.parse_args()

    base_files = {os.path.basename(p): p for p in sorted(
        glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json")))}
    fresh_files = {}  # name -> list of paths, one per --fresh-dir
    for fresh_dir in args.fresh_dir:
        for path in sorted(glob.glob(os.path.join(fresh_dir,
                                                  "BENCH_*.json"))):
            fresh_files.setdefault(os.path.basename(path), []).append(path)
    if not base_files:
        print(f"error: no BENCH_*.json under {args.baseline_dir}",
              file=sys.stderr)
        return 1

    warnings, failures = [], []
    for name in sorted(set(base_files) - set(fresh_files)):
        warnings.append(f"{name}: baseline has no fresh counterpart")
    for name in sorted(set(fresh_files) - set(base_files)):
        warnings.append(f"{name}: fresh report has no baseline "
                        "(new bench? refresh bench/baselines/)")

    if args.write_merged:
        os.makedirs(args.write_merged, exist_ok=True)

    for name in sorted(set(base_files) & set(fresh_files)):
        try:
            base_doc = load(base_files[name])
            fresh_doc = merge_best([load(p) for p in fresh_files[name]])
        except (OSError, json.JSONDecodeError) as err:
            failures.append(f"{name}: unreadable: {err}")
            continue
        if args.write_merged:
            with open(os.path.join(args.write_merged, name), "w",
                      encoding="utf-8") as handle:
                json.dump(fresh_doc, handle, indent=2)
                handle.write("\n")
        provenance_before = len(warnings)
        compare_file(name, base_doc, fresh_doc, args.threshold, args.floor,
                     warnings, failures)
        if args.strict_provenance:
            moved = [w for w in warnings[provenance_before:]
                     if "mismatch" in w and any(
                         k in w for k in PROVENANCE_KEYS)]
            for line in moved:
                warnings.remove(line)
                failures.append(line)

    for line in warnings:
        print(f"  warn  {line}")
    for line in failures:
        print(f"  FAIL  {line}", file=sys.stderr)
    print(f"\n{len(failures)} regression(s), {len(warnings)} warning(s), "
          f"threshold {args.threshold:.0%}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
