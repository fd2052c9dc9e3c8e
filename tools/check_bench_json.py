#!/usr/bin/env python3
"""Schema checker for the BENCH_*.json reports the bench harness emits.

Validates every file against the BenchReport contract (schema_version 1
or 2, see docs/observability.md):

  - top-level: schema_version in {1, 2}, bench, paper_ref, config, results,
    metrics; v2 additionally requires the provenance fields toolchain,
    build_type, and simd_level (one of scalar / sse42 / avx2; avx2 only
    in reports from older builds);
  - config: stream_bytes / reps / max_threads / metrics_compiled_in;
  - results: a list of {name, value, unit} rows with numeric values;
  - metrics: the registry export with counters (non-negative integers),
    gauges (integers), and histograms whose counts arrays are consistent
    (len(counts) == len(bounds) + 1, sum(counts) == count);
  - every metric named *_ns, *_us, or *_ms is a non-negative wall-clock
    reading;
  - plans (optional, v2): planner decision traces keyed by dataset, each an
    EnginePlan::explainJson() document with engine / merging_factor /
    stride / candidates, every candidate carrying per-engine estimates
    with feasibility verdicts.

`--require NAME` (repeatable) additionally asserts that a metric with that
name exists somewhere across the checked files — CI uses it to prove the
instrumented build actually reported occupancy, transitions/byte, and
per-stage compile times. `--require-result NAME` (repeatable) does the
same for headline result rows — the service-soak job uses it to prove the
load generator reported its p99 latency and divergence count rather than
silently dropping them. `--require-plans` asserts at least one checked
file embeds a non-empty plans object (the planner-ablation job uses it so
a bench that silently stops tracing fails loudly). Pure stdlib; exit 0 =
all files pass, 1 = any violation.
"""

import argparse
import json
import numbers
import sys


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    return 1


def check_histogram(path, name, hist):
    errors = 0
    for key in ("bounds", "counts", "count", "sum", "max", "mean"):
        if key not in hist:
            errors += fail(path, f"histogram {name} lacks '{key}'")
    if errors:
        return errors
    bounds, counts = hist["bounds"], hist["counts"]
    if len(counts) != len(bounds) + 1:
        errors += fail(
            path,
            f"histogram {name}: {len(counts)} counts for "
            f"{len(bounds)} bounds (want bounds + overflow)",
        )
    if bounds != sorted(set(bounds)):
        errors += fail(path, f"histogram {name}: bounds not increasing")
    if sum(counts) != hist["count"]:
        errors += fail(
            path,
            f"histogram {name}: counts sum {sum(counts)} != "
            f"count {hist['count']}",
        )
    if any(c < 0 for c in counts) or hist["sum"] < 0 or hist["max"] < 0:
        errors += fail(path, f"histogram {name}: negative statistic")
    return errors


def check_timing(path, name, value):
    if name.endswith(("_ns", "_us", "_ms")) and value < 0:
        return fail(path, f"timing metric {name} is negative: {value}")
    return 0


ENGINE_NAMES = {"auto", "dense", "dfa", "stride2", "prefilter"}


def check_plan(path, key, plan):
    """One EnginePlan::explainJson() document under the 'plans' object."""
    errors = 0
    if not isinstance(plan, dict):
        return fail(path, f"plan {key} is not an object")
    for field in ("engine", "merging_factor", "stride", "plan_wall_ms",
                  "candidates"):
        if field not in plan:
            errors += fail(path, f"plan {key} lacks '{field}'")
    if errors:
        return errors
    if plan["engine"] not in ENGINE_NAMES - {"auto"}:
        errors += fail(
            path, f"plan {key}: chosen engine {plan['engine']!r} is not a "
            "concrete engine")
    if not isinstance(plan["merging_factor"], int) or plan["merging_factor"] < 0:
        errors += fail(path, f"plan {key}: bad merging_factor")
    if plan["stride"] not in (1, 2):
        errors += fail(path, f"plan {key}: stride {plan['stride']} not 1 or 2")
    if not isinstance(plan["candidates"], list) or not plan["candidates"]:
        return errors + fail(path, f"plan {key}: empty candidates list")
    for cand in plan["candidates"]:
        for field in ("merging_factor", "num_groups", "analyzed_groups",
                      "dfa", "table", "literals", "engines", "best",
                      "best_ns_per_byte"):
            if field not in cand:
                errors += fail(
                    path, f"plan {key}: candidate lacks '{field}'")
        for est in cand.get("engines", []):
            if sorted(est) != ["engine", "feasible", "ns_per_byte", "why"]:
                errors += fail(
                    path, f"plan {key}: malformed engine estimate: {est}")
            elif est["engine"] not in ENGINE_NAMES - {"auto"}:
                errors += fail(
                    path,
                    f"plan {key}: unknown engine {est['engine']!r}")
            elif est["feasible"] and est["ns_per_byte"] < 0:
                errors += fail(
                    path, f"plan {key}: negative estimate for "
                    f"{est['engine']}")
    return errors


def check_file(path, seen_metrics, seen_results, plan_files):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        return fail(path, f"unreadable or invalid JSON: {err}")

    errors = 0
    for key in ("schema_version", "bench", "paper_ref", "config", "results",
                "metrics"):
        if key not in doc:
            errors += fail(path, f"missing top-level '{key}'")
    if errors:
        return errors
    version = doc["schema_version"]
    if version not in (1, 2):
        errors += fail(path, f"schema_version {version} not in (1, 2)")
    if not doc["bench"] or not isinstance(doc["bench"], str):
        errors += fail(path, "empty bench name")
    if version == 2:
        for key in ("toolchain", "build_type", "simd_level"):
            if key not in doc or not isinstance(doc[key], str):
                errors += fail(path, f"schema v2 requires string '{key}'")
        if doc.get("simd_level") not in ("scalar", "sse42", "avx2"):
            errors += fail(
                path, f"simd_level {doc.get('simd_level')!r} not one of "
                "scalar/sse42/avx2")

    for key in ("stream_bytes", "reps", "max_threads", "metrics_compiled_in"):
        if key not in doc["config"]:
            errors += fail(path, f"config lacks '{key}'")

    if not isinstance(doc["results"], list):
        errors += fail(path, "results is not a list")
    else:
        for row in doc["results"]:
            if sorted(row) != ["name", "unit", "value"]:
                errors += fail(path, f"malformed result row: {row}")
            elif not isinstance(row["value"], numbers.Real):
                errors += fail(
                    path, f"result {row['name']} value is not numeric")
            else:
                errors += check_timing(path, row["name"], row["value"])
                seen_results.add(row["name"])

    if "plans" in doc:
        if not isinstance(doc["plans"], dict):
            errors += fail(path, "plans is not an object")
        else:
            for key, plan in doc["plans"].items():
                errors += check_plan(path, key, plan)
            if doc["plans"]:
                plan_files.add(path)

    metrics = doc["metrics"]
    seen = set()
    for section in ("counters", "gauges", "histograms"):
        if section not in metrics or not isinstance(metrics[section], dict):
            errors += fail(path, f"metrics lacks '{section}' object")
            continue
        seen.update(metrics[section])
    for name, value in metrics.get("counters", {}).items():
        if not isinstance(value, int) or value < 0:
            errors += fail(path, f"counter {name} not a non-negative int")
        else:
            errors += check_timing(path, name, value)
    for name, value in metrics.get("gauges", {}).items():
        if not isinstance(value, int):
            errors += fail(path, f"gauge {name} not an int")
        else:
            errors += check_timing(path, name, value)
    for name, hist in metrics.get("histograms", {}).items():
        if not isinstance(hist, dict):
            errors += fail(path, f"histogram {name} not an object")
        else:
            errors += check_histogram(path, name, hist)

    seen_metrics.update(seen)
    if not errors:
        print(f"{path}: ok ({len(doc['results'])} results, "
              f"{len(seen)} metrics, {len(doc.get('plans', {}))} plans)")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", help="BENCH_*.json files")
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="assert this metric name is present in some file (repeatable)",
    )
    parser.add_argument(
        "--require-result",
        action="append",
        default=[],
        metavar="NAME",
        help="assert a result row with this name is present in some file "
        "(repeatable)",
    )
    parser.add_argument(
        "--require-plans",
        action="store_true",
        help="assert at least one checked file embeds planner traces",
    )
    args = parser.parse_args()
    seen_metrics = set()
    seen_results = set()
    plan_files = set()
    errors = sum(
        check_file(path, seen_metrics, seen_results, plan_files)
        for path in args.files)
    for name in args.require:
        if name not in seen_metrics:
            errors += fail("<required>", f"metric '{name}' not reported by "
                           "any checked file")
    for name in args.require_result:
        if name not in seen_results:
            errors += fail("<required>", f"result row '{name}' not reported "
                           "by any checked file")
    if args.require_plans and not plan_files:
        errors += fail("<required>", "no checked file embeds a non-empty "
                       "'plans' object")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
