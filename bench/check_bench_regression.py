#!/usr/bin/env python3
"""Gate bench JSON emissions against their checked-in baselines.

Two checks per bench file:
  1. Schema: every baseline field must be present in the current
     emission with the same JSON type (the emission is a contract; CI
     consumers break when fields disappear or change type).
  2. Regression: each gated metric must stay on the right side of its
     baseline. Metrics are "higher is better" by default (the value
     must stay above baseline * (1 - tolerance)); metrics with
     direction "lower" must stay below baseline * (1 + tolerance);
     metrics with direction "equal" must match the baseline exactly
     (deterministic correctness counts like result-row totals). A
     value on the bound fails, so tolerance 0.5 on a throughput and
     1.0 on a latency both fail a 2x regression.

The perfbench baselines (BENCH_perf_*.json) are medians of real runs
with the recording machine's "cores" in the file; the tolerance, not
the baseline, absorbs run-to-run spread. The other baselines are
hand-set floors below a healthy run.

Usage (gate every bench named by a config):
  check_bench_regression.py --suite bench/baseline/gate.json \
      --current-dir build --baseline-dir bench/baseline

The suite config maps bench file names to their gated metrics:
  {
    "BENCH_perf_adhoc.json": {
      "metrics": {
        "queries_per_s": {"max_regression": 0.5, "min_cores": 4},
        "query_p50_us": {"max_regression": 1.0, "direction": "lower"},
        "ok_ratio": {"direction": "equal"}
      }
    }
  }
A missing current or baseline file fails the suite: every gated bench
must actually run.

perfbench (perfbench/run.py) prints one JSON result line rather than a
BENCH_*.json file. --perfbench flattens such output into an emission
first: each file's "perfbench workload=W ... trace=T" header names
BENCH_perf_W.json (BENCH_perf_W_traced.json for a traced run), and
its result line's metrics become top-level fields beside "cores":
  python3 perfbench/run.py --workload scan --seed 1 --seconds 2 \
      --trace 0 > build/perf_scan.txt
  check_bench_regression.py --perfbench build/perf_scan.txt \
      --current-dir build

A metric with "min_cores": N is judged only on runners with at least N
hardware threads (the emission's "cores" field, recorded by every
bench): a 1-core box cannot express a parallel speedup, and gating it
there would turn runner shape into a failure. The emission MUST carry
"cores" for such a metric — a missing count fails the gate rather than
silently skipping.
"""

import argparse
import glob
import json
import os
import sys


def check_schema(name, baseline, current, failures):
    """Baseline fields must survive into the emission with the same type."""
    for key, base_value in baseline.items():
        if key not in current:
            failures.append(f"{name}: schema: field '{key}' missing from emission")
            continue
        base_numeric = isinstance(base_value, (int, float)) and not isinstance(
            base_value, bool
        )
        cur_numeric = isinstance(current[key], (int, float)) and not isinstance(
            current[key], bool
        )
        if base_numeric != cur_numeric or (
            not base_numeric and type(base_value) is not type(current[key])
        ):
            failures.append(
                f"{name}: schema: field '{key}' changed type "
                f"({type(base_value).__name__} -> "
                f"{type(current[key]).__name__})"
            )


def skipped_metrics(current):
    """Metrics the emission marked as not-measured on this runner.

    Benches that cannot meaningfully measure a metric on the current
    machine (e.g. parallelism legs above hardware_concurrency) emit
    placeholder values for schema stability and name the affected
    metrics in a comma-separated "skipped_metrics" string; the gate
    must not judge those placeholders.
    """
    raw = current.get("skipped_metrics", "")
    if not isinstance(raw, str):
        return set()
    return {m for m in raw.split(",") if m}


def check_metric(name, metric, spec, baseline, current, failures):
    """One metric against its baseline, honoring direction + tolerance."""
    if metric in skipped_metrics(current):
        print(f"{name}: {metric}: [skipped: not measured on this runner]")
        return
    min_cores = spec.get("min_cores", 1)
    if min_cores > 1:
        cores = current.get("cores")
        if not isinstance(cores, int) or isinstance(cores, bool) or cores < 1:
            failures.append(
                f"{name}: metric '{metric}' requires min_cores={min_cores} "
                f"but the emission has no valid 'cores' field"
            )
            return
        if cores < min_cores:
            print(
                f"{name}: {metric}: [skipped: needs >= {min_cores} cores, "
                f"runner has {cores}]"
            )
            return
    if metric not in baseline or metric not in current:
        failures.append(f"{name}: metric '{metric}' absent from baseline/current")
        return
    base = baseline[metric]
    value = current[metric]
    for side, v in (("baseline", base), ("current", value)):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            # check_schema already flags the type change; record the
            # metric failure and keep gating the remaining benches.
            failures.append(
                f"{name}: metric '{metric}' is non-numeric in {side} "
                f"({type(v).__name__})"
            )
            return
    tolerance = spec.get("max_regression", 0.30)
    direction = spec.get("direction", "higher")
    if direction not in ("higher", "lower", "equal"):
        failures.append(
            f"{name}: gate config: metric '{metric}' has unknown "
            f"direction '{direction}' (use higher/lower/equal)"
        )
        return
    if direction == "equal":
        ok = value == base
        status = "ok" if ok else "REGRESSION"
        print(f"{name}: {metric}: current={value:.6g} expected={base:.6g} "
              f"[{status}]")
        if not ok:
            failures.append(
                f"{name}: regression: {metric}={value:.6g} != expected "
                f"{base:.6g} (direction: equal)"
            )
        return
    if direction == "lower":
        bound = base * (1.0 + tolerance)
        ok = value < bound
        relation = "ceiling"
    else:
        bound = base * (1.0 - tolerance)
        ok = value > bound
        relation = "floor"
    status = "ok" if ok else "REGRESSION"
    print(
        f"{name}: {metric}: current={value:.6g} baseline={base:.6g} "
        f"{relation}={bound:.6g} [{status}]"
    )
    if not ok:
        failures.append(
            f"{name}: regression: {metric}={value:.6g} crossed the "
            f"{relation} {bound:.6g} (baseline {base:.6g}, "
            f"tolerance {tolerance:.0%})"
        )


def flatten_perfbench(path, out_dir):
    """Writes the BENCH_perf_*.json emission for one perfbench output."""
    with open(path) as f:
        lines = f.read().splitlines()
    words = lines[0].split() if lines else []
    if words[:1] != ["perfbench"]:
        raise ValueError(f"{path}: no 'perfbench workload=...' header line")
    header = dict(word.split("=", 1) for word in words[1:] if "=" in word)
    result = json.loads(lines[-1])
    name = "perf_" + header["workload"]
    if header.get("trace") == "1":
        name += "_traced"
    emission = {
        "bench": name,
        "cores": os.cpu_count() or 1,
        "seed": int(header["seed"]),
        "seconds": int(header["seconds"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
    }
    for metric, entry in result["metrics"].items():
        emission[metric] = entry["value"]
    out_path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(out_path, "w") as f:
        json.dump(emission, f)
        f.write("\n")
    print(f"{path} -> {out_path}")


def load_json(path, failures, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        failures.append(f"{what} '{path}': {e}")
        return None


def gate_file(name, current_path, baseline_path, metric_specs, failures):
    baseline = load_json(baseline_path, failures, f"{name}: baseline")
    current = load_json(current_path, failures, f"{name}: emission")
    if baseline is None or current is None:
        return
    check_schema(name, baseline, current, failures)
    for metric, spec in metric_specs.items():
        check_metric(name, metric, spec, baseline, current, failures)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--suite", help="gate config JSON (see above)")
    parser.add_argument(
        "--perfbench",
        nargs="+",
        default=[],
        metavar="OUTPUT",
        help="perfbench/run.py outputs to flatten into --current-dir first",
    )
    parser.add_argument(
        "--current-dir", default="build", help="emissions directory"
    )
    parser.add_argument(
        "--baseline-dir", default="bench/baseline", help="baselines directory"
    )
    args = parser.parse_args()
    if not args.suite and not args.perfbench:
        parser.error("pass --suite, --perfbench, or both")

    failures = []
    for path in args.perfbench:
        try:
            flatten_perfbench(path, args.current_dir)
        except (OSError, ValueError, KeyError) as e:
            failures.append(f"perfbench output {e}")

    if args.suite and not failures:
        suite = load_json(args.suite, failures, "suite config")
        if suite is None:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        for name in sorted(suite):
            entry = suite[name]
            metrics = entry.get("metrics") if isinstance(entry, dict) else None
            if not isinstance(metrics, dict) or not metrics:
                # An entry that gates nothing is a config bug, not a
                # pass: it would silently disable the bench's gate.
                failures.append(
                    f"{name}: gate config: entry must be an object with a "
                    f"non-empty 'metrics' map"
                )
                continue
            gate_file(
                name,
                os.path.join(args.current_dir, name),
                os.path.join(args.baseline_dir, name),
                metrics,
                failures,
            )
        # "Every BENCH_*.json is gated" holds in both directions: an
        # emission with no gate entry (new or renamed bench) fails the
        # suite instead of slipping through ungated.
        for path in sorted(
            glob.glob(os.path.join(args.current_dir, "BENCH_*.json"))
        ):
            name = os.path.basename(path)
            if name not in suite:
                failures.append(
                    f"{name}: emitted but has no entry in {args.suite}; "
                    f"add a gate (and a baseline) for it"
                )

    if failures:
        print(f"\n{len(failures)} failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if args.suite:
        print("bench gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
