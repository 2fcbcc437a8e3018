#!/usr/bin/env python3
"""Bench-report regression gate.

Consumes the run reports emitted by the ``--report=`` flag of
bench_scaling / bench_wal / bench_obs_overhead / bench_server /
bench_dist (schema_version 1, see src/obs/report.h) and diffs them against
a committed baseline at the repo root: ci/check.sh gates the merged bench
reports against BENCH_7.json and bench_dist's against BENCH_8.json.

Commands:
  merge OUT IN [IN...]          combine per-bench reports into one file
  compare --baseline B --current C [--threshold 0.15]
                                exit 1 if any throughput-like metric
                                (key ending in "_per_sec") regressed by
                                more than the threshold; if B does not
                                exist, copy C there and exit 0 (the
                                first run commits the baseline)
  self-test                     verify the comparator actually fails on
                                an injected 20% regression and passes an
                                unchanged report

Rows are identified by (bench, row name). Rows or metrics present only
on one side are reported but do not fail the gate (adding benches is
backward compatible; renames silently drop their comparison — so don't
rename). Only "_per_sec" metrics gate: counters like fsyncs vary freely
with iteration counts and histogram tails are too noisy to gate on.
"spins_per_sec" is the exception — it is the host-speed reference
itself (bench-level in the "calibration" row, row-level when a row
carries its own; see src/obs/report.h), used to divide host drift out
of the current run's throughputs, never gated.
"""

import argparse
import copy
import json
import os
import shutil
import sys
import tempfile


def load_reports(path):
    """Returns {(bench, row_name): {metric: value}} from a report or
    merged-report file."""
    with open(path) as f:
        data = json.load(f)
    reports = data["reports"] if "reports" in data else [data]
    rows = {}
    for report in reports:
        if report.get("schema_version") != 1:
            raise SystemExit(
                f"{path}: unsupported schema_version "
                f"{report.get('schema_version')!r}"
            )
        for row in report["rows"]:
            rows[(report["bench"], row["name"])] = row["metrics"]
    return rows


def cmd_merge(args):
    merged = {"schema_version": 1, "reports": []}
    for path in args.inputs:
        with open(path) as f:
            data = json.load(f)
        merged["reports"].extend(data.get("reports", [data]))
    with open(args.output, "w") as f:
        json.dump(merged, f, indent=1)
        f.write("\n")
    print(f"merged {len(args.inputs)} report(s) into {args.output}")
    return 0


def calibration_scales(baseline_rows, current_rows, notes):
    """Per-bench factor dividing host-speed drift out of the current run:
    scale = base_spins / current_spins, from each side's "calibration"
    row. 1.0 when either side lacks one."""
    scales = {}
    for (bench, name), base_metrics in baseline_rows.items():
        if name != "calibration":
            continue
        base_spins = base_metrics.get("spins_per_sec", 0)
        cur_spins = current_rows.get((bench, name), {}).get("spins_per_sec", 0)
        if base_spins > 0 and cur_spins > 0:
            scales[bench] = base_spins / cur_spins
            notes.append(
                f"{bench}: host speed x{cur_spins / base_spins:.2f} vs "
                f"baseline (throughputs rescaled accordingly)"
            )
    return scales


def compare(baseline_rows, current_rows, threshold):
    """Returns (regressions, notes): regressions fail the gate."""
    regressions = []
    notes = []
    scales = calibration_scales(baseline_rows, current_rows, notes)
    for key, base_metrics in sorted(baseline_rows.items()):
        bench, name = key
        if name == "calibration":
            continue  # the reference itself is never gated
        if key not in current_rows:
            notes.append(f"row {bench}/{name} missing from current run")
            continue
        cur_metrics = current_rows[key]
        # Rows may widen their own gate (fsync-bound modes; see report.h).
        row_threshold = max(threshold, base_metrics.get("gate_tolerance", 0))
        # A row measuring its own host-speed reference (adjacent to the
        # rep that produced the throughput) beats the bench-level one:
        # it also sees bursts too brief to span the whole bench run.
        scale = scales.get(bench, 1.0)
        base_spins = base_metrics.get("spins_per_sec", 0)
        cur_spins = cur_metrics.get("spins_per_sec", 0)
        if base_spins > 0 and cur_spins > 0:
            scale = base_spins / cur_spins
        for metric, base in sorted(base_metrics.items()):
            if not metric.endswith("_per_sec") or base <= 0:
                continue
            if metric == "spins_per_sec":
                continue  # the reference itself is never gated
            if metric not in cur_metrics:
                notes.append(f"{bench}/{name}: metric {metric} missing")
                continue
            cur = cur_metrics[metric] * scale
            delta = (cur - base) / base
            line = (
                f"{bench}/{name} {metric}: {base:.1f} -> {cur:.1f} "
                f"({delta:+.1%} host-adjusted, tol {row_threshold:.0%})"
            )
            if delta < -row_threshold:
                regressions.append(line)
            else:
                notes.append(line)
    for key in sorted(set(current_rows) - set(baseline_rows)):
        notes.append(f"row {key[0]}/{key[1]} new (not in baseline)")
    return regressions, notes


def cmd_compare(args):
    if not os.path.exists(args.baseline):
        shutil.copyfile(args.current, args.baseline)
        print(
            f"no baseline at {args.baseline}: committed current run as the "
            f"baseline (commit this file)"
        )
        return 0
    baseline_rows = load_reports(args.baseline)
    current_rows = load_reports(args.current)
    regressions, notes = compare(baseline_rows, current_rows, args.threshold)
    for line in notes:
        print(f"  ok: {line}")
    for line in regressions:
        print(f"  REGRESSION: {line}")
    if regressions:
        print(f"{len(regressions)} throughput regression(s) vs {args.baseline}")
        return 1
    print(f"no regression vs {args.baseline} (threshold {args.threshold:.0%})")
    return 0


def cmd_self_test(_args):
    """The gate guards the benches; this guards the gate: a synthetic 20%
    throughput drop must fail, an unchanged report must pass."""
    report = {
        "schema_version": 1,
        "bench": "selftest",
        "rows": [
            {
                "name": "cfg",
                "metrics": {"txn_per_sec": 1000.0, "fsyncs": 7.0},
            },
            {
                "name": "noisy-cfg",
                "metrics": {"txn_per_sec": 1000.0, "gate_tolerance": 0.5},
            },
            {
                "name": "self-calibrated-cfg",
                "metrics": {"txn_per_sec": 1000.0, "spins_per_sec": 500.0},
            },
            {
                "name": "calibration",
                "metrics": {"spins_per_sec": 500.0},
            },
        ],
    }
    regressed = copy.deepcopy(report)
    regressed["rows"][0]["metrics"]["txn_per_sec"] = 800.0  # -20%: gated
    regressed["rows"][0]["metrics"]["fsyncs"] = 1.0  # not gated
    regressed["rows"][1]["metrics"]["txn_per_sec"] = 800.0  # within tolerance

    with tempfile.TemporaryDirectory() as tmp:

        def write(name, data):
            path = os.path.join(tmp, name)
            with open(path, "w") as f:
                json.dump(data, f)
            return path

        base = write("base.json", report)
        ns = argparse.Namespace(baseline=base, threshold=0.15)

        ns.current = write("same.json", report)
        if cmd_compare(ns) != 0:
            print("self-test FAILED: unchanged report was flagged")
            return 1
        ns.current = write("regressed.json", regressed)
        if cmd_compare(ns) != 1:
            print("self-test FAILED: 20% regression was not flagged")
            return 1
        # The same current with the gated row restored must pass: the
        # noisy row's identical 20% drop sits inside its own tolerance.
        tolerated = copy.deepcopy(regressed)
        tolerated["rows"][0]["metrics"]["txn_per_sec"] = 1000.0
        ns.current = write("tolerated.json", tolerated)
        if cmd_compare(ns) != 0:
            print("self-test FAILED: gate_tolerance was not honored")
            return 1
        # A uniformly 2x-slower host (calibration halves with the
        # throughputs) is drift, not a regression.
        slow_host = copy.deepcopy(report)
        for row in slow_host["rows"]:
            for metric in row["metrics"]:
                if metric.endswith("_per_sec"):
                    row["metrics"][metric] /= 2.0
        ns.current = write("slow_host.json", slow_host)
        if cmd_compare(ns) != 0:
            print("self-test FAILED: host-speed drift read as a regression")
            return 1
        # A burst that hits only one row's reps: its own spins_per_sec
        # drops with its throughput (the bench-level calibration, run
        # seconds away, saw nothing) and the row-level ratio cancels.
        burst = copy.deepcopy(report)
        burst["rows"][2]["metrics"]["txn_per_sec"] = 600.0
        burst["rows"][2]["metrics"]["spins_per_sec"] = 300.0
        ns.current = write("burst.json", burst)
        if cmd_compare(ns) != 0:
            print("self-test FAILED: row-level calibration was not used")
            return 1
        # ...but a genuine 40% regression with a steady row-level
        # reference must still fail.
        real = copy.deepcopy(report)
        real["rows"][2]["metrics"]["txn_per_sec"] = 600.0
        ns.current = write("real.json", real)
        if cmd_compare(ns) != 1:
            print("self-test FAILED: regression hidden by row calibration")
            return 1
        # First-run behavior: a missing baseline is created, not an error.
        ns.baseline = os.path.join(tmp, "absent.json")
        if cmd_compare(ns) != 0 or not os.path.exists(ns.baseline):
            print("self-test FAILED: missing baseline was not committed")
            return 1
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="combine reports into one file")
    p_merge.add_argument("output")
    p_merge.add_argument("inputs", nargs="+")
    p_merge.set_defaults(func=cmd_merge)

    p_cmp = sub.add_parser("compare", help="diff a run against the baseline")
    p_cmp.add_argument("--baseline", required=True)
    p_cmp.add_argument("--current", required=True)
    p_cmp.add_argument("--threshold", type=float, default=0.15)
    p_cmp.set_defaults(func=cmd_compare)

    p_self = sub.add_parser("self-test", help="verify the gate itself")
    p_self.set_defaults(func=cmd_self_test)

    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
