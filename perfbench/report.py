#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarizes it.

Usage (from the repository root):
  python3 perfbench/report.py [--workloads scan_hot,write_txn,...]
      [--seeds 1-10] [--seconds 10] [--trace 0|1|both]
      [--out .bench_out/report.json]

For every workload and trace mode it runs perfbench/run.py once per seed,
one run at a time, and prints each metric's median, quartiles and
quartile spread (Q3 - Q1 as a share of the median, from
statistics.quantiles(values, n=4)). End-to-end spreads are compared with a
third of the metric's bound in BENCHMARK.json. From what each run writes
to stderr it also prints the median of the calibration kernel's time in
the timed phase over its time alone after the run (how much the workload
itself moves the kernel the timings are scaled by), the median share of
set-up spent in CREATE INDEX, and the spreads of the rate and the SELECT
latency without the kernel's scaling. With --trace both it also prints
the tracing overhead: the traced run's own client-side figures against
the untraced medians. Every result goes to the --out JSON file.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

KERNEL = re.compile(r"calibration kernel ([0-9.]+) us alone after the run, "
                    r"([0-9.]+) us in set-up, ([0-9.]+) us in the timed phase")
UNSCALED = re.compile(r"unscaled ([0-9.]+) requests/s, SELECT p50 ([0-9.]+) us")
SETUP = re.compile(r"set-up ([0-9.]+) s: .* CREATE INDEX ([0-9.]+)")

# Traced figures that mirror an untraced end-to-end metric.
OVERHEAD = (("client.ops_per_s", "ops_per_s"),
            ("client.select_p50_us", "select_p50_us"))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("report.py: %s seed %d trace %d failed"
                         % (workload, seed, trace))
    result = json.loads(lines[-1])
    kernel = KERNEL.search(proc.stderr)
    setup = SETUP.search(proc.stderr)
    unscaled = UNSCALED.search(proc.stderr)
    result["diagnostics"] = {
        "unscaled_ops_per_s": float(unscaled.group(1)),
        "unscaled_select_p50_us": float(unscaled.group(2)),
        "kernel_alone_us": float(kernel.group(1)),
        "kernel_setup_us": float(kernel.group(2)),
        "kernel_phase_us": float(kernel.group(3)),
        "create_index_share": float(setup.group(2)) / float(setup.group(1)),
    }
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default="scan_hot,write_txn,mixed_concurrent")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", default="0", choices=("0", "1", "both"))
    parser.add_argument("--out", default=os.path.join(".bench_out",
                                                      "report.json"))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)

    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = report["workloads"].setdefault(workload, {})
        for trace in modes:
            runs = []
            for seed in seeds:
                result = run_once(workload, seed, seconds, trace)
                runs.append(result)
                if not result["correct"]:
                    print("%s seed %d trace %d: correct is false"
                          % (workload, seed, trace))
            names = list(runs[0]["metrics"])
            summary = {}
            print("\n%s, trace %d, %d seeds of %gs" % (workload, trace,
                                                       len(seeds), seconds))
            print("  %-40s %14s %14s %8s" % ("metric", "median", "Q3-Q1",
                                              "spread"))
            for name in names:
                values = [r["metrics"][name]["value"] for r in runs]
                s = summarize(values) if len(values) > 1 else {
                    "median": values[0], "q1": values[0], "q3": values[0],
                    "spread": 0.0}
                summary[name] = dict(s, unit=runs[0]["metrics"][name]["unit"],
                                     values=values)
                flag = ""
                if trace == 0 and name in bounds:
                    flag = ("ok" if s["spread"] < bounds[name] / 3
                            else "WIDE (bound %g)" % bounds[name])
                print("  %-40s %14.4f %14.4f %8.4f %s"
                      % (name, s["median"], s["q3"] - s["q1"], s["spread"],
                         flag))
            failed = [r["failed"] / r["attempted"] for r in runs]
            print("  failed share per run: %s" % sorted(set(failed)))
            diag = [r["diagnostics"] for r in runs]
            moved = statistics.median(d["kernel_phase_us"] /
                                      d["kernel_alone_us"] for d in diag)
            print("  calibration kernel in the timed phase / alone: median "
                  "%.3f (alone %.0f-%.0f us)"
                  % (moved, min(d["kernel_alone_us"] for d in diag),
                     max(d["kernel_alone_us"] for d in diag)))
            print("  CREATE INDEX share of set-up: median %.3f"
                  % statistics.median(d["create_index_share"] for d in diag))
            if len(diag) > 1:
                for key in ("unscaled_ops_per_s", "unscaled_select_p50_us"):
                    s = summarize([d[key] for d in diag])
                    print("  %s: median %.1f, spread %.4f"
                          % (key, s["median"], s["spread"]))
            entry["trace%d" % trace] = {
                "metrics": summary,
                "correct": all(r["correct"] for r in runs),
                "failed_share": failed,
                "diagnostics": diag,
            }
        if len(modes) == 2:
            traced = entry["trace1"]["metrics"]
            plain = entry["trace0"]["metrics"]
            overhead = {}
            print("  tracing overhead (traced median - untraced median):")
            for t_name, p_name in OVERHEAD:
                diff = traced[t_name]["median"] - plain[p_name]["median"]
                share = diff / plain[p_name]["median"]
                overhead[p_name] = {"traced": traced[t_name]["median"],
                                    "untraced": plain[p_name]["median"],
                                    "difference": diff, "share": share}
                print("    %-18s %12.2f -> %12.2f  (%+.1f%%)"
                      % (p_name, plain[p_name]["median"],
                         traced[t_name]["median"], 100 * share))
            entry["tracing_overhead"] = overhead

    out = os.path.join(ROOT, args.out)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(report, f, indent=1)
    print("\nwrote %s" % args.out)


if __name__ == "__main__":
    main()
