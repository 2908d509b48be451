"""Steadiness check: two sets of benchmark runs of the same code, compared.

Usage, from the root of a checkout:

    python3 perfbench/steady.py

Each of the two sets runs every workload of BENCHMARK.json once per seed,
for ``run_seconds``; set ``i`` uses the seeds ``100 * i + 1 .. 100 * i + 10``,
and the runs interleave the workloads.  For each end-to-end metric it prints
each set's median and quartiles, the spread (interquartile distance over the
median) against the metric's bound from BENCHMARK.json, and how far the
second set's median moved from the first's.  It reports NOT steady, and exits
1, when a run fails or reports a failed operation, when a spread is over its
bound, or when a median moved by more than its bound either way.  Each run
also records the 1-minute load average and the CPU steal ticks of
``/proc/stat`` (read only) before and after, so that an outlier can be
explained.  Everything is saved to ``out/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Two sets of ten seeded runs per workload.
SETS, RUNS = 2, 10


def load_average() -> float:
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


def steal_ticks() -> int:
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    load0, steal0, start = load_average(), steal_ticks(), time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    record = {
        "workload": workload, "seed": seed, "exit": done.returncode,
        "elapsed_s": time.monotonic() - start,
        "load_before": load0, "load_after": load_average(),
        "steal_ticks": steal_ticks() - steal0,
    }
    lines = done.stdout.strip().splitlines()
    try:
        record.update(json.loads(lines[-1]))
    except (IndexError, json.JSONDecodeError):
        record["stderr"] = done.stderr[-2000:]
    return record


def report(runs: list[dict], spec: dict) -> bool:
    ok = True
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in [w["name"] for w in spec["workloads"]]:
        mine = [r for r in runs if r["workload"] == w]
        print(f"\n== {w}")
        for s in range(1, SETS + 1):
            part = [r for r in mine if r["set"] == s]
            bad = [r for r in part
                   if "metrics" not in r or not r.get("correct") or r.get("failed") != 0]
            if bad:
                ok = False
                print(f"  set {s}: {len(bad)} run(s) failed or with failed operations")
            attempted = sum(r.get("attempted", 0) for r in part)
            failed = sum(r.get("failed", 0) for r in part)
            low = min(r["load_before"] for r in part)
            high = max(r["load_after"] for r in part)
            print(f"  set {s}: failed {failed} of {attempted}; load {low:.2f}-{high:.2f}; "
                  f"steal ticks {sum(r['steal_ticks'] for r in part)}")
        for name, bound in bounds.items():
            medians = []
            for s in range(1, SETS + 1):
                values = [r["metrics"][name]["value"] for r in mine
                          if r["set"] == s and "metrics" in r]
                if len(values) < 2:
                    ok = False
                    print(f"  {name:12s} set {s}: {len(values)} value(s), too few to compare")
                    continue
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                medians.append(med)
                flag = "ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER"
                if spread > bound:
                    ok = False
                print(f"  {name:12s} set {s}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {spread:.3f} (bound {bound}, {flag})")
            if len(medians) == SETS:
                change = medians[1] / medians[0] - 1
                if abs(change) > bound:
                    ok = False
                print(f"  {name:12s} second median vs first: {change:+.3f}")
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs = []
    for s in range(1, SETS + 1):
        for seed in range(100 * s + 1, 100 * s + RUNS + 1):
            for w in workloads:
                record = one_run(w, seed, spec["run_seconds"])
                record["set"] = s
                runs.append(record)
                print(f"set {s} seed {seed} {w}: exit {record['exit']}, "
                      f"{record['elapsed_s']:.1f} s, load {record['load_after']:.2f}, "
                      f"steal {record['steal_ticks']}", file=sys.stderr, flush=True)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(runs, indent=1))
    ok = report(runs, spec)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
