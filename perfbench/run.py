"""Benchmark of itline's user flows: campaigns, family queries, corpus enumeration.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload families --seed 1 --trace 0

The workload runs in this one process, one round after another, with no
worker pool and ``ITLINE_BUDGET`` unset; another round starts only while it
is expected to end within ``--seconds`` (by default ``run_seconds`` of
BENCHMARK.json; there is always at least one round).  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` the run makes one round in which every call is
made twice, untraced and traced, and reports the per-layer metrics of the
traced calls.  ``correct`` is false, and the exit code 1, when any check
fails or any operation fails.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: The length of a run, from BENCHMARK.json, when ``--seconds`` is not given.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

#: Set-up is measured in this many fresh interpreters; the median is reported.
SETUP_PROBES = 11


def import_itline():
    """Import itline from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "itline" / "__init__.py").is_file():
        raise SystemExit(f"error: no itline sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import itline

    if Path(itline.__file__).resolve().parent != SRC / "itline":
        raise SystemExit(f"error: imported itline from {itline.__file__}, not from {SRC}")
    return itline


class ProbedCalls:
    """Times each call, and between calls measures set-up in fresh interpreters.

    The probes are spread evenly over the run, so that their median does not
    depend on how fast the machine was in one short stretch.  A probe runs
    while no call is being timed.
    """

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--setup-probe"]
        self.every = seconds / SETUP_PROBES
        self.start = time.monotonic()
        self.times: list[float] = []

    def probe(self) -> None:
        start = time.monotonic()
        done = subprocess.run(self.cmd, capture_output=True, text=True, check=True, timeout=60)
        self.times.append(float(done.stdout.split()[-1]) - start)

    def __call__(self, *args, **kwargs):
        from workloads import timed

        item = timed(*args, **kwargs)
        due = self.start + len(self.times) * self.every
        if len(self.times) < SETUP_PROBES and time.monotonic() >= due:
            self.probe()
        return item

    def setup_s(self) -> float:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return statistics.median(self.times)


class PairedCalls:
    """Runs each call twice, once untraced and once traced, in alternating order.

    The traced call's item goes into the round; the untraced ones are kept
    in ``plain``.  Pairing call by call keeps the machine's speed changes out
    of the tracing overhead.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.plain: list = []
        self.plain_s = self.traced_s = 0.0

    def traced(self, *args, **kwargs):
        from workloads import timed

        self.tracer.install()
        try:
            return timed(*args, **kwargs)
        finally:
            self.tracer.uninstall()

    def __call__(self, *args, **kwargs):
        from workloads import timed

        if len(self.plain) % 2:
            traced = self.traced(*args, **kwargs)
            plain = timed(*args, **kwargs)
        else:
            plain = timed(*args, **kwargs)
            traced = self.traced(*args, **kwargs)
        self.plain.append(plain)
        self.plain_s += plain.seconds
        self.traced_s += traced.seconds
        return traced


def run_rounds(workload, state, seconds: float, call) -> list:
    rounds = []
    start = time.monotonic()
    while True:
        gc.collect()
        began = time.monotonic()
        rounds.append(workload.run_round(state, call))
        last = time.monotonic() - began
        if time.monotonic() - start + last > seconds:
            return rounds


def traced_pass(workload, seed: int) -> tuple[list, list, dict]:
    """One round with every call made untraced and traced; (corpora, items, layers)."""
    from tracer import Tracer

    tracer = Tracer()
    pairs = PairedCalls(tracer)
    gc.collect()
    traced = workload.run_round(workload.prepare(seed), pairs)
    layers = tracer.layer_metrics()
    layers["trace.overhead_s"] = pairs.traced_s - pairs.plain_s
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}.tsv")
    plain_corpus = [i.value for i in pairs.plain if i.kind == "enumerate"]
    plain_items = [i for i in pairs.plain if i.kind != "enumerate"]
    return [traced.corpus] + plain_corpus, traced.items + plain_items, layers


def check(workload, corpora: list, items: list) -> tuple[bool, int, int, list[str]]:
    """(corpus checks passed, operations attempted, operations failed, notes)."""
    from workloads import item_failure

    notes = []
    corpus_ok = True
    for corpus in corpora:
        problem = workload.check_corpus(corpus)
        if problem is not None:
            corpus_ok = False
            notes.append(f"corpus: {problem}")
    failed = 0
    unchecked: Counter = Counter()
    for item in items:
        why = item_failure(item, unchecked)
        if why is not None:
            failed += 1
            notes.append(f"failed {item.describe()}: {why}")
    notes += [f"unchecked past the search cap: {n} x {what}" for what, n in unchecked.items()]
    return corpus_ok, len(items), failed, notes


UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    return "ms" if name.endswith("_ms") else "s" if name.endswith("_s") else "count"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    os.environ.pop("ITLINE_BUDGET", None)
    import_itline()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.prepare(args.seed)
        print(time.monotonic())
        return 0

    if args.trace:
        corpora, items, layers = traced_pass(workload, args.seed)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
        rounds = "1 paired"
    else:
        calls = ProbedCalls(args.workload, args.seed, args.seconds)
        done = run_rounds(workload, workload.prepare(args.seed), args.seconds, calls)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        corpora = [r.corpus for r in done]
        items = [i for r in done for i in r.items]
        values = {
            "setup_s": calls.setup_s(),
            "wall_s": statistics.median(r.wall_s for r in done),
            "item_p50_ms": 1000 * statistics.median(i.seconds for i in items),
            "peak_rss_mb": peak_mb,
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        rounds = len(done)

    corpus_ok, attempted, failed, notes = check(workload, corpora, items)
    correct = corpus_ok and failed == 0
    for note in notes:
        print(note, file=sys.stderr)
    print(f"{args.workload}: {rounds} round(s), {attempted} operations, {failed} failed",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
