"""The repository benchmark: one closed-loop workload run, one JSON result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {ingest,arith,views} --seed N \
        --seconds S --trace {0,1}

The library is imported from the checkout's ``src/`` and driven only
through ``checked.__all__``.  One process, one thread: each batch of items
runs to completion before the next starts.  Inputs come from the seed and
are built before timing starts.  Every batch's outcomes are checked against
the oracle (``oracle.py``) and the batch's whole output against the
plain-Python twin, which runs the same batch right after it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half the
time untraced and half traced, prints the per-layer metrics, and writes the
spans to ``perfbench/out/<workload>.spans.{bin,json}``.  The last line of
standard output is the JSON result.  Exit status 2 means the benchmark
could not run (no library next to it, bad arguments).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import layers
import oracle
import records
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("ingest", "arith", "views")
POOL_BATCHES = 120  # batch latencies per run, so 12 lie beyond p90
MIN_ROUNDS = 3  # runs of every pool batch per phase, at the least
WARMUP_BATCHES = 5
SETUP_PROBES = 11
END_TO_END_UNITS = {
    "ops_per_s": "1/s", "batch_ms_p50": "ms", "batch_ms_p90": "ms",
    "overhead_x": "x", "setup_s": "s", "rss_peak_mb": "MB",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    if not os.path.isfile(os.path.join(SRC, "checked", "__init__.py")):
        _fail(f"no library source at {SRC}/checked")
    sys.path.insert(0, SRC)
    import checked

    if os.path.dirname(os.path.dirname(os.path.abspath(checked.__file__))) != SRC:
        _fail(f"imported checked from {checked.__file__}, not from {SRC}")
    return checked


class SetupProbe:
    """Set-up time measured in fresh interpreters, spread over the run.

    On a shared host the speed shifts for seconds at a time, so probes taken
    back to back all see the same state; spread over the timed phase and
    reduced to their fastest, like the batch times, they measure the code.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.setup_s: list[float] = []
        self.register_s: list[float] = []

    def __call__(self) -> None:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC, self.workload],
            capture_output=True, text=True, timeout=60, check=True)
        probe = json.loads(done.stdout)
        self.setup_s.append(probe["setup_s"])
        self.register_s.append(probe["register_s"])


class Phase:
    """What one timed phase measured.

    Every pool batch runs several times.  A batch's time is the fastest of
    its runs: on a shared host the slower runs measure the neighbours.
    """

    def __init__(self) -> None:
        self.checked_ns: dict = {}  # batch id -> wall times of the checked batch
        self.twin_ns: dict = {}  # batch id -> wall times of the twin batch
        self.n_items: dict = {}  # batch id -> items in the batch
        self.executed: list = []  # batch objects, in run order
        self.failed: list = []  # (batch id, item, got, expected)
        self.mismatched: list = []  # batch ids whose output differs from the twin's

    @property
    def items(self) -> int:
        return sum(b.n_items for b in self.executed)

    def best_ns(self) -> list:
        return [min(v) for v in self.checked_ns.values()]

    def best_items_per_s(self) -> float:
        return sum(self.n_items.values()) / (sum(self.best_ns()) / 1e9)

    def mean_items_per_s(self) -> float:
        return self.items / (sum(map(sum, self.checked_ns.values())) / 1e9)

    def best_twin_ratio(self) -> float:
        return sum(self.best_ns()) / sum(min(v) for v in self.twin_ns.values())


def run_phase(wl, c, batches, api, seconds: float, tracer=None,
              min_rounds: int = MIN_ROUNDS, between=None, between_runs: int = 0) -> Phase:
    """Run the pool in a closed loop for ``seconds`` and ``min_rounds``.

    ``between`` is called ``between_runs`` times, evenly over the phase,
    between batches; the time it takes is added to the phase.
    """
    ns = time.perf_counter_ns
    phase = Phase()
    min_runs = min_rounds * len(batches)
    start = ns()
    deadline = start + int(seconds * 1e9)
    done_between = 0
    gc.collect()
    gc.disable()
    try:
        i = 0
        while i < min_runs or ns() < deadline:
            if done_between < between_runs and \
                    ns() - start >= done_between * seconds * 1e9 / between_runs:
                t = ns()
                between()
                done_between += 1
                deadline += ns() - t
            batch = batches[i % len(batches)]
            i += 1
            if tracer is not None:
                tracer.begin_batch(batch.id)
            t0 = ns()
            out = wl.run_checked(batch, api, c)
            t1 = ns()
            if tracer is not None:
                tracer.end_batch()
            t2 = ns()
            twin_out = wl.run_twin(batch)
            t3 = ns()
            phase.checked_ns.setdefault(batch.id, []).append(t1 - t0)
            phase.twin_ns.setdefault(batch.id, []).append(t3 - t2)
            phase.n_items[batch.id] = batch.n_items
            phase.executed.append(batch)
            phase.failed.extend((batch.id,) + f for f in wl.failures(batch, out))
            if out != twin_out:
                phase.mismatched.append(batch.id)
    finally:
        gc.enable()
    for _ in range(done_between, between_runs):
        between()
    return phase


def _check_layouts(c, workload: str) -> list:
    """Layout descriptors that disagree with the oracle's C layout rules."""
    bad = []
    for name, fields in records.RECORDS[workload]:
        offsets, size = oracle.c_layout(fields)
        got = [d.offset for d in c.layout_of(name)]
        if got != offsets or c.record_size(name) != size:
            bad.append((name, got, offsets))
    return bad


def _report_failures(workload: str, seed: int, phases, layout_errors) -> None:
    """Keep the evidence of any failed operation next to the benchmark."""
    failed = [f for p in phases for f in p.failed]
    mismatched = sorted({b for p in phases for b in p.mismatched})
    if not (failed or mismatched or layout_errors):
        return
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{workload}-seed{seed}-failures.json")
    with open(path, "w") as f:
        json.dump({"workload": workload, "seed": seed, "layout_errors": layout_errors,
                   "failed_items": [list(map(repr, x)) for x in failed[:200]],
                   "failed_count": len(failed),
                   "batches_differing_from_twin": mismatched[:200]}, f, indent=1)
    print(f"{workload}: {len(failed)} failed operations, {len(mismatched)} batches "
          f"differ from the twin; details in {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    c = _import_library()
    wl = importlib.import_module(args.workload)
    setup = SetupProbe(args.workload)
    for name, fields in records.RECORDS[args.workload]:
        c.register_record(name, fields)
    layout_errors = _check_layouts(c, args.workload)

    batches = wl.generate(random.Random(args.seed), POOL_BATCHES)
    wl.prepare(batches, c)
    plain_api = tracing.Api(c)
    run_phase(wl, c, batches[:WARMUP_BATCHES], plain_api, 0, min_rounds=1)

    if args.trace:
        half = args.seconds / 2
        untraced = run_phase(wl, c, batches, plain_api, half,
                             between=setup, between_runs=SETUP_PROBES)
        inside, full = layers.calibrate()
        tracer = tracing.Tracer()
        traced = run_phase(wl, c, batches, tracing.Api(c, tracer), half, tracer)
        phases = (untraced, traced)
        plain_rate, traced_rate = untraced.best_items_per_s(), traced.best_items_per_s()
        pairs = {}
        for batch in traced.executed:
            for pair, n in batch.convert_pairs.items():
                pairs[pair] = pairs.get(pair, 0) + n
        tested = sum(n for (s, d), n in pairs.items() if c.narrow_checker(s, d) is not None)
        metrics = layers.metrics(
            layers.aggregate(tracer, inside, full),
            layers.raw_ratios(c, tracer.samples),
            tested / sum(pairs.values()),
            min(setup.register_s) * 1e6,
            (plain_rate - traced_rate) / plain_rate)
        units = layers.UNITS
        tracer.write(os.path.join(OUT, f"{args.workload}.spans"))
    else:
        phase = run_phase(wl, c, batches, plain_api, args.seconds,
                          between=setup, between_runs=SETUP_PROBES)
        phases = (phase,)
        lat_ms = [x / 1e6 for x in phase.best_ns()]
        metrics = {
            "ops_per_s": phase.best_items_per_s(),
            "batch_ms_p50": statistics.median(lat_ms),
            "batch_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
            "overhead_x": phase.best_twin_ratio(),
            "setup_s": min(setup.setup_s),
            "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    attempted = sum(p.items for p in phases)
    failed = sum(len(p.failed) for p in phases)
    mismatched = sum(len(p.mismatched) for p in phases)
    _report_failures(args.workload, args.seed, phases, layout_errors)
    batches_run = sum(len(p.executed) for p in phases)
    refused_share = sum(b.refused for b in batches) / sum(b.ops for b in batches)
    print(f"{args.workload} seed={args.seed} item=({wl.ITEM}) batch={wl.BATCH_ITEMS} items "
          f"latency_samples={len(batches)} batches_run={batches_run} attempted={attempted} failed_share={failed / attempted:.6g} "
          f"refused_share={refused_share:.4f} twin_mismatches={mismatched} "
          f"mean_ops_per_s={phases[0].mean_items_per_s():.6g}")
    for name, value in metrics.items():
        print(f"  {name:<38} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and mismatched == 0 and not layout_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
