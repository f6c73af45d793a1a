"""walkfield benchmark: one workload, timed for a fixed number of seconds.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  The
workload repeats whole rounds of the same operations until S seconds
have passed, checks every output against a computation made apart from
the program, and prints a readable report followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
every layer's public functions are wrapped and the per-layer metrics are
reported instead.  Operation times are in reference seconds: each
operation is timed between two readings of a speed gauge and scaled to
the gauge's quiet-stretch speed (speed.py).  See bench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
# One BLAS thread, set before numpy is first imported: the runs share two
# cores with the rest of the machine, and the program sets no thread count.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORTS = "import walkfield, walkfield.cli, walkfield.infer, walkfield.datasets"
# Each workload's three named figures fill these end-to-end metrics in order,
# so that every workload reports every metric (see README.md).
SLOTS = ("primary_s", "secondary_s", "tertiary_s")


class OpRecorder:
    """Times each operation of a round in reference seconds (see speed.py)
    and records whether it failed."""

    def __init__(self, speed, tracer=None):
        self.ops = []  # (round, kind, wall seconds, pace, error or None)
        self.round = 0
        self.speed = speed
        self.tracer = tracer

    def run(self, kind, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.tag = kind
        before = self.speed.gauge()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            self.ops.append((self.round, kind, 0.0, None, detail))
            return None
        seconds = time.perf_counter() - t0
        self.ops.append((self.round, kind, seconds, self.speed.pace(before, self.speed.gauge()),
                         None))
        return result

    def fail(self, kind, detail):
        """Count an operation that could not run because one it needs failed."""
        self.ops.append((self.round, kind, 0.0, None, detail))

    def median_pace(self):
        """Median pace over the successful operations (1 if none succeeded)."""
        return statistics.median([op[3] for op in self.ops if op[-1] is None] or [1.0])

    def per_round(self, *kinds, per=None):
        """Median over rounds of the time of a round's successful operations
        of these kinds, divided by its number of successful operations of
        kind `per` (of these kinds when None).  Rounds with none are skipped."""
        times, counts = Counter(), Counter()
        for rnd, kind, seconds, pace, err in self.ops:
            if err is None and kind in kinds:
                times[rnd] += seconds / pace
            if err is None and (kind == per or (per is None and kind in kinds)):
                counts[rnd] += 1
        values = [times[r] / counts[r] for r in counts]
        return statistics.median(values) if values else 0.0

    def round_s(self):
        """Median over rounds of the total time of a round's successful operations."""
        times = Counter()
        for rnd, _, seconds, pace, err in self.ops:
            times[rnd] += seconds / pace if err is None else 0.0
        return statistics.median(times.values())


def setup_seconds(fn, *args):
    """Median wall time of SETUP_REPEATS calls of fn, and its last result.

    Set-up is mostly the child interpreters of `fresh_import`, whose speed
    a gauge around each call reads poorly; `run` divides these times by
    the median pace of the whole timed part instead."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def fresh_import():
    """A fresh interpreter importing the package."""
    subprocess.run([sys.executable, "-c", IMPORTS], env=dict(os.environ, PYTHONPATH=str(SRC)),
                   check=True, timeout=120)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "walkfield" / "__init__.py").is_file():
        print(f"bench: no walkfield package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, spec, speed, workloads.WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, speed, workload_cls, workdir):
    import_s, _ = setup_seconds(fresh_import)
    build_s, wl = setup_seconds(workload_cls, args.seed, workdir)

    tracer = Tracer() if args.trace else None
    restore = tracer.install() if tracer else None
    rec = OpRecorder(speed, tracer)
    try:
        deadline = time.perf_counter() + args.seconds
        while True:
            wl.round(rec)
            rec.round += 1
            if time.perf_counter() >= deadline:
                break
    finally:
        if restore:
            restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = wl.check()
    failures = Counter((op[1], op[-1]) for op in rec.ops if op[-1])
    rounds = rec.round
    figures = wl.figures(rec)
    if tracer:
        kind = "per_layer"
        values = {**layer_metrics(tracer.spans, rounds), **wl.layer_extras(),
                  "trace.wall_s": rec.round_s()}
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        kind = "end_to_end"
        values = {"setup_s": (import_s + build_s) / rec.median_pace(),
                  "wall_s": rec.round_s(), "peak_rss_mb": peak_rss_mb,
                  **dict(zip(SLOTS, figures.values()))}

    print(f"workload {args.workload}, seed {args.seed}, {rounds} round(s), "
          f"{len(rec.ops)} operations, trace {args.trace}, "
          f"median pace {rec.median_pace():.3f}")
    for name, value in figures.items():
        print(f"  {name:<28} {value:.6g}")
    for (op, err), n in sorted(failures.items()):
        print(f"  failed x{n}: {op}: {err}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    metrics = {}
    for m in spec[kind]:
        value = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<44} {value:.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": len(rec.ops),
              "failed": sum(failures.values()), "metrics": metrics}
    (OUT / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
