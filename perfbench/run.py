"""Run one hornmod benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload families --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

A run sets up several times (fresh ``import hornmod`` each time) and reports
the median set-up time, then repeats passes over the workload's fixed query
list, one query at a time in this process (``cli``: one subprocess per
query), until the time is used up; at least one pass always completes.  The
first pass is checked against reference answers; every later pass must
reproduce it byte for byte.  With ``--trace 1`` the run makes one untraced
and one traced pass instead and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import bisect
import compileall
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hornmod"
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 1
SETUP_REPEATS = 9
PROBE_REPEATS = 5
STDLIB_IMPORTS = "import argparse, dataclasses, itertools, json, random, typing, warnings"
END_TO_END = ("setup_s", "wall_s", "query_ms_p50", "query_ms_p90", "peak_rss_mb")
# The traced run prints every per-layer metric.  Its JSON holds the counts and
# ratios, and only those times that every workload measures: a layer's self
# time reads exactly 0 on a workload that never calls the layer.
LAYER_TIMES_IN_JSON = ("core.construct_s", "core.lattice_s", "cli.interp_s", "cli.import_s",
                       "trace.overhead_s")


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, or wrong interpreter flags)."""


def fresh_import(workload: str):
    """Import hornmod from this checkout as a new process would."""
    for name in [n for n in sys.modules if n == "hornmod" or n.startswith("hornmod.")]:
        del sys.modules[name]
    hm = importlib.import_module("hornmod")
    if workload == "cli":
        importlib.import_module("hornmod.cli")
    if Path(hm.__file__).resolve().parent != PACKAGE:
        raise BenchmarkError(f"imported hornmod from {hm.__file__}, not from {PACKAGE}")
    return hm


def lru_caches():
    return [obj for name, mod in sorted(sys.modules.items())
            if name == "hornmod" or name.startswith("hornmod.")
            for obj in vars(mod).values() if callable(getattr(obj, "cache_clear", None))]


def set_up(workload: str, seed: int, workdir: Path):
    """Warm bytecode caches, import, generate inputs and reference answers."""
    compileall.compile_dir(str(PACKAGE), quiet=1)
    hm = fresh_import(workload)
    return hm, WORKLOADS[workload](hm, seed, workdir)


class Calibration:
    """Expresses measured intervals at a nominal machine speed.

    The host's speed drifts by up to 2x within seconds when neighbours load
    it, and CPU time drifts with it.  So a fixed reference task runs between
    queries, and every timed interval is scaled by the nominal over the
    median duration of the reference runs within ``window_s`` of it; the
    median keeps one jittery reference run from skewing a query.  In-process
    work is compared with a pure-Python dictionary loop; subprocess work with
    an interpreter that starts and imports the standard modules hornmod uses,
    because process start-up and imports slow down differently.
    """

    def __init__(self, subprocesses: bool):
        self.subprocesses = subprocesses
        self.nominal_s = 0.080 if subprocesses else 0.003
        self.every_s = 0.3 if subprocesses else 0.03  # longest stretch between two runs
        self.window_s = 1.0 if subprocesses else 0.15
        self.times: list[float] = []
        self.durations: list[float] = []

    def measure(self) -> None:
        t0 = time.perf_counter()
        if self.subprocesses:
            subprocess.run([sys.executable, "-c", STDLIB_IMPORTS], check=True, timeout=60)
        else:
            table = {}
            for i in range(10000):
                key = (i % 61, i % 17)
                table[key] = table.get(key, 0) + 1
            frozenset(k for k, v in sorted(table.items()) if v > 1)
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """The interval [start, end] of ``seconds`` at nominal speed."""
        lo = bisect.bisect_left(self.times, start - self.window_s)
        hi = bisect.bisect_right(self.times, end + self.window_s)
        if hi - lo < 2:  # too few runs in the window: take the nearest ones
            at = bisect.bisect_left(self.times, start)
            lo, hi = max(0, at - 1), min(len(self.times), at + 1)
        return seconds * self.nominal_s / statistics.median(self.durations[lo:hi])


def run_pass(queries, caches, calibration, tracer=None, replay=False, check=False):
    """One pass over the query list.

    Returns per-query latencies (raw and at nominal speed), a fingerprint of
    each result, errors, and with ``check`` the reference-check problems.
    The calibration's reference task runs between queries at least every
    ``calibration.every_s``.  Results are checked and dropped as they come,
    so they never add to peak memory.
    """
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    latencies, spans, prints, errors, problems = [], [], [], [], []
    clock = time.perf_counter
    calibration.measure()
    last = clock()
    for index, query in enumerate(queries):
        if tracer is not None:
            tracer.query = index
        call = query.replay if replay and query.replay else query.run
        t0 = clock()
        try:
            result, error = call(), None
        except Exception as exc:  # a raising query is an error, and the pass goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        latencies.append(t1 - t0)
        spans.append((t0, t1))
        if error is None and query.errored(result):
            error = "exit code 2 or a traceback"
        errors.append(error)
        prints.append("error" if error else
                      hashlib.sha256(query.canon(result).encode("utf-8")).hexdigest())
        if check and error is None:
            try:
                problem = query.check(result)
            except Exception as exc:  # an unreadable result is a wrong verdict
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                problems.append(f"query {index} ({query.kind}): {problem}")
        del result
        if clock() - last >= calibration.every_s or index == len(queries) - 1:
            calibration.measure()
            last = clock()
    scaled = [calibration.scale(lat, t0, t1) for lat, (t0, t1) in zip(latencies, spans)]
    return latencies, scaled, prints, errors, problems


def code_fingerprint() -> str:
    """Hash of the benchmark and program sources, so stored digests never outlive them."""
    h = hashlib.sha256()
    for path in sorted([*Path(__file__).parent.glob("*.py"), *PACKAGE.rglob("*.py"),
                        *PACKAGE.rglob("*.json")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def stored_digest_problem(workload: str, seed: int, digest: str):
    """Compare with the digest an earlier run of this seed and code stored, or store it."""
    path = WORK / "digests" / f"{workload}-seed{seed}-{code_fingerprint()}.sha256"
    if path.exists():
        earlier = path.read_text(encoding="utf-8").strip()
        return None if earlier == digest else f"digest {digest} differs from earlier {earlier}"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(digest + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return None


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def subprocess_median(code: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Outcome:
    """Counts of one run and the lines that explain them."""

    def __init__(self):
        self.attempted = 0
        self.errors = 0
        self.wrong = 0
        self.problems: list[str] = []

    def add_pass(self, queries, errors, problems):
        self.attempted += len(queries)
        self.errors += sum(e is not None for e in errors)
        self.wrong += len(problems)
        self.problems += [f"query {i} ({q.kind}): error: {e}"
                          for i, (q, e) in enumerate(zip(queries, errors)) if e is not None]
        self.problems += problems

    def compare(self, queries, reference, errors, got, label):
        mismatched = [f"query {i} ({q.kind}): {label} result differs from the first pass"
                      for i, (q, a, b, e) in enumerate(zip(queries, reference, got, errors))
                      if e is None and a != "error" and a != b]
        self.add_pass(queries, errors, mismatched)


def measure(workload, seed, seconds, workdir, outcome):
    in_process = Calibration(subprocesses=False)  # set-up runs in this process
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        in_process.measure()
        t0 = time.perf_counter()
        hm, queries = set_up(workload, seed, workdir)
        t1 = time.perf_counter()
        in_process.measure()
        raw_setups.append(t1 - t0)
        setups.append(in_process.scale(t1 - t0, t0, t1))
    calibration = Calibration(subprocesses=workload == "cli")
    caches = lru_caches()
    walls, raw_walls, latencies, first = [], [], [], None
    started = time.perf_counter()
    while True:
        raw, lat, prints, errors, problems = run_pass(queries, caches, calibration,
                                                      check=first is None)
        walls.append(sum(lat))
        raw_walls.append(sum(raw))
        latencies += lat
        if first is None:
            first = prints
            outcome.add_pass(queries, errors, problems)
        else:
            outcome.compare(queries, first, errors, prints, "repeated")
        if time.perf_counter() - started + raw_walls[-1] > seconds:
            break
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "query_ms_p50": (percentile(latencies, 0.5) * 1e3, "ms"),
        "query_ms_p90": (percentile(latencies, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024, "MB"),
    }
    notes = [f"set-ups {len(setups)}, passes {len(walls)}, queries per pass {len(queries)}, "
             f"latency samples {len(latencies)}",
             f"raw seconds: set-up median {statistics.median(raw_setups):.4f}, "
             f"pass median {statistics.median(raw_walls):.4f}, "
             f"times below are at nominal speed"]
    return metrics, notes, first


def measure_traced(workload, seed, workdir, outcome):
    hm, queries = set_up(workload, seed, workdir)
    caches = lru_caches()
    calibration = Calibration(subprocesses=False)  # the cli requests replay in-process
    interp = subprocess_median("pass")
    imported = subprocess_median("import hornmod.cli")
    replay = workload == "cli"  # split serialize, cli and compute time in-process
    raw, scaled, first, errors, problems = run_pass(queries, caches, calibration,
                                                    replay=replay, check=True)
    wall, wall_scaled = sum(raw), sum(scaled)
    outcome.add_pass(queries, errors, problems)

    tracer = tracing.Tracer()
    tracer.install(hm)
    raw, scaled, prints, errors, _ = run_pass(queries, caches, calibration, tracer,
                                              replay=replay)
    traced_wall, traced_scaled = sum(raw), sum(scaled)
    outcome.compare(queries, first, errors, prints, "traced")

    metrics, layer_calls = tracing.layer_metrics(tracer)
    metrics["cli.interp_s"] = (interp, "s")
    metrics["cli.import_s"] = (imported - interp, "s")
    metrics["trace.overhead_s"] = (traced_scaled - wall_scaled, "s")

    unwrapped = tracer.unwrapped_bindings(hm)
    if unwrapped:
        outcome.problems.append(f"unwrapped binding sites: {', '.join(unwrapped)}")
        outcome.wrong += 1
    for layer in tracing.DOMINANT_LAYERS[workload]:
        if layer_calls[layer] == 0:
            outcome.problems.append(f"layer {layer} reported zero calls on {workload}")
            outcome.wrong += 1
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{workload}-seed{seed}.tsv"
    tracer.write(trace_path)
    notes = [f"raw seconds: untraced pass {wall:.4f}, traced pass {traced_wall:.4f}; "
             f"{len(tracer.fids)} spans written to {trace_path.relative_to(ROOT)}",
             "calls per layer: " + ", ".join(f"{k} {v}" for k, v in sorted(layer_calls.items()))]
    return metrics, notes, first


def run_one(args) -> dict:
    if not (PACKAGE / "__init__.py").is_file():
        raise BenchmarkError(f"no hornmod sources at {PACKAGE}")
    if sys.flags.optimize:
        raise BenchmarkError("run without -O: users run hornmod with assertions on")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    try:
        if args.trace:
            metrics, notes, prints = measure_traced(args.workload, args.seed, workdir, outcome)
        else:
            metrics, notes, prints = measure(args.workload, args.seed, args.seconds, workdir,
                                             outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    digest = hashlib.sha256("\n".join(prints).encode("ascii")).hexdigest()
    if outcome.wrong == 0 and outcome.errors == 0:
        problem = stored_digest_problem(args.workload, args.seed, digest)
        if problem:
            outcome.problems.append(problem)
            outcome.wrong += 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}  "
          f"optimize {sys.flags.optimize}")
    for note in notes:
        print(note)
    print(f"digest {digest}")
    shown = dict(metrics)
    shown["wrong_verdicts"] = (outcome.wrong, "count")
    shown["error_rate"] = (outcome.errors / max(outcome.attempted, 1), "ratio")
    for name, (value, unit) in shown.items():
        print(f"  {name:28s} {value:>14.6f} {unit}" if isinstance(value, float)
              else f"  {name:28s} {value:>14d} {unit}")
    for problem in outcome.problems[:20]:
        print(f"PROBLEM {problem}", file=sys.stderr)
    if args.trace:
        reported = {k: (v, u) for k, (v, u) in metrics.items()
                    if u != "s" or k in LAYER_TIMES_IN_JSON}
    else:
        reported = {k: metrics[k] for k in END_TO_END}
    return {
        "correct": outcome.wrong == 0 and outcome.errors == 0,
        "attempted": outcome.attempted,
        "failed": outcome.wrong + outcome.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, so each reports its own peak memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise BenchmarkError(f"workload {workload} exited {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
