"""End-to-end benchmark of the indsem CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --deadline-ms 3000 --workload closure --seed 1 \\
        --seconds 20 --trace 0

One process, one client, closed loop: each op is one `indsem` command run
in-process through `indsem.cli.main(argv)` with stdout and stderr captured,
and the next op starts when it returns.  Inputs are generated from the seed
before timing starts (see workloads.py) and every output is checked against
a reference the benchmark computes itself.  An op fails when its output is
wrong, its exit code is unexpected, or it misses the deadline: the
`--deadline-ms` value that the command in BENCHMARK.json fixes, enforced
inside the process with SIGALRM.  `failed` counts every failed op;
`correct` is false when some op printed a wrong answer, exited with the
wrong code or crashed, and stays true for ops that only ran out of time.

A run executes a fixed number of whole cycles of ops (see workloads.py),
enough for at least `--seconds` of op time on the reference machine; it
stops early only when the op time passes one and a half times that.  With
`--trace 0` the last line of stdout reports the end-to-end metrics.  With `--trace 1` it reports the per-layer split from
tracer.py, measured on a fixed number of cycles, each op followed by an
untraced twin on renamed inputs for the tracing overhead.  The line before
it is a record of the run: commit, Python version, CPU count, seed,
failures by op class and work counts.
"""

from __future__ import annotations

_T0 = __import__("time").perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

SETUP_REPEATS = 3
STARTUP_RUNS = 3
# Op time of one cycle of each workload on the reference machine (2 vCPUs,
# Python 3.11).  The number of cycles a run executes derives from it, so the
# same arguments always run the same ops.
NOMINAL_CYCLE_S = {"closure": 3.3, "strata": 4.4, "explain": 18.5, "crosscheck": 3.2}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("correct_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside an op that ran past its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Result:
    cls: str
    seconds: float
    problem: str | None
    timed_out: bool = False
    lines: int = 0

    @property
    def ok(self) -> bool:
        return self.problem is None


def _write(ops) -> None:
    for op in ops:
        for path, text in op.files.items():
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def execute(cli, op, deadline: float) -> Result:
    out, err = io.StringIO(), io.StringIO()
    code = None
    problem = None
    timed_out = False
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        problem = f"missed the {deadline:g} s deadline"
        timed_out = True
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an op that crashes is a failed op, not a failed run
        problem = f"raised {type(exc).__name__}: {str(exc)[:200]}"
    elapsed = time.perf_counter() - start
    text = out.getvalue()
    if problem is None:
        problem = op.check(code, text, err.getvalue())
    return Result(op.cls, elapsed, problem, timed_out, text.count("\n"))


class Runner:
    def __init__(self, cli, workload: str, seed: int, workdir: str, deadline: float):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.cycles: dict = {}

    def prepare(self, c: int, twin: bool = False) -> list:
        if (c, twin) not in self.cycles:
            ops = workloads.cycle(self.workload, self.seed, c, self.workdir, twin)
            _write(ops)
            self.cycles[(c, twin)] = ops
        return self.cycles[(c, twin)]

    def timed(self, cycles: int, limit: float) -> list:
        """The first `cycles` cycles, or fewer once the op time passes
        `limit`."""
        out: list = []
        for c in range(cycles):
            out += [execute(self.cli, op, self.deadline) for op in self.prepare(c)]
            if sum(r.seconds for r in out) > limit:
                break
        return out

    def traced(self, tracer: Tracer, cycles: int):
        """Each op of the first `cycles` cycles traced, each followed by its
        untraced twin, so the two sets do the same work side by side."""
        traced, untraced = [], []
        for c in range(cycles):
            for op, twin in zip(self.prepare(c), self.prepare(c, twin=True)):
                tracer.install()
                try:
                    tracer.begin()
                    r = execute(self.cli, op, self.deadline)
                    tracer.end(completed=not r.timed_out)
                finally:
                    tracer.uninstall()
                traced.append(r)
                untraced.append(execute(self.cli, twin, self.deadline))
        return traced, untraced


def _import_cli():
    for name in [m for m in sys.modules if m == "indsem" or m.startswith("indsem.")]:
        del sys.modules[name]
    return importlib.import_module("indsem.cli")


def _setup_once(runner, pool, rep: int) -> float:
    """Import indsem afresh, generate and write the inputs, run warm-up ops."""
    start = time.perf_counter()
    runner.cli = _import_cli()
    runner.cycles.clear()
    for c, twin in pool:
        runner.prepare(c, twin)
    warm = workloads.warmup(runner.workload, rep, runner.workdir)
    _write(warm)
    for op in warm:
        r = execute(runner.cli, op, runner.deadline)
        if not r.ok:
            print(f"warm-up op {op.argv} failed: {r.problem!r}", file=sys.stderr)
    return time.perf_counter() - start


def _latency(r: Result, deadline: float) -> float:
    # A failed op counts as missing the latency limit (the deadline).
    return r.seconds if r.ok else max(r.seconds, deadline)


def _percentile_ms(latencies, q: int) -> float:
    lat = sorted(latencies)
    if len(lat) == 1:
        return lat[0] * 1000
    return statistics.quantiles(lat, n=100)[q - 1] * 1000


def _startup_ms(root: str, workdir: str) -> float:
    path = os.path.join(workdir, "startup.ind")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(workloads.RIGHT_TC)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(STARTUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "indsem.cli", "strata", path],
                              cwd=root, env=env, capture_output=True, timeout=60)
        times.append((time.perf_counter() - start) * 1000)
        if proc.returncode != 0:
            print(f"startup run exited {proc.returncode}", file=sys.stderr)
    return statistics.median(times)


def _rate(results) -> float:
    """Correct ops per second of op time."""
    return sum(r.ok for r in results) / sum(r.seconds for r in results)


def _commit(root: str) -> str | None:
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _failures(results) -> dict:
    out: dict = {}
    for r in results:
        if not r.ok:
            entry = out.setdefault(r.cls, {"count": 0, "example": r.problem})
            entry["count"] += 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--deadline-ms", type=int, required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1 or args.deadline_ms < 1:
        ap.error("--seconds and --deadline-ms must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "indsem", "__init__.py")):
        print(f"no indsem source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    cli = _import_cli()
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"imported indsem from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    deadline = args.deadline_ms / 1000
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(cli, args.workload, args.seed, workdir, deadline)
        nominal = NOMINAL_CYCLE_S[args.workload]
        if args.trace:
            traced_cycles = max(1, round(args.seconds / (2 * nominal)))
            pool = [(c, twin) for c in range(traced_cycles) for twin in (False, True)]
        else:
            pool = [(c, False) for c in range(math.ceil(args.seconds / nominal))]
        reps = [_setup_once(runner, pool, rep) for rep in range(SETUP_REPEATS)]
        setup_s = statistics.median(reps)
        first_op_after = time.perf_counter() - _T0

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "deadline_ms": args.deadline_ms,
            "commit": _commit(root), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "setup": {"repeats_s": reps,
                      "process_start_to_first_op_s": first_op_after},
        }
        if args.trace:
            tracer = Tracer()
            traced, untraced = runner.traced(tracer, traced_cycles)
            summary = tracer.summary()
            metrics = dict(summary["layer"])
            metrics["cli.startup_ms"] = _startup_ms(root, workdir)
            metrics["trace.overhead_ratio"] = _rate(traced) / _rate(untraced)
            results = traced + untraced
            record["cycles"] = {"traced": traced_cycles}
            record["work"] = summary["work"]
            units = dict(PER_LAYER)
        else:
            results = runner.timed(len(pool), 1.5 * args.seconds)
            lat = [_latency(r, deadline) for r in results]
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": _rate(results),
                "op_p50_ms": _percentile_ms(lat, 50),
                "op_p90_ms": _percentile_ms(lat, 90),
                "correct_ratio": sum(r.ok for r in results) / len(results),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            record["cycles"] = {"timed": len(results) // len(runner.prepare(0)),
                                "op_seconds": sum(r.seconds for r in results)}
            record["work"] = {"output_lines": sum(r.lines for r in results)}
            units = dict(END_TO_END)
        failed = sum(not r.ok for r in results)
        record["samples"] = len(results)
        record["error_ratio"] = failed / len(results)
        record["failures"] = _failures(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": all(r.ok or r.timed_out for r in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
