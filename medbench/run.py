"""medbounds benchmark: one seeded workload, timed end to end or traced per layer.

Run from the repository root:

    python3 medbench/run.py --workload fit_curve --seed 1 --seconds 45 --trace 0

The package is imported from ``src/`` of the checkout the script sits in.
Every task's output is checked. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the full report (environment, input hashes, samples, failures), which is
also written to ``.medbench/<workload>-trace<k>.json``. With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
See medbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
PINNED_CPU = max(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# One BLAS thread, set before numpy loads: the benchmark and its commands run
# pinned to one CPU (see main), where a second thread could only wait
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_REPS = 3
REF_ITERATIONS = 200_000
REF_S = 0.034  # median reference_s() on the 2-vCPU Xeon VM the benchmark was defined on
TAIL_BEYOND = 10  # samples that must lie beyond the wall_tail rank
IMPORT_REPS = 3


@dataclass
class Outcome:
    """One CLI invocation: its arguments, exit code and captured streams."""

    argv: list
    code: int
    stdout: str
    stderr: str


@dataclass
class Task:
    wall: float  # host-speed-adjusted (see host_scale); raw in a traced run
    cpu: float
    rss_mb: float
    failures: list
    raw_wall: float = 0.0
    raw_cpu: float = 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """The small process that starts CLI commands (see launcher.py)."""

    def __init__(self, env):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def run(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def run_cli(argv, launcher, work_dir) -> tuple[Outcome, float, float, float]:
    """Run ``python -m medbounds.cli argv``; returns outcome, wall, cpu, maxrss (MB)."""
    out_path, err_path = os.path.join(work_dir, "stdout.txt"), os.path.join(work_dir, "stderr.txt")
    reply = launcher.run(
        {"argv": [sys.executable, "-m", "medbounds.cli", *argv], "stdout": out_path, "stderr": err_path}
    )
    with open(out_path) as out, open(err_path) as err:
        outcome = Outcome(argv, reply["code"], out.read(), err.read())
    return outcome, reply["wall"], reply["cpu"], reply["maxrss_kb"] / 1024.0


def _reference_term(a: float, b: float) -> float:
    return math.exp(-a * a) * b + (a if a > b else b)


def reference_s() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs interpreted code now."""
    start = time.perf_counter()
    acc = 0.0
    for x in [i * 1e-4 for i in range(REF_ITERATIONS)]:
        acc += _reference_term(x, 0.5)
    return time.perf_counter() - start


def host_scale(before: float, after: float) -> float:
    """Factor that takes a time measured between two reference loops to REF_S speed.

    On a shared host the speed of interpreted code moves by 1.5x and more
    within seconds. A step's time divided by the reference loops around it
    moves far less, so every timed step is scaled by this factor.
    """
    return REF_S / ((before + after) / 2)


def timed_call(fn):
    """Run ``fn()`` in this process; returns (result, wall, cpu, maxrss MB)."""
    start, cpu0 = time.perf_counter(), time.process_time()
    out = fn()
    return out, time.perf_counter() - start, time.process_time() - cpu0, self_maxrss_mb()


def run_inprocess(wl, task, tracer=None):
    """One task inside this interpreter; returns (result, wall, cpu)."""
    import medbounds.cli

    tracing = tracer if tracer is not None else contextlib.nullcontext()
    if tracer is not None:
        tracer.task = task
    argvs = wl.argvs(task)
    start, cpu0 = time.perf_counter(), time.process_time()
    if not argvs:
        with tracing:
            result = [step() for step in wl.library_steps(task)]
    else:
        result = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with tracing, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("always")
                code = medbounds.cli.main(argv)
            result.append(Outcome(argv, code, out.getvalue(), err.getvalue()))
    return result, time.perf_counter() - start, time.process_time() - cpu0


def self_maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_task(wl, task, launcher) -> Task:
    """Untraced task: CLI commands in fresh processes, library steps in-process.

    Each command or step runs between two reference loops, and its wall and
    CPU time are scaled by ``host_scale`` of the two.
    """
    argvs = wl.argvs(task)
    if argvs:
        steps = [lambda argv=argv: run_cli(argv, launcher, wl.dir) for argv in argvs]
    else:
        steps = [lambda step=step: timed_call(step) for step in wl.library_steps(task)]
    t = Task(0.0, 0.0, 0.0, [])
    result = []
    before = reference_s()
    for step in steps:
        out, wall, cpu, rss = step()
        after = reference_s()
        scale = host_scale(before, after)
        result.append(out)
        t.wall, t.cpu, t.raw_wall, t.raw_cpu = t.wall + wall * scale, t.cpu + cpu * scale, t.raw_wall + wall, t.raw_cpu + cpu
        t.rss_mb = max(t.rss_mb, rss)
        before = after
    t.failures = wl.check(task, result)
    return t


def tail(values) -> tuple[float, float, int]:
    """Value at the highest percentile with at least 10 samples beyond it.

    Only a rank above the median counts as a tail. With 21 or fewer
    samples there is none, so the highest sample is used and the report
    records the shortfall.
    Returns (value, percentile, samples beyond).
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n - TAIL_BEYOND > (n + 1) // 2 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def measure_imports(env, reps) -> dict:
    """Median import time of ``medbounds`` and ``medbounds.cli`` in fresh interpreters."""
    times = {}
    for module in ("medbounds", "medbounds.cli"):
        code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
        samples = []
        for _ in range(reps):
            done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True)
            samples.append(float(done.stdout))
        times[module] = statistics.median(samples)
    return times


def timed_setup(wl, samples: list, raw: list) -> None:
    """Set up once; append the host-speed-adjusted and the raw time."""
    before = reference_s()
    start = time.perf_counter()
    wl.setup()
    elapsed = time.perf_counter() - start
    samples.append(elapsed * host_scale(before, reference_s()))
    raw.append(elapsed)


def environment() -> dict:
    import numpy
    import scipy

    import medbounds

    env = {
        "git_sha": None,
        "git_dirty": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "pinned_cpu": PINNED_CPU,
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "kernel_backend": getattr(medbounds, "kernel_backend", None),
        "platform": platform.platform(),
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
        if sha.returncode == 0 and status.returncode == 0:
            env["git_sha"], env["git_dirty"] = sha.stdout.strip(), bool(status.stdout.strip())
    return env


def measure(wl, seconds, launcher, setup, setup_raw) -> tuple[list, dict, dict]:
    """Closed loop, one task at a time, until ``seconds`` have passed.

    A timed set-up follows each task, outside the task's time, so set-up
    samples see the same machine conditions as the tasks.
    """
    tasks = []
    deadline = time.perf_counter() + seconds
    while not tasks or time.perf_counter() < deadline:
        tasks.append(run_task(wl, len(tasks), launcher))
        timed_setup(wl, setup, setup_raw)
    walls = [t.wall for t in tasks]
    value, pct, beyond = tail(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(t.cpu for t in tasks),
        "items_per_s": statistics.median(wl.items / t.wall for t in tasks),
        "peak_rss_mb": statistics.median(t.rss_mb for t in tasks),
    }
    extra = {
        "wall_tail": {
            "value_s": value,
            "percentile": pct,
            "samples_beyond": beyond,
            "shortfall": TAIL_BEYOND - beyond,
            "samples": len(walls),
        },
        "raw": {
            "wall_s": statistics.median(t.raw_wall for t in tasks),
            "cpu_s": statistics.median(t.raw_cpu for t in tasks),
            "setup_s": statistics.median(setup_raw),
        },
        "samples": {
            "wall_s": walls,
            "cpu_s": [t.cpu for t in tasks],
            "raw_wall_s": [t.raw_wall for t in tasks],
            "raw_cpu_s": [t.raw_cpu for t in tasks],
            "peak_rss_mb": [t.rss_mb for t in tasks],
        },
    }
    return tasks, metrics, extra


def measure_traced(wl, seconds, env, out_dir, import_reps) -> tuple[list, dict, dict]:
    """Replay the workload in-process, alternating untraced and traced tasks."""
    import spans

    imports = measure_imports(env, import_reps)
    tracer = spans.Tracer()
    tasks, untraced, traced = [], [], {}
    run_inprocess(wl, 0)  # warm-up, untimed
    deadline = time.perf_counter() + seconds
    while len(tasks) < 2 or len(tasks) % 2 or time.perf_counter() < deadline:
        i = len(tasks)
        on = i % 2 == 1
        result, wall, cpu = run_inprocess(wl, i, tracer if on else None)
        if on:
            traced[i] = wall
        else:
            untraced.append(wall)
        tasks.append(Task(wall, cpu, self_maxrss_mb(), wl.check(i, result), wall, cpu))
    file_rows = {}
    for key, values in tracer.counts.items():
        if key[0] == "glm.load_csv.rows":
            for path, _ in values:
                if path not in file_rows:
                    with open(path) as fh:
                        file_rows[path] = sum(1 for _ in fh) - 1
    # a drop count other than the blanks the set-up injected is a defect, not a gain
    for (name, task), values in tracer.counts.items():
        if name == "glm.load_csv.rows":
            for path, n in values:
                if file_rows[path] - n != wl.injected:
                    tasks[task].failures.append(
                        f"load_csv dropped {file_rows[path] - n} rows of {path}, injected {wl.injected}"
                    )
    metrics = spans.layer_metrics(
        tracer, traced, untraced, imports, file_rows, wl.result_rows,
        len(wl.argvs(0)), wl.size["sweep_points"],
    )
    spans_path = os.path.join(out_dir, f"{wl.name}-spans.csv")
    tracer.write(spans_path)
    extra = {
        "imports_s": imports,
        "spans_file": spans_path,
        "spans": len(tracer.spans),
        "samples": {"untraced_wall_s": untraced, "traced_wall_s": list(traced.values())},
    }
    return tasks, {name: metrics[name] for name, _ in spans.PER_LAYER}, extra


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "medbounds", "__init__.py")):
        print(f"error: no medbounds package under {SRC}; run from a medbounds checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import medbounds

    if not os.path.abspath(medbounds.__file__).startswith(SRC + os.sep):
        print(f"error: imported medbounds from {medbounds.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import spans
    import workloads

    args = parse_args(argv)
    # the reference loops and the task must run on the same core for the
    # host-speed scale to apply; the launcher and every command inherit this
    os.sched_setaffinity(0, {PINNED_CPU})
    size = workloads.TINY if args.tiny else workloads.FULL
    # inputs name each other by paths relative to the root, so their bytes
    # (and hashes) do not depend on where the checkout lives
    os.chdir(ROOT)
    out_dir = ".medbench"
    work_dir = os.path.join(out_dir, args.workload)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    env = child_env()
    launcher = Launcher(env)
    try:
        wl = workloads.WORKLOADS[args.workload](work_dir, args.seed, size)
        setup, setup_raw = [], []
        for _ in range(SETUP_REPS):
            timed_setup(wl, setup, setup_raw)
        hashes = wl.hashes()
        if wl.argvs(0):
            # compile bytecode and warm the file cache before a CLI task is timed
            subprocess.run([sys.executable, "-c", "import medbounds.cli"], env=env, cwd=ROOT, check=True)
        if args.trace:
            tasks, metrics, extra = measure_traced(wl, args.seconds, env, out_dir, 1 if args.tiny else IMPORT_REPS)
            units = dict(spans.PER_LAYER)
        else:
            if not wl.argvs(0):
                run_inprocess(wl, 0)  # warm-up, untimed
            tasks, metrics, extra = measure(wl, args.seconds, launcher, setup, setup_raw)
            metrics["setup_s"] = statistics.median(setup)
            units = dict(END_TO_END)
        if wl.hashes() != hashes:
            raise RuntimeError("set-up wrote different input bytes for the same seed")
    finally:
        launcher.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = [t for t in tasks if t.failures]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
        "environment": environment(),
        "inputs_sha256": hashes,
        "setup_s_samples": setup,
        "raw_setup_s_samples": setup_raw,
        "attempted": len(tasks),
        "failed": len(failed),
        "failed_frac": len(failed) / len(tasks),
        "failures": [f for t in failed[:3] for f in t.failures[:5]],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **extra,
    }
    line = json.dumps(report)
    with open(os.path.join(out_dir, f"{args.workload}-trace{args.trace}.json"), "w") as fh:
        fh.write(line + "\n")
    print(line)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(tasks),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
