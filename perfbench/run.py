"""End-to-end and per-layer benchmark of srgkit.

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --capture

Run from the root of a source tree.  Every command runs in a fresh child
interpreter with ``PYTHONPATH=src``, started through ``launch.py``, one
command at a time.  End-to-end times are scaled to a fixed host speed,
measured by a reference computation timed between the commands.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md`` for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
TMP = ROOT / ".perfbench_tmp"
GRAPH_FILE = ".perfbench_tmp/grassmann-6-2.g6"

# A workload is a list of units; the seed permutes the units of each
# sequence.  A unit is a list of commands that must run in order.  A
# command is (key, kind, args): kind "cli" runs ``python -m srgkit args``,
# kind "classes" runs ``classes_job.py``.
WORKLOADS = {
    "table1": [[("table1", "cli", ["table1"])]],
    "symbolic": [
        [(f"scheme {job}", "cli", ["scheme", job])]
        for job in ("grassmann", "g2", "dualpolar:1/2", "dualpolar:1", "dualpolar:3/2")
    ],
    "verify": [
        [
            ("gen grassmann:n=6,q=2", "cli", ["gen", "grassmann:n=6,q=2", "-o", GRAPH_FILE]),
            ("verify graph file", "cli", ["verify", GRAPH_FILE]),
        ],
        [("orbitals psl2_8_sq6", "cli", ["orbitals", "src/srgkit/data/psl2_8_sq6.gens"])],
    ],
    "classes": [[("classes", "classes", [])]],
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "success_rate": "ratio"}
SETUP_PER_SEQUENCE = 4  # cold imports of srgkit.cli before each sequence
MIN_SETUP_SAMPLES = 15
RUN_LIMIT_S = 170.0  # every run must end within 180 s
# The speed of a shared virtual machine drifts by a quarter and more over
# minutes.  A fixed pure-Python computation, timed in this process between
# the commands, measures that speed; end-to-end times are scaled to a host
# on which it takes REFERENCE_NOMINAL_S.
REFERENCE_NOMINAL_S = 0.1
REFERENCE_SHARE = 0.25  # of each command's time, spent after it on the reference
REFERENCE_RESULT = 249350
EXACT_COUNTS = (
    "geometry.tangency_calls",
    "schemes.poly_gcd_calls",
    "schemes.validate_calls",
    "graphcore.drg_roots",
    "orbitals.pairs",
)


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, a hung child)."""


class Child:
    """One finished child process: exit code, wall time, peak RSS and CPU
    time, as ``launch.py`` measured them."""

    def __init__(self, argv: list[str], timeout: float) -> None:
        TMP.mkdir(exist_ok=True)
        self.out_path, self.err_path = TMP / "stdout", TMP / "stderr"
        report = TMP / "launch"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        timeout = max(timeout, 1.0)
        launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(report), repr(timeout)]
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            proc = subprocess.Popen([*launcher, *argv], cwd=ROOT, env=env, stdout=out, stderr=err,
                                    start_new_session=True)
            try:
                proc.wait(timeout + 10)
            except BaseException as e:  # hung launcher, Ctrl-C or SIGTERM
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                if isinstance(e, subprocess.TimeoutExpired):
                    raise BenchError(f"launcher hung: {' '.join(argv)}") from None
                raise
        if proc.returncode != 0:
            raise BenchError(f"launcher failed: {self.stderr_tail()}")
        code, wall, rss_kib, cpu, expired = report.read_text().split()
        if expired == "1":
            raise BenchError(f"timed out: {' '.join(argv)}")
        self.code, self.wall_s, self.cpu_s = int(code), float(wall), float(cpu)
        self.rss_mb = int(rss_kib) / 1024  # ru_maxrss is in KiB on Linux

    def stdout(self) -> str:
        return self.out_path.read_text()

    def stderr_tail(self) -> str:
        return self.err_path.read_text()[-2000:]


def reference_work() -> int:
    """The same mix as srgkit's hot loops, in little memory: tuple keys in
    a dict, big-int bitset intersections, and sorts of tuple lists."""
    labels: dict[tuple[int, int], int] = {}
    for i in range(40_000):
        key = ((i * 7919) % 61, (i * i) % 97)
        labels[key] = labels.get(key, 0) + 1
    n = 1500
    rows = [((i * 2654435761) ^ (i << 700)) & ((1 << n) - 1) for i in range(n)]
    common = 0
    for u in range(0, n, 5):
        for v in range(u + 1, min(n, u + 60)):
            common += (rows[u] & rows[v]).bit_count()
    last = 0
    for r in range(15):
        last += sorted(((a * r) % 211, a % 223) for a in range(10_000))[-1][0]
    return len(labels) + common + last


def reference_s() -> float:
    """Seconds the reference computation takes on the host right now."""
    start = perf_counter()
    result = reference_work()
    elapsed = perf_counter() - start
    if result != REFERENCE_RESULT:
        raise BenchError(f"reference computation returned {result}")
    return elapsed


# -- payloads -----------------------------------------------------------------


def _normalise(value):
    """Drop every ``seconds`` key, which varies between runs."""
    if isinstance(value, dict):
        return {k: _normalise(v) for k, v in value.items() if k != "seconds"}
    if isinstance(value, list):
        return [_normalise(v) for v in value]
    return value


def payload(key: str, child: Child):
    """The comparable output of a finished command."""
    if key.startswith("gen "):
        data = (ROOT / GRAPH_FILE).read_bytes()
        return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    report = _normalise(json.loads(child.stdout()))
    if report.get("source") == "file":
        report["target"] = "<graph file>"
    return report


def first_difference(got, want, path: str = "$") -> str | None:
    """Path of the first key or index where two JSON values differ."""
    if isinstance(got, dict) and isinstance(want, dict):
        for k in sorted(set(got) | set(want)):
            if k not in got or k not in want:
                return f"{path}.{k}"
            diff = first_difference(got[k], want[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(got, list) and isinstance(want, list):
        for i, (g, w) in enumerate(zip(got, want)):
            diff = first_difference(g, w, f"{path}[{i}]")
            if diff:
                return diff
        return None if len(got) == len(want) else f"{path}[{min(len(got), len(want))}]"
    return None if got == want and type(got) is type(want) else path


def load_expected(workload: str) -> dict:
    path = EXPECTED / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing expected payloads {path}")
    return json.loads(path.read_text())


# -- running commands ----------------------------------------------------------


def child_argv(kind: str, args: list[str], trace_path: Path | None) -> list[str]:
    if trace_path is not None:
        return [sys.executable, str(HERE / "tracer.py"), str(trace_path), kind, *args]
    if kind == "cli":
        return [sys.executable, "-m", "srgkit", *args]
    return [sys.executable, str(HERE / "classes_job.py"), *args]


class Runner:
    """Runs command sequences of one workload and checks their payloads."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.expected = load_expected(workload)
        self.rng = random.Random(f"{workload}:{seed}")
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def order(self) -> list:
        """The workload's commands in a fresh seed-derived order."""
        units = self.rng.sample(WORKLOADS[self.workload], len(WORKLOADS[self.workload]))
        return [command for unit in units for command in unit]

    def run_command(self, key: str, kind: str, args: list[str], trace_path=None) -> Child:
        child = Child(child_argv(kind, args, trace_path), self.deadline - perf_counter())
        self.attempted += 1
        problem = None
        if child.code != 0:
            problem = f"exit code {child.code}\n{child.stderr_tail()}"
        else:
            try:
                got = payload(key, child)
            except (OSError, ValueError) as e:
                problem = f"unreadable output: {e}"
            else:
                diff = first_difference(got, self.expected.get(key))
                if diff is not None:
                    problem = f"payload differs from expected at {diff}"
        if problem is not None:
            self.failed += 1
            command = " ".join(["srgkit" if kind == "cli" else "classes_job.py", *args])
            print(f"FAILED [{self.workload}] {command}: {problem}", file=sys.stderr)
        return child

    def sequence(self, order: list, traced: bool = False) -> dict:
        """Run one sequence; return its wall time, peak RSS, CPU time and,
        when traced, the per-layer metrics of its commands summed.  An
        untraced sequence also times the reference computation: once before
        the first command, and after each command for REFERENCE_SHARE of
        that command's time."""
        wall = rss = cpu = 0.0
        layers: dict[str, float] = {}
        reached: dict[str, int] = {}
        reference = [] if traced else [reference_s()]
        for i, (key, kind, args) in enumerate(order):
            trace_path = TMP / f"trace-{i}.json" if traced else None
            child = self.run_command(key, kind, args, trace_path)
            wall += child.wall_s
            if not traced:
                repeats = max(1, round(REFERENCE_SHARE * child.wall_s / REFERENCE_NOMINAL_S))
                reference += [reference_s() for _ in range(repeats)]
            rss = max(rss, child.rss_mb)
            cpu += child.cpu_s
            if traced and child.code == 0:
                trace = json.loads(trace_path.read_text())
                for name, value in tracer.layer_metrics(trace).items():
                    layers[name] = layers.get(name, 0) + value
                for target, n in trace["reached"].items():
                    reached[target] = reached.get(target, 0) + n
        return {"wall_s": wall, "rss_mb": rss, "cpu_s": cpu, "reference": reference,
                "layers": layers, "reached": reached}


def cold_import_s(deadline: float) -> float:
    child = Child([sys.executable, "-c", "import srgkit.cli"], deadline - perf_counter())
    if child.code != 0:
        raise BenchError(f"cannot import srgkit.cli:\n{child.stderr_tail()}")
    return child.wall_s


def summary(values: list[float], stat=statistics.median) -> dict:
    return {"value": stat(values), "stat": stat.__name__, "min": min(values), "max": max(values),
            "n": len(values)}


def run_untraced(
    workload: str, seed: int, seconds: float, deadline: float
) -> tuple[Runner, dict, dict]:
    """Repeat the sequence for about ``seconds``, stopping where the next
    one would end more than half past it.  Cold-import samples are spread
    between the sequences, so they see the same machine state as the
    sequences do.  Every time is scaled by one factor per run, so that it
    reads as on a host where the reference computation takes
    REFERENCE_NOMINAL_S.  Returns the runner, the end-to-end metrics and,
    for the record, the unscaled times and the reference times."""
    runner = Runner(workload, seed, deadline)
    cold_import_s(deadline)  # warms the page cache and bytecode files
    reference_s()  # the first call also grows the heap
    setup, sequences = [], []
    start = perf_counter()
    while not sequences or (perf_counter() - start) * (1 + 0.5 / len(sequences)) <= seconds:
        setup += [cold_import_s(deadline) for _ in range(SETUP_PER_SEQUENCE)]
        sequences.append(runner.sequence(runner.order()))
    setup += [cold_import_s(deadline) for _ in range(MIN_SETUP_SAMPLES - len(setup))]
    # One factor per run: the reference's mean time over the run, which
    # interleaves it with the commands, against its nominal time.  Single
    # reference timings are too noisy to scale one sequence or one import.
    reference = [r for s in sequences for r in s["reference"]]
    scale = REFERENCE_NOMINAL_S / statistics.mean(reference)
    walls = [s["wall_s"] for s in sequences]
    metrics = {
        "wall_s": summary([w * scale for w in walls], statistics.mean),
        "setup_s": summary([t * scale for t in setup]),
        "peak_rss_mb": summary([s["rss_mb"] for s in sequences]),
        "success_rate": {"value": 1 - runner.failed / runner.attempted, "n": runner.attempted},
    }
    for name, unit in END_TO_END.items():
        metrics[name]["unit"] = unit
    record = {
        "unscaled_wall_s": dict(summary(walls, statistics.mean), unit="s"),
        "unscaled_setup_s": dict(summary(setup), unit="s"),
        "reference_s": dict(summary(reference, statistics.mean), unit="s"),
    }
    return runner, metrics, record


def run_traced(workload: str, seed: int, seconds: float, deadline: float) -> tuple[Runner, dict, list[str]]:
    """One untraced sequence, then traced ones in the same order: at least
    two, and more while ``seconds`` have not passed.  Returns the runner,
    the per-layer metrics and the self-test failures."""
    runner = Runner(workload, seed, deadline)
    order = runner.order()
    start = perf_counter()
    plain = runner.sequence(order)
    traced = []
    while len(traced) < 2 or perf_counter() - start < seconds:
        traced.append(runner.sequence(order, traced=True))
    problems = []
    for target, _, _, workloads in tracer.WRAPS:
        if workload in workloads and not all(s["reached"].get(target) for s in traced):
            problems.append(f"{target} was not reached on {workload}")
    for name in EXACT_COUNTS:
        values = {s["layers"].get(name) for s in traced}
        if len(values) != 1:
            problems.append(f"{name} differs between traced runs: {sorted(values)}")
    names = [*tracer.SPAN_METRICS, *tracer.LEAF_METRICS, *tracer.COUNT_METRICS]
    metrics = {}
    for name in names:
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = dict(summary([s["layers"].get(name, 0) for s in traced]), unit=unit)
    metrics["cli.cpu_s"] = dict(summary([plain["cpu_s"]]), unit="s")
    metrics["bench.reference_s"] = dict(summary(plain["reference"], statistics.mean), unit="s")
    metrics["bench.trace_overhead_s"] = dict(
        summary([t["wall_s"] - plain["wall_s"] for t in traced]), unit="s"
    )
    metrics["bench.uncovered_s"] = dict(
        summary([s["wall_s"] - s["layers"].get("covered_s", 0) for s in traced]), unit="s"
    )
    return runner, metrics, problems


# -- reporting -----------------------------------------------------------------


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=False
    ).stdout.strip()


def environment(seed: int, workloads: list[str]) -> dict:
    """What a result depends on besides the code: interpreter, machine,
    commit (None outside a git checkout), seed and sample counts."""
    in_git = (ROOT / ".git").exists() and shutil.which("git") is not None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if in_git else None,
        "seed": seed,
        "workloads": workloads,
        "min_setup_samples": MIN_SETUP_SAMPLES,
    }


def print_metrics(workload: str, runner: Runner, metrics: dict) -> None:
    for name, m in metrics.items():
        f = ".10g" if m["unit"] == "count" else ".6g"
        spread = f"  ({m['stat']} of {m['n']}, min {m['min']:{f}}, max {m['max']:{f}})" if "min" in m else ""
        print(f"{workload:9s} {name:28s} {m['value']:{f}} {m['unit']}{spread}")
    if "success_rate" in metrics:
        rate = runner.failed / runner.attempted
        print(f"{workload:9s} {'error_rate':28s} {rate:.6g} ratio  ({runner.failed} of {runner.attempted} commands)")


def capture() -> None:
    """Write each command's normalised payload, in the default order, as the
    expected payloads.  Run only on a commit whose outputs are trusted."""
    EXPECTED.mkdir(exist_ok=True)
    for workload, units in WORKLOADS.items():
        expected = {}
        for key, kind, args in (cmd for unit in units for cmd in unit):
            child = Child(child_argv(kind, args, None), RUN_LIMIT_S)
            if child.code != 0:
                raise BenchError(f"{key} exited {child.code}:\n{child.stderr_tail()}")
            expected[key] = payload(key, child)
        (EXPECTED / f"{workload}.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"captured {workload}: {len(expected)} commands")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long to repeat the command sequence, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture", action="store_true",
                        help="rewrite the expected payloads from this tree's outputs")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(workloads)
    deadline = perf_counter() + RUN_LIMIT_S * len(workloads)
    try:
        if not (ROOT / "src" / "srgkit" / "__init__.py").is_file():
            raise BenchError(f"no srgkit sources under {ROOT / 'src'}")
        if args.capture:
            capture()
            return 0
        print("env " + json.dumps(environment(args.seed, workloads), sort_keys=True))
        attempted = failed = 0
        problems: list[str] = []
        results = {}
        for workload in workloads:
            if args.trace:
                runner, metrics, found = run_traced(workload, args.seed, args.seconds, deadline)
                problems += found
            else:
                runner, metrics, record = run_untraced(workload, args.seed, args.seconds, deadline)
                print_metrics(workload, runner, record)
            print_metrics(workload, runner, metrics)
            attempted += runner.attempted
            failed += runner.failed
            results[workload] = metrics
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}", file=sys.stderr)
    if len(results) == 1:
        metrics = next(iter(results.values()))
    else:
        metrics = {f"{w}.{name}": m for w, ms in results.items() for name, m in ms.items()}
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
