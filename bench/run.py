"""meanbound benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from its seed in a single process with one closed-loop
client, checks every output, and prints a JSON result object as the last
line of standard output.  `--trace 0` measures the end-to-end metrics;
`--trace 1` runs the same requests untraced and traced, in turns, and
reports the per-layer metrics of the traced turns.  Workloads, metrics and
the layer-to-workload predictions are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_run"
SEED_ENV = "MEANBOUND_SEED"
SETUP_SLOTS = 3
TAIL_BEYOND = 10
# On a shared VM a slow spell of the host slows a fixed loop and a request
# alike, so every timing is scaled by how long a ~4-ms calibration loop took
# right before it.  The loop's fastest time on the machine the benchmark was
# defined on (2-core Intel Xeon VM at 2.1 GHz, Python 3.11.7) sets the
# reference speed at which timings are reported.
CALIBRATION_LOOPS = 60_000
REFERENCE_CALIBRATION_S = 0.0039
# One process and one client: BLAS runs on one thread unless the caller says
# otherwise.  Matrices here are at most 24 x 24, which OpenBLAS computes on
# one thread anyway, but starting its thread pool took from 0 to 75 ms of a
# fresh interpreter's import, which made set-up time swing between runs.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_IMPORT_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import meanbound, meanbound.cli\n"
    "print(repr(time.perf_counter() - start))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here."""


def request_seed(seed: int, index: int) -> int:
    """Suite seed of request `index`, a 63-bit integer fixed by the run seed."""
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class Outcome:
    """One request: seconds spent in the program, work units, failed units,
    and the canonical report."""

    __slots__ = ("seconds", "attempted", "failed", "report", "verdicts", "rows")

    def __init__(self, seconds, attempted, failed, report="", verdicts="", rows=()):
        self.seconds = seconds
        self.attempted = attempted
        self.failed = failed
        self.report = report
        self.verdicts = verdicts
        self.rows = rows


def _direct(name, fn, *args):
    return fn(*args)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class SuiteWorkload:
    """Closed loop of `meanbound suite` calls through cli.main.

    Request i runs the suite at seed request_seed(seed, i) and writes its
    JSON report; the report is checked row by row.
    """

    trace_plan = 1  # requests run untraced and traced in each traced turn

    def __init__(self, args: list, rows: int, trial_rows: int, requests: int):
        self.args = list(args)
        self.rows = rows              # rows in a report
        self.trial_rows = trial_rows  # rows that run the configured trials
        self.requests = requests      # distinct requests in one round
        self.trials = int(self.args[self.args.index("--trials") + 1])

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.out = workdir / "report.json"

    def run(self, index: int, call) -> Outcome:
        from meanbound import cli

        argv = ["suite", *self.args, "--seed", str(request_seed(self.seed, index)),
                "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            began = time.perf_counter()
            code = call("cli.main", cli.main, argv)
            seconds = time.perf_counter() - began
        text = self.out.read_text(encoding="utf-8")
        doc = json.loads(text)
        rows = doc["results"]
        attempted = sum(row["trials"] for row in rows)
        failed = max(sum(row["failures"] for row in rows), len(doc["failures"]))
        trial_rows = [row for row in rows if row["family"] != "comparison"]
        sound = (code == 0 and len(rows) == self.rows
                 and len(trial_rows) == self.trial_rows
                 and all(row["passes"] + row["skipped"] + row["failures"] == row["trials"]
                         for row in rows)
                 and sum(row["trials"] for row in trial_rows)
                 == self.trial_rows * self.trials)
        if not sound:
            failed = max(failed, attempted, 1)
        verdicts = "".join(f"{row['key']},{row['passes']},{row['failures']},"
                           f"{row['skipped']}\n" for row in rows)
        report = re.sub(r',\n  "wall_time_s": [^\n]*\n', "\n", text)
        return Outcome(seconds, max(attempted, 1), failed, report, verdicts, rows)


# Hypothesis windows of the operator families, as in meanbound.scalar; v is
# drawn outside them, so every check is one the theorems cover.
def _window(family: str, branch: str, n: int) -> tuple:
    dyadic = family in ("theorem_t6", "corollary_c3")
    high = branch == "i" if dyadic else branch == "ii"
    if dyadic:
        edge = (2.0 ** (n - 1) + (1.0 if high else -1.0)) / 2.0 ** n
        return (0.5, edge) if high else (edge, 0.5)
    return ((2.0 ** n - 1.0) / 2.0 ** n, 1.0) if high else (0.0, 0.5 ** n)


OPERATOR_FAMILIES = ("theorem_t6", "theorem_t66", "corollary_c3", "corollary_c33")
MIN_DEPTH = {"theorem_t6": 2, "theorem_t66": 1, "corollary_c3": 2, "corollary_c33": 1}
COND_MAX = 1e4            # spectrum of the matrix files: cond_max^(-1/2) .. cond_max^(1/2)
V_RANGE = (-6.0, 6.0)
V_MARGIN = 1e-3           # least distance of v from a window endpoint


class LargeWorkload:
    """Closed loop of operator checks on pre-written matrix files.

    Check i loads its own pair of files with load_spd_matrix, then
    evaluates one operator family, branch and depth at a weight outside the
    family's window.  Dimensions cycle through `dims`.
    """

    trace_plan = 6

    def __init__(self, dims: tuple, requests: int):
        self.dims = dims
        self.requests = requests

    def prepare(self, seed: int, workdir: Path) -> None:
        """Write one pair of matrix files per check, so that no one matrix's
        Jacobi sweep count sets a run's figures."""
        import numpy as np
        from meanbound.matrices import format_matrix_text

        self.seed = seed
        self.files = []
        gen = np.random.default_rng(seed)
        half = 0.5 * np.log(COND_MAX)
        for index in range(self.requests):
            dim = self.dims[index % len(self.dims)]
            paths = []
            for side in "ab":
                q, r = np.linalg.qr(gen.standard_normal((dim, dim)))
                q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
                lam = np.exp(gen.uniform(-half, half, dim))
                m = (q * lam) @ q.T
                path = workdir / f"{side}{index}.txt"
                path.write_text(format_matrix_text(0.5 * (m + m.T)), encoding="utf-8")
                paths.append(path)
            self.files.append((dim, paths))

    def spec(self, index: int) -> tuple:
        r = random.Random(f"{self.seed}/{index}")
        family = r.choice(OPERATOR_FAMILIES)
        branch = r.choice(("i", "ii"))
        n = r.randint(MIN_DEPTH[family], 6)
        lo, hi = _window(family, branch, n)
        vlo, vhi = V_RANGE
        left = (lo - V_MARGIN) - vlo
        x = r.uniform(0.0, left + vhi - (hi + V_MARGIN))
        v = vlo + x if x < left else hi + V_MARGIN + (x - left)
        return family, branch, n, v

    def run(self, index: int, call) -> Outcome:
        from meanbound import matrices, operators

        dim, (path_a, path_b) = self.files[index]
        family, branch, n, v = self.spec(index)
        began = time.perf_counter()
        a = call("matrices.load", matrices.load_spd_matrix, path_a)
        b = call("matrices.load", matrices.load_spd_matrix, path_b)
        rep = call("operators." + family, getattr(operators, family), a, b, v, n, branch)
        seconds = time.perf_counter() - began
        record = rep.as_dict()
        ok = record["hypothesis_ok"] and record["holds"] and record["dim"] == dim
        verdicts = (f"{family},{branch},{dim},{n},{record['hypothesis_ok']},"
                    f"{record['holds']},{record['degenerate']}\n")
        return Outcome(seconds, 1, 0 if ok else 1, json.dumps(record, sort_keys=True),
                       verdicts)


WORKLOADS = {
    "scalar-sweep": SuiteWorkload(
        ["--families", "scalar,comparison", "--trials", "600", "--grid-points", "16"],
        rows=35, trial_rows=18, requests=40),
    "operator-sweep": SuiteWorkload(
        ["--families", "operator", "--dims", "1,2,4,8", "--cond-max", "1e4",
         "--trials", "4"],
        rows=8, trial_rows=8, requests=40),
    "operator-large": LargeWorkload(dims=(16, 16, 24), requests=40),
}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _load_program():
    if not (SRC / "meanbound" / "__init__.py").is_file():
        raise BenchError(f"no meanbound sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import meanbound
    import meanbound.cli  # noqa: F401

    if Path(meanbound.__file__).resolve().parent != (SRC / "meanbound").resolve():
        raise BenchError(f"imported meanbound from {meanbound.__file__}, not {SRC}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "meanbound").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {key: os.environ.get(key) for key in BLAS_THREAD_VARS},
        "git_commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


def setup_time() -> float:
    """Time for a fresh interpreter to import meanbound and its CLI."""
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchError(f"importing meanbound failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def tail(values: list, least: int) -> tuple:
    """(value, percentile, beyond) at the highest percentile that has
    TAIL_BEYOND samples beyond it in `least` samples, the fewest a run can
    have, so that runs of any length report the same percentile; the
    maximum when `least` is too small."""
    ordered = sorted(values)
    keep = least - TAIL_BEYOND
    if keep < 1:
        return ordered[-1], 100.0, 0
    index = -(-keep * len(ordered) // least) - 1
    return ordered[index], 100.0 * keep / least, len(ordered) - 1 - index


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, outcome: Outcome) -> Outcome:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        return outcome

    def run(self, workload, index: int, call=_direct) -> Outcome:
        began = time.perf_counter()
        try:
            return self.add(workload.run(index, call))
        except Exception as exc:  # a request that raises is a failed request
            self.problems.append(f"request {index}: {type(exc).__name__}: {exc}")
            return self.add(Outcome(time.perf_counter() - began, 1, 1))

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)


def calibrate() -> float:
    """Seconds the machine takes, right now, for a fixed pure-Python loop."""
    began = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += (i * 7) % 13
        if total > 1000:
            total -= 999
    return time.perf_counter() - began


def run_untraced(workload, seconds: float, tally: Tally, setup_slots: int) -> tuple:
    """Timed rounds of the workload's requests; returns (metrics, first round).

    Every round sends the same requests in the same order; a round starts
    only if, at the pace of the last one, it ends within `seconds` (at
    least two rounds run).  Each repeat of a request must return the same
    report as in the first round.  Set-up time is probed at `setup_slots`
    fixed points of every round.  Right before every request and every
    probe the calibration loop is timed, and the measured time is scaled by
    REFERENCE_CALIBRATION_S / that time.  Latencies are taken over every
    (request, round) sample.
    """
    count = workload.requests
    tally.run(workload, 0)  # warm-up: lazy initialisation in numpy and meanbound
    first: list = []
    wall, scaled, setup_wall, setup_scaled = [], [], [], []
    probe_at = {slot * count // setup_slots for slot in range(setup_slots)}
    rounds, round_s = 0, 0.0
    start = time.perf_counter()
    while rounds < 2 or time.perf_counter() - start + round_s <= seconds:
        round_start = time.perf_counter()
        for index in range(count):
            if index in probe_at:
                speed = REFERENCE_CALIBRATION_S / calibrate()
                setup_wall.append(setup_time())
                setup_scaled.append(setup_wall[-1] * speed)
            speed = REFERENCE_CALIBRATION_S / calibrate()
            outcome = tally.run(workload, index)
            wall.append(outcome.seconds)
            scaled.append(outcome.seconds * speed)
            if rounds == 0:
                first.append(outcome)
            else:
                tally.check(outcome.report == first[index].report,
                            f"request {index}: report differs between two runs "
                            f"at one seed")
        rounds += 1
        round_s = time.perf_counter() - round_start
    work = rounds * sum(o.attempted for o in first)

    def figures(times, setups):
        return {"trials_per_s": work / sum(times),
                "check_p50_ms": 1e3 * statistics.median(times),
                "check_tail_ms": 1e3 * tail(times, 2 * count)[0],
                "setup_s": statistics.median(setups)}

    _, percentile, beyond = tail(wall, 2 * count)
    print(f"rounds: {rounds}; check_tail_ms: p{percentile:.1f} of {len(wall)} "
          f"(request, round) samples, {beyond} beyond")
    print("wall clock: " + json.dumps(figures(wall, setup_wall)))
    return figures(scaled, setup_scaled), first


def run_traced(workload, seconds: float, tally: Tally, spans_path: Path) -> tuple:
    """Turns of the trace plan, untraced then traced, until `seconds` have
    passed (at least two turns).  Times and report sizes, which carry the
    wall time, are medians over turns; every other count must repeat
    exactly."""
    from tracing import Tracer, install, layer_metrics

    plan_size = min(workload.trace_plan, workload.requests)
    turns, tracer = [], None
    start = time.perf_counter()
    while len(turns) < 2 or time.perf_counter() - start < seconds:
        plain = [tally.run(workload, i) for i in range(plan_size)]
        tracer = Tracer()
        install(tracer)
        try:
            traced = []
            for i in range(plan_size):
                tracer.request = i
                traced.append(tally.run(workload, i, tracer.call))
        finally:
            tracer.restore()
        for i, (a, b) in enumerate(zip(plain, traced)):
            tally.check(a.report == b.report,
                        f"request {i}: traced report differs from untraced report")
        layers = layer_metrics(tracer.spans, tracer.counts)
        rows = [row for outcome in traced for row in outcome.rows]
        trials = sum(row["trials"] for row in rows)
        layers["harness.verdict_ratio"] = (
            sum(row["passes"] + row["failures"] for row in rows) / trials if trials else 0.0)
        layers["trace.overhead_s"] = (sum(o.seconds for o in traced)
                                      - sum(o.seconds for o in plain))
        turns.append(layers)
    exact = [name for name, value in turns[0].items()
             if isinstance(value, int) and name != "reporting.bytes"]
    tally.check(all(turn[name] == turns[0][name] for turn in turns for name in exact),
                "per-layer counts differ between traced turns")
    tracer.write(spans_path)
    print(f"trace: {len(turns)} turns, {len(tracer.spans)} spans per turn, "
          f"spans in {spans_path.relative_to(ROOT)}")
    return {name: turns[0][name] if name in exact else
            statistics.median(turn[name] for turn in turns)
            for name in turns[0]}, plain


def digest(plan: list) -> str:
    return hashlib.sha256("".join(o.verdicts for o in plan).encode()).hexdigest()[:16]


def declared_units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them in `section`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workloads=None, setup_slots: int = SETUP_SLOTS) -> dict:
    """Run one workload and return the result object (last line of output)."""
    if os.environ.get(SEED_ENV) is not None:
        raise BenchError(f"{SEED_ENV} is set; it would override the suite seed")
    workload = (workloads or WORKLOADS)[workload_name]
    _load_program()
    print("env: " + json.dumps(environment(), sort_keys=True))
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK_DIR))
    tally = Tally()
    try:
        workload.prepare(seed, workdir)
        if trace:
            metrics, plan = run_traced(workload, seconds, tally,
                                       WORK_DIR / f"spans-{workload_name}.jsonl")
            units = declared_units("per_layer")
        else:
            metrics, plan = run_untraced(workload, seconds, tally, setup_slots)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            units = declared_units("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    error_ratio = tally.failed / tally.attempted
    print(f"workload={workload_name} seed={seed} attempted={tally.attempted} "
          f"failed={tally.failed} error_ratio={error_ratio} "
          f"verdict_digest={digest(plan)} over {len(plan)} requests")
    return {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for key in BLAS_THREAD_VARS:
        os.environ.setdefault(key, "1")  # before numpy is imported
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
