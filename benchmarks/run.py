"""limitper benchmark: one workload, end-to-end metrics or per-layer spans.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client: each run starts ``python -m limitper ...`` children
one after another, each only after the previous one exited, and checks every
output.  Runs repeat for about ``--seconds`` (the last ends within half a
run of it); the end-to-end metrics are medians over the runs.  Passes of a
fixed reference loop follow every run, and ``wall_ref`` is the median run's
wall time over the mean pass, which cancels the host's changes of speed.
With ``--trace 1`` one more run of the same argv goes through ``tracing.py``
and the per-layer metrics come from its spans.  The last line of stdout is
the JSON result; the lines before it are the same figures for people.
See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0  # the whole benchmark must exit within 180 s
SETUP_PROBES = 7
REFERENCE_SHARE = 0.15  # reference passes after a run take about this share of it

END_TO_END = (
    ("wall_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Interpreter start until limitper.cli is imported; prints the monotonic
# clock (system-wide on Linux, so comparable with the parent's) and the
# imported package path.
SETUP_PROBE = (
    "import time, limitper.cli, limitper; "
    "print(time.monotonic_ns()); print(limitper.__file__)"
)


class BenchmarkError(Exception):
    """The benchmark itself cannot run here (not a failure of the program)."""


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Run:
    wall_s: float = 0.0
    rss_mb: float = 0.0
    failure: str | None = None
    facts: dict = field(default_factory=dict)
    ref_s: list[float] = field(default_factory=list)  # reference passes right after the run


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, cwd: Path, log: Path, timeout: float) -> Child:
    """Run one child to exit; wall time from spawn to exit, peak RSS from wait4."""
    if timeout <= 0:
        raise BenchmarkError("out of time before the next child")
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        stop = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        code=proc.returncode,
        wall_s=(stop - start) / 1e9,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=log.with_suffix(".out").read_text(),
        stderr=log.with_suffix(".err").read_text(errors="replace"),
    )


def setup_probe(work: Path, deadline: float) -> float:
    """Seconds from spawning a fresh interpreter until limitper.cli is ready."""
    start = time.monotonic_ns()
    child = spawn(
        [sys.executable, "-c", SETUP_PROBE], work, work / "setup", deadline - time.monotonic()
    )
    lines = child.stdout.split()
    if child.code != 0 or len(lines) != 2:
        raise BenchmarkError(f"limitper.cli does not import (exit {child.code})")
    if Path(lines[1]).resolve().parent.parent != SRC:
        raise BenchmarkError(f"children import limitper from {lines[1]}, not from {SRC}")
    return (int(lines[0]) - start) / 1e9


def reference_pass() -> float:
    """Seconds for one pass of a fixed loop that never touches limitper.

    The loop mixes what the workloads spend their time on: dict and integer
    work, ``Fraction`` arithmetic, float formatting and numpy passes over an
    8 MB array.  Its work never changes, so its time says how fast the host
    runs this process at that moment: 0.14 s to 0.25 s on a 2-vCPU Xeon VM,
    depending on the load on the host.
    """
    import numpy

    start = time.perf_counter_ns()
    table, total, lines = {}, Fraction(0), []
    for i in range(1, 80001):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + i
        if i & 7 == 0:
            total += Fraction(i % 97, 1 << (i % 11))
        if i & 1 == 0:
            lines.append(f"{i},{key},{i / 3:.17g}")
    "\n".join(lines)
    cells = numpy.arange(1 << 20, dtype=numpy.int64)
    for r in range(8):
        numpy.bincount((cells * 2654435761 + r) & 4095, minlength=4096)
    return (time.perf_counter_ns() - start) / 1e9


class Checker:
    """Runs each invocation's output check, once per distinct output.

    ``spent_s`` is the time spent in checks, which ``measure`` leaves out of
    the measured time.
    """

    def __init__(self) -> None:
        self._passed: dict[str, dict] = {}
        self.spent_s = 0.0

    def __call__(self, invocation, base: Path, stdout: str) -> dict:
        digest = hashlib.sha256(stdout.encode())
        for suffix in invocation.outputs:
            digest.update(base.with_suffix(suffix).read_bytes())
        key = f"{invocation.label}:{digest.hexdigest()}"
        if key not in self._passed:
            start = time.monotonic()
            try:
                self._passed[key] = invocation.check(base, stdout)
            finally:
                self.spent_s += time.monotonic() - start
        return self._passed[key]


def run_once(workload, check: Checker, work: Path, deadline: float, traced_to=None) -> Run:
    """One run: every invocation of the workload in order, each output checked.

    With ``traced_to`` (a directory) the children run under tracing.py and
    leave one span file per invocation there.
    """
    from workloads import CheckFailed

    run = Run()
    for run_id, invocation in enumerate(workload.invocations):
        base = work / invocation.label
        for suffix in invocation.outputs:
            base.with_suffix(suffix).unlink(missing_ok=True)
        args = [*invocation.args, "--out", str(base)]
        if traced_to is None:
            argv = [sys.executable, "-m", "limitper", *args]
        else:
            spans = traced_to / f"spans-{run_id}.npz"
            argv = [sys.executable, str(HERE / "tracing.py"), str(spans), str(run_id), "--", *args]
        child = spawn(argv, work, work / f"{invocation.label}-log", deadline - time.monotonic())
        run.wall_s += child.wall_s
        run.rss_mb = max(run.rss_mb, child.rss_mb)
        try:
            if child.code != 0:
                last = child.stderr.strip().splitlines()[-1:] or [""]
                raise CheckFailed(f"exit code {child.code}: {last[0]}")
            run.facts[invocation.label] = check(invocation, base, child.stdout)
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            run.failure = run.failure or f"{invocation.label}: {exc}"
    return run


def measure(workload, seconds: float, check: Checker, work: Path, deadline: float):
    """Closed loop: runs back to back for about ``seconds``.

    A run starts while the one before it would fit at least half into the
    time left, so the runs end within half a run of ``seconds``, early or
    late.  Time spent checking outputs does not count towards ``seconds``.
    After each run come enough reference passes for about
    ``REFERENCE_SHARE`` of its wall time, so the passes span the same
    stretch of time as the runs; so do the setup samples, one probe before
    every run.  One probe and one pass warm caches first.  Returns the runs
    and at least ``SETUP_PROBES`` setup samples.
    """
    setup_probe(work, deadline)
    pass_s = reference_pass()
    runs, setup = [], []
    started = time.monotonic()
    while True:
        setup.append(setup_probe(work, deadline))
        run = run_once(workload, check, work, deadline)
        passes = max(1, round(REFERENCE_SHARE * run.wall_s / pass_s))
        run.ref_s = [reference_pass() for _ in range(passes)]
        pass_s = statistics.fmean(run.ref_s)
        runs.append(run)
        if time.monotonic() - started - check.spent_s + run.wall_s / 2 > seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(work, deadline))
    return runs, setup


def end_to_end(runs: list[Run], setup: list[float]) -> dict:
    """The ``END_TO_END`` metrics: medians over the runs that passed their checks.

    ``wall_ref`` is the median run's wall time over the mean reference pass
    timed between the runs.  The host's speed moves both alike, so their
    ratio stays put when the host slows down for a while, where the wall
    time alone does not.  Passes are short enough to land wholly in a fast
    or a slow spell of the host, so their times cluster in two groups; the
    mean weighs the groups by how often they occur, where a median would
    jump between them.
    """
    ok = [run for run in runs if run.failure is None] or runs
    passes = [pass_s for run in runs for pass_s in run.ref_s]
    values = {
        "wall_ref": statistics.median(run.wall_s for run in ok) / statistics.fmean(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(run.rss_mb for run in ok),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine_facts() -> dict:
    import numpy

    source = hashlib.sha256()
    for path in sorted((SRC / "limitper").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": _git_revision(),
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": os.uname().machine,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


def _import_program() -> None:
    if not (SRC / "limitper" / "__init__.py").is_file():
        raise BenchmarkError(f"no limitper sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import limitper

    if Path(limitper.__file__).resolve().parent.parent != SRC:
        raise BenchmarkError(f"imported limitper from {limitper.__file__}, not from {SRC}")


def benchmark(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Measure one workload and return the full record."""
    import tracing
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    workload = workloads.build(name, seed)
    check = Checker()
    runs, setup = measure(workload, seconds, check, work, deadline)
    record = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seed_used": workload.seed_used,
        "seconds": seconds,
        "load": "closed loop, one client, children run one after another",
        "argv": [["python", "-m", "limitper", *inv.args] for inv in workload.invocations],
        "facts": machine_facts(),
        "sizes": {**workload.sizes, "outputs": runs[-1].facts},
        "runs": len(runs),
        "wall_s": statistics.median(run.wall_s for run in runs),
        "ref_s": statistics.fmean(pass_s for run in runs for pass_s in run.ref_s),
        "samples": {
            "wall_s": [run.wall_s for run in runs],
            "ref_s": [pass_s for run in runs for pass_s in run.ref_s],
            "setup_s": setup,
            "peak_rss_mb": [run.rss_mb for run in runs],
        },
        "failures": [run.failure for run in runs if run.failure],
        "end_to_end": end_to_end(runs, setup),
    }
    attempted = len(runs)
    failed = len(record["failures"])
    if trace:
        traced_dir = work / "spans"
        traced_dir.mkdir()
        traced = run_once(workload, check, work, deadline, traced_to=traced_dir)
        attempted += 1
        if traced.failure:
            record["failures"].append(f"traced: {traced.failure}")
            failed += 1
        spans = sorted(traced_dir.glob("spans-*.npz"))
        if len(spans) != len(workload.invocations):
            raise BenchmarkError(
                f"the traced run left spans for {len(spans)} of "
                f"{len(workload.invocations)} invocations"
            )
        record["per_layer"] = tracing.summarize(spans, traced.wall_s, record["wall_s"])
    record["attempted"] = attempted
    record["failed"] = failed
    record["error_rate"] = failed / attempted
    return record


def report(record: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric by name and unit."""
    facts = record["facts"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}"
        f"{'' if record['seed_used'] else ' (ignored)'}  runs {record['runs']}  "
        f"rev {facts['git_revision'] or 'n/a'}  nproc {facts['nproc']}  "
        f"python {facts['python']}  numpy {facts['numpy']}",
        f"  sizes {json.dumps(record['sizes'], sort_keys=True)}",
    ]
    counts = {"wall_ref": record["runs"], "setup_s": len(record["samples"]["setup_s"]),
              "peak_rss_mb": record["runs"]}
    for name, metric in record["end_to_end"].items():
        lines.append(
            f"  {name:<13} {metric['value']:.6g} {metric['unit']}  (median of {counts[name]})"
        )
    lines.append(
        f"  {'wall_s':<13} {record['wall_s']:.6g} s  (median of {record['runs']}; "
        f"mean reference pass {record['ref_s']:.6g} s)"
    )
    lines.append(
        f"  {'error_rate':<13} {record['error_rate']:.6g}  "
        f"({record['failed']} of {record['attempted']} runs failed)"
    )
    lines.extend(f"  failure: {failure}" for failure in record["failures"])
    if trace:
        for name, metric in record["per_layer"].items():
            lines.append(f"  {name:<44} {metric['value']:.6g} {metric['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, help="also write the full record as JSON here")
    args = parser.parse_args(argv)

    work = HERE / ".work" / f"run-{os.getpid()}"
    try:
        _import_program()
        work.mkdir(parents=True)
        record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (BenchmarkError, ValueError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if args.record is not None:
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for line in report(record, bool(args.trace)):
        print(line)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["per_layer"] if args.trace else record["end_to_end"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
