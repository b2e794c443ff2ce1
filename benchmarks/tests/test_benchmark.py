"""The benchmark's own tests: span arithmetic, emitted metrics, output checks.

Run from the repository root with ``python -m pytest benchmarks/tests``.
The emitted-metric tests run every workload once for real (under 2 minutes).
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(tmp_path, *args):
    record = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args, "--record", str(record)],
        capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), json.loads(record.read_text())


# ---------------------------------------------------------------------------
# Self time
# ---------------------------------------------------------------------------


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 100) holds a [10, 40) and b [50, 90); a holds c [20, 30).
    start = np.array([0, 10, 20, 50])
    end = np.array([100, 40, 30, 90])
    parent = np.array([-1, 0, 1, 0])
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [30, 20, 10, 40]
    assert own.sum() == end[0] - start[0]


def test_summary_accounts_for_the_traced_wall_time(tmp_path):
    tracer = tracing.Tracer()

    def leaf():
        return np.zeros((3, 5), dtype=np.uint8)

    traced_leaf = tracer.wrap("chair.label_grid", leaf)
    main = tracer.wrap("cli.main", lambda: [traced_leaf() for _ in range(4)])
    main()
    path = tmp_path / "spans-0.npz"
    tracer.dump(path, 0)
    total_ns = tracer.end[0] - tracer.start[0]
    wall = total_ns / 1e9 + 0.5
    metrics = tracing.summarize([path], wall, wall - 0.125)
    values = {name: m["value"] for name, m in metrics.items()}
    assert values["chair.label_grid.cells"] == 60
    assert values["trace.unattributed_s"] == pytest.approx(0.5)
    assert values["trace.overhead_s"] == pytest.approx(0.125)
    self_total = sum(v for name, v in values.items() if name.endswith(".self_s"))
    assert self_total + values["trace.unattributed_s"] == pytest.approx(wall)


# ---------------------------------------------------------------------------
# wall_ref
# ---------------------------------------------------------------------------


def test_wall_ref_ignores_a_uniform_change_of_host_speed():
    samples = [(3.0, [0.2]), (3.3, [0.22, 0.2]), (2.8, [0.18])]
    fast = [run.Run(wall_s=w, ref_s=r) for w, r in samples]
    slow = [run.Run(wall_s=1.4 * x.wall_s, ref_s=[1.4 * r for r in x.ref_s]) for x in fast]
    setup = [0.25] * 7
    assert run.end_to_end(fast, setup)["wall_ref"]["value"] == pytest.approx(15.0)
    assert run.end_to_end(slow, setup)["wall_ref"]["value"] == pytest.approx(15.0)
    slower_program = [run.Run(wall_s=1.1 * x.wall_s, ref_s=x.ref_s) for x in fast]
    assert run.end_to_end(slower_program, setup)["wall_ref"]["value"] == pytest.approx(16.5)


def test_every_run_is_followed_by_reference_passes(tmp_path):
    workload = workloads.Workload(
        "probe", "", (workloads.Invocation("v", ("--help",), lambda base, out: {}, ()),), True
    )
    work = tmp_path / "work"
    work.mkdir()
    runs, setup = run.measure(workload, 0, run.Checker(), work, time.monotonic() + 170)
    assert len(runs) == 1 and len(setup) == run.SETUP_PROBES
    assert len(runs[0].ref_s) == 1 and runs[0].ref_s[0] > 0


# ---------------------------------------------------------------------------
# Every metric of BENCHMARK.json, on a seed other than the default
# ---------------------------------------------------------------------------


def test_the_contract_lists_what_the_code_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.MEASURED)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in SPEC["workloads"])
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        tracing.PER_LAYER
    )


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_metric_is_emitted_on_a_second_seed(tmp_path, name):
    result, record = _bench(
        tmp_path, "--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1"
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in record["end_to_end"].items()} == units
    assert all(v["value"] > 0 for v in record["end_to_end"].values())
    assert record["seed"] == 1 and record["facts"]["nproc"] >= 1
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total + layers["trace.unattributed_s"] == pytest.approx(layers["trace.wall_s"])


def test_default_seed_matches_the_recorded_digests(tmp_path):
    result, record = _bench(
        tmp_path, "--workload", "closed-form-sweep", "--seed", "0", "--seconds", "1",
        "--trace", "0",
    )
    assert result["correct"], record["failures"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert record["sizes"]["outputs"]["pd"]["peaks_kept"] == 4097


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify-full", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# ---------------------------------------------------------------------------
# Wrong outputs raise error_rate
# ---------------------------------------------------------------------------


def _perturbed(literals):
    values = list(workloads.weight_values(literals))
    values[-1] += 0.1
    return tuple(f"{w.real:.3f}{w.imag:+.3f}i" for w in values)


def _error_rate(tmp_path, invocation):
    workload = workloads.Workload("probe", "", (invocation,), True)
    work = tmp_path / "work"
    work.mkdir()
    runs, _ = run.measure(workload, 0, run.Checker(), work, time.monotonic() + 170)
    return sum(r.failure is not None for r in runs) / len(runs)


@pytest.mark.parametrize("tamper", [False, True])
def test_a_perturbed_closed_form_reference_fails_the_run(tmp_path, tamper):
    literals = workloads.generic_weights(1, 2)
    reference = _perturbed(literals) if tamper else literals
    args = ("diffract", "--system", "pd", "--rmax", "6", "--region", "0,1",
            "--weights=" + ",".join(literals))
    check = workloads.closed_form_check(1, 6, (0, 1), reference)
    assert _error_rate(tmp_path, workloads.Invocation("pd", args, check)) == float(tamper)


def test_a_perturbed_empirical_reference_fails_the_run(tmp_path):
    workload = workloads.build("chair-empirical", 1)
    (invocation,) = workload.invocations
    literals = invocation.args[-1].split("=", 1)[1].split(",")
    check = workloads.empirical_check(5, (-1, 1), _perturbed(literals))
    bad = workloads.Invocation(invocation.label, invocation.args, check)
    assert _error_rate(tmp_path, bad) == 1.0


def test_a_failed_self_check_fails_the_verify_run():
    good = "".join(f"PASS check-{i}: ok\n" for i in range(15)) + "all 15 checks passed\n"
    assert workloads.verify_check(Path("."), good) == {"checks_passed": 15}
    bad = good.replace("PASS check-3", "FAIL check-3", 1)
    with pytest.raises(workloads.CheckFailed):
        workloads.verify_check(Path("."), bad)
