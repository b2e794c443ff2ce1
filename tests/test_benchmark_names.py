"""The benchmark's names still resolve in the package.

``benchmarks/tracing.py`` wraps every (module, attribute) of its
``TARGETS``, and ``benchmarks/workloads.py`` imports the scalar helpers it
checks outputs with.  Deleting one of those names from the package would
otherwise surface only in a benchmark run; so would a change to the bytes
closed-form-sweep records, which one test here runs in process.  These
tests read ``benchmarks/`` and write nothing there (no bytecode either).
"""

import functools
import importlib
import importlib.util
import sys
from pathlib import Path

from limitper import cli, verification

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name, monkeypatch):
    """Import ``benchmarks/<name>.py`` under a private name, writing no bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_benchmark_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up in sys.modules while it executes.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    tracing = _load("tracing", monkeypatch)
    assert tracing.TARGETS
    missing = []
    for module, attribute in tracing.TARGETS:
        owner = importlib.import_module(f"limitper.{module}")
        try:
            target = functools.reduce(getattr, attribute.split("."), owner)
        except AttributeError:
            missing.append(f"{module}.{attribute}")
        else:
            assert callable(target), f"{module}.{attribute}"
    assert missing == []


def test_workloads_import_cleanly(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    assert workloads.VERIFY_CHECKS == len(verification.CHECK_NAMES)


def test_closed_form_sweep_keeps_its_bytes(monkeypatch, tmp_path, capsys):
    # Each invocation's own check: sha256 digests, every row against the
    # scalar closed forms, one figure mark per peak.
    workloads = _load("workloads", monkeypatch)
    workload = workloads.build("closed-form-sweep", workloads.DEFAULT_SEED)
    for invocation in workload.invocations:
        base = tmp_path / invocation.label
        assert cli.main([*invocation.args, "--out", str(base)]) == 0
        facts = invocation.check(base, capsys.readouterr().out)
        assert facts["peaks_kept"] > 0
