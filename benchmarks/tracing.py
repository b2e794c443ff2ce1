"""Spans around the calls into limitper's layers, and their self times.

The traced child runs ``python benchmarks/tracing.py SPANS RUN_ID -- ARGS``:
it imports limitper, replaces each traced function (and every alias of it
imported into another limitper module) by a wrapper that records a span,
runs ``limitper.cli.main(ARGS)`` and writes the spans to SPANS (``.npz``)
when it exits.  Spans stay in memory until then.  The program itself is
not changed.

A span is (name, start, end, parent span, run id).  The process is single
threaded and wrappers nest, so a span's children cover disjoint parts of
its interval and its self time is its duration minus theirs.  Calls that
run millions of times (``dyadic.phase``, the ``Dyadic`` constructors) are
not wrapped; their cost lands in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import numpy as np

# (module, attribute) of every traced callable; the span name is
# "<module>.<last attribute part>".
TARGETS = (
    ("cli", "main"),
    ("cli", "resolve_system"),
    ("dyadic", "module_box"),
    ("dyadic", "module_interval"),
    ("chair", "label_grid"),
    ("chair", "amplitudes"),
    ("period_doubling", "label_window"),
    ("period_doubling", "autocorr_balanced"),
    ("period_doubling", "amplitudes"),
    ("subst", "fixed_point_window"),
    ("numerics", "WeightedComb.residue_counts"),
    ("numerics", "empirical_amplitude"),
    ("numerics", "empirical_autocorrelation"),
    ("numerics", "approximant_amplitude_chair"),
    ("render", "peaks_csv"),
    ("render", "stem_svg"),
    ("render", "disc_svg"),
    ("verification", "run_checks"),
)

# Per-layer metrics: (name, unit, better).  Each names the end-to-end metric
# and workload it should move in benchmarks/README.md.
PER_LAYER = (
    ("cli.main.self_s", "s", "lower"),
    ("cli.resolve_system.self_s", "s", "lower"),
    ("cli.resolve_system.calls", "count", "lower"),
    ("dyadic.module_box.self_s", "s", "lower"),
    ("dyadic.module_interval.self_s", "s", "lower"),
    ("dyadic.points", "count", "lower"),
    ("chair.label_grid.self_s", "s", "lower"),
    ("chair.label_grid.cells", "count", "lower"),
    ("chair.amplitudes.self_s", "s", "lower"),
    ("chair.amplitudes.calls", "count", "lower"),
    ("period_doubling.label_window.self_s", "s", "lower"),
    ("period_doubling.label_window.cells", "count", "lower"),
    ("period_doubling.autocorr_balanced.self_s", "s", "lower"),
    ("period_doubling.autocorr_balanced.calls", "count", "lower"),
    ("period_doubling.amplitudes.self_s", "s", "lower"),
    ("period_doubling.amplitudes.calls", "count", "lower"),
    ("subst.fixed_point_window.self_s", "s", "lower"),
    ("subst.fixed_point_window.cells", "count", "lower"),
    ("numerics.residue_counts.self_s", "s", "lower"),
    ("numerics.residue_counts.calls", "count", "lower"),
    ("numerics.residue_counts.hit_ratio", "ratio", "higher"),
    ("numerics.empirical_amplitude.self_s", "s", "lower"),
    ("numerics.empirical_amplitude.calls", "count", "lower"),
    ("numerics.empirical_autocorrelation.self_s", "s", "lower"),
    ("numerics.approximant_amplitude_chair.self_s", "s", "lower"),
    ("render.peaks_csv.self_s", "s", "lower"),
    ("render.stem_svg.self_s", "s", "lower"),
    ("render.disc_svg.self_s", "s", "lower"),
    ("render.peaks", "count", "lower"),
    ("render.bytes", "B", "lower"),
    ("verification.run_checks.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def span_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute.rsplit('.', 1)[-1]}"


# ---------------------------------------------------------------------------
# Recording (traced child)
# ---------------------------------------------------------------------------


def _cells(counters, name, args, result):
    counters[f"{name}.cells"] += int(result.size)


def _window_cells(counters, name, args, result):
    counters[f"{name}.cells"] += int(result.labels.size)


def _points(counters, name, args, result):
    counters["dyadic.points"] += len(result)


def _rendered(counters, name, args, result):
    counters["render.bytes"] += len(result.encode())
    if name == "render.peaks_csv":
        counters["render.peaks"] += len(args[0])


# Counts taken after a traced call returns, outside its span.
COUNTS = {
    "chair.label_grid": _cells,
    "period_doubling.label_window": _cells,
    "subst.fixed_point_window": _window_cells,
    "dyadic.module_box": _points,
    "dyadic.module_interval": _points,
    "render.peaks_csv": _rendered,
    "render.stem_svg": _rendered,
    "render.disc_svg": _rendered,
}


class Tracer:
    """Span and counter store for one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._moduli = weakref.WeakKeyDictionary()

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call under ``name``."""
        index = len(self.names)
        self.names.append(name)
        names, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack
        )
        count = COUNTS.get(name)
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            names.append(index)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(span)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()
            if count is not None:
                count(self.counters, name, args, result)
            return result

        return traced

    def _count_residue_hit(self, fn):
        # A hit is a call for a modulus already requested on the same comb.
        @functools.wraps(fn)
        def counted(comb, modulus):
            seen = self._moduli.setdefault(comb, set())
            if modulus in seen:
                self.counters["numerics.residue_counts.hits"] += 1
            seen.add(modulus)
            return fn(comb, modulus)

        return counted

    def install(self) -> None:
        """Replace every traced callable in every loaded limitper module."""
        for module_name, _ in TARGETS:
            importlib.import_module(f"limitper.{module_name}")
        modules = [
            module
            for key, module in sys.modules.items()
            if key == "limitper" or key.startswith("limitper.")
        ]
        for module_name, attribute in TARGETS:
            owner = sys.modules[f"limitper.{module_name}"]
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self.wrap(span_name(module_name, attribute), original)
            if path:  # the one method, WeightedComb.residue_counts, also counts hits
                setattr(owner, leaf, self._count_residue_hit(wrapped))
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)

    def dump(self, path: Path, run_id: int) -> None:
        counter_names = sorted(self.counters)
        np.savez(
            path,
            run=np.int64(run_id),
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            start=np.array(self.start, dtype=np.int64),
            end=np.array(self.end, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            counter_names=np.array(counter_names, dtype=str),
            counter_values=np.array([self.counters[k] for k in counter_names], dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# Analysis (benchmark process)
# ---------------------------------------------------------------------------


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    duration = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration - covered


def summarize(span_files, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Every per-layer metric of ``PER_LAYER`` from the spans of one traced run.

    ``traced_wall_s`` is the traced children's wall time from spawn to exit;
    what no root span covers (interpreter start, imports, exit) is
    ``trace.unattributed_s``, so the self times and it sum to that wall time.
    """
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    counters: Counter = Counter()
    for path in span_files:
        with np.load(path) as data:
            names = [str(n) for n in data["names"]]
            name, start, end, parent = data["name"], data["start"], data["end"], data["parent"]
            own = self_times(start, end, parent)
            if (own < 0).any() or (end < start).any():
                raise ValueError(f"{path}: spans do not nest")
            per_name = np.bincount(name, weights=own, minlength=len(names))
            per_calls = np.bincount(name, minlength=len(names))
            for i, label in enumerate(names):
                self_ns[label] += int(per_name[i])
                calls[label] += int(per_calls[i])
            counters.update(
                dict(zip((str(n) for n in data["counter_names"]), data["counter_values"].tolist()))
            )
    attributed_s = sum(self_ns.values()) / 1e9
    unattributed_s = traced_wall_s - attributed_s
    if unattributed_s < 0:
        raise ValueError("spans cover more than the traced wall time")
    residue_calls = calls["numerics.residue_counts"]
    values = {
        "numerics.residue_counts.hit_ratio": (
            counters["numerics.residue_counts.hits"] / residue_calls if residue_calls else 0.0
        ),
        "trace.wall_s": traced_wall_s,
        "trace.unattributed_s": unattributed_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
    }
    metrics = {}
    for metric, unit, _ in PER_LAYER:
        if metric in values:
            value = values[metric]
        elif metric.endswith(".self_s"):
            value = self_ns[metric[: -len(".self_s")]] / 1e9
        elif metric.endswith(".calls"):
            value = calls[metric[: -len(".calls")]]
        else:
            value = counters[metric]
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def _main(argv: list[str]) -> int:
    spans_path, run_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: tracing.py SPANS RUN_ID -- CLI_ARGS...")
    tracer = Tracer()
    tracer.install()
    from limitper import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(Path(spans_path), int(run_id))


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
