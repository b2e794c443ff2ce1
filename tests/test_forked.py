"""The fork runner's own limits; ``test_verification`` and ``test_cli`` cover its callers."""

import os

import pytest

from limitper import forked


def test_more_than_255_tasks_are_refused_before_any_fork(monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "pipe", refuse)
    monkeypatch.setattr(forked, "_usable_cpus", lambda: 2)
    tasks = [(str(index), int) for index in range(256)]
    with pytest.raises(ValueError, match="256 tasks; the runner takes at most 255"):
        forked.run(tasks)
    monkeypatch.setattr(forked, "_usable_cpus", lambda: 1)
    assert forked.run(tasks[:255]) == [0] * 255
