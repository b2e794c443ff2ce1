"""Start-up loads only what a command runs, and the package imports nothing until asked.

Each case runs in a fresh interpreter with the package from ``src/`` on the
path, since the test process has every module loaded already, and reads
``sys.modules`` afterwards: the check counts modules, not time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_REPORT = (
    "import json, sys; "
    "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('limitper'))))"
)


def _fresh(code: str, cwd: Path) -> str:
    """Run ``code`` in a fresh interpreter and return the last line of its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def _loaded_after(code: str, cwd: Path) -> set[str]:
    """numpy and the limitper modules loaded once ``code`` has run."""
    return set(json.loads(_fresh(f"{code}\n{_REPORT}", cwd)))


class TestStartUp:
    def test_import_loads_the_package_and_the_cli_only(self, tmp_path):
        loaded = _loaded_after("import limitper, limitper.cli", tmp_path)
        assert loaded == {"limitper", "limitper.cli"}

    def test_import_loads_no_dataclasses_or_inspect(self, tmp_path):
        code = (
            "import json, sys, limitper, limitper.cli\n"
            "print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))))"
        )
        assert json.loads(_fresh(code, tmp_path)) == []

    def test_help_loads_no_numpy(self, tmp_path):
        code = (
            "import contextlib, io\n"
            "from limitper import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['--help']) == 0\n"
        )
        loaded = _loaded_after(code, tmp_path)
        assert "numpy" not in loaded
        assert loaded == {"limitper", "limitper.cli"}

    @pytest.mark.parametrize(
        "system, unused",
        [
            ("chair", {"limitper.period_doubling", "limitper.numerics", "limitper.verification"}),
            ("pd", {"limitper.chair", "limitper.numerics", "limitper.verification"}),
        ],
    )
    def test_closed_forms_load_one_system(self, system, unused, tmp_path):
        code = (
            "import contextlib, io\n"
            "from limitper import cli\n"
            "argv = ['diffract', '--system', %r, '--format', 'csv', '--out', 'peaks']\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(argv) == 0\n"
        ) % system
        loaded = _loaded_after(code, tmp_path)
        assert (tmp_path / "peaks.csv").is_file()
        assert loaded & unused == set()


class TestLazyPackage:
    def test_star_import_binds_every_name(self, tmp_path):
        code = (
            "import json, limitper\n"
            "names = {}\n"
            "exec('from limitper import *', names)\n"
            "print(json.dumps([n for n in limitper.__all__ if n not in names]))"
        )
        assert json.loads(_fresh(code, tmp_path)) == []

    def test_unknown_name_raises_attribute_error(self, tmp_path):
        code = (
            "import limitper\n"
            "assert not hasattr(limitper, 'no_such_name')\n"
            "try:\n"
            "    limitper.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        assert _fresh(code, tmp_path) == "module 'limitper' has no attribute 'no_such_name'"
