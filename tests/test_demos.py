"""Demo smoke tests: every script in demos/ runs and writes what it names.

Each demo is copied into a temporary directory and run there with the
package from ``src/`` on the path, so its ``out/`` lands beside the copy.
The files it writes must match the copies committed under ``demos/out/``
byte for byte.  The python block under the README's ``## Library`` heading
runs the same way, in a fresh interpreter, and must exit 0.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"

# Each demo and the files it writes to out/.
_OUTPUTS = {
    "chain_basics.py": (),
    "chain_diffraction.py": ("chain_peaks.csv", "chain_stem.svg"),
    "chair_diffraction.py": ("chair_peaks.csv", "chair_disc.svg"),
    "chair_pattern.py": ("chair_patch.pgm",),
    "custom_rules.py": ("thue_morse.sub",),
}


def test_every_demo_is_listed():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(_OUTPUTS)


@pytest.mark.parametrize("name", sorted(_OUTPUTS))
def test_demo_runs_and_writes_its_files(name, tmp_path):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
    for output in _OUTPUTS[name]:
        written = tmp_path / "out" / output
        assert written.is_file(), output
        assert written.read_bytes() == (DEMOS / "out" / output).read_bytes(), output


def test_readme_library_block_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    script = tmp_path / "library.py"
    script.write_text(block + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
