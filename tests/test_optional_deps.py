"""The test suite collects without its optional dependency, hypothesis.

Only tests/test_properties.py draws inputs with hypothesis; it skips itself
where hypothesis cannot be imported, and no other module imports it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tests_collect_without_hypothesis(tmp_path):
    # a stub package that fails to import the way an absent one does
    (tmp_path / "hypothesis").mkdir()
    (tmp_path / "hypothesis" / "__init__.py").write_text(
        "raise ModuleNotFoundError(\"No module named 'hypothesis'\")\n")
    path = [str(tmp_path)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-rs",
         "-p", "no:cacheprovider", "tests"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 0, out
    assert "ERROR" not in out and " error" not in out, out
    skipped = [line for line in out.splitlines() if line.startswith("SKIPPED")]
    assert len(skipped) == 1 and "tests/test_properties.py" in skipped[0], out
    assert "test_properties.py::" not in out
    assert "tests/test_optional_deps.py::test_tests_collect_without_hypothesis" in out
