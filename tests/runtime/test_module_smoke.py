"""``python -m repro`` smoke test — the CLI rides the Engine path."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_ROOT = str(Path(repro.__file__).resolve().parents[1])

EXAMPLE = """PROGRAM example
  INTEGER i, j, k, l(8), x(8, 4)
  k = 8
  DO i = 1, k
    DO j = 1, l(i)
      x(i, j) = i * j
    ENDDO
  ENDDO
END
"""


def run_module(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.fixture()
def source(tmp_path):
    path = tmp_path / "example.f"
    path.write_text(EXAMPLE)
    return str(path)


class TestModuleEntry:
    def test_version(self):
        proc = run_module("--version")
        assert proc.returncode == 0
        assert repro.__version__ in proc.stdout

    def test_version_matches_pyproject(self):
        pyproject = Path(SRC_ROOT).parent / "pyproject.toml"
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        assert match is not None
        assert match.group(1) == repro.__version__

    def test_run_sequential(self, source):
        proc = run_module("run", source, "--bind", "l=4,1,2,1,1,3,1,3",
                          "--show", "x")
        assert proc.returncode == 0, proc.stderr
        assert "ran sequentially" in proc.stdout
        assert "x =" in proc.stdout

    def test_flatten_then_run_auto_backend(self, source, tmp_path):
        flat = run_module("flatten", source, "--variant", "done",
                          "--assume-min-trips", "-p", "2")
        assert flat.returncode == 0, flat.stderr
        path = tmp_path / "flat.f"
        path.write_text(flat.stdout)
        proc = run_module("run", str(path), "-p", "2", "--backend", "auto",
                          "--bind", "l=4,1,2,1,1,3,1,3")
        assert proc.returncode == 0, proc.stderr
        # autoselection picks the bytecode VM for this routine
        assert "ran on 2 lockstep PEs (bytecode VM)" in proc.stdout

    def test_auto_and_interp_report_identical_counters(self, source, tmp_path):
        flat = run_module("flatten", source, "--variant", "done",
                          "--assume-min-trips", "-p", "2")
        path = tmp_path / "flat.f"
        path.write_text(flat.stdout)
        outputs = [
            run_module("run", str(path), "-p", "2", "--backend", backend,
                       "--bind", "l=4,1,2,1,1,3,1,3", "--show", "x").stdout
            for backend in ("auto", "interpreter")
        ]
        strip = [
            [line for line in out.splitlines() if not line.startswith("ran ")]
            for out in outputs
        ]
        assert strip[0] == strip[1]
