"""``python -m repro`` smoke test — the CLI rides the Engine path."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.fuzz.twin import run_twin

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
        out = run_module("run", str(path), "-p", "2", "--backend", "auto",
                         "--bind", "l=4,1,2,1,1,3,1,3", "--show", "x").stdout
        # the interpreter: the VM's tree-walking twin on the same program
        env, counters = run_twin(
            flat.stdout, 2, {"l": np.array([4, 1, 2, 1, 1, 3, 1, 3])}
        )
        summary = counters.summary()
        assert out == "\n".join([
            "ran on 2 lockstep PEs (bytecode VM)",
            f"lockstep steps : {summary['total_steps']}",
            f"vector instrs  : {summary['vector_instructions']}",
            f"mean utilization: {summary['mean_utilization']:.1%}",
            f"x = {env['x'].data}",
            "",
        ])


def test_product_import_leaves_the_twin_unloaded():
    """The tree-walking twin is the VM's test oracle, not a backend:
    importing the package and the VM, and running a program with a
    subroutine call on it, never loads the twin's module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    script = (
        "import sys, repro, repro.vm.machine\n"
        "r = repro.run('PROGRAM p\\n  x = 1\\n  CALL s(x)\\nEND\\n"
        "SUBROUTINE s(y)\\n  y = y + 1\\nEND', nproc=2)\n"
        "assert r.backend == 'vm' and r.env['x'] == 2, r\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.fuzz')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
