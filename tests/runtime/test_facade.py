"""The top-level API facade: repro.compile/run/lint, run settings
reaching the backend, and RunResult.steps."""

import warnings

import numpy as np

import repro
from repro import BackendConfig
from repro.runtime.engine import Engine

PROGRAM = """
PROGRAM p
  INTEGER n
  INTEGER x(n), y(n)
  x = [1 : n]
  y = 0
  WHERE (x > 2)
    y = x * 10
  ENDWHERE
END
"""


class TestFacade:
    def test_compile_returns_compiled_program(self):
        program = repro.compile(PROGRAM)
        assert program.run({"n": 4}, nproc=4).env["y"].data.tolist() == [0, 0, 30, 40]

    def test_run_one_call(self):
        result = repro.run(PROGRAM, {"n": 4}, nproc=4)
        assert result.env["y"].data.tolist() == [0, 0, 30, 40]

    def test_lint_without_execution(self):
        report = repro.lint(PROGRAM)
        assert not report.errors

    def test_run_passes_externals_to_the_vm(self):
        calls = []

        def probe(vm, arg_exprs, args, env, mask):
            calls.append(np.asarray(args[1]).tolist())
            vm.assign_to(arg_exprs[0], np.asarray(args[1]), env)

        text = "PROGRAM p\n  v = [1 : 4]\n  CALL probe(w, v)\nEND"
        result = repro.run(text, nproc=4, backend="vm", externals={"probe": probe})
        assert calls == [[1, 2, 3, 4]]
        assert result.env["w"].tolist() == [1, 2, 3, 4]

    def test_facade_shares_default_engine_cache(self):
        repro.default_engine().clear()
        repro.compile(PROGRAM)
        before = repro.default_engine().stats.hits
        repro.compile(PROGRAM)
        assert repro.default_engine().stats.hits == before + 1


class TestRunResultSteps:
    def test_steps_matches_counters(self):
        result = repro.run(PROGRAM, {"n": 4}, nproc=4)
        assert result.steps == result.counters.total_steps > 0

    def test_steps_on_mimd_is_max_over_procs(self):
        text = "PROGRAM p\n  s = 0\n  DO i = 1, 5\n    s = s + i\n  ENDDO\nEND"
        result = repro.run(text, nproc=2, backend="mimd")
        assert result.steps == max(c.total_steps for c in result.counters) > 0

    def test_wall_seconds_populated(self):
        result = repro.run(PROGRAM, {"n": 4}, nproc=4)
        assert result.wall_seconds > 0


class TestBackendConfig:
    def test_fuse_flag_observable_equivalence(self):
        fused = Engine().compile(PROGRAM).run(
            {"n": 4}, nproc=4, backend="vm",
            config=BackendConfig(vm_fuse=True),
        )
        plain = Engine().compile(PROGRAM).run(
            {"n": 4}, nproc=4, backend="vm",
            config=BackendConfig(vm_fuse=False),
        )
        assert fused.env["y"].data.tolist() == plain.env["y"].data.tolist()
        assert fused.steps == plain.steps


class TestDeprecatedShims:
    """The deprecated free functions are gone; the facade that replaced
    them must not warn."""

    def test_facade_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            repro.run(PROGRAM, {"n": 4}, nproc=4)
