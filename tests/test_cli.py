"""Command-line driver tests."""

import numpy as np
import pytest

from repro.cli import _parse_binding, main

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


@pytest.fixture()
def source(tmp_path):
    path = tmp_path / "example.f"
    path.write_text(EXAMPLE)
    return str(path)


class TestBindings:
    def test_scalar_int(self):
        assert _parse_binding("k=8") == ("k", 8)

    def test_scalar_float(self):
        name, value = _parse_binding("cut=8.5")
        assert name == "cut" and value == 8.5

    def test_array(self):
        name, value = _parse_binding("L=1,2,3")
        assert name == "l"
        assert isinstance(value, np.ndarray)
        assert value.tolist() == [1, 2, 3]

    def test_bad_binding(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_binding("oops")


class TestCommands:
    def test_check_ok(self, source, capsys):
        assert main(["check", source]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_reports_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.f"
        bad.write_text("PROGRAM p\n  GOTO 99\nEND\n")
        assert main(["check", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/no/such/file.f"]) == 1

    def test_report(self, source, capsys):
        assert main(["report", source, "--assume-min-trips"]) == 0
        out = capsys.readouterr().out
        assert "profitable" in out
        assert "flatten? True" in out

    def test_report_no_nests(self, tmp_path, capsys):
        flat = tmp_path / "flat.f"
        flat.write_text("PROGRAM p\n  x = 1\nEND\n")
        assert main(["report", str(flat)]) == 1

    def test_flatten_plain(self, source, capsys):
        assert main(["flatten", source, "--variant", "done",
                     "--assume-min-trips"]) == 0
        out = capsys.readouterr().out
        assert "WHILE (any(" in out
        assert "ELSEWHERE" in out

    def test_flatten_f77_form(self, source, capsys):
        assert main(["flatten", source, "--variant", "done",
                     "--assume-min-trips", "--no-simd"]) == 0
        out = capsys.readouterr().out
        assert "WHERE" not in out
        assert "IF (" in out

    def test_flatten_spmd(self, source, capsys):
        assert main(["flatten", source, "--variant", "done",
                     "--assume-min-trips", "-p", "4"]) == 0
        out = capsys.readouterr().out
        assert "[1 : 4]" in out

    def test_simdize(self, source, capsys):
        assert main(["simdize", source, "-p", "2"]) == 0
        out = capsys.readouterr().out
        assert "max(l(" in out

    def test_run_sequential(self, source, capsys):
        code = main(["run", source, "--bind", "l=4,1,2,1,1,3,1,3", "--show", "x"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ran sequentially" in out
        assert "x =" in out

    def test_flatten_then_run_simd(self, source, tmp_path, capsys):
        assert main(["flatten", source, "--variant", "done",
                     "--assume-min-trips", "-p", "2"]) == 0
        flat = tmp_path / "flat.f"
        flat.write_text(capsys.readouterr().out)
        code = main(["run", str(flat), "-p", "2",
                     "--bind", "l=4,1,2,1,1,3,1,3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ran on 2 lockstep PEs" in out

    def test_paper_traces(self, capsys):
        assert main(["paper", "traces"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Figure 6" in out

    def test_flatten_with_simplify_block(self, source, capsys):
        assert main(["flatten", source, "--variant", "done",
                     "--assume-min-trips", "-p", "2", "--layout", "block",
                     "--simplify"]) == 0
        out = capsys.readouterr().out
        assert "(k + 1) / 2" in out   # chunk expression folded

    def test_flatten_with_simplify_cyclic(self, source, capsys):
        assert main(["flatten", source, "--variant", "done",
                     "--assume-min-trips", "-p", "2", "--layout", "cyclic",
                     "--simplify"]) == 0
        out = capsys.readouterr().out
        assert "i = [1 : 2]" in out   # 1 + [1:2] - 1 folded away

    def test_run_with_vm_engine(self, source, tmp_path, capsys):
        assert main(["flatten", source, "--variant", "done",
                     "--assume-min-trips", "-p", "2"]) == 0
        flat = tmp_path / "flat.f"
        flat.write_text(capsys.readouterr().out)
        code = main(["run", str(flat), "-p", "2", "--backend", "vm",
                     "--bind", "l=4,1,2,1,1,3,1,3"])
        assert code == 0
        assert "bytecode VM" in capsys.readouterr().out

    def test_run_with_nproc_defaults_to_vm(self, source, capsys):
        argv = ["run", source, "-p", "2", "--bind", "l=4,1,2,1,1,3,1,3",
                "--show", "x"]
        assert main(argv) == 0
        default = capsys.readouterr().out.splitlines()
        assert main(argv + ["--backend", "interpreter"]) == 0
        interpreter = capsys.readouterr().out.splitlines()
        assert default[0] == "ran on 2 lockstep PEs (bytecode VM)"
        assert interpreter[0] == "ran on 2 lockstep PEs"
        assert default[1:] == interpreter[1:]
        assert any(line.startswith("lockstep steps") for line in default)
        assert any(line.startswith("x = ") for line in default)


class TestRemovedFlags:
    # argparse accepts any unambiguous prefix of a long option, so
    # "--eng" is rejected only if no engine flag exists at all.
    @pytest.mark.parametrize("flags", [
        ["--backend", "interp"],
        ["--eng", "vm"],
        ["--eng", "interp"],
    ], ids=["backend-interp", "engine-vm", "engine-interp"])
    def test_usage_error(self, source, flags, capsys):
        with pytest.raises(SystemExit) as info:
            main(["run", source, "-p", "2", *flags])
        assert info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["run", "FILE", "-p", "2"],
        ["serve", "--port", "0"],
    ], ids=["run", "serve"])
    def test_misspelled_fallback_backend_is_a_usage_error(
        self, source, command, capsys, monkeypatch
    ):
        import repro.serve

        def no_server(*args, **kwargs):
            raise AssertionError("the service must not start")

        monkeypatch.setattr(repro.serve, "serve", no_server)
        argv = [source if arg == "FILE" else arg for arg in command]
        with pytest.raises(SystemExit) as info:
            main([*argv, "--fallback", "vm,interpretr"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "'interpretr'" in err
        assert "interpreter" in err and "pmimd" in err


SPIN = """PROGRAM p
  i = 1
  WHILE (i >= 1)
    i = i + 1
  ENDWHILE
END
"""

STRAIGHT = """PROGRAM p
  v = [1 : 4]
  w = v * 2
END
"""


class TestRunGuards:
    @pytest.fixture()
    def spin(self, tmp_path):
        path = tmp_path / "spin.f"
        path.write_text(SPIN)
        return str(path)

    @pytest.fixture()
    def straight(self, tmp_path):
        path = tmp_path / "straight.f"
        path.write_text(STRAIGHT)
        return str(path)

    def test_max_steps_kills_spin_loop(self, spin, capsys):
        assert main(["run", spin, "-p", "2", "--max-steps", "500"]) == 1
        assert "budget" in capsys.readouterr().err

    def test_max_steps_applies_sequentially(self, spin, capsys):
        assert main(["run", spin, "--max-steps", "500"]) == 1
        assert "budget" in capsys.readouterr().err

    def test_crash_dump_written(self, spin, tmp_path, capsys):
        import json

        dump_path = tmp_path / "dump.json"
        assert main([
            "run", spin, "-p", "2", "--backend", "vm",
            "--max-steps", "500", "--crash-dump", str(dump_path),
        ]) == 1
        dump = json.loads(dump_path.read_text())
        assert dump["error"] == "BudgetExceeded"
        assert dump["backend"] == "vm"
        assert {"pc", "mask", "mask_stack", "env", "last_ops"} <= set(dump)
        assert "crash dump written" in capsys.readouterr().err

    def test_fallback_chain_reported(self, straight, capsys):
        assert main([
            "run", straight, "-p", "4", "--fallback", "vm,interpreter",
            "--show", "w",
        ]) == 0
        captured = capsys.readouterr()
        assert "attempts       : 1" in captured.out
        assert "1. vm" in captured.out and "ok" in captured.out
        assert "w = [2 4 6 8]" in captured.out

    def test_successful_run_with_guards(self, straight, capsys):
        assert main([
            "run", straight, "-p", "4", "--max-steps", "1000",
            "--deadline", "5",
        ]) == 0
        assert "ran on 4" in capsys.readouterr().out


SPMD = """PROGRAM spmd
  INTEGER i, n, myproc, nproc
  REAL s
  s = 0.0
  DO i = myproc, n, nproc
    s = s + i * 2.0
  ENDDO
END
"""


class TestParallelBackends:
    @pytest.fixture()
    def spmd(self, tmp_path):
        path = tmp_path / "spmd.f"
        path.write_text(SPMD)
        return str(path)

    def test_mimd_backend(self, spmd, capsys):
        assert main(["run", spmd, "-p", "4", "--backend", "mimd",
                     "--bind", "n=32", "--show", "s"]) == 0
        out = capsys.readouterr().out
        assert "ran on 4 SPMD processors (mimd" in out
        assert "processors     : 4" in out
        assert "parallel steps :" in out

    def test_pmimd_backend_with_workers(self, spmd, capsys):
        assert main(["run", spmd, "-p", "4", "--backend", "pmimd",
                     "--workers", "2", "--bind", "n=32",
                     "--show", "s"]) == 0
        out = capsys.readouterr().out
        assert "ran on 4 SPMD processors (pmimd: worker processes)" in out
        assert "supervision    :" in out
        assert "s = 240.0" in out

    def test_pmimd_matches_mimd_output(self, spmd, capsys):
        assert main(["run", spmd, "-p", "3", "--backend", "mimd",
                     "--bind", "n=30", "--show", "s"]) == 0
        mimd_out = capsys.readouterr().out
        assert main(["run", spmd, "-p", "3", "--backend", "pmimd",
                     "--workers", "2", "--bind", "n=30",
                     "--show", "s"]) == 0
        pmimd_out = capsys.readouterr().out

        def values(text):
            return [line for line in text.splitlines()
                    if line.startswith(("s =", "parallel steps"))]

        assert values(mimd_out) == values(pmimd_out)

    def test_pmimd_degrades_through_fallback(self, spmd, capsys):
        # No fault injection hook via CLI, but an explicit chain shows
        # the attempt trail even on first-try success.
        assert main(["run", spmd, "-p", "2", "--backend", "pmimd",
                     "--fallback", "pmimd,mimd", "--bind", "n=8"]) == 0
        out = capsys.readouterr().out
        assert "attempts       : 1" in out
        assert "1. pmimd" in out

    def test_scalar_backend_explicit(self, spmd, capsys):
        assert main(["run", spmd, "--backend", "scalar",
                     "--bind", "n=8", "--bind", "myproc=1",
                     "--bind", "nproc=1", "--show", "s"]) == 0
        out = capsys.readouterr().out
        assert "ran sequentially" in out
        assert "s = 72.0" in out
