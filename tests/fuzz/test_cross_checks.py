"""The oracle's static cross-check legs: bytecode verification of every
compiled leg and the lint ↔ runtime checker-gap correlation."""

from types import SimpleNamespace

from repro.fuzz.generator import ProgramGenerator
from repro.fuzz.oracle import DifferentialOracle, ProgramVerdict

RACE = """PROGRAM race
  INTEGER a(10), t
  t = [1 : 4]
  WHERE (t .GT. 2)
    a(1) = t
  ENDWHERE
END
"""

CLEAN = """PROGRAM clean
  INTEGER i, a(8)
  DO i = 1, 8
    a(i) = i * 2
  ENDDO
END
"""


def fake_prog(source):
    return SimpleNamespace(source=source)


def gaps(verdict):
    return [d for d in verdict.divergences if d.kind == "checker-gap"]


class TestLintCrossCheck:
    def test_fault_on_lint_clean_program_is_a_gap(self):
        oracle = DifferentialOracle(nproc=4)
        verdict = ProgramVerdict(program=None)
        verdict.runtime_faults.append(("none/simd", "DivergenceFault"))
        oracle._lint_cross_check(fake_prog(CLEAN), verdict)
        [gap] = gaps(verdict)
        assert gap.config == "lint/runtime"
        assert "DivergenceFault" in gap.detail

    def test_lint_errors_without_faults_is_a_gap(self):
        oracle = DifferentialOracle(nproc=4)
        verdict = ProgramVerdict(program=None)
        oracle._lint_cross_check(fake_prog(RACE), verdict)
        [gap] = gaps(verdict)
        assert "R001" in gap.detail

    def test_consistent_fault_and_lint_error_is_not_a_gap(self):
        # Lint flags R001 *and* a leg faulted: static and dynamic agree.
        oracle = DifferentialOracle(nproc=4)
        verdict = ProgramVerdict(program=None)
        verdict.runtime_faults.append(("none/simd", "DivergenceFault"))
        oracle._lint_cross_check(fake_prog(RACE), verdict)
        assert gaps(verdict) == []

    def test_clean_program_clean_run_is_quiet(self):
        oracle = DifferentialOracle(nproc=4)
        verdict = ProgramVerdict(program=None)
        oracle._lint_cross_check(fake_prog(CLEAN), verdict)
        assert gaps(verdict) == []


class TestVerifierLeg:
    def test_campaign_verifies_every_leg(self):
        oracle = DifferentialOracle(nproc=4)
        generator = ProgramGenerator(seed=23)
        for index in range(10):
            verdict = oracle.check(generator.generate(index))
            assert not [
                d for d in verdict.divergences if d.kind == "verifier"
            ], verdict.divergences
        # The leg actually ran: distinct code objects were verified.
        assert oracle._verified

    def test_generated_programs_stay_gap_free(self):
        oracle = DifferentialOracle(nproc=4)
        generator = ProgramGenerator(seed=5)
        for index in range(10):
            verdict = oracle.check(generator.generate(index))
            assert gaps(verdict) == [], verdict.divergences

    def test_every_bytecode_a_leg_runs_is_verified(self, monkeypatch):
        """A one-entry compile cache frees each CodeObject as soon as
        the next leg compiles, so a new one can reuse a freed object's
        address; the verifier must still see every distinct code the
        VM runs."""
        import repro.fuzz.oracle as oracle_mod
        from repro.runtime.engine import Engine
        from repro.vm.machine import SIMDVirtualMachine

        verified, ran = set(), set()
        real_verify, real_run = oracle_mod.verify_code, SIMDVirtualMachine.run

        def spy_verify(code):
            verified.add(code.disassemble())
            return real_verify(code)

        def spy_run(self, code, *args, **kwargs):
            ran.add(code.disassemble())
            return real_run(self, code, *args, **kwargs)

        monkeypatch.setattr(oracle_mod, "verify_code", spy_verify)
        monkeypatch.setattr(SIMDVirtualMachine, "run", spy_run)
        # Address reuse depends on the allocator; make it certain: every
        # object the oracle module asks about has the same id.
        monkeypatch.setattr(oracle_mod, "id", lambda obj: 0, raising=False)
        oracle = DifferentialOracle(nproc=4, engine=Engine(cache_size=1))
        for program in ProgramGenerator(seed=0).programs(10):
            oracle.check(program)
        assert ran
        assert ran <= verified, f"{len(ran - verified)} codes ran unverified"
