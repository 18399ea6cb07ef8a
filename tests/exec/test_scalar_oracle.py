"""Bit-identity oracle for the scalar interpreter and its MIMD backends.

``scalar_oracle.json`` holds what the interpreter produced for a fixed
set of programs, recorded from an earlier implementation: statement
counts, ``repr(state_dict())``, env bytes, crash dumps of budget trips
and injected faults, checkpoint steps with what each resume returns,
and the order in which a statement hook sees statements.  Any change
to how statements are executed or counted must leave every entry
unchanged.

Regenerate (only when a change is *meant* to alter these results)::

    PYTHONPATH=src python tests/exec/test_scalar_oracle.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.exec.mimd import MIMDSimulator
from repro.exec.pmimd import PMIMDExecutor
from repro.exec.scalar import ScalarInterpreter
from repro.fuzz.generator import ProgramGenerator
from repro.kernels import example
from repro.kernels.nbforce import make_scalar_force_external
from repro.lang import ast, parse_source
from repro.lang.errors import MiniFError
from repro.md.molecule import synthetic_sod
from repro.md.pairlist import build_pairlist
from repro.reliability import Budget, FaultPlan, crash_dump_for

FIXTURE = Path(__file__).parent / "scalar_oracle.json"

#: The table1-mimd kernel: processor ``myproc`` runs atoms
#: ``bounds(myproc) + 1 .. bounds(myproc + 1)`` of the shared pairlist.
KERNEL = """
PROGRAM nbforce
  INTEGER natoms, nbounds, maxpcnt, at1, at2, prc
  INTEGER pcnt(natoms), partners(natoms, maxpcnt), bounds(nbounds)
  REAL f(natoms), fpair
  DO at1 = bounds(myproc) + 1, bounds(myproc + 1)
    f(at1) = 0.0
    DO prc = 1, pcnt(at1)
      at2 = partners(at1, prc)
      CALL force(fpair, at1, at2)
      f(at1) = f(at1) + fpair
    ENDDO
  ENDDO
END
"""

#: A DO body with a label, re-entered by a backward GOTO, and an EXIT.
GOTO_BODY = """
PROGRAM g
  INTEGER a(40), i, k, s
  s = 0
  DO i = 1, 6
    k = 0
10  k = k + 1
    a(k + 6 * (i - 1)) = k * i
    s = s + k
    IF (k < i) GOTO 10
    IF (s > 30) EXIT
  ENDDO
END
"""

#: A MiniF CALL inside a DO (by-value in, write-back out), a WHILE, an
#: IF with a CYCLE, a FORALL with a mask, and a DO with a stride.
MIXED = """
PROGRAM m
  INTEGER a(12), i, s, n
  REAL x
  s = 0
  x = 0.5
  DO i = 1, 9
    CALL put(a, i, s)
    IF (MOD(i, 4) == 0) CYCLE
    x = x * 1.5 + s
  ENDDO
  n = 0
  DO WHILE (n < 5)
    n = n + 2
    IF (n > 3) THEN
      s = s - n
    ELSE
      s = s + 1
    ENDIF
  ENDDO
  FORALL (i = 1 : 12, MOD(i, 3) == 1) a(i) = -i
  DO i = 12, 1, -5
    s = s + a(i)
  ENDDO
END
SUBROUTINE put(v, n, t)
  INTEGER v(12)
  m = 13 - n
  v(m) = n * 2
  t = t + v(m)
END
"""

NPROC = 8


def _kernel():
    molecule = synthetic_sod(n_atoms=400, seed=1)
    pairlist = build_pairlist(molecule, 3.0)
    sizes = [len(b) for b in np.array_split(np.arange(400), NPROC)]
    bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    bindings = {
        "natoms": 400,
        "nbounds": len(bounds),
        "maxpcnt": int(pairlist.partners.shape[1]),
        "pcnt": pairlist.pcnt.astype(np.int64),
        "partners": pairlist.partners.astype(np.int64),
        "bounds": bounds,
    }
    return bindings, {"force": make_scalar_force_external(molecule)}


# -- what gets recorded ------------------------------------------------------


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _value(value):
    data = getattr(value, "data", value)
    if isinstance(data, np.ndarray):
        raw = np.ascontiguousarray(data).tobytes()
        return [data.dtype.str, list(data.shape), hashlib.sha256(raw).hexdigest()[:24]]
    return repr(value)


def _env(env: dict) -> dict:
    return {name: _value(env[name]) for name in sorted(env)}


def _outcome(interp, env) -> dict:
    return {
        "statements": interp.executed_statements,
        "state": repr(interp.counters.state_dict()),
        "env": _env(env),
    }


def _dump(error: MiniFError) -> list:
    """A crash dump's headline fields and a digest of all of it."""
    dump = json.loads(json.dumps(crash_dump_for(error), default=str))
    head = [dump.get(key) for key in ("error", "location", "pc", "steps")]
    return head + [_digest(json.dumps(dump, sort_keys=True))]


def _in_do_bodies(routine) -> set[int]:
    """ids of the statements that sit directly in a DO body."""
    inside = set()
    for node in ast.walk_body(routine.body):
        if isinstance(node, ast.Do):
            inside.update(id(stmt) for stmt in node.body)
    return inside


def _scalar_record(text: str, bindings: dict, externals=None) -> dict:
    """Everything recorded for one program on the scalar interpreter."""
    source = parse_source(text)
    make = lambda **kw: ScalarInterpreter(source, externals, **kw)  # noqa: E731
    fresh = lambda: {  # noqa: E731
        k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in bindings.items()
    }
    record: dict = {}
    seen: list = []
    in_do = _in_do_bodies(source.main)
    do_steps: list[int] = []

    def hook(stmt, env):
        seen.append(f"{type(stmt).__name__}:{stmt.loc.line}")
        if id(stmt) in in_do:
            do_steps.append(len(seen))

    interp = make(statement_hook=hook)
    try:
        env = interp.run(bindings=fresh())
    except MiniFError as error:
        record["error"] = _dump(error)
        record["state"] = repr(interp.counters.state_dict())
        record["statements"] = interp.executed_statements
    else:
        record["run"] = _outcome(interp, env)
    record["hook"] = [len(seen), _digest("\n".join(seen)), seen[:12]]
    if do_steps:
        points = sorted({do_steps[0], do_steps[len(do_steps) // 2], do_steps[-1]})
        trips = {}
        for step in points:
            probe = make(budget=Budget(max_steps=step - 1))
            try:
                probe.run(bindings=fresh())
                trips[str(step)] = None
            except MiniFError as error:
                trips[str(step)] = [_dump(error), repr(probe.counters.state_dict())]
        record["budget_trips"] = trips
        middle = points[len(points) // 2]
        probe = make(fault_plan=FaultPlan(op_faults=(middle,)))
        try:
            probe.run(bindings=fresh())
            record["op_fault"] = [middle, None]
        except MiniFError as error:
            record["op_fault"] = [middle, _dump(error)]
    if "error" not in record:
        for every in (1, 5):
            captured: list = []
            make(checkpoint_every=every, checkpoint_sink=captured.append).run(
                bindings=fresh()
            )
            resumed = set()
            for ckpt in captured:
                again = make()
                env = again.run(resume_from=ckpt)
                resumed.add(_digest(json.dumps(_outcome(again, env), sort_keys=True)))
            record[f"checkpoints_{every}"] = [
                [ckpt.step for ckpt in captured],
                sorted(resumed),
            ]
    return record


def _mimd_record(text: str, bindings_for, externals=None, budget_steps=()) -> dict:
    source = parse_source(text)
    record: dict = {}
    try:
        result = MIMDSimulator(source, 2 if externals is None else NPROC, externals).run(
            bindings_for=bindings_for
        )
    except MiniFError as error:
        record["error"] = _dump(error)
    else:
        record["procs"] = [
            [n, repr(c.state_dict()), _env(e)]
            for n, c, e in zip(result.statements, result.counters, result.envs)
        ]
    for steps in budget_steps:
        try:
            MIMDSimulator(
                source, NPROC, externals, budget=Budget(max_steps=steps)
            ).run(bindings_for=bindings_for)
            record[f"budget_{steps}"] = None
        except MiniFError as error:
            record[f"budget_{steps}"] = _dump(error)
    return record


def _example_bindings(proc: int) -> dict:
    return {**example.example_bindings(), "myproc": proc}


def _p3_bindings(proc: int) -> dict:
    return {**example.mimd_bindings(proc), "myproc": proc}


PROGRAMS = {
    "P1": example.P1_SEQUENTIAL,
    "P2": example.P2_FORTRAN_D,
    "P3": example.P3_MIMD,
    "P4": example.P4_NAIVE_SIMD,
    "P5": example.P5_FLATTENED_SIMD,
}


def capture(case: str) -> dict:
    """The oracle entry for ``case`` (a key of :func:`cases`)."""
    family, _, name = case.partition("/")
    if family == "scalar":
        if name in PROGRAMS:
            bindings = _p3_bindings(1) if name == "P3" else _example_bindings(1)
            return _scalar_record(PROGRAMS[name], bindings)
        if name == "goto-body":
            return _scalar_record(GOTO_BODY, {})
        if name == "mixed":
            return _scalar_record(MIXED, {})
        if name == "p1-goto":
            return _scalar_record(example.P1_GOTO, example.example_bindings())
        if name == "kernel":
            bindings, externals = _kernel()
            return _scalar_record(KERNEL, {**bindings, "myproc": 3, "nproc": NPROC}, externals)
        seed, index = (int(part) for part in name.split("-"))
        program = ProgramGenerator(seed).generate(index)
        return _scalar_record(program.source, program.bindings)
    if family == "mimd":
        if name in PROGRAMS:
            bindings_for = _p3_bindings if name == "P3" else _example_bindings
            return _mimd_record(PROGRAMS[name], bindings_for)
        bindings, externals = _kernel()
        return _mimd_record(
            KERNEL, lambda p: dict(bindings), externals, budget_steps=(40, 333)
        )
    if family == "pmimd":
        bindings, externals = _kernel()
        result = PMIMDExecutor(
            parse_source(KERNEL), NPROC, externals, workers=2
        ).run(bindings=bindings)
        return {
            "procs": [
                [n, repr(c.state_dict()), _env(e)]
                for n, c, e in zip(result.statements, result.counters, result.envs)
            ]
        }
    raise KeyError(case)


def cases() -> list[str]:
    names = [f"scalar/{name}" for name in PROGRAMS]
    names += ["scalar/goto-body", "scalar/mixed", "scalar/p1-goto", "scalar/kernel"]
    names += [f"scalar/{seed}-{index}" for seed in (0, 1) for index in range(40)]
    names += [f"mimd/{name}" for name in PROGRAMS] + ["mimd/kernel", "pmimd/kernel"]
    return names


EXPECTED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("case", cases())
def test_matches_the_recorded_run(case):
    assert json.loads(json.dumps(capture(case))) == EXPECTED[case]


def test_the_pmimd_kernel_matches_the_mimd_kernel():
    mimd = EXPECTED["mimd/kernel"]["procs"]
    assert EXPECTED["pmimd/kernel"]["procs"] == mimd
    assert max(n for n, _, _ in mimd) > 0


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    FIXTURE.write_text(
        json.dumps({case: capture(case) for case in cases()}, sort_keys=True)
        .replace('}, "', '},\n "')
        + "\n"
    )
