"""Refinement-only regression against the legacy SIV dependence test.

The PR that introduced `repro.analysis.dep` replaced the old
single-index-variable owner-computes test.  The new framework may be
*more conservative is never allowed to be newly-unsafe*: over the
seeded generator corpus (plus the bundled kernels) it must never call
a loop parallel that the legacy algorithm serialized.  The legacy
algorithm below is copied verbatim from the pre-PR
``analysis/dependence.py`` module so the comparison cannot drift.
"""

from dataclasses import dataclass, field

import pytest

from repro.analysis.cfg import build_cfg
from repro.analysis.dataflow import live_variables, stmt_defs
from repro.analysis.dep import analyze_outer_parallelism
from repro.analysis.dep.explain import outer_loops
from repro.fuzz.generator import ProgramGenerator
from repro.lang import ast, parse_source
from repro.transform.pipeline import structurize_program

# --- the legacy algorithm, verbatim ----------------------------------------


@dataclass
class _AffineTerm:
    coeff: int
    const: int


def _parse_affine(expr, var):
    if isinstance(expr, ast.IntLit):
        return _AffineTerm(0, expr.value)
    if isinstance(expr, ast.Var):
        if expr.name == var:
            return _AffineTerm(1, 0)
        return None
    if isinstance(expr, ast.UnOp) and expr.op == "-":
        inner = _parse_affine(expr.operand, var)
        if inner is None:
            return None
        return _AffineTerm(-inner.coeff, -inner.const)
    if isinstance(expr, ast.BinOp):
        left = _parse_affine(expr.left, var)
        right = _parse_affine(expr.right, var)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return _AffineTerm(left.coeff + right.coeff, left.const + right.const)
        if expr.op == "-":
            return _AffineTerm(left.coeff - right.coeff, left.const - right.const)
        if expr.op == "*":
            if left.coeff == 0:
                return _AffineTerm(left.const * right.coeff, left.const * right.const)
            if right.coeff == 0:
                return _AffineTerm(left.coeff * right.const, left.const * right.const)
            return None
    return None


@dataclass
class _AccessInfo:
    name: str
    subs: list
    is_write: bool


@dataclass
class _Report:
    parallel: bool
    unknown: bool = False
    reductions: set = field(default_factory=set)
    reasons: list = field(default_factory=list)


def _collect_accesses(body):
    accesses = []
    write_ids = set()
    for node in ast.walk_body(body):
        if isinstance(node, ast.Assign) and isinstance(node.target, ast.ArrayRef):
            accesses.append(_AccessInfo(node.target.name, node.target.subs, True))
            write_ids.add(id(node.target))
    for node in ast.walk_body(body):
        if isinstance(node, ast.ArrayRef) and id(node) not in write_ids:
            accesses.append(_AccessInfo(node.name, node.subs, False))
    return accesses


def _has_indirect_subscript(access):
    for sub in access.subs:
        for node in ast.walk(sub):
            if isinstance(node, ast.ArrayRef):
                return True
    return False


def _is_reduction(stmt, name):
    value = stmt.value
    if isinstance(value, ast.BinOp) and value.op in ("+", "*"):
        for side in (value.left, value.right):
            if isinstance(side, ast.Var) and side.name == name:
                return True
    return False


def _legacy_analyze(loop):
    var = loop.var
    body = loop.body
    report = _Report(parallel=True)
    if isinstance(loop, ast.Forall):
        report.reasons.append("FORALL header: parallelism asserted by the user")
        return report
    accesses = _collect_accesses(body)
    by_name = {}
    for access in accesses:
        by_name.setdefault(access.name, []).append(access)
    for name, group in sorted(by_name.items()):
        writes = [a for a in group if a.is_write]
        if not writes:
            continue
        if any(_has_indirect_subscript(a) for a in group):
            report.unknown = True
            report.parallel = False
            continue
        ranks = {len(a.subs) for a in group}
        if len(ranks) != 1:
            report.parallel = False
            continue
        rank = ranks.pop()
        ok = False
        for dim in range(rank):
            terms = [_parse_affine(a.subs[dim], var) for a in group]
            if any(t is None for t in terms):
                continue
            coeffs = {t.coeff for t in terms}
            consts = {t.const for t in terms}
            if 0 not in coeffs and len(coeffs) == 1 and len(consts) == 1:
                ok = True
                break
        if not ok:
            report.parallel = False
    cfg = build_cfg(body)
    liveness = live_variables(cfg)
    assigned = set()
    array_names = set(by_name)
    for node in cfg.statements():
        assigned |= stmt_defs(node.stmt)
    live_at_entry = set()
    for succ in cfg.nodes[cfg.ENTRY].succs:
        live_at_entry |= liveness.live_in[succ]
    call_touched = set()
    for node in ast.walk_body(body):
        if isinstance(node, ast.CallStmt):
            for arg in node.args:
                if isinstance(arg, ast.Var):
                    call_touched.add(arg.name)
    carried = (assigned & live_at_entry) - array_names - {var}
    for name in sorted(carried):
        reduction = any(
            isinstance(node, ast.Assign)
            and isinstance(node.target, ast.Var)
            and node.target.name == name
            and _is_reduction(node, name)
            for node in ast.walk_body(body)
        )
        if reduction:
            report.reductions.add(name)
        elif name in call_touched:
            report.unknown = True
            report.parallel = False
        else:
            report.parallel = False
    return report


# --- the regression --------------------------------------------------------


def _corpus_loops():
    sources = [p.source for p in ProgramGenerator(20260805).programs(300)]
    import repro.kernels as kernels

    for mod_name in ("example", "mandelbrot", "nbforce", "region_growing", "spmv"):
        mod = getattr(kernels, mod_name)
        sources.extend(
            v
            for n, v in vars(mod).items()
            if isinstance(v, str)
            and not n.startswith("_")
            and "PROGRAM" in v.upper()
        )
    loops = []
    for source in sources:
        try:
            tree = structurize_program(parse_source(source))
        except Exception:
            continue
        for unit in tree.units:
            loops.extend(outer_loops(unit.body))
    return loops


def test_never_newly_unsafe_on_corpus():
    loops = _corpus_loops()
    assert len(loops) >= 300  # the sweep must actually cover the corpus
    violations = []
    for loop in loops:
        old = _legacy_analyze(loop)
        new = analyze_outer_parallelism(loop)
        if new.parallel and not old.parallel:
            violations.append((loop.loc, new.reasons, old.reasons))
        # ...and the compatibility direction the test suite depends on:
        # a loop the legacy test accepted must stay accepted.
        if old.parallel and not new.parallel:
            violations.append((loop.loc, new.reasons, old.reasons))
        # The unknown flag (indirect addressing / CALLs) is preserved.
        if old.unknown and not (new.unknown or not new.parallel):
            violations.append((loop.loc, ["lost unknown"], old.reasons))
    assert not violations, violations[:5]


def test_reductions_preserved_on_corpus():
    mismatches = []
    for loop in _corpus_loops():
        old = _legacy_analyze(loop)
        new = analyze_outer_parallelism(loop)
        if old.reductions != new.reductions:
            mismatches.append((loop.loc, old.reductions, new.reductions))
    assert not mismatches, mismatches[:5]
