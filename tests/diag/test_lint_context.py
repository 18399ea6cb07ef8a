"""One lint pass per routine.

``lint_routine`` runs every rule on one shared :class:`LintContext`,
which computes the statement list once and gives each loop one
flattening report and one dependence graph.  Sharing must not change a
finding: the pass equals each rule run alone on a fresh context.
"""

import glob
import os

import pytest

import repro.analysis.dep.report as dep_report
import repro.diag.rules as rules
import repro.kernels
from repro.cli import _iter_minif_sources
from repro.diag import RULES, LintContext, lint_routine
from repro.fuzz.generator import ProgramGenerator
from repro.lang import ast, check_source, parse_source

PROGRAMS_PER_SEED = 40

#: One routine where every shared rule fires: a racing FORALL (R003)
#: and a ragged nest (W101, W103) whose outer loop is serial only
#: through an indirect store (W104), so W101, W103 and W104 share its
#: graph.
SHARED = """PROGRAM shared
INTEGER i, j
INTEGER a(10), b(10), idx(10), l(10), x(10, 10)
FORALL (i = 2:9)
  a(i) = a(i - 1) + 1
ENDFORALL
DO i = 1, 10
  b(idx(i)) = i
  DO j = 1, l(i)
    x(i, j) = i * j
  ENDDO
ENDDO
END
"""


def _kernel_sources() -> list[str]:
    root = os.path.dirname(repro.kernels.__file__)
    return [
        text
        for path in sorted(glob.glob(os.path.join(root, "*.py")))
        for _label, text in _iter_minif_sources(path)
    ]


def _routines(text: str) -> list[ast.Routine]:
    """The checked routines of ``text``, as ``lint_source`` sees them."""
    source = parse_source(text)
    called = {
        node.name
        for unit in source.units
        for node in ast.walk_body(unit.body)
        if isinstance(node, ast.CallStmt)
    }
    check_source(source, externals=called)
    return source.units


def _corpus() -> list[ast.Routine]:
    texts = [SHARED, *_kernel_sources()]
    for seed in (0, 1):
        texts += [p.source for p in ProgramGenerator(seed).programs(PROGRAMS_PER_SEED)]
    return [routine for text in texts for routine in _routines(text)]


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _key(diagnostic):
    return (
        diagnostic.code,
        diagnostic.severity,
        diagnostic.message,
        diagnostic.notes,
        diagnostic.location,
        str(diagnostic.location),
        diagnostic.routine,
    )


def _each_rule_alone(routine: ast.Routine) -> list:
    found = []
    for code in sorted(RULES):
        ctx = LintContext(routine, rules.analyze_routine(routine))
        found.extend(RULES[code].check(ctx))
    return found


def _loops(routine: ast.Routine) -> list[ast.Stmt]:
    return [
        node
        for node in ast.walk_body(routine.body)
        if isinstance(node, (ast.Do, ast.DoWhile, ast.While, ast.Forall))
    ]


def test_shared_pass_equals_each_rule_alone(corpus):
    seen = set()
    for routine in corpus:
        shared = [_key(d) for d in lint_routine(routine)]
        alone = [_key(d) for d in _each_rule_alone(routine)]
        assert shared == alone, routine.name
        seen.update(key[0] for key in shared)
    # The corpus exercises the rules whose work is shared.
    assert {"R003", "W101", "W103", "W104"} <= seen, seen


def test_one_report_and_one_graph_per_loop(corpus, monkeypatch):
    flattened, graphs, report_graphs = [], [], []

    def counting(calls, original):
        def wrapper(loop, *args, **kwargs):
            calls.append(id(loop))
            return original(loop, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        rules, "evaluate_flattening", counting(flattened, rules.evaluate_flattening)
    )
    monkeypatch.setattr(
        rules, "build_dependence_graph", counting(graphs, rules.build_dependence_graph)
    )
    monkeypatch.setattr(
        dep_report,
        "build_dependence_graph",
        counting(report_graphs, dep_report.build_dependence_graph),
    )
    reports = built_graphs = 0
    for routine in corpus:
        loops = {id(loop) for loop in _loops(routine)}
        runs = []
        for _ in range(2):
            del flattened[:], graphs[:], report_graphs[:]
            lint_routine(routine)
            built = graphs + report_graphs
            assert len(flattened) == len(set(flattened)), routine.name
            assert len(built) == len(set(built)), routine.name
            assert set(flattened) | set(built) <= loops
            runs.append((sorted(flattened), sorted(built)))
        # Nothing is kept from one lint run to the next.
        assert runs[0] == runs[1]
        reports += len(flattened)
        built_graphs += len(built)
    assert reports and built_graphs
