"""Trace recorder tests."""

import numpy as np

import repro
from repro.exec import MIMDSimulator
from repro.lang import ast, parse_source
from repro.simd.trace import MIMDTraceRecorder, SIMDTraceRecorder, TraceTable


def body_pred(stmt):
    return (
        isinstance(stmt, ast.Assign)
        and isinstance(stmt.target, ast.ArrayRef)
        and stmt.target.name == "x"
    )


def test_simd_trace_records_active_lanes():
    source = parse_source(
        "PROGRAM p\n  INTEGER x(4)\n  i = [1 : 2]\n"
        "  WHILE (ANY(i <= 3))\n    WHERE (i <= 3)\n"
        "      x(i) = i\n      i = i + 2\n    ENDWHERE\n  ENDWHILE\nEND"
    )
    recorder = SIMDTraceRecorder(("i",), 2, body_predicate=body_pred)
    repro.run(source, nproc=2, statement_hook=recorder.hook)
    assert recorder.table.steps == 2
    assert recorder.table.row("i", 1) == [1, 3]
    assert recorder.table.row("i", 2) == [2, None]  # idle in step 2


def test_simd_trace_by_label():
    source = parse_source(
        "PROGRAM p\n  INTEGER x(2)\n  i = [1 : 2]\n100 x(i) = i\nEND"
    )
    recorder = SIMDTraceRecorder(("i",), 2, body_label=100)
    repro.run(source, nproc=2, statement_hook=recorder.hook)
    assert recorder.table.steps == 1


def test_mimd_trace_per_processor_time():
    source = parse_source(
        "PROGRAM p\n  INTEGER x(4)\n  DO i = 1, myproc\n    x(i) = i\n  ENDDO\nEND"
    )
    recorder = MIMDTraceRecorder(("i",), 2, body_predicate=body_pred)
    MIMDSimulator(source, 2).run(statement_hook_for=recorder.hook_for)
    assert recorder.table.row("i", 1) == [1]
    assert recorder.table.row("i", 2) == [1, 2]
    assert recorder.table.steps == 2


def test_busy_steps():
    table = TraceTable(("i",), 2)
    table.rows[("i", 1)] = [1, None, 2]
    table.rows[("i", 2)] = [1, 1, 1]
    assert table.busy_steps(1) == 2
    assert table.busy_steps(2) == 3


def test_format_contains_rows_and_holes():
    table = TraceTable(("i", "j"), 1)
    table.rows[("i", 1)] = [1, None]
    table.rows[("j", 1)] = [4, 5]
    text = table.format()
    assert "Time" in text
    assert "i_1" in text and "j_1" in text
    lines = text.splitlines()
    i_line = next(line for line in lines if line.startswith("i_1"))
    assert "1" in i_line
