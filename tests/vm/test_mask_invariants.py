"""VM translation invariants: the mask discipline.

The compiler's mask structure obeys two invariants.  A WHERE can only
*narrow* lane activity: ``_narrow``/``_combine`` build every scope's
mask as an AND with the enclosing one, so the property is tested there,
on random masks.  Every PUSH_MASK is matched by a POP_MASK before HALT:
the machine checks that at run time, and since well-formed source can
never violate it, these tests hand-assemble broken :class:`CodeObject`
streams to prove the check actually fires.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.errors import InterpreterError
from repro.vm.isa import CodeObject, Instr, Op
from repro.vm.machine import SIMDVirtualMachine


def code(*instrs):
    return CodeObject(name="handmade", instructions=tuple(instrs))


#: One nested WHERE scope: the condition's shape ("lane" is (P,),
#: "section" an aligned (P, K)), ELSEWHERE or not, and the lane bits.
SCOPE = st.tuples(
    st.sampled_from(["lane", "section"]),
    st.booleans(),
    st.lists(st.booleans(), min_size=12, max_size=12),
)
P, K = 4, 3


def _cond(shape: str, bits: list) -> np.ndarray:
    if shape == "lane":
        return np.array(bits[:P])
    return np.array(bits).reshape(P, K)


def _aligned(mask: np.ndarray, ndim: int) -> np.ndarray:
    return mask.reshape(mask.shape + (1,) * (ndim - mask.ndim))


def _lanes(mask: np.ndarray) -> np.ndarray:
    mask = np.asarray(mask)
    return mask if mask.ndim == 1 else mask.reshape(P, -1).any(axis=1)


class TestMaskNarrowing:
    @settings(max_examples=200, deadline=None)
    @given(
        outer=st.lists(st.booleans(), min_size=P, max_size=P),
        runs=st.lists(st.lists(SCOPE, min_size=1, max_size=4), min_size=1, max_size=3),
    )
    def test_every_scope_is_a_subset_of_its_enclosing_scope(self, outer, runs):
        # One machine for every run, so the later runs reuse the pooled
        # buffers of each depth; each scope's enclosing mask is the
        # pooled buffer of the depth below it.
        vm = SIMDVirtualMachine(P)
        for scopes in runs:
            enclosing = [np.array(outer)]
            copies = [enclosing[0].copy()]
            for depth, (shape, negate, bits) in enumerate(scopes):
                cond = _cond(shape, bits)
                base = enclosing[-1]
                if negate:
                    inner = vm._narrow(base, cond, depth, negate=True)
                else:
                    vm._mask_stack = [None] * (depth + 1)
                    inner = vm._combine(base, cond)
                expected = np.logical_and(
                    _aligned(copies[-1], inner.ndim),
                    _aligned(~cond if negate else cond, inner.ndim),
                )
                assert np.array_equal(inner, expected)
                # inner ⊆ outer, element by element and lane by lane
                assert not np.any(inner & ~_aligned(copies[-1], inner.ndim))
                assert not np.any(_lanes(inner) & ~_lanes(copies[-1]))
                # writing the inner scope left every enclosing mask intact
                for held, copy in zip(enclosing, copies):
                    assert np.array_equal(held, copy)
                enclosing.append(inner)
                copies.append(inner.copy())

    def test_nested_narrowing_is_fine(self):
        narrow = np.array([True, True, False, False])
        narrower = np.array([True, False, False, False])
        ok = code(
            Instr(Op.PUSH_CONST, narrow),
            Instr(Op.PUSH_MASK),
            Instr(Op.PUSH_CONST, narrower),
            Instr(Op.PUSH_MASK),
            Instr(Op.POP_MASK),
            Instr(Op.POP_MASK),
            Instr(Op.HALT),
        )
        SIMDVirtualMachine(4).run(ok)


class TestMaskStackBalance:
    def test_undrained_mask_stack_at_halt(self):
        broken = code(
            Instr(Op.PUSH_CONST, np.array([True, True, True, True])),
            Instr(Op.PUSH_MASK),
            Instr(Op.HALT),
        )
        with pytest.raises(InterpreterError, match="mask stack not drained"):
            SIMDVirtualMachine(4).run(broken)

    def test_pop_on_empty_stack(self):
        broken = code(Instr(Op.POP_MASK), Instr(Op.HALT))
        with pytest.raises(InterpreterError, match="empty mask stack"):
            SIMDVirtualMachine(4).run(broken)

    def test_else_on_empty_stack(self):
        broken = code(Instr(Op.ELSE_MASK), Instr(Op.HALT))
        with pytest.raises(InterpreterError, match="empty mask stack"):
            SIMDVirtualMachine(4).run(broken)

    def test_balanced_stream_runs_clean(self):
        ok = code(
            Instr(Op.PUSH_CONST, np.array([True, False, True, False])),
            Instr(Op.PUSH_MASK),
            Instr(Op.POP_MASK),
            Instr(Op.HALT),
        )
        SIMDVirtualMachine(4).run(ok)
