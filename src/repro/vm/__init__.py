"""SIMD bytecode: a linear ISA, an AST compiler, and a lockstep VM.

The package's one lockstep SIMD backend.  A source file compiles to
one code object — its main program plus every subroutine at its own
entry — and the VM runs it, MiniF subroutine calls, named-routine
entry and statement hooks included.  The fuzz oracle and the
differential suite hold it to the test-only tree-walking twin of
:mod:`repro.fuzz.twin`.
"""

from .compiler import Compiler, compile_program, compile_routine
from .fuse import FUSIBLE_OPS, FusedRun, MAX_FUSE_LEN, fuse_code
from .isa import CodeObject, Instr, Op
from .machine import SIMDVirtualMachine, run_bytecode
from .verify import VerificationError, assert_verified, stack_effect, verify_code

__all__ = [
    "Op",
    "Instr",
    "CodeObject",
    "Compiler",
    "compile_routine",
    "compile_program",
    "SIMDVirtualMachine",
    "run_bytecode",
    "verify_code",
    "assert_verified",
    "stack_effect",
    "VerificationError",
    "FusedRun",
    "FUSIBLE_OPS",
    "MAX_FUSE_LEN",
    "fuse_code",
]
