"""The settable surface of a run, pinned name by name.

Every parameter and config field here is a value some caller needs to
set differently; tuning no caller sets is a module constant instead
(the pmimd shard plan, the supervisor's retry, backoff, straggler and
respawn constants).  A new setting has to edit this file on purpose.
"""

import dataclasses
import inspect

import pytest

from repro.exec.pmimd import PMIMDExecutor
from repro.exec.scalar import ScalarInterpreter
from repro.reliability.supervisor import SupervisionPolicy
from repro.runtime import BackendConfig, CompiledProgram
from repro.vm.machine import SIMDVirtualMachine


def parameters(callable_):
    return [
        name for name in inspect.signature(callable_).parameters if name != "self"
    ]


def fields(cls):
    return [field.name for field in dataclasses.fields(cls)]


@pytest.mark.parametrize(
    "callable_,names",
    [
        (
            CompiledProgram.run,
            [
                "bindings",
                "nproc",
                "backend",
                "externals",
                "statement_hook",
                "routine_name",
                "bindings_for",
                "statement_hook_for",
                "budget",
                "fault_plan",
                "policy",
                "config",
                "checkpoint_every",
                "checkpoint_dir",
                "checkpoint_sink",
                "resume_from",
            ],
        ),
        (
            ScalarInterpreter,
            [
                "source",
                "externals",
                "statement_hook",
                "budget",
                "fault_plan",
                "checkpoint_every",
                "checkpoint_sink",
                "beat",
            ],
        ),
        (
            SIMDVirtualMachine,
            [
                "nproc",
                "externals",
                "budget",
                "fault_plan",
                "fuse",
                "checkpoint_every",
                "checkpoint_sink",
                "statement_hook",
            ],
        ),
        (
            PMIMDExecutor,
            [
                "source",
                "nproc",
                "externals",
                "budget",
                "fault_plan",
                "workers",
                "supervision",
                "checkpoint_every",
                "checkpoint_dir",
            ],
        ),
    ],
    ids=["run", "scalar", "vm", "pmimd"],
)
def test_parameters(callable_, names):
    assert parameters(callable_) == names


def test_backend_config_fields():
    assert fields(BackendConfig) == ["vm_fuse", "workers", "supervision"]


def test_supervision_policy_fields():
    assert fields(SupervisionPolicy) == [
        "wedge_timeout",
        "backoff_base_seconds",
        "backoff_max_seconds",
        "straggler_floor_seconds",
    ]


def test_a_run_has_nineteen_settable_values():
    assert len(parameters(CompiledProgram.run)) + len(fields(BackendConfig)) == 19
