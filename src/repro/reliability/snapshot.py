"""Machine-state snapshots for crash dumps.

When an execution backend dies, its machine state — program counter,
activity-mask stack, a per-PE slice of the environment, the last few
executed opcodes — is captured into a :class:`MachineSnapshot` and
attached to the raised error.  :meth:`MachineSnapshot.to_dict`
produces the JSON-serializable half of a crash dump; the values are
truncated (``MAX_ENV_ENTRIES`` variables, ``MAX_ELEMENTS`` elements
each) so a dump of a large MD run stays readable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lang.errors import SourceLocation

#: How many executed opcodes/statements a machine keeps for its trace ring.
TRACE_DEPTH = 16

#: Environment truncation limits for crash dumps.
MAX_ENV_ENTRIES = 32
MAX_ELEMENTS = 32


def _json_safe(value):
    """Coerce a runtime scalar to a plain Python value."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


def render_value(value, max_elements: int = MAX_ELEMENTS):
    """Render one environment value for a crash dump.

    Per-PE vectors become lists, larger arrays a ``{shape, head}``
    summary, declared Fortran arrays a ``{array, shape, head}``
    summary; host scalars pass through.
    """
    # FArray quacks with .name/.shape/.data; avoid importing exec here.
    data = getattr(value, "data", None)
    if data is not None and hasattr(value, "shape") and hasattr(value, "name"):
        flat = np.asarray(data).ravel()
        return {
            "array": value.name,
            "shape": list(value.shape),
            "head": [_json_safe(v) for v in flat[:max_elements].tolist()],
        }
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.shape[0] <= max_elements:
            return [_json_safe(v) for v in value.tolist()]
        return {
            "shape": list(value.shape),
            "head": [_json_safe(v) for v in value.ravel()[:max_elements].tolist()],
        }
    return _json_safe(value)


def snapshot_env(
    env: dict,
    max_entries: int = MAX_ENV_ENTRIES,
    max_elements: int = MAX_ELEMENTS,
) -> dict:
    """A truncated, serializable per-PE slice of an environment."""
    rendered: dict = {}
    for name in sorted(env, key=str):
        if isinstance(name, str) and name.startswith("__"):
            continue
        if len(rendered) >= max_entries:
            rendered["..."] = f"{len(env)} variables total"
            break
        rendered[str(name)] = render_value(env[name], max_elements)
    return rendered


def render_mask(mask) -> list:
    """A mask (or None) as a plain list of lane booleans."""
    if mask is None:
        return []
    arr = np.asarray(mask)
    if arr.ndim == 0:
        return [bool(arr)]
    if arr.ndim > 1:
        arr = arr.any(axis=tuple(range(1, arr.ndim)))
    return [bool(v) for v in arr.tolist()]


@dataclass
class MachineSnapshot:
    """The state of an execution backend at one instant.

    Attributes:
        backend: ``"vm"``, ``"scalar"`` or ``"mimd"``.
        pc: Program counter — instruction index on the VM, executed
            statement count on the scalar interpreter.
        steps: Instructions/statements executed so far.
        mask: Current activity lanes.
        mask_stack: Enclosing activity masks, outermost first.
        env: Truncated per-PE environment slice
            (see :func:`snapshot_env`).
        last_ops: The last :data:`TRACE_DEPTH` executed opcodes or
            statements, oldest first — each a
            ``{"pc": ..., "op": ..., "line": ...}`` dict.
        location: :class:`~repro.lang.errors.SourceLocation` of the
            current instruction/statement, if known — the same span
            type :class:`~repro.diag.Diagnostic` carries, so crash
            dumps and lint findings serialize locations identically.
    """

    backend: str
    pc: int
    steps: int
    mask: list = field(default_factory=list)
    mask_stack: list = field(default_factory=list)
    env: dict = field(default_factory=dict)
    last_ops: list = field(default_factory=list)
    location: "SourceLocation | None" = None

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "pc": self.pc,
            "steps": self.steps,
            "mask": self.mask,
            "mask_stack": self.mask_stack,
            "env": self.env,
            "last_ops": self.last_ops,
            "snapshot_location": (
                None
                if self.location is None or not self.location.line
                else self.location.to_dict()
            ),
        }
