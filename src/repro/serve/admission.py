"""Per-tenant admission control for the serve layer.

The reliability layer already knows how to bound one execution
(:class:`~repro.reliability.Budget`) and how to degrade it
(:class:`~repro.reliability.FallbackPolicy`); admission control is the
service-shaped wrapper: each tenant gets a :class:`TenantPolicy`
naming its concurrency ceiling and the budget/fallback applied to
every run it submits, and the controller enforces a global in-flight
ceiling on top.  A request over either ceiling is rejected *before*
any work is queued — HTTP 429 at the front end — which keeps one
noisy tenant from starving the worker pool for everyone else.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..reliability import Budget, FallbackPolicy


class AdmissionError(Exception):
    """Request rejected at admission (maps to HTTP 429)."""

    def __init__(self, message: str, tenant: str):
        super().__init__(message)
        self.tenant = tenant


@dataclass(frozen=True)
class TenantPolicy:
    """Service limits and execution guards for one tenant.

    Attributes:
        name: Tenant identifier (the request's ``tenant`` field).
        max_inflight: Concurrent requests this tenant may have queued
            or running (None = no per-tenant ceiling).
        max_steps: Step budget applied to each of the tenant's runs
            (None = engine default).
        deadline_seconds: Wall-clock budget per run.
        fallback: Backend fallback chain for the tenant's runs, e.g.
            ``("pmimd", "mimd")``; empty = no policy, faults
            surface directly.
    """

    name: str = "default"
    max_inflight: int | None = None
    max_steps: int | None = None
    deadline_seconds: float | None = None
    fallback: tuple[str, ...] = field(default_factory=tuple)

    def budget(self) -> Budget | None:
        """The per-run Budget this policy implies (None = default)."""
        if self.max_steps is None and self.deadline_seconds is None:
            return None
        spec: dict = {}
        if self.max_steps is not None:
            spec["max_steps"] = self.max_steps
        if self.deadline_seconds is not None:
            spec["deadline_seconds"] = self.deadline_seconds
        return Budget(**spec)

    def policy(self) -> FallbackPolicy | None:
        """The FallbackPolicy this policy implies (None = no chain)."""
        if not self.fallback:
            return None
        return FallbackPolicy(chain=tuple(self.fallback))


class _Ticket:
    """Context manager releasing one admitted slot."""

    def __init__(self, controller: "AdmissionController", tenant: str):
        self._controller = controller
        self._tenant = tenant

    def __enter__(self) -> "_Ticket":
        return self

    def __exit__(self, *_exc) -> None:
        self._controller._release(self._tenant)


class AdmissionController:
    """Tracks in-flight work per tenant and enforces the ceilings.

    Args:
        max_inflight: Global concurrent-request ceiling across all
            tenants (None = unbounded).
        default: Policy applied to tenants with no registered policy.
    """

    def __init__(
        self,
        max_inflight: int | None = None,
        default: TenantPolicy | None = None,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self.default = default if default is not None else TenantPolicy()
        self._policies: dict[str, TenantPolicy] = {}
        self._inflight: dict[str, int] = {}
        self._total = 0
        self._lock = threading.Lock()

    def register(self, policy: TenantPolicy) -> None:
        """Install (or replace) one tenant's policy."""
        self._policies[policy.name] = policy

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self._policies.get(tenant, self.default)

    def admit(self, tenant: str) -> _Ticket:
        """Claim a slot for one request; raises :class:`AdmissionError`.

        Use as a context manager so the slot is released on every exit
        path::

            with admission.admit(tenant):
                ... serve the request ...
        """
        policy = self.policy_for(tenant)
        with self._lock:
            if self.max_inflight is not None and self._total >= self.max_inflight:
                raise AdmissionError(
                    f"service at capacity ({self.max_inflight} in flight)",
                    tenant,
                )
            mine = self._inflight.get(tenant, 0)
            if policy.max_inflight is not None and mine >= policy.max_inflight:
                raise AdmissionError(
                    f"tenant {tenant!r} at capacity "
                    f"({policy.max_inflight} in flight)",
                    tenant,
                )
            self._inflight[tenant] = mine + 1
            self._total += 1
        return _Ticket(self, tenant)

    def _release(self, tenant: str) -> None:
        with self._lock:
            left = self._inflight.get(tenant, 0) - 1
            if left > 0:
                self._inflight[tenant] = left
            else:
                self._inflight.pop(tenant, None)
            self._total = max(0, self._total - 1)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "total_inflight": self._total,
                "max_inflight": self.max_inflight,
                "by_tenant": dict(self._inflight),
                "tenants": sorted(self._policies),
            }


__all__ = ["AdmissionController", "AdmissionError", "TenantPolicy"]
