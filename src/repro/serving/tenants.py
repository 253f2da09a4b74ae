"""Tenant identity for the serving frontend: priority, weight, SLOs.

A :class:`TenantConfig` names one traffic class and carries everything
admission and scheduling need to know about it:

* a **priority class** — ``critical`` / ``standard`` / ``best_effort`` —
  mapped onto strict-priority *tiers* of the admission queue
  (:class:`~repro.serving.wfq.WFQAdmissionQueue`): a waiting
  higher-tier request is always served before any lower-tier one, and
  may preempt a lower-tier request already executing at its next plan
  phase boundary;
* a **weight** — the share of service a tenant receives *within* its
  tier, enforced by weighted fair queueing (virtual-finish-time
  accounting; a weight-4 tenant drains roughly four times as fast as a
  weight-1 tenant under sustained contention);
* an optional **p99 SLO target** — requests completing slower count
  into ``duet_tenant_slo_miss_total``;
* an optional **default deadline** applied to the tenant's requests
  when the caller does not pass one explicitly (it beats the lane-wide
  ``ServingConfig.default_deadline_s``).

The :class:`TenantRegistry` resolves request tenant names to configs.
Unknown names resolve to a standard-class default (opt into
``strict=True`` to reject them instead), so a frontend without any
tenant setup behaves exactly like the pre-tenant single-FIFO one: every
request lands in the same standard-tier flow and drains in FIFO order.

``tenants.json`` (see ``repro serve --tenants``) is either a top-level
list of tenant objects or ``{"tenants": [...]}``; durations accept
``*_s`` (seconds) or ``*_ms`` (milliseconds) spellings::

    {"tenants": [
      {"name": "search", "priority": "critical", "weight": 4,
       "slo_p99_ms": 250, "default_deadline_ms": 1000},
      {"name": "batch-embed", "priority": "best_effort", "weight": 1}
    ]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.errors import ExecutionError

__all__ = [
    "PRIORITY_CLASSES",
    "PRIORITY_TIERS",
    "DEFAULT_TENANT",
    "TenantConfig",
    "TenantRegistry",
]

#: Priority classes, highest first; index = strict-priority tier.
PRIORITY_CLASSES = ("critical", "standard", "best_effort")

#: Priority class -> strict-priority tier (0 is served first).
PRIORITY_TIERS = {name: tier for tier, name in enumerate(PRIORITY_CLASSES)}


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's scheduling contract.

    Attributes:
        name: the tenant label (metrics label, registry key).
        priority: ``critical`` / ``standard`` / ``best_effort``.
        weight: WFQ weight within the tenant's tier; > 0.
        slo_p99_s: p99 latency target; completions slower than this
            count as SLO misses (``None`` = no target tracked).
        default_deadline_s: deadline for the tenant's requests when the
            submitter passes none; beats the lane-wide default.
    """

    name: str
    priority: str = "standard"
    weight: float = 1.0
    slo_p99_s: float | None = None
    default_deadline_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ExecutionError("tenant name must be non-empty")
        if self.priority not in PRIORITY_TIERS:
            raise ExecutionError(
                f"tenant {self.name!r}: priority must be one of "
                f"{PRIORITY_CLASSES}, got {self.priority!r}"
            )
        if not self.weight > 0:
            raise ExecutionError(
                f"tenant {self.name!r}: weight must be > 0, got {self.weight}"
            )
        for label, value in (
            ("slo_p99_s", self.slo_p99_s),
            ("default_deadline_s", self.default_deadline_s),
        ):
            if value is not None and value <= 0:
                raise ExecutionError(
                    f"tenant {self.name!r}: {label} must be > 0, got {value}"
                )

    @property
    def tier(self) -> int:
        """Strict-priority tier (0 = served first)."""
        return PRIORITY_TIERS[self.priority]


#: What anonymous requests resolve to: standard class, weight 1.
DEFAULT_TENANT = TenantConfig(name="default")

_DURATION_FIELDS = ("slo_p99", "default_deadline")


def _number(entry: dict, key: str, where: str) -> float:
    """``entry[key]`` as a float; only a JSON number is accepted."""
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExecutionError(
            f"{where}: {key} must be a number, got {value!r}"
        )
    return float(value)


def _parse_duration(entry: dict, base: str, where: str) -> float | None:
    """Accept ``<base>_s`` (seconds) or ``<base>_ms`` (milliseconds)."""
    has_s, has_ms = f"{base}_s" in entry, f"{base}_ms" in entry
    if has_s and has_ms:
        raise ExecutionError(
            f"{where}: give {base}_s or {base}_ms, not both"
        )
    if has_s:
        return _number(entry, f"{base}_s", where)
    if has_ms:
        return _number(entry, f"{base}_ms", where) * 1e-3
    return None


class TenantRegistry:
    """Immutable name -> :class:`TenantConfig` lookup for one frontend.

    Args:
        tenants: the configured tenants; names must be unique.
        strict: reject unknown tenant names at submit time instead of
            resolving them to the standard-class default.
    """

    def __init__(
        self, tenants: Iterable[TenantConfig] = (), strict: bool = False
    ):
        self._tenants: dict[str, TenantConfig] = {}
        self.strict = strict
        for cfg in tenants:
            if cfg.name in self._tenants:
                raise ExecutionError(f"duplicate tenant {cfg.name!r}")
            self._tenants[cfg.name] = cfg

    def resolve(self, name: str | None) -> TenantConfig:
        """The config a request submitted as ``name`` is governed by.

        ``None`` (and, non-strict, any unconfigured name) resolves to a
        standard-class weight-1 config so anonymous traffic keeps the
        pre-tenant FIFO behaviour.
        """
        if name is None:
            return self._tenants.get(
                DEFAULT_TENANT.name, DEFAULT_TENANT
            )
        cfg = self._tenants.get(name)
        if cfg is not None:
            return cfg
        if self.strict:
            raise ExecutionError(
                f"unknown tenant {name!r}; configured: "
                + (", ".join(self._tenants) or "<none>")
            )
        return TenantConfig(name=name)

    def __iter__(self) -> Iterator[TenantConfig]:
        return iter(self._tenants.values())

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        return name in self._tenants

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._tenants)

    # ------------------------------------------------------------------

    @classmethod
    def from_json(cls, text: str, strict: bool = False) -> "TenantRegistry":
        """Parse a ``tenants.json`` document (see the module docstring)."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ExecutionError(f"invalid tenants JSON: {exc}") from exc
        if isinstance(doc, dict):
            entries = doc.get("tenants")
            if not isinstance(entries, list):
                raise ExecutionError(
                    'tenants JSON object must hold a "tenants" list'
                )
        elif isinstance(doc, list):
            entries = doc
        else:
            raise ExecutionError(
                "tenants JSON must be a list or an object with a "
                f'"tenants" list, got {type(doc).__name__}'
            )
        tenants = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ExecutionError(
                    f"tenant entry {i} must be an object, got "
                    f"{type(entry).__name__}"
                )
            name = entry.get("name")
            if not isinstance(name, str) or not name:
                raise ExecutionError(
                    f"tenant entry {i} needs a non-empty string name"
                )
            where = f"tenant {name!r}"
            known = {"name", "priority", "weight"} | {
                f"{base}_{unit}"
                for base in _DURATION_FIELDS
                for unit in ("s", "ms")
            }
            unknown = set(entry) - known
            if unknown:
                raise ExecutionError(
                    f"{where}: unknown keys {sorted(unknown)}"
                )
            tenants.append(
                TenantConfig(
                    name=name,
                    priority=entry.get("priority", "standard"),
                    weight=(
                        _number(entry, "weight", where)
                        if "weight" in entry else 1.0
                    ),
                    slo_p99_s=_parse_duration(entry, "slo_p99", where),
                    default_deadline_s=_parse_duration(
                        entry, "default_deadline", where
                    ),
                )
            )
        return cls(tenants, strict=strict)

    @classmethod
    def from_file(cls, path, strict: bool = False) -> "TenantRegistry":
        """Load a registry from a ``tenants.json`` file."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ExecutionError(
                f"cannot read tenants file {path!r}: {exc}"
            ) from exc
        return cls.from_json(text, strict=strict)
