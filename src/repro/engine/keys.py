"""Serializable run specifications and their content digests.

A :class:`RunSpec` names one simulation point of the evaluation grid:
``(benchmark, coding, memsys, l2_latency, warm, seed)`` plus free-form
configuration overrides (processor, hierarchy or memory-system fields,
and the special ``timing_model`` override selecting the batched or
reference pipeline implementation — see :mod:`repro.timing.pipeline`).
Specs are frozen and hashable, so they key both the in-process memo and
the persistent on-disk result cache; :meth:`RunSpec.digest` is a stable
content hash independent of field ordering.  Cached results are also
namespaced by a *code version* hash over every ``repro`` source file
(:func:`repro.engine.cache.code_version`), which automatically covers
the timing layer's pre-decode/batched/reference modules — a change to
any of them invalidates stale entries rather than serving them.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.timing import MEMSYSTEMS, PROCESSORS

#: Memory-system designs the engine can instantiate (one source of
#: truth: the timing layer's factory registry).
MEMSYS_KINDS = tuple(MEMSYSTEMS)
#: ISA codings (each picks both trace and processor model).
CODING_NAMES = tuple(PROCESSORS)

#: Override value types that survive a JSON round-trip losslessly.
_SCALAR = (bool, int, float, str)


def _normalize_overrides(overrides) -> tuple[tuple[str, object], ...]:
    """Canonicalize overrides to a sorted tuple of (field, value) pairs."""
    if isinstance(overrides, Mapping):
        items = overrides.items()
    else:
        items = list(overrides)
    out = []
    for entry in items:
        try:
            name, value = entry
        except (TypeError, ValueError):
            raise ConfigError(
                f"override entry {entry!r} is not a (field, value) pair"
            ) from None
        if not isinstance(name, str):
            raise ConfigError(f"override field {name!r} must be a string")
        if not isinstance(value, _SCALAR):
            raise ConfigError(
                f"override {name}={value!r} must be a scalar "
                f"(bool/int/float/str)")
        out.append((name, value))
    names = [name for name, _ in out]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate override fields in {names}")
    return tuple(sorted(out))


@dataclass(frozen=True)
class RunSpec:
    """One point of the simulation grid, hashable and serializable."""

    benchmark: str
    coding: str
    memsys: str = "vector"
    l2_latency: int = 20
    warm: bool = True
    seed: int = 0
    #: extra config fields applied on top of the named configuration;
    #: accepted as a dict or pair-sequence, stored as a sorted tuple.
    overrides: tuple = field(default=())

    def __post_init__(self) -> None:
        if self.coding not in CODING_NAMES:
            raise ConfigError(f"unknown coding {self.coding!r}; expected "
                              f"one of {CODING_NAMES}")
        if self.memsys not in MEMSYS_KINDS:
            raise ConfigError(f"unknown memory system {self.memsys!r}; "
                              f"expected one of {MEMSYS_KINDS}")
        object.__setattr__(self, "overrides",
                           _normalize_overrides(self.overrides))
        if self.memsys == "ideal":
            # The ideal memory system ignores the L2 latency by
            # construction (it models 1-cycle, unbounded bandwidth), so
            # canonicalize the field: every latency maps to one spec,
            # one digest, one cached simulation.
            object.__setattr__(self, "l2_latency", 0)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "coding": self.coding,
            "memsys": self.memsys,
            "l2_latency": self.l2_latency,
            "warm": self.warm,
            "seed": self.seed,
            "overrides": [[name, value] for name, value in self.overrides],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunSpec":
        return cls(
            benchmark=data["benchmark"], coding=data["coding"],
            memsys=data["memsys"], l2_latency=data["l2_latency"],
            warm=data["warm"], seed=data["seed"],
            overrides=tuple((name, value)
                            for name, value in data.get("overrides", ())),
        )

    def digest(self) -> str:
        """Stable content hash (hex) over the canonical dict form."""
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Compact human-readable identifier for tables and logs."""
        parts = [self.benchmark, self.coding, self.memsys]
        if self.memsys != "ideal" and self.l2_latency != 20:
            parts.append(f"l{self.l2_latency}")
        if not self.warm:
            parts.append("cold")
        if self.seed:
            parts.append(f"s{self.seed}")
        parts.extend(f"{name}={value}" for name, value in self.overrides)
        return "/".join(str(p) for p in parts)
