"""Serializable records for counting runs."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from .geometry import PointSet, format_point_set

__all__ = ["CountReport", "digest_inputs", "point_set_digest"]


def digest_inputs(*parts: str) -> str:
    """SHA-256 over canonical text serializations, joined unambiguously."""
    h = hashlib.sha256()
    for part in parts:
        h.update(str(len(part)).encode())
        h.update(b":")
        h.update(part.encode())
    return h.hexdigest()


def point_set_digest(ps: PointSet) -> str:
    return digest_inputs(format_point_set(ps))


@dataclass(frozen=True)
class CountReport:
    """One counting operation's inputs, outputs, and timing.

    ``elapsed_ms`` is None unless timings were explicitly requested, so that
    identical runs serialize to identical bytes.
    """

    operation: str
    parameters: dict
    input_digest: str
    counts: dict
    histograms: dict = field(default_factory=dict)
    elapsed_ms: float | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"
