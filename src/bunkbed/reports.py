"""Verification reports and their canonical JSON encoding.

Reports are plain values.  Serialization is deterministic: keys sorted,
compact separators, rationals as num/den strings, never a float in an
identity check (Monte Carlo summaries are the one place floats appear,
and there they are data, not verdict inputs).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

PASS = "PASS"
FAIL = "FAIL"
DISCREPANCY = "DISCREPANCY"
PARTIAL = "PARTIAL"

_SEVERITY = {PASS: 0, PARTIAL: 1, DISCREPANCY: 2, FAIL: 3}


def aggregate_verdict(verdicts) -> str:
    worst = PASS
    for v in verdicts:
        if _SEVERITY[v] > _SEVERITY[worst]:
            worst = v
    return worst


def encode_value(value):
    """Lower a report value to JSON-safe data, deterministically."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "INFINITY"
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Decimal):
        return str(value)
    if hasattr(value, "to_json_obj"):
        return encode_value(value.to_json_obj())
    if isinstance(value, dict):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted((encode_value(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__} into a report")


def canonical_json(value) -> str:
    return dump_json(encode_value(value))


def dump_json(lowered) -> str:
    """Canonical text of data that encode_value has already lowered."""
    return json.dumps(lowered, sort_keys=True, separators=(",", ":"))


@dataclass
class VerificationReport:
    """One named check: inputs, verdict, and the quantities behind it."""

    check: str
    verdict: str
    inputs: dict = field(default_factory=dict)
    quantities: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    def digest(self) -> str:
        payload = canonical_json({"check": self.check, "inputs": self.inputs})
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_json_obj(self) -> dict:
        return {
            "check": self.check,
            "digest": self.digest(),
            "verdict": self.verdict,
            "quantities": encode_value(self.quantities),
            "witnesses": encode_value(self.witnesses),
        }
