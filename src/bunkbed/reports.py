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


_PLAIN = frozenset((str, int, bool, type(None)))


def encode_value(value, memo: dict | None = None):
    """Lower a report value to JSON-safe data, deterministically.

    memo maps id(d) to (d, lowering) for each dict d lowered so far, so a
    dict shared between values is lowered once; keep such dicts unchanged
    while the memo lives.
    """
    kind = type(value)  # exact types first: most of a report is plain data
    if kind in _PLAIN:
        return value
    if kind is Fraction:
        return f"{value.numerator}/{value.denominator}"
    if kind is list or kind is tuple:
        if all(type(v) in _PLAIN for v in value):
            return list(value)
        return [encode_value(v, memo) for v in value]
    if kind is dict:
        if all(type(k) is str and type(v) in _PLAIN for k, v in value.items()):
            return dict(value)
        memo = {} if memo is None else memo
        if id(value) not in memo:  # holding d keeps its id from being reused
            memo[id(value)] = value, {str(k): encode_value(v, memo) for k, v in value.items()}
        return memo[id(value)][1]
    if isinstance(value, float):
        if math.isinf(value):
            return "INFINITY"
        return value
    if isinstance(value, Decimal):
        return str(value)
    if hasattr(value, "to_json_obj"):
        return encode_value(value.to_json_obj())
    if isinstance(value, (frozenset, set)):
        return sorted((encode_value(v) for v in value), key=repr)
    raise TypeError(f"cannot encode {type(value).__name__} into a report")


def canonical_json(value, memo: dict | None = None) -> str:
    return dump_json(encode_value(value, memo))


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

    def digest(self, memo: dict | None = None) -> str:
        payload = canonical_json({"check": self.check, "inputs": self.inputs}, memo)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_json_obj(self, memo: dict | None = None) -> dict:
        """The report as JSON-safe data; memo is as in encode_value."""
        return {
            "check": self.check,
            "digest": self.digest(memo),
            "verdict": self.verdict,
            "quantities": encode_value(self.quantities, memo),
            "witnesses": encode_value(self.witnesses, memo),
        }
