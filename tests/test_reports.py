"""Report encoding: canonical JSON, verdict aggregation, digests."""

from __future__ import annotations

import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunkbed import (
    DISCREPANCY,
    FAIL,
    INFINITY,
    PARTIAL,
    PASS,
    RationalPoly,
    Tripartition,
    VAR_P,
    VerificationReport,
    aggregate_verdict,
    canonical_json,
    encode_value,
)
from bunkbed.reports import dump_json


def reference_encode_value(value):
    """The isinstance chain that encode_value ran before its exact-type fast path."""
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
        return reference_encode_value(value.to_json_obj())
    if isinstance(value, dict):
        return {str(k): reference_encode_value(v) for k, v in value.items()}
    if isinstance(value, (frozenset, set)):
        return sorted((reference_encode_value(v) for v in value), key=repr)
    if isinstance(value, (list, tuple)):
        return [reference_encode_value(v) for v in value]
    raise TypeError(f"cannot encode {type(value).__name__} into a report")


_fractions = st.fractions(max_denominator=1 << 20)
_hashable = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4), _fractions,
    st.just(INFINITY), st.floats(allow_nan=False),
)
_ids = st.frozensets(st.integers(min_value=0, max_value=5), max_size=3)
_leaves = st.one_of(
    _hashable,
    st.decimals(allow_nan=False, allow_infinity=False),
    st.builds(lambda c: RationalPoly(c, VAR_P), st.lists(_fractions, max_size=4)),
    st.builds(Tripartition, _ids, _ids, _ids),
    st.frozensets(_hashable, max_size=4),
)
report_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.integers(), st.text(max_size=3)), inner, max_size=4),
    ),
    max_leaves=24,
)


class TestEncodeValue:
    def test_fractions_become_strings(self):
        assert encode_value(Fraction(3, 4)) == "3/4"
        assert encode_value(Fraction(-7, 1)) == "-7/1"

    def test_infinity_is_named(self):
        assert encode_value(INFINITY) == "INFINITY"

    def test_passthrough_scalars(self):
        assert encode_value(True) is True
        assert encode_value(7) == 7
        assert encode_value("x") == "x"
        assert encode_value(None) is None

    def test_polynomials_via_duck_typing(self):
        poly = RationalPoly([Fraction(1, 2)], VAR_P)
        assert encode_value(poly) == {"variable": "p", "coefficients": ["1/2"]}

    def test_nested_containers(self):
        got = encode_value({"a": [Fraction(1, 2), {"b": INFINITY}]})
        assert got == {"a": ["1/2", {"b": "INFINITY"}]}

    def test_sets_are_ordered(self):
        got = encode_value(frozenset({3, 1, 2}))
        assert got == sorted(got)


class TestEncoderFastPath:
    @settings(max_examples=200, deadline=None)
    @given(report_values)
    def test_matches_reference_chain(self, value):
        got, expected = encode_value(value), reference_encode_value(value)
        # repr tells True from 1 and a tuple from a list, which == does not
        assert repr(got) == repr(expected)
        memo: dict = {}
        assert repr([encode_value(value, memo), encode_value(value, memo)]) == repr(
            [expected, expected])
        assert canonical_json(value) == dump_json(expected)


class TestCanonicalJson:
    def test_sorted_compact(self):
        text = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
        assert text == '{"a":{"c":3,"d":2},"b":1}'

    def test_round_trips(self):
        payload = {"x": ["1/2", None, True], "y": "INFINITY"}
        assert json.loads(canonical_json(payload)) == payload


class TestVerdicts:
    def test_severity_order(self):
        assert aggregate_verdict([]) == PASS
        assert aggregate_verdict([PASS, PASS]) == PASS
        assert aggregate_verdict([PASS, PARTIAL]) == PARTIAL
        assert aggregate_verdict([PARTIAL, DISCREPANCY]) == DISCREPANCY
        assert aggregate_verdict([DISCREPANCY, FAIL, PASS]) == FAIL


class TestReport:
    def make(self) -> VerificationReport:
        return VerificationReport(
            check="demo",
            verdict=PASS,
            inputs={"graph": "k2", "p": Fraction(1, 2)},
            quantities={"value": Fraction(7, 8)},
            witnesses={"w": [1, 2]},
        )

    def test_json_obj_shape(self):
        obj = self.make().to_json_obj()
        assert obj["check"] == "demo"
        assert obj["verdict"] == PASS
        assert obj["quantities"] == {"value": "7/8"}
        assert obj["witnesses"] == {"w": [1, 2]}
        assert isinstance(obj["digest"], str) and len(obj["digest"]) == 16

    def test_digest_depends_only_on_inputs(self):
        a = self.make()
        b = VerificationReport(
            check="demo",
            verdict=FAIL,
            inputs={"p": Fraction(1, 2), "graph": "k2"},
            quantities={},
            witnesses={},
        )
        assert a.digest() == b.digest()

    def test_digest_changes_with_inputs(self):
        a = self.make()
        b = VerificationReport(
            check="demo", verdict=PASS, inputs={"graph": "k3"},
            quantities={}, witnesses={},
        )
        assert a.digest() != b.digest()

    def test_memo_lowers_a_shared_dict_once(self, monkeypatch):
        lowered = []
        to_json_obj = RationalPoly.to_json_obj

        def spy(poly):
            lowered.append(poly)
            return to_json_obj(poly)

        monkeypatch.setattr(RationalPoly, "to_json_obj", spy)
        shared = {"mass": RationalPoly([1, Fraction(-1, 2)], VAR_P)}
        reports = [
            VerificationReport(check="demo", verdict=PASS, inputs={"pinned": [x]},
                               quantities=shared)
            for x in "ab"
        ]
        plain = [r.to_json_obj() for r in reports]
        assert len(lowered) == 2
        memo: dict = {}
        assert [r.to_json_obj(memo) for r in reports] == plain
        assert len(lowered) == 3
        assert plain[0]["digest"] != plain[1]["digest"]
