"""Report serialization: lossless floats, deterministic bytes, CSV projection."""

import json
import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from meanbound.reporting import dumps, fmt_float, to_csv


def test_fmt_float_reference_values():
    assert fmt_float(4.875) == "4.875"
    assert fmt_float(0.1) == "0.10000000000000001"
    assert float(fmt_float(3.414213562373095)) == 3.414213562373095


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_round_trips_exactly(x):
    assert struct.pack("<d", float(fmt_float(x))) == struct.pack("<d", x)


def test_fmt_float_rejects_non_finite():
    with pytest.raises(ValueError):
        fmt_float(math.inf)
    with pytest.raises(ValueError):
        fmt_float(math.nan)


def test_dumps_is_valid_json_and_deterministic():
    doc = {"name": "suite", "values": [1, 2.5, True, None, "a\"b"],
           "nested": {"x": 0.1, "empty": [], "none": {}}}
    text1 = dumps(doc)
    text2 = dumps(doc)
    assert text1 == text2
    parsed = json.loads(text1)
    assert parsed["values"] == [1, 2.5, True, None, 'a"b']
    assert parsed["nested"]["x"] == 0.1
    assert text1.endswith("\n")


def test_dumps_known_answer_over_nested_containers():
    doc = {"empty_dict": {}, "empty_list": [], "empty_tuple": (), 7: True,
           "rows": [{"a": None, "b": (1, 2.5)}, [], ({},), "x\"y"],
           "leaves": (False, -3, 0.1, "t")}
    assert dumps(doc) == (
        '{\n'
        '  "empty_dict": {},\n'
        '  "empty_list": [],\n'
        '  "empty_tuple": [],\n'
        '  "7": true,\n'
        '  "rows": [\n'
        '    {\n'
        '      "a": null,\n'
        '      "b": [\n'
        '        1,\n'
        '        2.5\n'
        '      ]\n'
        '    },\n'
        '    [],\n'
        '    [\n'
        '      {}\n'
        '    ],\n'
        '    "x\\"y"\n'
        '  ],\n'
        '  "leaves": [\n'
        '    false,\n'
        '    -3,\n'
        '    0.10000000000000001,\n'
        '    "t"\n'
        '  ]\n'
        '}\n')


def test_dumps_rejects_unserializable():
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_to_csv_union_of_keys_and_values():
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "c": True, "b": None}]
    text = to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.5,"
    assert lines[2] == "2,,true"


# ---------------------------------------------------------------------------
# Report types: immutable tuples whose as_dict lists the declared fields
# ---------------------------------------------------------------------------

def _reports():
    import numpy as np

    from meanbound import matrices, operators, scalar

    a = matrices.SpdMatrix([[2.0, 0.5], [0.5, 1.0]])
    b = matrices.SpdMatrix([[1.0, 0.2], [0.2, 3.0]])
    comparison = scalar.compare_gap_bounds(1.0, 16.0, 0.125, 3)
    return [scalar.theorem_main_reverse(1.0, 16.0, 0.125, 2, "ii"), comparison,
            comparison.bounds[0], operators.theorem_t6(a, b, 2.5, 2, "i"),
            matrices.eigh(np.eye(2)), matrices.loewner_leq(a, b)]


def test_report_types_are_immutable_tuples_listing_their_fields():
    from meanbound.scalar import BoundReport, ComparisonReport

    for rep in _reports():
        assert isinstance(rep, tuple)
        field = rep._fields[0]
        with pytest.raises(AttributeError):
            setattr(rep, field, getattr(rep, field))
        with pytest.raises(AttributeError):
            rep.extra = 1
        if not hasattr(rep, "as_dict"):  # EigenDecomp
            continue
        doc = rep.as_dict()
        assert list(doc) == list(rep._fields)
        if not isinstance(rep, ComparisonReport):  # its as_dict unpacks the tuples
            assert list(doc.values()) == list(rep)
        if isinstance(rep, BoundReport):  # tol is a property, not a field
            assert "tol" not in doc and rep.tol > 0.0
    bound = _reports()[0]
    assert bound._replace(holds=False) == (*bound[:-1], False)


def test_suite_records_still_take_dataclasses_replace():
    import dataclasses

    from meanbound.harness import SCALAR_ROWS, SuiteConfig

    cfg = dataclasses.replace(SuiteConfig(), seed=7, depths=(2,))
    assert (cfg.seed, cfg.depths, cfg.trials) == (7, (2,), SuiteConfig().trials)
    row = dataclasses.replace(SCALAR_ROWS[0], key="renamed")
    assert (row.key, row.evaluate) == ("renamed", SCALAR_ROWS[0].evaluate)
