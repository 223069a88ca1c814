"""The rowset codec's scalar fast path is invisible.

``encode_rows`` passes cells whose exact type is a JSON scalar straight
through and ``decode_rows`` only hands JSON objects to ``decode_cell``.
For any row, both must return exactly what the per-cell ``encode_cell`` /
``decode_cell`` reference returns — same types, same values (NaN, ±inf and
-0.0 included), same wire bytes — so the shortcut can never change a
rowset on the wire.  Subclasses of the fast types and numpy scalars must
take the fallback path and come out as the reference makes them.
"""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import protocol
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.types import LONG, TEXT


class Label(str):
    pass


class Flag(int):
    pass


def _reference_encode(rows):
    return [[protocol.encode_cell(value) for value in row] for row in rows]


def _reference_decode(rows):
    return [tuple(protocol.decode_cell(value) for value in row)
            for row in rows]


def _same(left, right) -> bool:
    """Structural identity: equal values of the very same types."""
    if type(left) is not type(right):
        return False
    if isinstance(left, float):
        if math.isnan(left):
            return math.isnan(right)
        return left == right and \
            math.copysign(1.0, left) == math.copysign(1.0, right)
    if isinstance(left, (list, tuple)):
        return len(left) == len(right) and all(map(_same, left, right))
    if isinstance(left, dict):
        return left.keys() == right.keys() and \
            all(_same(left[key], right[key]) for key in left)
    if isinstance(left, Rowset):
        return (protocol.columns_to_wire(left.columns)
                == protocol.columns_to_wire(right.columns)
                and _same(list(left.rows), list(right.rows)))
    return left == right


plain_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 53 + 1, max_value=2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan]),
    st.text(max_size=8),
)

tagged_scalars = st.one_of(st.dates(), st.datetimes())

fallback_scalars = st.one_of(
    st.text(max_size=6).map(Label),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).map(Flag),
    st.integers(min_value=-10 ** 6, max_value=10 ** 6).map(np.int64),
    st.floats(allow_nan=False, width=32).map(np.float64),
)

nested_rowsets = st.lists(
    st.tuples(st.one_of(st.none(), st.integers()),
              st.one_of(st.none(), st.text(max_size=4), st.dates())),
    max_size=4,
).map(lambda rows: Rowset([RowsetColumn("k", LONG), RowsetColumn("v", TEXT)],
                          rows))

cells = st.one_of(plain_scalars, tagged_scalars, fallback_scalars,
                  nested_rowsets)


@st.composite
def row_lists(draw):
    width = draw(st.integers(min_value=0, max_value=5))
    return draw(st.lists(st.tuples(*[cells] * width), max_size=12))


@given(row_lists())
@settings(max_examples=200, deadline=None)
def test_encode_rows_matches_per_cell_reference(rows):
    encoded = protocol.encode_rows(rows)
    reference = _reference_encode(rows)
    assert _same(encoded, reference)
    assert json.dumps(encoded, default=str) == \
        json.dumps(reference, default=str)


@given(row_lists())
@settings(max_examples=200, deadline=None)
def test_decode_rows_matches_per_cell_reference(rows):
    encoded = protocol.encode_rows(rows)
    from_wire = json.loads(json.dumps(encoded, default=str))
    for payload in (encoded, from_wire):
        assert _same(protocol.decode_rows(payload),
                     _reference_decode(payload))


def test_subclasses_take_the_fallback_path(monkeypatch):
    seen = []
    original = protocol.encode_cell

    def spy(value):
        seen.append(value)
        return original(value)

    monkeypatch.setattr(protocol, "encode_cell", spy)
    row = ("s", 1, 1.5, True, None, Label("x"), Flag(2), np.int64(3))
    protocol.encode_rows([row])
    assert [type(value) for value in seen] == [Label, Flag, np.int64]
