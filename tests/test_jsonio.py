from collections import OrderedDict
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piregular import MalformedPayload, canonical_dumps

from helpers import reference_check_exact


def test_exact_documents_serialize_canonically():
    doc = {"b": [1, (2, None)], "a": {"t": True, "s": "x", "l": [[-3]]}}
    assert canonical_dumps(doc) == '{"a":{"l":[[-3]],"s":"x","t":true},"b":[1,[2,null]]}'


@pytest.mark.parametrize("doc, message", [
    (1.5, "floating point value at $; all numbers must be exact"),
    ({"a": [1, {"b": 2.5}]}, "floating point value at $.a[1].b; all numbers must be exact"),
    ([0, [{"x": {3: 1}}]], "non-string key 3 at $[1][0].x"),
    ({"k": [None, {"z": 1, 7: 2}]}, "non-string key 7 at $.k[1]"),
    ({"a": {"b": [1, 2, (3, {4})]}}, "unserializable value {4} at $.a.b[2][1]"),
    ([{"ok": [1]}, {"bad": object}], "unserializable value <class 'object'> at $[1].bad"),
])
def test_refusals_name_the_node_path(doc, message):
    with pytest.raises(MalformedPayload) as info:
        canonical_dumps(doc)
    assert str(info.value) == message


# -- the one-pass check against the path-spelling walk ----------------------------


class Colour(IntEnum):
    RED = 1


class Name(str):
    pass


class Rows(list):
    pass


keys = st.one_of(st.text(max_size=2), st.text(max_size=2).map(Name), st.integers(-2, 2))
leaves = st.one_of(
    st.integers(), st.text(max_size=3), st.booleans(), st.none(), st.floats(),
    st.sampled_from(list(Colour)), st.text(max_size=3).map(Name),
    st.sets(st.integers(0, 3), max_size=2), st.builds(object))
documents = st.recursive(leaves, lambda children: st.one_of(
    st.dictionaries(keys, children, max_size=3),
    st.dictionaries(keys, children, max_size=3).map(OrderedDict),
    st.lists(children, max_size=3),
    st.lists(children, max_size=3).map(Rows),
    st.lists(children, max_size=3).map(tuple)), max_leaves=12)


def _refusal(check, doc):
    try:
        check(doc)
    except MalformedPayload as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(documents)
def test_canonical_dumps_accepts_and_refuses_as_the_path_walk(doc):
    assert _refusal(canonical_dumps, doc) == _refusal(reference_check_exact, doc)
