import pytest

from piregular import MalformedPayload, canonical_dumps


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
