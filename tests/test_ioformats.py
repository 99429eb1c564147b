import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcat import check_fi_type, grothendieck, validate_category
from fibcat.generators import (
    arrow_category,
    block_perm_indexed,
    fi_g_direct,
    fi_truncated,
    indexed_gpow,
    slice_indexed,
    square_poset,
)
from fibcat.groups import group_as_category, twisted_to_indexed
from fibcat.ioformats import (
    InputFormatError,
    Loader,
    category_from_json,
    category_to_json,
    functor_to_json,
    group_from_json,
    group_to_json,
    indexed_to_json,
    stable_dumps,
    witness_to_json,
)


def oracle(value) -> str:
    """The byte contract of ``stable_dumps``."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def reload_category(C):
    return category_from_json(json.loads(stable_dumps(category_to_json(C))))


def test_category_round_trip(fi3):
    C = reload_category(fi3)
    assert C.objects == fi3.objects
    assert C.morphisms == fi3.morphisms
    assert C.table == fi3.table


def test_identity_composites_omitted_on_write(fi2):
    data = category_to_json(fi2)
    for entry in data["composition"]:
        assert not fi2.is_identity(entry["first"])
        assert not fi2.is_identity(entry["then"])
    assert reload_category(fi2).table == fi2.table


def test_group_round_trip(s3):
    G = group_from_json(json.loads(stable_dumps(group_to_json(s3))))
    assert G.elements == s3.elements
    assert G.mult == s3.mult and G.unit == s3.unit


def test_indexed_round_trip_strict(z2):
    M = indexed_gpow(z2, 2)
    data = json.loads(stable_dumps(indexed_to_json(M)))
    M2 = Loader(".").indexed(data)
    assert M2.strict
    assert len(grothendieck(M2).total.morphisms) == len(grothendieck(M).total.morphisms)


def test_indexed_round_trip_nonstrict(z4_twisted):
    M = twisted_to_indexed(z4_twisted)
    M2 = Loader(".").indexed(json.loads(stable_dumps(indexed_to_json(M))))
    assert not M2.strict
    assert M2.mu("1", "1").components == M.mu("1", "1").components


def test_indexed_round_trip_slice():
    M = slice_indexed(square_poset())
    M2 = Loader(".").indexed(json.loads(stable_dumps(indexed_to_json(M))))
    assert stable_dumps(indexed_to_json(M2)) == stable_dumps(indexed_to_json(M))


def test_witness_round_trip(z2):
    from fibcat.theorem import gpow_witness
    from fibcat.theorem import validate_witness

    M = indexed_gpow(z2, 2)
    w = gpow_witness(z2, M)
    w2 = Loader(".").witness(M, json.loads(stable_dumps(witness_to_json(w))))
    validate_witness(M, w2)


def test_witness_units_for_unknown_morphisms_rejected(z2):
    from fibcat.theorem import gpow_witness

    M = indexed_gpow(z2, 1)
    data = witness_to_json(gpow_witness(z2, M))
    data["units"]["nonexistent"] = {"*": "()"}
    with pytest.raises(InputFormatError, match="unit for unknown morphism 'nonexistent'"):
        Loader(".").witness(M, data)


def test_pipe_in_base_morphism_ids_rejected():
    from fibcat import identity_functor, validate_category, validate_indexed
    from fibcat.generators import terminal_category

    base = validate_category(
        ["x"], [("id|x", "x", "x")], {"x": "id|x"}, []
    )
    T = terminal_category()
    M = validate_indexed(base, {"x": T}, {"id|x": identity_functor(T)})
    with pytest.raises(InputFormatError):
        indexed_to_json(M)


def test_malformed_files_raise_input_errors():
    with pytest.raises(InputFormatError):
        category_from_json({"objects": ["x"]})
    with pytest.raises(InputFormatError):
        group_from_json({"elements": ["e"]})


def test_writers_match_the_stdlib_on_the_corpus(groth_corpus, witnessed_corpus, z2, z3, s3, fi2):
    payloads = [
        category_to_json(C)
        for C in (fi_truncated(3), fi_g_direct(s3, 2), group_as_category(s3), arrow_category(fi2))
    ]
    payloads += [group_to_json(G) for G in (z2, z3, s3)]
    for _, M, gr in groth_corpus:
        payloads += [
            indexed_to_json(M),
            category_to_json(gr.total),
            functor_to_json(gr.proj),
            functor_to_json(gr.proj, inline=False),
        ]
    payloads += [witness_to_json(w) for *_, w in witnessed_corpus]
    for payload in payloads:
        assert stable_dumps(payload) == oracle(payload)


def table_composition(C) -> list:
    """The composition entries of ``C`` as the writer once made them, from
    the string table: the reference for ``category_to_json``."""
    return [
        {"first": f, "then": g, "equals": h}
        for (f, g), h in sorted(C.table.items())
        if not C.is_identity(f) and not C.is_identity(g)
    ]


def _left_zero_bands(homs: dict):
    """The category on the objects of ``homs``, pairs (x, y) to ids, where
    each endomorphism id but the first is a left zero (f;g = f) and each
    block (x, y), x != y, holds one morphism that absorbs every composite:
    the first id of (x, x) is the identity of x."""
    objects = sorted({x for xy in homs for x in xy})
    morphisms = [(m, x, y) for (x, y), ms in homs.items() for m in ms]
    identity = {x: homs[(x, x)][0] for x in objects}
    composition = []
    for (x, y), fs in homs.items():
        for (y2, z), gs in homs.items():
            if y2 == y:
                composition += [
                    (f, g, f if x == z else homs[(x, z)][-1])
                    for f in fs
                    for g in gs
                    if f not in identity.values() and g not in identity.values()
                ]
    return validate_category(objects, morphisms, identity, composition)


def test_writer_matches_the_table_formula(groth_corpus, seeded_categories):
    """``category_to_json`` reads the cells, in id order, and writes what the
    string-table formula wrote, also where ids need escaping and where the
    block-major order of the codes is not id order ("9" in hom(x, x) before
    "10" in hom(y, y), and "b" before "a")."""
    categories = list(seeded_categories)
    for _, M, gr in groth_corpus:
        categories += [M.base, *map(M.fiber_at, M.base.objects), gr.total]
    categories.append(_left_zero_bands({("x", "x"): ["", *_IDS[:-1]]}))
    categories.append(
        _left_zero_bands(
            {("x", "x"): ["ix", "b", "9"], ("x", "y"): ["h"], ("y", "y"): ["iy", "a", "10"]}
        )
    )
    assert categories[-1].coding.ids == ("9", "b", "ix", "h", "10", "a", "iy")
    for C in categories:
        payload = category_to_json(C)
        expected = table_composition(C)
        assert payload["composition"] == expected
        assert stable_dumps(payload) == stable_dumps({**payload, "composition": expected})


def test_failing_audit_reports_match_the_stdlib(idempotent_monoid):
    blocks = check_fi_type(grothendieck(block_perm_indexed(3, 1)).total)
    idempotent = check_fi_type(idempotent_monoid)
    assert not blocks.transitive.holds and not idempotent.holds
    for report in (blocks, idempotent):
        assert stable_dumps(report.as_dict()) == oracle(report.as_dict())


# quote, backslash, control characters, non-ASCII, a lone surrogate, and %
_IDS = ['"', "\\", 'a"b\\c', "\n\t\x00\x1f\x7f", "é", "∘", "\U0001d4d5", "\ud800", "%s", "%%", ""]
_EDGE = {
    "empty-dict": {},
    "empty-list": [],
    "empty-tuple": (),
    "empties-inside": {"a": [], "b": {}, "c": (), "d": [[], {}]},
    "tuple": ("a", "b"),
    "tuple-of-records": ({"id": "f", "src": "x"}, {"id": "g", "src": "y"}),
    "tuple-in-dict": {"pair": ("f", 1), "nested": (("a",), ["b", ("c", None)])},
    "nested-lists": [["a", "b"], [["c"]], [[[]]], "d"],
    "ints": [0, -1, 10**30, {"n": 7}],
    "floats": [0.0, -0.5, 1e300, 1e-300, float("inf"), float("-inf"), float("nan"), {"x": 2.5}],
    "bools-and-none": [True, False, None, {"t": True, "f": False, "n": None}],
    "bool-is-not-int": {"a": [True, 1], "b": [False, 0]},
    "scalar-str": "x",
    "scalar-int": 3,
    "scalar-none": None,
    "ids": {i: i for i in _IDS},
    "id-list": list(_IDS),
    "id-records": [{"first": i, "then": j, "equals": i + j} for i in _IDS for j in _IDS[:3]],
    "record-keys-escaped": [{'"%s"': "a", "\\": "b", "é": "c"}] * 2,
    "record-key-sets-differ": [{"id": "f", "src": "x"}, {"id": "g", "tgt": "y"}],
    "record-key-orders-differ": [{"id": "f", "src": "x"}, {"src": "y", "id": "g"}],
    "record-holds-int": [{"id": "f", "n": "1"}, {"id": "g", "n": 2}],
    "record-holds-list": [{"id": "f", "n": ["1"]}, {"id": "g", "n": ["2"]}],
    "record-empty": [{}, {}],
    "record-single": [{"first": "f", "then": '"%s"', "equals": "g"}],
    "record-column-repeats": [
        {"id": "m%d" % i, "src": _IDS[i % 3], "tgt": "y"} for i in range(40)
    ],
    "record-keys-escaped-one-lacks-a-key": [{'"%s"': "a", "\\": "b"}, {'"%s"': "a"}],
    "record-keys-escaped-one-has-an-extra-key": [{'"%s"': "a"}, {'"%s"': "a", "é": "c"}],
    "records-and-string": [{"id": "f"}, "g"],
    "int-keys": {2: "b", 10: "a", -1: ["c"]},
    "float-keys": {0.5: "a", 1.5: "b"},
    "bool-keys": {True: "t", False: "f"},
    "none-key": {None: "n"},
    "int-keys-nested": {"outer": {1: {"x": "y"}, 0: []}},
}


@pytest.mark.parametrize("case", sorted(_EDGE))
def test_edge_values_match_the_stdlib(case):
    assert stable_dumps(_EDGE[case]) == oracle(_EDGE[case])


class _Str(str):
    pass


class _Int(int):
    def __repr__(self):
        return "I(%d)" % self


@pytest.mark.parametrize(
    "value",
    [[_Str("a"), "b"], {_Str("k"): "v"}, {"k": _Str("v")}, [_Int(3)], {"n": _Int(4)}],
    ids=["str", "str-key", "str-value", "int", "int-value"],
)
def test_subclasses_match_the_stdlib(value):
    assert stable_dumps(value) == oracle(value)


def test_unserialisable_values_raise_like_the_stdlib():
    for value in ({"a": {1, 2}}, [b"x"], {("a", "b"): "c"}):
        with pytest.raises(TypeError) as ours:
            stable_dumps(value)
        with pytest.raises(TypeError) as stdlib:
            oracle(value)
        assert str(ours.value) == str(stdlib.value)


_keys = st.text(max_size=4) | st.sampled_from(["id", "%s", '"', "é"])
_records = st.lists(
    st.fixed_dictionaries({"first": _keys, "then": _keys})
    | st.fixed_dictionaries({"first": st.sampled_from(["f", '"', "%s"]), "then": _keys})
    | st.dictionaries(st.sampled_from(["first", "then", "%"]), _keys | st.integers(), min_size=1),
    min_size=1,
)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(_keys, inner)
    | st.dictionaries(st.integers(), inner)
    | _records,
    max_leaves=30,
)


@settings(deadline=None, max_examples=150)
@given(value=_json_values)
def test_stable_dumps_matches_the_stdlib(value):
    assert stable_dumps(value) == oracle(value)


@pytest.mark.parametrize("key, entry", [("act", "ghost"), ("phi", "ghost|0"), ("phi", "0|ghost")])
def test_twisted_entries_for_unknown_elements_rejected(z2, key, entry):
    data = {
        "acting": group_to_json(z2),
        "acted": group_to_json(z2),
        "act": {g: {"0": "0", "1": "1"} for g in z2.elements},
        "phi": {"%s|%s" % (a, b): "0" for a in z2.elements for b in z2.elements},
    }
    assert Loader().twisted(data).phi[("1", "1")] == "0"
    data[key][entry] = {"0": "0", "1": "1"} if key == "act" else "0"
    with pytest.raises(InputFormatError, match=repr(entry).replace("|", r"\|")):
        Loader().twisted(data)
