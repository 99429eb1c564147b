import json

import pytest

from fibcat import grothendieck
from fibcat.generators import fi_truncated, indexed_gpow, slice_indexed, square_poset
from fibcat.groups import twisted_to_indexed
from fibcat.ioformats import (
    InputFormatError,
    Loader,
    category_from_json,
    category_to_json,
    group_from_json,
    group_to_json,
    indexed_to_json,
    stable_dumps,
    witness_to_json,
)


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


def test_pipe_in_base_morphism_ids_rejected():
    from fibcat import identity_functor, validate_category, validate_indexed
    from fibcat.generators import terminal_category

    base = validate_category(
        ["x"], [("id|x", "x", "x")], {"x": "id|x"}, {}
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
