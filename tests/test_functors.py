import pytest

from fibcat import (
    NotAFunctor,
    NotNatural,
    compose_functors,
    functor_properties,
    functors_equal,
    identity_functor,
    identity_nat_trans,
    validate_functor,
    validate_nat_trans,
)
from fibcat.functors import identity_nat_trans  # noqa: F401  (re-export check)
from fibcat.generators import chain_poset, delta_const, fi_truncated
from fibcat.groth import grothendieck


def test_identity_functor_properties(fi2):
    F = identity_functor(fi2)
    props = functor_properties(F)
    assert props.full.holds and props.faithful.holds
    assert props.essentially_surjective.holds and props.equivalence


def test_projection_is_a_valid_functor(fi2):
    gr = grothendieck(delta_const(fi2, fi2))
    assert gr.proj.source is gr.total
    props = functor_properties(gr.proj)
    assert props.essentially_surjective.holds
    assert not props.faithful.holds  # parallel fiber maps collapse


def test_missing_object_mapping_rejected(fi2):
    with pytest.raises(NotAFunctor):
        validate_functor(fi2, fi2, {}, {m: m for m in fi2.morphisms})


def test_endpoint_violation_rejected(fi2):
    on_m = {m: m for m in fi2.morphisms}
    on_o = {x: x for x in fi2.objects}
    on_o["0"] = "1"
    with pytest.raises(NotAFunctor):
        validate_functor(fi2, fi2, on_o, on_m)


def test_entries_for_unknown_ids_rejected(fi2):
    """A table entry for an id the source lacks is no part of the functor
    or transformation; keeping it silently hid a misspelt or stale id."""
    on_o = {x: x for x in fi2.objects}
    on_m = {m: m for m in fi2.morphisms}
    with pytest.raises(NotAFunctor, match="'ghost'"):
        validate_functor(fi2, fi2, on_o | {"ghost": "0"}, on_m)
    with pytest.raises(NotAFunctor, match="'nonexistent'"):
        validate_functor(fi2, fi2, on_o, on_m | {"nonexistent": fi2.id_of("0")})
    F = identity_functor(fi2)
    comps = {x: fi2.id_of(x) for x in fi2.objects}
    with pytest.raises(NotNatural, match="'ghost'"):
        validate_nat_trans(F, F, comps | {"ghost": fi2.id_of("0")})


def test_non_string_ids_are_not_converted(fi2):
    """Ids are strings: the JSON reader converts scalars, the validators do not."""
    on_m = {m: m for m in fi2.morphisms}
    with pytest.raises(NotAFunctor):
        validate_functor(fi2, fi2, {0: "0", 1: "1", 2: "2"}, on_m)


def test_composite_violation_rejected():
    C = chain_poset(3)
    on_m = {m: m for m in C.morphisms}
    # redirect the long composite through the identity: breaks F(g.f) = F(g).F(f)
    on_m["p0_to_p2"] = "p0_to_p2"
    on_m["p0_to_p1"] = "p0_to_p0"
    with pytest.raises(NotAFunctor):
        validate_functor(C, C, {x: x for x in C.objects}, on_m)


def test_nat_trans_validation(fi2):
    F = identity_functor(fi2)
    alpha = validate_nat_trans(F, F, {x: fi2.id_of(x) for x in fi2.objects})
    assert alpha.at("1") == fi2.id_of("1")
    with pytest.raises(NotNatural):
        validate_nat_trans(F, F, {x: fi2.id_of(x) for x in fi2.objects if x != "0"})


def test_nat_trans_square_violation(fi2):
    from fibcat.generators import inj_id

    F = identity_functor(fi2)
    comps = {x: fi2.id_of(x) for x in fi2.objects}
    comps["2"] = inj_id(2, 2, (1, 0))  # swap breaks naturality against inclusions
    with pytest.raises(NotNatural):
        validate_nat_trans(F, F, comps)


def test_compose_functors_and_equality(fi2):
    F = identity_functor(fi2)
    assert functors_equal(compose_functors(F, F), F)


def test_identity_nat_trans_is_valid(fi2):
    F = identity_functor(fi2)
    alpha = identity_nat_trans(F)
    validate_nat_trans(F, F, alpha.components)
