import itertools
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from fibcat import (
    AssociativityViolation,
    CompositeEndpointViolation,
    MissingComposite,
    MissingIdentity,
    NonComposablePairInTable,
    UnitViolation,
    UnknownMorphism,
    automorphisms,
    below_set,
    is_ei,
    is_groupoid,
    is_iso,
    is_mono,
    is_transitive,
    iso_classes,
    validate_category,
)
from core_reference import per_composite
from fibcat.core import assemble, subcategory
from fibcat.generators import codiscrete_category, fi_g_direct, fi_truncated, inj_id
from fibcat.groups import automorphism_group, group_as_category, symmetric_group
from fibcat.ioformats import category_from_json, category_to_json


def test_terminal_category_valid():
    C = validate_category(["*"], [("id", "*", "*")], {"*": "id"}, [])
    assert C.objects == ("*",)
    assert C.comp("id", "id") == "id"


def test_empty_category_valid():
    """No objects: both builders give the empty category."""
    for C in (validate_category([], [], {}, []), assemble({}, {}, per_composite({}, None))):
        assert (C.objects, C.morphisms, C.table, C.generators) == ((), (), {}, ())


def test_fi2_hom_count_matches_enumeration(fi2):
    # oracle: injections {1}->{1,2} enumerated directly
    assert len(list(itertools.permutations(range(2), 1))) == 2
    assert len(fi2.hom("1", "2")) == 2


def test_missing_identity_rejected():
    with pytest.raises(MissingIdentity):
        validate_category(["x"], [("f", "x", "x")], {}, [("f", "f", "f")])


def test_non_composable_pair_rejected():
    with pytest.raises(NonComposablePairInTable):
        validate_category(
            ["x", "y"],
            [("ix", "x", "x"), ("iy", "y", "y"), ("f", "x", "y")],
            {"x": "ix", "y": "iy"},
            [("f", "f", "f")],
        )


def test_assemble_rejects_a_composite_outside_the_target_block():
    # payloads are integers mod 3, but the block of x holds only 0 and 1
    blocks = {("x", "x"): {0: "e", 1: "a"}}
    with pytest.raises(CompositeEndpointViolation, match="'a', 'a', 2"):
        assemble({"x": 0}, blocks, per_composite(blocks, lambda p, q: (p + q) % 3))
    C = assemble({"x": 0}, blocks, per_composite(blocks, lambda p, q: (p + q) % 2))
    assert C.comp("a", "a") == "e" and C.identity == {"x": "e"}
    # a subcategory that is not closed names the first composite outside it
    fi3 = fi_truncated(3)
    with pytest.raises(CompositeEndpointViolation) as raised:
        subcategory(fi3, ["1", "2"], ["1>1:0", "2>2:0,1", "1>2:0", "2>2:1,0"])
    assert raised.value.args == (("1>2:0", "2>2:1,0", "1>2:1"),)


def test_missing_composite_rejected():
    with pytest.raises(MissingComposite):
        validate_category(
            ["x", "y", "z"],
            [
                ("ix", "x", "x"),
                ("iy", "y", "y"),
                ("iz", "z", "z"),
                ("f", "x", "y"),
                ("g", "y", "z"),
            ],
            {"x": "ix", "y": "iy", "z": "iz"},
            [],
        )


def test_associativity_violation_carries_witness():
    # three-element monoid-like table broken on one triple
    mors = [("1", "*", "*"), ("a", "*", "*"), ("b", "*", "*")]
    comp = {}
    for f in ("1", "a", "b"):
        for g in ("1", "a", "b"):
            comp[(f, g)] = "a" if "1" not in (f, g) else (g if f == "1" else f)
    comp[("a", "a")] = "b"
    comp[("b", "a")] = "1"
    with pytest.raises(AssociativityViolation) as err:
        validate_category(["*"], mors, {"*": "1"}, [(f, g, h) for (f, g), h in comp.items()])
    # (a;a);a = b;a = 1 but a;(a;a) = a;b = a: the first failing triple.
    assert err.value.args == (("a", "a", "a"),)


def test_unit_violation_on_conflicting_identity_composite():
    with pytest.raises(UnitViolation):
        validate_category(
            ["*"],
            [("1", "*", "*"), ("e", "*", "*")],
            {"*": "1"},
            [("e", "e", "e"), ("1", "e", "1")],
        )


def test_identity_composites_are_completed():
    C = validate_category(
        ["*"], [("1", "*", "*"), ("e", "*", "*")], {"*": "1"}, [("e", "e", "e")]
    )
    assert C.comp("1", "e") == "e"
    assert C.comp("e", "1") == "e"


def test_mono_iso_on_idempotent_monoid(idempotent_monoid):
    C = idempotent_monoid
    assert is_mono(C, "1")
    assert not is_mono(C, "e")  # e;1 = e;e but 1 != e ... via post-composition
    assert is_iso(C, "1") == "1"
    assert is_iso(C, "e") is None
    rep = is_ei(C)
    assert not rep.holds and rep.counterexample == "e"


def test_unknown_morphism():
    C = validate_category(["*"], [("id", "*", "*")], {"*": "id"}, [])
    with pytest.raises(UnknownMorphism):
        is_mono(C, "nope")
    with pytest.raises(UnknownMorphism):
        is_iso(C, "nope")


def test_fi_monos_and_isos(fi3):
    for f in fi3.morphisms:
        assert is_mono(fi3, f)
    swap = inj_id(2, 2, (1, 0))
    assert is_iso(fi3, swap) == swap  # a transposition is its own inverse
    assert is_iso(fi3, inj_id(1, 2, (0,))) is None


def test_ei_cases(fi3):
    assert is_ei(fi3).holds
    assert is_ei(codiscrete_category(["a", "b"])).holds


def test_automorphism_group_orders(fi3, s3):
    aut3 = automorphism_group(fi3, "3")
    assert len(aut3) == 6
    # the table is S3 up to renaming: same multiset of element orders
    assert sorted(aut3.order_of(a) for a in aut3.elements) == sorted(
        s3.order_of(a) for a in s3.elements
    )


def test_poset_automorphisms_trivial():
    from fibcat.generators import square_poset

    P = square_poset()
    for x in P.objects:
        assert automorphisms(P, x) == (P.id_of(x),)


def test_transitivity(fi3, parallel_pair):
    assert is_transitive(fi3).holds
    rep = is_transitive(parallel_pair)
    assert not rep.holds
    x, y, f1, f2 = rep.counterexample
    assert (x, y) == ("x", "y") and {f1, f2} <= {"f1", "f2"}


def test_two_disjoint_arrows_transitive():
    C = validate_category(
        ["a", "b", "b2"],
        [
            ("ia", "a", "a"),
            ("ib", "b", "b"),
            ("ib2", "b2", "b2"),
            ("f", "a", "b"),
            ("g", "a", "b2"),
        ],
        {"a": "ia", "b": "ib", "b2": "ib2"},
        [],
    )
    assert is_transitive(C).holds  # singleton hom-sets


def test_iso_classes_and_below(fi3):
    assert iso_classes(fi3) == (("0",), ("1",), ("2",), ("3",))
    assert below_set(fi3, "2") == (("0",), ("1",), ("2",))
    assert iso_classes(codiscrete_category(["a", "b"])) == (("a", "b"),)


def test_iso_classes_of_total_category(gr_zpow2_3):
    _, gr = gr_zpow2_3
    # one class per underlying size
    assert len(iso_classes(gr.total)) == 4


def _brute_transitive(C):
    # independent re-derivation straight from hom-sets
    for (x, y), fs in C.homs.items():
        auts = [f for f in C.hom(y, y) if C.inverses.get(f)]
        for f1 in fs:
            for f2 in fs:
                if not any(C.table[(f1, s)] == f2 for s in auts):
                    return False
    return True


def _brute_iso_classes(C):
    classes = []
    seen = set()
    for x in C.objects:
        if x in seen:
            continue
        cls = {
            y
            for y in C.objects
            if any(f in C.inverses for f in C.hom(x, y)) or x == y
        }
        seen |= cls
        classes.append(tuple(sorted(cls)))
    return tuple(sorted(classes))


@pytest.mark.parametrize("maker", [lambda: fi_truncated(3), lambda: codiscrete_category("abc"), lambda: group_as_category(symmetric_group(3))])
def test_predicates_agree_with_brute_force(maker):
    C = maker()
    assert is_transitive(C).holds == _brute_transitive(C)
    assert iso_classes(C) == _brute_iso_classes(C)


def test_groupoids_are_ei_and_transitive_iff_single_orbit(s3):
    G = group_as_category(s3)
    assert is_groupoid(G)
    assert is_ei(G).holds
    assert is_transitive(G).holds


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_iso_implies_mono(fi3, data):
    f = data.draw(st.sampled_from(fi3.morphisms))
    if is_iso(fi3, f) is not None:
        assert is_mono(fi3, f)


@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_inverse_is_two_sided(fi3, data):
    f = data.draw(st.sampled_from(sorted(fi3.inverses)))
    g = fi3.inverses[f]
    assert fi3.comp(f, g) == fi3.id_of(fi3.src[f])
    assert fi3.comp(g, f) == fi3.id_of(fi3.tgt[f])


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_table_mutations_are_caught(data):
    # perturbing one non-identity composite must break an axiom: either a
    # unit law, endpoint consistency, or associativity
    C = fi_truncated(2)
    keys = [
        (f, g)
        for (f, g) in sorted(C.table)
        if not (C.is_identity(f) or C.is_identity(g))
    ]
    f, g = data.draw(st.sampled_from(keys))
    h = C.table[(f, g)]
    alternative = data.draw(
        st.sampled_from(sorted(m for m in C.morphisms if m != h))
    )
    table = dict(C.table)
    table[(f, g)] = alternative
    with pytest.raises(
        (AssociativityViolation, UnitViolation, CompositeEndpointViolation)
    ):
        validate_category(
            C.objects,
            [(m, C.src[m], C.tgt[m]) for m in C.morphisms],
            dict(C.identity),
            [(f, g, h) for (f, g), h in table.items()],
        )


def test_predicates_agree_with_brute_force_on_total_category(gr_zpow2_3):
    _, gr = gr_zpow2_3
    assert is_transitive(gr.total).holds == _brute_transitive(gr.total)
    assert iso_classes(gr.total) == _brute_iso_classes(gr.total)


def test_table_is_derived_from_the_cells_on_first_read(z2, fi4):
    """Building or loading a category makes its coding and leaves the string
    ``table`` unmade until it is first read; it then lists the pairs in cell
    order, by (src f, tgt f, f, tgt g, g).  ``inverses``, read off the
    cells, agree with a loop over the table."""
    for C in (fi_g_direct(z2, 4), category_from_json(category_to_json(fi4))):
        assert "table" not in vars(C)
        assert "table" not in {f.name for f in fields(C)}
        inverses = {}
        for f in C.morphisms:
            x, y = C.src[f], C.tgt[f]
            for g in C.hom(y, x):
                if C.table[(f, g)] == C.id_of(x) and C.table[(g, f)] == C.id_of(y):
                    inverses[f] = g
                    break
        assert list(C.inverses.items()) == list(inverses.items())
        assert "table" in vars(C)
        src, tgt = C.src, C.tgt
        assert list(C.table) == sorted(
            C.table, key=lambda p: (src[p[0]], tgt[p[0]], p[0], tgt[p[1]], p[1])
        )
