"""Differentials of the one functor search against brute force and against
the searches it replaced (``search_reference``).

* ``enumerate_functors`` yields the same functors, in the same order, as
  every product of hom-set choices checked by ``functors_reference``, on
  every pair of a small corpus: named small categories, seeded
  transformation monoids and generated subcategories of FI_3, with fixed
  objects and ``allowed`` images too; its budget units are pinned.
* ``search_witness`` finds the same pushforward and unit as the old product
  search for every base morphism of the indexed corpus that the old search
  decides within ``REFERENCE_BUDGET`` candidates, fails at the same one,
  and every witness it finds is valid.
* ``find_homomorphic_section`` returns the reference's section on every
  surjection among the groups of the ``groups`` fixture, and
  ``group_isomorphism``
  agrees with the reference on whether two of them are isomorphic and
  returns a bijective homomorphism.
"""

import itertools
import random

import pytest

import functors_reference
import random_categories
import search_reference as ref
from fibcat.functors import NotAFunctor, SearchBudgetExceeded, enumerate_functors
from fibcat.generators import (
    chain_poset,
    cospan_poset,
    discrete_category,
    fi_truncated,
    span_poset,
    terminal_category,
)
from fibcat.groups import (
    cyclic_group,
    find_homomorphic_section,
    group_isomorphism,
    is_surjective_hom,
    symmetric_group,
    validate_group,
    validate_group_hom,
)
from fibcat.theorem import WitnessInvalid, _search_pushforward, search_witness, validate_witness

REFERENCE_BUDGET = 300  # candidates of the old search per base morphism


def _brute_force(A, B, objects=None, allowed=None):
    """Every (objects, morphisms) table A → B that ``check_functor``
    accepts, over every product of hom-set choices in lexicographic order."""
    fixed, allowed = dict(objects or {}), allowed or {}
    free = [x for x in A.objects if x not in fixed]
    for images in itertools.product(B.objects, repeat=len(free)):
        ob = {**fixed, **dict(zip(free, images))}
        homs = [B.hom(ob[A.src[f]], ob[A.tgt[f]]) for f in A.morphisms]
        choices = [[m for m in hom if m in allowed.get(f, hom)] for f, hom in zip(A.morphisms, homs)]
        for chosen in itertools.product(*choices):
            mor = dict(zip(A.morphisms, chosen))
            try:
                functors_reference.check_functor(A, B, ob, mor)
            except NotAFunctor:
                continue
            yield ob, mor


@pytest.fixture(scope="module")
def small_categories(z2, z3, idempotent_monoid, parallel_pair, seeded_categories):
    """Named small categories, the first six seeded transformation monoids
    with two to four maps and the first four generated subcategories of
    FI_3 with two or three objects and at most five morphisms."""
    monoids = [C for C in seeded_categories[: random_categories.MONOIDS] if 2 <= len(C.morphisms) <= 4]
    subcategories = [
        C
        for C in seeded_categories[random_categories.MONOIDS : random_categories.MONOIDS + random_categories.SUBCATEGORIES]
        if 2 <= len(C.objects) <= 3 and len(C.morphisms) <= 5
    ]
    named = [
        terminal_category(),
        discrete_category(["a", "b"]),
        fi_truncated(1),
        fi_truncated(2),
        chain_poset(3),
        span_poset(),
        cospan_poset(),
        z2.category,
        z3.category,
        idempotent_monoid,
        parallel_pair,
    ]
    return named + monoids[:6] + subcategories[:4]


def test_enumerator_matches_brute_force_on_every_pair(small_categories):
    """Same functors, same order, on all 441 pairs."""
    assert len(small_categories) == 21
    total = 0
    for A, B in itertools.product(small_categories, repeat=2):
        got = [(F.on_objects, F.on_morphisms) for F in enumerate_functors(A, B)]
        assert got == list(_brute_force(A, B)), (A, B)
        assert all(list(mor) == list(A.morphisms) for _, mor in got)
        total += len(got)
    assert total == 2044


def test_enumerator_with_fixed_objects_and_allowed_images_matches_brute_force(small_categories):
    """``objects`` fixes object images and ``allowed`` cuts image sets; a
    seeded choice of both on every pair of the corpus with images to cut."""
    rng = random.Random(35)
    tried = 0
    for A, B in itertools.product(small_categories, repeat=2):
        if len(B.morphisms) < 2:
            continue
        objects = {x: rng.choice(B.objects) for x in rng.sample(A.objects, rng.randint(0, len(A.objects)))}
        allowed = {f: rng.sample(B.morphisms, len(B.morphisms) // 2) for f in rng.sample(A.morphisms, len(A.morphisms) // 2)}
        got = [(F.on_objects, F.on_morphisms) for F in enumerate_functors(A, B, objects, allowed)]
        assert got == list(_brute_force(A, B, objects, allowed)), (A, B)
        tried += 1
    assert tried == 420


def test_enumerator_budget_counts_tried_images_and_complete_maps():
    """Z3 → Z3: the identity is forced, each image of "1" is tried (three
    units) and forces "2"; all three maps are functors (three units).  A
    budget of six runs out nowhere; one of five raises at the last map."""
    C = cyclic_group(3).category
    box = [6]
    assert len(list(enumerate_functors(C, C, budget=box))) == 3 and box == [0]
    box = [5]
    with pytest.raises(SearchBudgetExceeded):
        list(enumerate_functors(C, C, budget=box))


def test_witness_search_matches_reference_on_the_indexed_corpus(corpus):
    """Per base morphism, the old product search and the enumerator pick the
    same pushforward and unit; where the old search runs out of
    ``REFERENCE_BUDGET`` candidates, which happens only for the group
    powers, the new witness is still valid."""
    undecided = []
    for name, M in corpus:
        try:
            w, failed = search_witness(M), None
            validate_witness(M, w)
        except WitnessInvalid as exc:
            ((_, failed),) = exc.args
        for f in M.base.morphisms:
            try:
                expect = ref.search_pushforward(M, f, [REFERENCE_BUDGET])
            except SearchBudgetExceeded:
                undecided.append((name, f))
                continue
            if failed is None:
                push, unit = expect
                assert (push.on_objects, push.on_morphisms, unit) == (
                    w.pushforwards[f].on_objects,
                    w.pushforwards[f].on_morphisms,
                    w.units[f],
                ), (name, f)
            elif f == failed:
                assert expect is None, (name, f)
                break
            else:
                assert expect is not None, (name, f)
    assert sorted({name for name, _ in undecided}) == ["gpow_z2_3", "gpow_z3_2"]
    assert len(undecided) == 8


def test_one_budget_is_shared_by_the_whole_witness_search(corpus):
    """``search_witness`` charges every base morphism's search to one
    budget: the units its morphisms use add up to the least budget that
    finds the witness, and one unit less raises at the last morphism that
    charged any."""
    M = dict(corpus)["delta_fi2_fi2"]
    used = []
    for f in M.base.morphisms:
        box = [10**6]
        _search_pushforward(M, f, box)
        used.append((10**6 - box[0], f))
    total = sum(n for n, _ in used)
    assert total == 88
    search_witness(M, budget=total)
    with pytest.raises(SearchBudgetExceeded) as caught:
        search_witness(M, budget=total - 1)
    assert caught.value.args == ([f for n, f in used if n][-1],)


def _dihedral(n: int):
    """D_n as words r^a s^e, named "r<a>s<e>": (r^a s^e)(r^b s^f) =
    r^(a + (-1)^e b) s^(e + f)."""
    els = [(a, e) for e in range(2) for a in range(n)]
    name = {x: "r%ds%d" % x for x in els}
    mult = {(name[x], name[y]): name[((x[0] + (-1) ** x[1] * y[0]) % n, (x[1] + y[1]) % 2)] for x in els for y in els}
    return validate_group(name.values(), mult, "r0s0")


def _product(G, H):
    """G × H with elements "<g>,<h>"."""
    name = {(g, h): "%s,%s" % (g, h) for g in G.elements for h in H.elements}
    mult = {(name[x], name[y]): name[(G.mul(x[0], y[0]), H.mul(x[1], y[1]))] for x in name for y in name}
    return validate_group(name.values(), mult, name[(G.unit, H.unit)])


@pytest.fixture(scope="module")
def groups():
    """Z1–Z8, S3, S4, D3, D4, Z2×Z2 and Z2×Z4."""
    named = {"z%d" % n: cyclic_group(n) for n in range(1, 9)}
    named.update(s3=symmetric_group(3), s4=symmetric_group(4), d3=_dihedral(3), d4=_dihedral(4))
    named.update(z2xz2=_product(cyclic_group(2), cyclic_group(2)), z2xz4=_product(cyclic_group(2), cyclic_group(4)))
    return named


def test_homomorphic_sections_match_reference_on_every_surjection(groups):
    """Every surjection E → G among the groups, found as a functor of their
    groupoids: the first homomorphic section is the reference's, or both
    find none."""
    surjections = split = 0
    for E, G in itertools.product(groups.values(), repeat=2):
        if len(E) % len(G):
            continue
        for F in enumerate_functors(E.category, G.category):
            p = validate_group_hom(E, G, F.on_morphisms)
            if not is_surjective_hom(p):
                continue
            s, expect = find_homomorphic_section(p), ref.find_homomorphic_section(p)
            assert (s and s.mapping) == (expect and expect.mapping), (E, G, p.mapping)
            surjections += 1
            split += s is not None
    assert (surjections, split) == (152, 135)


def test_group_isomorphism_matches_reference(groups):
    """On every pair of equal order, an isomorphism exists exactly when the
    reference finds one, and the map returned is a bijective homomorphism."""
    isomorphic = 0
    for (g, G), (h, H) in itertools.product(groups.items(), repeat=2):
        if len(G) != len(H):
            continue
        found = group_isomorphism(G, H)
        assert (found is None) == (ref.group_isomorphism(G, H) is None), (g, h)
        if found is not None:
            assert sorted(validate_group_hom(G, H, found).mapping.values()) == list(H.elements)
            isomorphic += 1
    assert isomorphic == 16
