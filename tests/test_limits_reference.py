"""Differential check of ``fibcat.limits`` against the per-competitor scan.

On every cospan and every span of a handful of small categories, the
bijection-based terminality test, the pullbacks shared along isomorphisms,
the completion classes built from the cospans and the hit count that decides
initiality once per class must give exactly what ``limits_reference`` gives:
the same chosen representatives, the same mediator tables, the same
completion lists in the same order and the same first failure with the same
reason.

The seeded random corpus of ``random_categories`` is compared on conditions
6 and 7, on every chosen pullback and weak pushout, on the square of every
competitor and on every completion, whose transformation monoids reach
``non_unique``.
A second seeded corpus, of random posets and of products of small
transformation monoids with a chain, has many objects, so many targets.
Conditions 6 and 7 and the two preservation checks are also compared with
per-cospan and per-span loops over the reference search, on freshly built
categories and in either order, since the one cospan walk that serves
conditions 6 and 7 is memoised on the category.
"""

import itertools
import random

import pytest

import core_reference
import limits_reference as ref
import random_categories
from fibcat import (
    Check,
    Cospan,
    Span,
    Square,
    fiber_inclusion,
    generators,
    grothendieck,
    limits,
    validate_functor,
)
from fibcat.core import subcategory, validate_category
from fibcat.groth import pair_id
from fibcat.groups import cyclic_group, hom_as_functor, symmetric_group, validate_group_hom
from fibcat.ioformats import category_from_json, category_to_json
from test_limits import mediator_failure_category


@pytest.fixture(scope="module")
def chain3_squared():
    chain3 = generators.chain_poset(3)
    return generators.product_category(chain3, chain3)


@pytest.fixture(scope="module")
def chain4_squared():
    """Every automorphism group is trivial: no orbit is shared."""
    chain4 = generators.chain_poset(4)
    return generators.product_category(chain4, chain4)


@pytest.fixture(scope="module")
def fi_z2_2_total():
    """Aut(d) is non-trivial and is not a symmetric group on a set."""
    return grothendieck(generators.indexed_gpow(cyclic_group(2), 2)).total


@pytest.fixture(scope="module")
def late_failure_poset():
    """p below c1, c2, which lie below a, b and x, with x ≤ a: the square
    through x mediates to the first completion (through a) but not to the
    second (through b), so initiality fails at a later position."""
    order = {
        "p": {"p", "c1", "c2", "a", "b", "x"},
        "c1": {"c1", "a", "b", "x"},
        "c2": {"c2", "a", "b", "x"},
        "a": {"a"},
        "b": {"b"},
        "x": {"x", "a"},
    }
    return generators.thin_category(order, lambda x, y: y in order[x])


@pytest.fixture(scope="module")
def mediator_failure():
    return mediator_failure_category()


@pytest.fixture(scope="module")
def finite_sets():
    """The maps between the sets 0, 1 and 2, named m>n:images.  The span of
    the two maps out of 0 into 1 is completed by (1>2:0, 1>2:1), and the
    constant map 2>2:00 sends that to (1>2:0, 1>2:0), whose pullback is 1:
    a cospan outside the completion's class, which initiality must not
    count."""
    maps = {(m, n): list(itertools.product(range(n), repeat=m)) for m in range(3) for n in range(3)}

    def name(m, n, f):
        return "%d>%d:%s" % (m, n, "".join(map(str, f)))

    composition = [
        (name(m, n, f), name(n, k, g), name(m, k, tuple(g[i] for i in f)))
        for (m, n), fs in maps.items()
        for k in range(3)
        for f in fs
        for g in maps[(n, k)]
    ]
    return validate_category(
        [str(n) for n in range(3)],
        [(name(m, n, f), str(m), str(n)) for (m, n), fs in maps.items() for f in fs],
        {str(n): name(n, n, tuple(range(n))) for n in range(3)},
        composition,
    )


CATEGORIES = [
    "fi3",
    "fi4",
    "chain3_squared",
    "chain4_squared",
    "fi_z2_2_total",
    "idempotent_monoid",
    "parallel_pair",
    "mediator_failure",
    "late_failure_poset",
    "finite_sets",
]


@pytest.mark.parametrize("name", CATEGORIES)
def test_pullbacks_match_reference(request, name):
    C = request.getfixturevalue(name)
    for cospan in limits.all_cospans(C):
        assert limits.pullback(C, cospan) == ref.pullback(C, cospan), cospan
        for (_, u, v) in ref._competitors(C, cospan.f1, cospan.f2):
            assert limits.as_pullback(C, cospan, u, v) == ref.as_pullback(C, cospan, u, v)


@pytest.mark.parametrize("name", CATEGORIES)
def test_weak_pushouts_match_reference(request, name):
    C = request.getfixturevalue(name)
    for span in limits.all_spans(C):
        completions = limits._pullback_completions(C, span.g1, span.g2)
        assert completions == ref._pullback_completions(C, span.g1, span.g2), span
        assert limits.weak_pushout(C, span) == ref.weak_pushout(C, span), span
        for sq in completions:
            assert limits.is_weak_pushout_square(C, sq) == ref.is_weak_pushout_square(C, sq)


def test_pullbacks_match_reference_on_seeded_corpus(seeded_categories):
    """On the 80 seeded random categories (5,491 cospans): condition 6, the
    chosen pullback of every cospan and the verdict on the square of every
    competitor, the chosen one among them, match the reference.  In 15 of
    them (718 cospans) the first competitor at the first object with the
    cospan's hom-count column is not terminal: in a 9-morphism
    transformation monoid, the first competitor of (m000, m012) is (*, m000,
    m000), but the pullback is (*, m012, m000).  So these pin the injectivity
    step of the search."""
    for C in seeded_categories:
        assert limits.has_pullbacks(C) == _reference_condition_six(C)
        for cospan in limits.all_cospans(C):
            assert limits.pullback(C, cospan) == ref.pullback(C, cospan), cospan
            for (_, u, v) in ref._competitors(C, cospan.f1, cospan.f2):
                sq = Square(u, v, cospan.f1, cospan.f2)
                assert limits.is_pullback_square(C, sq) == ref.is_pullback_square(C, sq), sq


@pytest.fixture
def many_object_categories():
    """Ten random posets of up to 12 objects and six products of a small
    transformation monoid with ``chain_poset(3)``: many targets, and apart
    from the shared corpus, whose counts are pinned above.  Built afresh
    for each test, so no search is cached before it runs."""
    rng = random.Random(random_categories.MANY_OBJECTS_SEED)
    return random_categories.many_object_categories(rng)


def test_pullbacks_match_reference_on_many_objects(many_object_categories, monkeypatch):
    """Condition 6, the chosen pullback of every cospan and the verdict on
    the square of every competitor match the reference on categories with
    many objects.  Some products have automorphisms beyond the identities,
    and their legs that are not mono reach ``_first_terminal``."""
    reached = []
    first_terminal = limits._first_terminal
    monkeypatch.setattr(limits, "_first_terminal", lambda *args: reached.append(args) or first_terminal(*args))
    for C in many_object_categories:
        assert limits.has_pullbacks(C) == _reference_condition_six(C)
        for cospan in limits.all_cospans(C):
            assert limits.pullback(C, cospan) == ref.pullback(C, cospan), cospan
            for (_, u, v) in ref._competitors(C, cospan.f1, cospan.f2):
                sq = Square(u, v, cospan.f1, cospan.f2)
                assert limits.is_pullback_square(C, sq) == ref.is_pullback_square(C, sq), sq
    assert reached and any(len(C.inverses) > len(C.objects) for C in many_object_categories)


def test_weak_pushouts_match_reference_on_many_objects(many_object_categories):
    """Condition 7, the chosen weak pushout of every span with its
    mediators and the verdict on every completion of every span match the
    reference on categories with many objects."""
    for C in many_object_categories:
        assert limits.has_weak_pushouts(C) == _reference_condition_seven(C)[0]
        for span in limits.all_spans(C):
            assert limits.weak_pushout(C, span) == ref.weak_pushout(C, span), span
            for sq in ref._pullback_completions(C, span.g1, span.g2):
                assert limits.is_weak_pushout_square(C, sq) == ref.is_weak_pushout_square(C, sq), sq


def test_weak_pushouts_match_reference_on_seeded_corpus(seeded_categories):
    """On the 80 seeded random categories: condition 7, the chosen weak
    pushout of every span with its mediators and the verdict on every
    completion of every span match the reference.  Some completions of the
    transformation monoids fail initiality as ``non_unique``."""
    reasons = set()
    for C in seeded_categories:
        assert limits.has_weak_pushouts(C) == _reference_condition_seven(C)[0]
        for span in limits.all_spans(C):
            assert limits.weak_pushout(C, span) == ref.weak_pushout(C, span), span
            for sq in ref._pullback_completions(C, span.g1, span.g2):
                verdict = limits.is_weak_pushout_square(C, sq)
                assert verdict == ref.is_weak_pushout_square(C, sq), sq
                reasons.add(verdict.counterexample and verdict.counterexample[1])
    assert {"non_unique", "no_mediator"} <= reasons


def _reference_condition_seven(C):
    """Condition 7 by a per-span loop over the reference search, and the
    chosen square of each non-vacuous span the loop passed."""
    chosen = {}
    n = vacuous = 0
    for span in _spans(C):
        n += 1
        if not ref._pullback_completions(C, span.g1, span.g2):
            vacuous += 1
            continue
        wp = ref.weak_pushout(C, span)
        if wp is None:
            return Check(False, span), chosen
        chosen[span] = wp.square
    return Check(True, info={"spans": n, "vacuous_spans": vacuous}), chosen


@pytest.mark.parametrize("name", CATEGORIES)
def test_condition_seven_matches_reference(request, name):
    C = request.getfixturevalue(name)
    expected, chosen = _reference_condition_seven(C)
    assert limits.has_weak_pushouts(C) == expected
    for span, square in chosen.items():
        assert limits.weak_pushout(C, span).square == square, span
    if name == "mediator_failure":
        assert expected == Check(False, Span("s", "s"))


def _cospans(C):
    """Every cospan in the audit order: by target, then both legs in the
    order of their sources and of the hom-sets."""
    for d in C.objects:
        inbound = [f for x in C.objects for f in C.hom(x, d)]
        for f1 in inbound:
            for f2 in inbound:
                yield Cospan(f1, f2)


def _spans(C):
    """Every span in the audit order, as ``_cospans`` with arrows reversed."""
    for p in C.objects:
        outbound = [g for y in C.objects for g in C.hom(p, y)]
        for g1 in outbound:
            for g2 in outbound:
                yield Span(g1, g2)


def _reference_condition_six(C):
    """Condition 6 by a per-cospan loop over the reference search."""
    n = 0
    for n, cospan in enumerate(_cospans(C), 1):
        if ref.pullback(C, cospan) is None:
            return Check(False, cospan)
    return Check(True, info={"cospans": n})


def _fresh(C):
    """A new instance of C, with no cached search, laid out like C."""
    D = category_from_json(category_to_json(C))
    assert list(D.homs.items()) == list(C.homs.items())
    assert list(D.table.items()) == list(C.table.items())
    return D


@pytest.fixture(scope="module")
def cospan_poset():
    return generators.cospan_poset()


@pytest.mark.parametrize("first", ["has_pullbacks", "has_weak_pushouts"])
@pytest.mark.parametrize("name", CATEGORIES + ["cospan_poset"])
def test_conditions_six_and_seven_match_reference(request, name, first):
    C = request.getfixturevalue(name)
    expected = {
        "has_pullbacks": _reference_condition_six(C),
        "has_weak_pushouts": _reference_condition_seven(C)[0],
    }
    D = _fresh(C)
    second = ({"has_pullbacks", "has_weak_pushouts"} - {first}).pop()
    got = {cond: getattr(limits, cond)(D) for cond in (first, second)}
    assert got == expected
    if name == "cospan_poset":
        assert not expected["has_pullbacks"]


def _image(F, sq):
    return Square(F.mor(sq.top), F.mor(sq.left), F.mor(sq.right), F.mor(sq.bottom))


def _reference_preserves_pullbacks(F):
    n = 0
    for cospan in _cospans(F.source):
        pb = ref.pullback(F.source, cospan)
        if pb is None:
            continue
        n += 1
        if not ref.is_pullback_square(F.target, _image(F, pb.square(cospan))):
            return Check(False, pb.square(cospan))
    return Check(True, info={"pullback_squares_checked": n})


def _reference_preserves_weak_pushouts(F):
    n = 0
    for span in _spans(F.source):
        wp = ref.weak_pushout(F.source, span)
        if wp is None:
            continue
        n += 1
        verdict = ref.is_weak_pushout_square(F.target, _image(F, wp.square))
        if not verdict:
            return Check(False, (wp.square, verdict.counterexample))
    return Check(True, info={"weak_pushout_squares_checked": n})


FUNCTORS_SEED = 29  # of the random functors below


def _projections(rng, count=3):
    """The projections onto either factor of ``count`` products of a random
    poset of four objects with a transformation monoid of at most three
    points and at most ``random_categories.MONOID_SIZE`` maps."""
    made = []
    for _ in range(count):
        poset = generators.thin_category(*random_categories.random_order(rng, max_objects=4))
        identities, blocks, compose = random_categories.transformation_monoid(rng, max_points=3)
        while len(blocks[("*", "*")]) > random_categories.MONOID_SIZE:
            identities, blocks, compose = random_categories.transformation_monoid(rng, max_points=3)
        composer = core_reference.per_composite(blocks, compose)
        monoid = core_reference.assemble_blocks(identities, blocks, composer)
        P = generators.product_category(poset, monoid)
        for k, factor in enumerate((poset, monoid)):
            ob = {pair_id(a, b): (a, b)[k] for a in poset.objects for b in monoid.objects}
            mor = {pair_id(f, g): (f, g)[k] for f in poset.morphisms for g in monoid.morphisms}
            made.append(validate_functor(P, factor, ob, mor))
    return made


def _inclusions(rng, count=4):
    """The inclusions into FI_3 of ``count`` subcategories that random
    morphisms generate."""
    C = generators.fi_truncated(3)
    made = []
    for _ in range(count):
        S = subcategory(C, *random_categories.generated_subcategory(rng, C))
        made.append(validate_functor(S, C, {x: x for x in S.objects}, {f: f for f in S.morphisms}))
    return made


def _group_homs(rng, count=4):
    """``count`` random homomorphisms out of a cyclic group of order 1 to 6,
    into a cyclic group of order 1 to 6 or S_3, as functors: the generator
    goes to a random element whose order divides the source's."""
    made = []
    for _ in range(count):
        n, H = rng.randint(1, 6), rng.choice([cyclic_group(rng.randint(1, 6)), symmetric_group(3)])
        h = rng.choice([b for b in H.elements if n % H.order_of(b) == 0])
        powers = [H.unit]
        while len(powers) < n:
            powers.append(H.mul(powers[-1], h))
        h = validate_group_hom(cyclic_group(n), H, dict(zip(map(str, range(n)), powers)))
        made.append(hom_as_functor(h))
    return made


def _preservation_functors():
    """Freshly built: the projection of the FI_Z2 N=2 total category, its
    fiber inclusions, and the square a ≤ b, c ≤ d onto the chain p0 ≤ p1
    with only a sent to p0, which sends the pullback square over
    (b→d, c→d) to a square over (id, id) whose apex is not terminal, and
    before it, from ``FUNCTORS_SEED``, the projections of products of small
    random categories, the inclusions of generated subcategories of FI_3
    and random group homomorphisms."""
    proj = grothendieck(generators.indexed_gpow(cyclic_group(2), 2)).proj
    square, chain = generators.square_poset(), generators.chain_poset(2)
    ob = {x: "p0" if x == "a" else "p1" for x in square.objects}
    mor = {f: chain.hom(ob[square.src[f]], ob[square.tgt[f]])[0] for f in square.morphisms}
    collapse = validate_functor(square, chain, ob, mor)
    rng = random.Random(FUNCTORS_SEED)
    seeded = _projections(rng) + _inclusions(rng) + _group_homs(rng)
    return [proj] + [fiber_inclusion(proj, x) for x in proj.target.objects] + seeded + [collapse]


@pytest.mark.parametrize("conditions_first", [False, True])
def test_preservation_matches_reference(conditions_first):
    expected = [
        (_reference_preserves_pullbacks(F), _reference_preserves_weak_pushouts(F))
        for F in _preservation_functors()
    ]
    got = []
    for F in _preservation_functors():
        if conditions_first:
            limits.has_pullbacks(F.source)
            limits.has_weak_pushouts(F.source)
        got.append((limits.preserves_pullbacks(F), limits.preserves_weak_pushouts(F)))
    assert got == expected
    assert not expected[-1][0]
