"""Differential check of ``fibcat.limits`` against the per-competitor scan.

On every cospan and every span of a handful of small categories, the
bijection-based terminality test, the pullbacks shared along isomorphisms,
the completion index built from the cospans and the initiality shared per
completion class must give exactly what ``limits_reference`` gives: the
same chosen representatives, the same mediator tables, the same completion
lists in the same order and the same first failure with the same reason.
"""

import pytest

import limits_reference as ref
from fibcat import Check, Span, Square, generators, grothendieck, limits
from fibcat.groups import cyclic_group
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
]


@pytest.mark.parametrize("name", CATEGORIES)
def test_pullbacks_match_reference(request, name):
    C = request.getfixturevalue(name)
    for cospan in limits.all_cospans(C):
        assert limits.pullback(C, cospan) == ref.pullback(C, cospan), cospan
        for (_, u, v) in limits._competitors(C, cospan.f1, cospan.f2):
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


def _reference_condition_seven(C):
    """Condition 7 by a per-span loop over the reference search, and the
    chosen square of each non-vacuous span the loop passed."""
    chosen = {}
    n = vacuous = 0
    for span in limits.all_spans(C):
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
    index = limits._completion_index(C)
    for span, square in chosen.items():
        cls = index[(span.g1, span.g2)]
        assert Square(span.g1, span.g2, *cls.cospans[limits._chosen(C, cls)]) == square, span
    if name == "mediator_failure":
        assert expected == Check(False, Span("s", "s"))
