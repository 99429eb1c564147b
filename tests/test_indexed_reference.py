"""Differential tests of ``validate_indexed`` against the full scans of
``indexed_reference.check_indexed``: the same verdict, the same first error
(type and args) and, on valid data, the same components and strictness.

The library decides naturality and associativity coherence by Light's
test on generators; the reference checks every square.  The data is the
whole corpus, two larger instances and constant indexed categories
``delta_const(X, Y)`` over seeded pairs of the seeded random categories,
unchanged and under seeded single-entry changes made with
``dataclasses.replace``.  The library keeps compositors and unitors as
arrays and hands out views; every view of a valid instance, as built, and
as validated again from those views or from plain component tables, must
equal the reference's ``NatTrans``.
"""

import dataclasses
import random

import pytest

from indexed_reference import check_indexed
from fibcat import compose_functors, functors_equal, validate_indexed
from fibcat.generators import block_perm_indexed, chain_poset, delta_const, fi_truncated, slice_indexed
from fibcat.indexed import BadFiberFunctor, CoherenceViolation, CompositorNotIso, UnitorViolation


def outcome(check, M):
    """The type and args of the error ``check`` raises on the data of
    ``M``, or its strictness, compositor and unitor components."""
    try:
        N = check(M.base, M.fibers, M.arrows, M.compositors, M.unitors)
    except Exception as exc:  # noqa: BLE001 - any error must match
        return type(exc), exc.args
    return (
        N.strict,
        {k: mu.components for k, mu in N.compositors.items()},
        {x: eta.components for x, eta in N.unitors.items()},
    )


def assert_views_match(M, N):
    """Every compositor and unitor view of ``M`` equals the reference
    ``N``'s: the same keys, components and target, and a source whose
    composite (for a compositor, a path) is the reference's source."""
    assert sorted(M.compositors) == sorted(N.compositors) and len(M.compositors) == len(N.compositors)
    assert list(M.unitors) == list(N.unitors) and len(M.unitors) == len(N.unitors)
    for key, ref in N.compositors.items():
        mu = M.compositors[key]
        assert mu is M.mu(*key) and mu.components == ref.components and mu.target is ref.target, key
        assert functors_equal(compose_functors(*mu.source), ref.source), key
    for x, ref in N.unitors.items():
        eta = M.unitors[x]
        assert eta is M.eta(x) and eta.components == ref.components and eta.target is ref.target, x
        assert functors_equal(eta.source, ref.source), x


def assert_all_views_match(M):
    """``M``, as built and as validated again from its own views and from
    plain component tables, has the reference's views."""
    N = check_indexed(M.base, M.fibers, M.arrows, M.compositors, M.unitors)
    tables = [{k: nt.components for k, nt in getattr(M, t).items()} for t in ("compositors", "unitors")]
    for again in (M, validate_indexed(M.base, M.fibers, M.arrows, M.compositors, M.unitors),
                  validate_indexed(M.base, M.fibers, M.arrows, *tables)):
        assert_views_match(again, N)


def mutations(M, seed, rounds=3):
    """Seeded single-entry changes of ``M``, as (kind, indexed category)
    pairs: a compositor component moved to another iso of its hom-set or
    replaced by a non-iso, a unitor component moved, and an arrow's image
    of a morphism swapped for a parallel one."""
    rng = random.Random(seed)

    def replace_component(table, key, fib, pick):
        nt = getattr(M, table)[key]
        c = rng.choice(sorted(nt.components))
        m = nt.components[c]
        choices = [h for h in pick(fib, m) if h != m]
        if not choices:
            return None
        nt = dataclasses.replace(nt, components={**nt.components, c: rng.choice(choices)})
        return dataclasses.replace(M, **{table: {**getattr(M, table), key: nt}})

    def isos(fib, m):
        return [h for h in fib.hom(fib.src[m], fib.tgt[m]) if h in fib.inverses]

    def non_isos(fib, m):
        parallel = [h for h in fib.hom(fib.src[m], fib.tgt[m]) if h not in fib.inverses]
        return parallel or [h for h in fib.morphisms if h not in fib.inverses]

    def moved(fib, m):
        return [h for h in fib.hom(fib.src[m], fib.tgt[m]) if h != m] or list(fib.morphisms)

    for _ in range(rounds):
        f, g = rng.choice(sorted(M.compositors))
        fib = M.fibers[M.base.src[f]]
        for kind, pick in (("compositor iso", isos), ("compositor non-iso", non_isos)):
            bad = replace_component("compositors", (f, g), fib, pick)
            if bad is not None:
                yield kind, bad
        x = rng.choice(M.base.objects)
        bad = replace_component("unitors", x, M.fibers[x], moved)
        if bad is not None:
            yield "unitor", bad
        f = rng.choice(M.base.morphisms)
        F = M.arrows[f]
        l = rng.choice(sorted(F.on_morphisms))
        m, T = F.on_morphisms[l], F.target
        parallel = [h for h in T.hom(T.src[m], T.tgt[m]) if h != m]
        if parallel:
            G = dataclasses.replace(F, on_morphisms={**F.on_morphisms, l: rng.choice(parallel)})
            yield "arrow", dataclasses.replace(M, arrows={**M.arrows, f: G})


@pytest.fixture(scope="module")
def instances(corpus, idempotent_monoid):
    """The corpus, two larger instances, and a constant indexed category
    whose fiber has a non-invertible endomorphism, so that a compositor
    component can be natural and still not an iso."""
    return list(corpus) + [
        ("slice_fi3", slice_indexed(fi_truncated(3))),
        ("blocks_3_1", block_perm_indexed(3, 1)),
        ("delta_chain2_idempotent", delta_const(chain_poset(2), idempotent_monoid)),
    ]


def test_instances_match_reference(instances):
    for name, M in instances:
        got = outcome(validate_indexed, M)
        assert got == outcome(check_indexed, M), name
        assert got[0] is M.strict, name
        assert_all_views_match(M)


def test_mutations_match_reference(instances):
    """Every mutation gives the reference's error, and between them the
    mutations reach every error of the arrow, compositor, unitor and
    coherence checks, a coherence square of a triple among them."""
    seen = set()
    for seed, (name, M) in enumerate(instances):
        for kind, bad in mutations(M, seed):
            got = outcome(validate_indexed, bad)
            assert got == outcome(check_indexed, bad), (name, kind)
            if got[0] is CoherenceViolation and got[1][0][0] != "compositor":
                seen.add("triple")
            seen.add(got[0])
    assert {BadFiberFunctor, CompositorNotIso, CoherenceViolation, UnitorViolation, "triple"} <= seen


SEEDED_PAIRS = 60


def test_seeded_constant_categories_match_reference(seeded_categories):
    """``delta_const(X, Y)`` for seeded pairs (X, Y) of the seeded random
    categories, and its mutations, get the reference's outcome; the
    mutations reach the compositor, unitor and arrow errors."""
    rng = random.Random(SEEDED_PAIRS)
    seen = set()
    for seed in range(SEEDED_PAIRS):
        X, Y = rng.choice(seeded_categories), rng.choice(seeded_categories)
        M = delta_const(X, Y)
        assert outcome(validate_indexed, M) == outcome(check_indexed, M), seed
        assert_all_views_match(M)
        for kind, bad in mutations(M, seed):
            got = outcome(validate_indexed, bad)
            assert got == outcome(check_indexed, bad), (seed, kind)
            seen.add(got[0])
    assert {BadFiberFunctor, CompositorNotIso, CoherenceViolation, UnitorViolation} <= seen
