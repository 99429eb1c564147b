"""Differential check of the axiom check in ``fibcat.core`` against
``core_reference``, the per-(a, b, c, d) sweep it replaced.

On a corpus of valid categories, on seeded single-entry mutations of each
(a wrong composite in the right hom-set, a composite in the wrong hom-set, a
deleted pair) and on hand-built tables whose first error a batched sweep
could misreport, both checks must give the same outcome: ``None``, or the
same exception class with the same args.
"""

import random

import pytest

import core_reference as ref
from fibcat import CategoryError, core, generators, grothendieck
from fibcat.core import (
    AssociativityViolation,
    CompositeEndpointViolation,
    MissingComposite,
)
from fibcat.groups import cyclic_group


def outcome(check, *args):
    try:
        check(*args)
    except CategoryError as exc:
        return (type(exc), exc.args)
    return None


def library(C, table):
    return outcome(core._check_completeness_and_associativity, table, C.homs)


def oracle(C, table):
    args = (C.objects, C.morphisms, C.src, C.tgt, table, C.homs)
    return outcome(ref.check_completeness_and_associativity, *args)


@pytest.fixture(scope="module")
def chain6_squared():
    chain6 = generators.chain_poset(6)
    return generators.product_category(chain6, chain6)


@pytest.fixture(scope="module")
def arrow_fi2(fi2):
    return generators.arrow_category(fi2)


@pytest.fixture(scope="module")
def fi_z2_2_total():
    return grothendieck(generators.indexed_gpow(cyclic_group(2), 2)).total


@pytest.fixture(scope="module")
def blocks_3_1_total():
    return grothendieck(generators.block_perm_indexed(3, 1)).total


CATEGORIES = [
    "fi3",
    "fi4",
    "chain6_squared",
    "arrow_fi2",
    "fi_z2_2_total",
    "blocks_3_1_total",
    "idempotent_monoid",
    "parallel_pair",
]

MUTATIONS_PER_KIND = 10


def mutations(C, seed):
    """Seeded single-entry changes of ``C.table``, as (kind, table) pairs."""
    rng = random.Random(seed)
    pairs = sorted(C.table)

    def hom_of(f, g):
        return C.homs[(C.src[f], C.tgt[g])]

    for _ in range(MUTATIONS_PER_KIND):
        wide = [p for p in pairs if len(hom_of(*p)) > 1]
        if wide:
            p = rng.choice(wide)
            table = dict(C.table)
            table[p] = rng.choice([h for h in hom_of(*p) if h != C.table[p]])
            yield "wrong composite", table
        p = rng.choice(pairs)
        others = [h for h in C.morphisms if h not in hom_of(*p)]
        if others:
            table = dict(C.table)
            table[p] = rng.choice(others)
            yield "wrong hom", table
        table = dict(C.table)
        del table[rng.choice(pairs)]
        yield "deleted pair", table


@pytest.mark.parametrize("name", CATEGORIES)
def test_valid_categories_match_reference(request, name):
    C = request.getfixturevalue(name)
    assert library(C, C.table) is None
    assert oracle(C, C.table) is None


@pytest.mark.parametrize("name", CATEGORIES)
def test_mutations_match_reference(request, name):
    C = request.getfixturevalue(name)
    for kind, table in mutations(C, CATEGORIES.index(name)):
        assert library(C, table) == oracle(C, table), kind


def test_mutations_reach_every_error(fi3):
    seen = {library(fi3, table) for _, table in mutations(fi3, 0)}
    assert {MissingComposite, CompositeEndpointViolation, AssociativityViolation} <= {
        got[0] for got in seen if got is not None
    }


class Raw:
    """The inputs of the check, built from morphisms and composites alone."""

    def __init__(self, morphisms, table):
        self.src = {m: s for m, s, _ in morphisms}
        self.tgt = {m: t for m, _, t in morphisms}
        self.objects = tuple(sorted(set(self.src.values()) | set(self.tgt.values())))
        self.morphisms = tuple(sorted(self.src))
        homs = {}
        for m in self.morphisms:
            homs.setdefault((self.src[m], self.tgt[m]), []).append(m)
        self.homs = {k: tuple(v) for k, v in homs.items()}
        self.table = table


def two_targets():
    """f0, f1: a→b, g: b→c, h: c→d, k: c→e and their composites, all
    associative: f_i;g = u_i, g;h = v, g;k = w, u_i;h = f_i;v = x_i,
    u_i;k = f_i;w = y_i."""
    morphisms = [
        tuple(m.split())
        for m in (
            "f0 a b", "f1 a b", "g b c", "h c d", "k c e", "u0 a c", "u1 a c",
            "v b d", "w b e", "x0 a d", "x1 a d", "y0 a e", "y1 a e",
        )
    ]
    table = {("g", "h"): "v", ("g", "k"): "w"}
    for i in "01":
        table[("f" + i, "g")] = "u" + i
        table[("u" + i, "h")] = table[("f" + i, "v")] = "x" + i
        table[("u" + i, "k")] = table[("f" + i, "w")] = "y" + i
    return morphisms, table


def test_two_targets_is_associative():
    C = Raw(*two_targets())
    assert library(C, C.table) is None
    assert oracle(C, C.table) is None


def test_missing_pair_after_endpoint_violation_wins():
    """In the block (a, b, c), f0;g lands in the wrong hom-set and the later
    pair (f1, g) is missing: the missing pair is reported."""
    morphisms, table = two_targets()
    table[("f0", "g")] = "x0"
    del table[("f1", "g")]
    C = Raw(morphisms, table)
    assert library(C, table) == (MissingComposite, (("f1", "g"),))
    assert oracle(C, table) == library(C, table)


def test_endpoint_violation_in_earlier_block_wins():
    """The block (a, b, c) comes before (b, c, d): its endpoint violation
    is reported, not the later block's missing pair."""
    morphisms, table = two_targets()
    table[("f1", "g")] = "x0"
    del table[("g", "h")]
    C = Raw(morphisms, table)
    assert library(C, table) == (CompositeEndpointViolation, (("f1", "g", "x0"),))
    assert oracle(C, table) == library(C, table)


def test_first_violation_is_at_the_earlier_target():
    """Associativity fails at d for f1 and at e for f0.  The first failure is
    the one at d, although the one at e has the smaller f: a sweep over all
    targets at once that reports its first mismatch would name (f0, g, k)."""
    morphisms, table = two_targets()
    table[("f1", "v")] = "x0"
    table[("f0", "w")] = "y1"
    C = Raw(morphisms, table)
    assert library(C, table) == (AssociativityViolation, (("f1", "g", "h"),))
    assert oracle(C, table) == library(C, table)
