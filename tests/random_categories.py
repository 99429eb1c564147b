"""Seeded random finite categories, for differential tests of ``fibcat``.

``transformation_monoid`` is the one-object category of the maps of at most
four points that a few random maps generate under composition, laid out as
``core_reference.assemble_blocks`` blocks with the payloads in a random
order.
``generated_subcategory`` picks a few random morphisms of a category and
closes them, with the identities of their endpoints, under composition: the
arguments of ``core.subcategory``.  ``seeded_categories`` builds a corpus of
both.  Everything is drawn from the ``random`` instance passed in, so a
seed fixes the instance.
"""

from __future__ import annotations

import core_reference
from fibcat import core

MONOIDS, SUBCATEGORIES = 40, 20
SEED = 19  # of the corpus that the differential tests share


def compose_maps(f: tuple, g: tuple) -> tuple:
    """The map f then g: i ↦ g(f(i))."""
    return tuple(g[i] for i in f)


def map_id(f: tuple) -> str:
    return "m" + "".join(map(str, f))


def transformation_monoid(rng, max_points: int = 4, max_maps: int = 3):
    """``assemble_blocks`` arguments (identities, blocks, compose) of the monoid
    of maps of 1 to ``max_points`` points that 1 to ``max_maps`` random
    maps generate, with ``compose(p, q)`` composing payloads."""
    n = rng.randint(1, max_points)
    unit = tuple(range(n))
    made = {unit} | {tuple(rng.randrange(n) for _ in unit) for _ in range(rng.randint(1, max_maps))}
    while True:
        more = {compose_maps(f, g) for f in made for g in made} - made
        if not more:
            break
        made |= more
    payloads = sorted(made)
    rng.shuffle(payloads)
    return {"*": unit}, {("*", "*"): {f: map_id(f) for f in payloads}}, compose_maps


def generated_subcategory(rng, C, max_picks: int = 6):
    """(objects, morphisms) of the subcategory of ``C`` that 1 to
    ``max_picks`` random morphisms generate, with the identities of their
    endpoints."""
    picked = rng.sample(C.morphisms, rng.randint(1, max_picks))
    objects = sorted({C.src[m] for m in picked} | {C.tgt[m] for m in picked})
    made = set(picked) | {C.id_of(x) for x in objects}
    while True:
        more = {C.comp(f, g) for f in made for g in made if C.tgt[f] == C.src[g]} - made
        if not more:
            break
        made |= more
    return objects, sorted(made)


def seeded_categories(rng, bases) -> list:
    """``MONOIDS`` transformation monoids, then ``SUBCATEGORIES`` generated
    subcategories of each of ``bases``, built through
    ``core_reference.assemble_blocks`` and ``core.subcategory``."""
    built = []
    for _ in range(MONOIDS):
        identities, blocks, compose = transformation_monoid(rng)
        composer = core_reference.per_composite(blocks, compose)
        built.append(core_reference.assemble_blocks(identities, blocks, composer))
    for C in bases:
        built += [core.subcategory(C, *generated_subcategory(rng, C)) for _ in range(SUBCATEGORIES)]
    return built
