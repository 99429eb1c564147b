"""Reference functor and naturality checks: ``validate_functor`` and
``validate_nat_trans`` as they were before they checked composites and
squares by Light's test, looking up every composite and every square of
the source.

They are kept only as the oracles for the differentials in
``test_functors.py`` and ``test_indexed_reference.py`` and import nothing
private from ``fibcat``, so they share no code with the checks they test.
"""

from __future__ import annotations

from fibcat.functors import NotAFunctor, NotNatural


def check_functor(source, target, on_objects, on_morphisms) -> None:
    """Raise the first ``NotAFunctor`` of the tables, in the order objects,
    morphisms, identities, then every composite in the source's table
    order; return None if they define a functor."""
    ob, mor = dict(on_objects), dict(on_morphisms)
    for x in source.objects:
        if x not in ob:
            raise NotAFunctor(("object not mapped", x))
        if ob[x] not in target.identity:
            raise NotAFunctor(("image object unknown", x, ob[x]))
    if len(ob) > len(source.objects):
        unknown = next(x for x in ob if x not in source.identity)
        raise NotAFunctor(("unknown object mapped", unknown))
    for f in source.morphisms:
        if f not in mor:
            raise NotAFunctor(("morphism not mapped", f))
        g = mor[f]
        if g not in target.src:
            raise NotAFunctor(("image morphism unknown", f, g))
        if target.src[g] != ob[source.src[f]] or target.tgt[g] != ob[source.tgt[f]]:
            raise NotAFunctor(("endpoints not preserved", f, g))
    if len(mor) > len(source.morphisms):
        unknown = next(f for f in mor if f not in source.src)
        raise NotAFunctor(("unknown morphism mapped", unknown))
    for x in source.objects:
        if mor[source.id_of(x)] != target.id_of(ob[x]):
            raise NotAFunctor(("identity not preserved", x))
    for (f, g), h in source.table.items():
        if target.comp(mor[f], mor[g]) != mor[h]:
            raise NotAFunctor(("composite not preserved", f, g))


def check_nat_trans(F, G, components) -> None:
    """Raise the first ``NotNatural`` of the components of a transformation
    F ⇒ G of functors: parallel functors, then each component's presence
    and typing by source object, an unknown object, then every naturality
    square in the source's morphism order; return None if it is natural."""
    if F.source is not G.source or F.target is not G.target:
        raise NotNatural("parallel functors required")
    comp = dict(components)
    T = F.target
    for x in F.source.objects:
        if x not in comp:
            raise NotNatural(("component missing", x))
        c = comp[x]
        if c not in T.src:
            raise NotNatural(("component unknown", x, c))
        if T.src[c] != F.ob(x) or T.tgt[c] != G.ob(x):
            raise NotNatural(("component endpoints", x, c))
    if len(comp) > len(F.source.objects):
        unknown = next(x for x in comp if x not in F.source.identity)
        raise NotNatural(("component for unknown object", unknown))
    for f in F.source.morphisms:
        x, y = F.source.src[f], F.source.tgt[f]
        if T.comp(comp[x], G.mor(f)) != T.comp(F.mor(f), comp[y]):
            raise NotNatural(("square", f))
