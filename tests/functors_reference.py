"""Reference functor check: ``validate_functor`` as it was before it checked
composites by Light's test, looking up every composite of the source.

It is kept only as the oracle for the functor differentials in
``test_functors.py`` and imports nothing private from ``fibcat``, so it
shares no code with the check it tests.
"""

from __future__ import annotations

from fibcat.functors import NotAFunctor


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
