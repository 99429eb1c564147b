"""Reference indexed-category check: ``validate_indexed`` as it was before it
decided naturality and associativity coherence by Light's test.  It checks
every naturality square of every compositor and unitor on the composite
functor M(f)∘M(g) built in full, and the coherence square of every
composable base triple at every object of the last fiber.

It keeps the library's two later rules, so that a differential compares
the checks and not the contracts: an arrow's endpoints must be the very
fiber objects given, and every arrow must be a functor, checked here by the
full loop of ``functors_reference.check_functor``.

It is kept only as the oracle for ``test_indexed_reference.py`` and imports
nothing private from ``fibcat``, so it shares no code with the check it
tests.
"""

from __future__ import annotations

from fibcat.functors import (
    FinFunctor,
    NatTrans,
    NotAFunctor,
    NotNatural,
    compose_functors,
    identity_functor,
)
from fibcat.indexed import (
    BadFiberFunctor,
    CoherenceViolation,
    CompositorNotIso,
    IndexedCat,
    IndexedError,
    UnitorViolation,
)

from functors_reference import check_functor, check_nat_trans


def check_indexed(base, fibers, arrows, compositors=None, unitors=None) -> IndexedCat:
    """Raise the first error of the data, in the library's order, or return
    the ``IndexedCat``; its compositors keep the composite functor built in
    full as their source."""
    fibers = dict(fibers)
    arrows = dict(arrows)
    for x in base.objects:
        if x not in fibers:
            raise IndexedError("no fiber over %r" % x)
    for x in fibers:
        if x not in base.identity:
            raise IndexedError("fiber over unknown object %r" % (x,))
    for f in base.morphisms:
        if f not in arrows:
            raise BadFiberFunctor(("no arrow functor", f))
        F = arrows[f]
        if not isinstance(F, FinFunctor):
            raise BadFiberFunctor(("not a functor", f))
        if F.source is not fibers[base.tgt[f]] or F.target is not fibers[base.src[f]]:
            raise BadFiberFunctor(("contravariance endpoints", f))
        try:
            check_functor(F.source, F.target, F.on_objects, F.on_morphisms)
        except NotAFunctor as exc:
            raise BadFiberFunctor(("not a functor", f, exc.args)) from exc
    for f in arrows:
        if f not in base.src:
            raise IndexedError("arrow for unknown morphism %r" % (f,))

    compositors = dict(compositors or {})
    unitors = dict(unitors or {})
    for key in compositors:
        if key not in base.table:
            raise IndexedError("compositor for %r, which is no composable pair" % (key,))
    for x in unitors:
        if x not in base.identity:
            raise IndexedError("unitor over unknown object %r" % (x,))

    def natural(F, G, raw):
        check_nat_trans(F, G, raw)
        return NatTrans(F, G, dict(raw))

    mus = {}
    for (f, g), h in base.table.items():
        x = base.src[f]
        src_fun = compose_functors(arrows[g], arrows[f])  # M(f)∘M(g)
        raw = compositors.get((f, g))
        if isinstance(raw, NatTrans):
            raw = raw.components
        if raw is None:
            raw = {c: fibers[x].id_of(src_fun.ob(c)) for c in src_fun.source.objects}
        try:
            mu = natural(src_fun, arrows[h], raw)
        except NotNatural as exc:
            raise CoherenceViolation(("compositor", f, g, exc.args)) from exc
        for c, m in mu.components.items():
            if m not in fibers[x].inverses:
                raise CompositorNotIso((f, g, c, m))
        mus[(f, g)] = mu

    etas = {}
    for x in base.objects:
        fib = fibers[x]
        raw = unitors.get(x)
        if isinstance(raw, NatTrans):
            raw = raw.components
        if raw is None:
            raw = {a: fib.id_of(a) for a in fib.objects}
        try:
            eta = natural(identity_functor(fib), arrows[base.id_of(x)], raw)
        except NotNatural as exc:
            raise UnitorViolation((x, exc.args)) from exc
        for a, m in eta.components.items():
            if m not in fib.inverses:
                raise UnitorViolation((x, a, m))
        etas[x] = eta

    for f in base.morphisms:
        x, y = base.src[f], base.tgt[f]
        fib_x, Mf = fibers[x], arrows[f]
        mu_l, mu_r = mus[(base.id_of(x), f)], mus[(f, base.id_of(y))]
        for b in fibers[y].objects:
            mfb = Mf.ob(b)
            if fib_x.comp(etas[x].at(mfb), mu_l.at(b)) != fib_x.id_of(mfb):
                raise UnitorViolation(("left unit", f, b))
            if fib_x.comp(Mf.mor(etas[y].at(b)), mu_r.at(b)) != fib_x.id_of(mfb):
                raise UnitorViolation(("right unit", f, b))

    for f in base.morphisms:
        fib_x, Mf = fibers[base.src[f]], arrows[f]
        for g in base.morphisms:
            if base.src[g] != base.tgt[f]:
                continue
            for h in base.morphisms:
                if base.src[h] != base.tgt[g]:
                    continue
                gf, hg, Mh = base.comp(f, g), base.comp(g, h), arrows[h]
                for d in fibers[base.tgt[h]].objects:
                    lhs = fib_x.comp(Mf.mor(mus[(g, h)].at(d)), mus[(f, hg)].at(d))
                    rhs = fib_x.comp(mus[(f, g)].at(Mh.ob(d)), mus[(gf, h)].at(d))
                    if lhs != rhs:
                        raise CoherenceViolation(((f, g, h), d))

    strict = all(
        fibers[base.src[f]].is_identity(m) for (f, _), mu in mus.items() for m in mu.components.values()
    ) and all(fibers[x].is_identity(m) for x, eta in etas.items() for m in eta.components.values())
    return IndexedCat(base, fibers, arrows, mus, etas, strict)

