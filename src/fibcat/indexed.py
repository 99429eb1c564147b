"""Contravariant pseudofunctor data over a finite base category.

An indexed category assigns a fiber category to each base object and a
functor M(f): fiber(y) → fiber(x) to each base morphism f: x→y.  Composition
and units are preserved only up to chosen isomorphisms:

    compositor  mu[f,g]: M(f)∘M(g) ⇒ M(g∘f)   (f: x→y, g: y→z)
    unitor      eta[x]:  id        ⇒ M(id_x)

``validate_indexed`` checks naturality and invertibility of every component
plus the unit and associativity coherence laws for all composable pairs and
triples, exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FinCat, CategoryError, automorphisms, subcategory
from .functors import (
    FinFunctor,
    NatTrans,
    NotNatural,
    compose_functors,
    functors_equal,
    identity_functor,
    validate_nat_trans,
)


class IndexedError(CategoryError):
    pass


class BadFiberFunctor(IndexedError):
    pass


class CompositorNotIso(IndexedError):
    pass


class CoherenceViolation(IndexedError):
    pass


class UnitorViolation(IndexedError):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class IndexedCat:
    base: FinCat
    fibers: dict  # base object -> FinCat
    arrows: dict  # base morphism f: x→y -> FinFunctor fiber(y) → fiber(x)
    compositors: dict  # (f, g) composable -> NatTrans mu[f,g]
    unitors: dict  # base object -> NatTrans eta[x]
    strict: bool

    def fiber_at(self, x: str) -> FinCat:
        return self.fibers[x]

    def arrow_at(self, f: str) -> FinFunctor:
        return self.arrows[f]

    def mu(self, f: str, g: str) -> NatTrans:
        return self.compositors[(f, g)]

    def eta(self, x: str) -> NatTrans:
        return self.unitors[x]

    def __repr__(self):
        return "IndexedCat(base=%r, %d fibers, strict=%s)" % (
            self.base,
            len(self.fibers),
            self.strict,
        )


def _same_category(A: FinCat, B: FinCat) -> bool:
    return A is B or (A.objects == B.objects and A.table == B.table)


def validate_indexed(base: FinCat, fibers, arrows, compositors=None, unitors=None) -> IndexedCat:
    """Check all pseudofunctor data exhaustively and return an ``IndexedCat``.

    ``compositors`` maps composable base pairs (f, g) to component tables (or
    ready NatTrans values); ``unitors`` maps base objects to component
    tables.  Either may be omitted entirely, defaulting to identities, which
    is only consistent for strictly functorial data.  A fiber, arrow,
    compositor or unitor for a key that names no base object, morphism or
    composable pair is an error: it is no part of the data, and keeping it
    would hide a misspelt or stale id.
    """
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
        x, y = base.src[f], base.tgt[f]
        if not _same_category(F.source, fibers[y]) or not _same_category(F.target, fibers[x]):
            raise BadFiberFunctor(("contravariance endpoints", f))
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

    mus = {}
    for (f, g), h in base.table.items():
        x = base.src[f]
        Mf, Mg, Mgf = arrows[f], arrows[g], arrows[h]
        src_fun = compose_functors(Mg, Mf)  # M(f)∘M(g) as "apply Mg, then Mf"
        raw = compositors.get((f, g))
        if isinstance(raw, NatTrans):
            raw = raw.components
        if raw is None:
            fib_z = fibers[base.tgt[g]]
            raw = {c: fibers[x].id_of(src_fun.ob(c)) for c in fib_z.objects}
        try:
            mu = validate_nat_trans(src_fun, Mgf, raw)
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
            eta = validate_nat_trans(identity_functor(fib), arrows[base.id_of(x)], raw)
        except NotNatural as exc:
            raise UnitorViolation((x, exc.args)) from exc
        for a, m in eta.components.items():
            if m not in fib.inverses:
                raise UnitorViolation((x, a, m))
        etas[x] = eta

    # Unit coherence: contracting against an identity is the identity.
    for f in base.morphisms:
        x, y = base.src[f], base.tgt[f]
        fib_x = fibers[x]
        Mf = arrows[f]
        mu_l = mus[(base.id_of(x), f)]  # M(id_x)∘M(f)... as mu[id, f]
        mu_r = mus[(f, base.id_of(y))]
        for b in fibers[y].objects:
            mfb = Mf.ob(b)
            if fib_x.comp(etas[x].at(mfb), mu_l.at(b)) != fib_x.id_of(mfb):
                raise UnitorViolation(("left unit", f, b))
            if fib_x.comp(Mf.mor(etas[y].at(b)), mu_r.at(b)) != fib_x.id_of(mfb):
                raise UnitorViolation(("right unit", f, b))

    # Associativity coherence over every composable base triple.
    out_of = {x: [] for x in base.objects}
    for m in base.morphisms:
        out_of[base.src[m]].append(m)
    for f in base.morphisms:
        x, y = base.src[f], base.tgt[f]
        fib_x = fibers[x]
        Mf = arrows[f]
        for g in out_of[y]:
            z = base.tgt[g]
            gf = base.comp(f, g)
            for h in out_of[z]:
                w = base.tgt[h]
                hg = base.comp(g, h)
                Mh = arrows[h]
                for d in fibers[w].objects:
                    lhs = fib_x.comp(Mf.mor(mus[(g, h)].at(d)), mus[(f, hg)].at(d))
                    rhs = fib_x.comp(mus[(f, g)].at(Mh.ob(d)), mus[(gf, h)].at(d))
                    if lhs != rhs:
                        raise CoherenceViolation(((f, g, h), d))

    strict = all(
        fibers[base.src[f]].is_identity(m)
        for (f, _), mu in mus.items()
        for m in mu.components.values()
    ) and all(
        fibers[x].is_identity(m) for x, eta in etas.items() for m in eta.components.values()
    )

    return IndexedCat(base, fibers, arrows, mus, etas, strict)


def strict_functoriality_check(M: IndexedCat):
    """Independent 1-categorical recheck for strict data.

    For a strict indexed category the arrow table must be functorial on the
    nose: arrows at identities are identity functors and the arrow at g∘f is
    the composite of the arrows at g and f.
    """
    for x in M.base.objects:
        if not functors_equal(M.arrow_at(M.base.id_of(x)), identity_functor(M.fiber_at(x))):
            return False
    for (f, g), h in M.base.table.items():
        if not functors_equal(compose_functors(M.arrow_at(g), M.arrow_at(f)), M.arrow_at(h)):
            return False
    return True


def restrict_to_aut(M: IndexedCat, x: str) -> IndexedCat:
    """Restrict to the one-object subcategory of automorphisms of ``x``."""
    auts = automorphisms(M.base, x)
    base_r = subcategory(M.base, [x], auts)
    return validate_indexed(
        base_r,
        {x: M.fiber_at(x)},
        {f: M.arrow_at(f) for f in auts},
        {(f, g): M.mu(f, g).components for f in auts for g in auts},
        {x: M.eta(x).components},
    )
