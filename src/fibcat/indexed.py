"""Contravariant pseudofunctor data over a finite base category.

An indexed category assigns a fiber category to each base object and a
functor M(f): fiber(y) → fiber(x) to each base morphism f: x→y.  Composition
and units are preserved only up to chosen isomorphisms:

    compositor  mu[f,g]: M(f)∘M(g) ⇒ M(g∘f)   (f: x→y, g: y→z)
    unitor      eta[x]:  id        ⇒ M(id_x)

``validate_indexed`` checks that every arrow is a functor between the
fibers it names (the very fiber objects, not equal copies), the naturality
and invertibility of every compositor and unitor, the unit coherence law
at every base morphism and fiber object, and then the associativity
coherence law.  All of them are certificates for every composable pair and
triple; naturality (see ``functors``) and associativity coherence are
decided by Light's test on generators.

Write ";" for "then", in the base and in the fibers.  For composable
f: x→y, g: y→z, h: z→w and an object d of fiber(w), the coherence square
of (f, g, h) at d is

    M(f)(mu[g,h](d)) ; mu[f,g;h](d)  =  mu[f,g](M(h)(d)) ; mu[f;g,h](d),

two arrows M(f)M(g)M(h)(d) → M(f;g;h)(d) of fiber(x).  Call g
*middle-coherent* when its square commutes for every such f, h and d.  The
checks made before the sweep give: each M(f) is a functor, each mu and eta
is natural with invertible components, and the unit laws

    eta[x](M(f)(b)) ; mu[id_x,f](b) = id  and  M(f)(eta[y](b)) ; mu[f,id_y](b) = id

hold for f: x→y and b in fiber(y).

*Identities are middle-coherent.*  At (f, id_y, h) both sides end with
mu[f,h](d), so the square asks M(f)(mu[id_y,h](d)) = mu[f,id_y](M(h)(d)).
The unit laws at h and at f make mu[id_y,h](d) the inverse of
eta[y](M(h)(d)) and mu[f,id_y](M(h)(d)) the inverse of
M(f)(eta[y](M(h)(d))); a functor maps an inverse to the inverse of the
image, so the two agree.

*Middle-coherent morphisms compose.*  Let g1: y→z and g2: z→u be
middle-coherent, f: x→y, h: u→w and d in fiber(w).  Six arrows
M(f)M(g1)M(g2)M(h)(d) → M(f;g1;g2;h)(d) contract the four factors in
different orders (all mu at d or at the image of d that types them):

    A = mu[f,g1] ; mu[f;g1,g2] ; mu[f;g1;g2,h]
    B = M(f)(mu[g1,g2]) ; mu[f,g1;g2] ; mu[f;g1;g2,h]
    C = M(f)(mu[g1,g2]) ; M(f)(mu[g1;g2,h]) ; mu[f,g1;g2;h]
    D = M(f)(M(g1)(mu[g2,h])) ; M(f)(mu[g1,g2;h]) ; mu[f,g1;g2;h]
    E = M(f)(M(g1)(mu[g2,h])) ; mu[f,g1] ; mu[f;g1,g2;h]
    E' = mu[f,g1] ; M(f;g1)(mu[g2,h]) ; mu[f;g1,g2;h]

A = B is the square of (f, g1, g2) at M(h)(d); C = D is M(f) applied to
the square of (g1, g2, h) at d, as M(f) preserves composites; D = E is the
square of (f, g1, g2;h) at d; E = E' is the naturality of mu[f,g1] at the
arrow mu[g2,h](d); E' = A is the square of (f;g1, g2, h) at d.  Each of
these four squares has g1 or g2 in the middle.  So B = C.  B and C begin
with the same arrow M(f)(mu[g1,g2](M(h)(d))), the image of an iso under a
functor, hence an iso; cancelling it leaves the square of (f, g1;g2, h) at
d.  This is the classical pasting argument for pseudofunctors (cf. Johnstone,
*Sketches of an Elephant*, B1.3; Streicher, arXiv:1801.02927).

So the middle-coherent morphisms hold the identities and are closed under
composition, and since the base's generating set S (``FinCat.generators``)
generates every morphism with the identities, the data is coherent exactly
when every g in S is middle-coherent.  The sweep visits only the triples
with a middle morphism in S; if one fails, every triple is swept in the
order (f, g, h) by ``base.morphisms``, then d, so the error names the same
first triple as a sweep of every triple.  Both reductions rest on the
arrows being functors, so that is checked first, by ``validate_functor``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FinCat, CategoryError, automorphisms, subcategory
from .functors import (
    FinFunctor,
    NatTrans,
    NotAFunctor,
    NotNatural,
    compose_functors,
    functors_equal,
    identity_functor,
    validate_functor,
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


def validate_indexed(base: FinCat, fibers, arrows, compositors=None, unitors=None) -> IndexedCat:
    """Check the pseudofunctor data (see the module docstring) and return an
    ``IndexedCat``.

    ``compositors`` maps composable base pairs (f, g) to component tables (or
    ready NatTrans values); ``unitors`` maps base objects to component
    tables.  Either may be omitted entirely, defaulting to identities, which
    is only consistent for strictly functorial data.  A fiber, arrow,
    compositor or unitor for a key that names no base object, morphism or
    composable pair is an error: it is no part of the data, and keeping it
    would hide a misspelt or stale id.  The arrow at f: x→y must run from
    the fiber object given for y to the one given for x; an equal copy of a
    fiber is another category.  A compositor keeps the path (M(g), M(f))
    as its source (see ``functors.validate_nat_trans``).  Compositors are
    checked pair by pair in the order of ``base.table``, cell order (see
    ``FinCat``), so that order names the first that fails.
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
        if F.source is not fibers[base.tgt[f]] or F.target is not fibers[base.src[f]]:
            raise BadFiberFunctor(("contravariance endpoints", f))
        try:
            validate_functor(F.source, F.target, F.on_objects, F.on_morphisms)
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

    mus = {}
    for (f, g), h in base.table.items():
        fib_x = fibers[base.src[f]]
        Mf, Mg = arrows[f], arrows[g]
        raw = compositors.get((f, g))
        if isinstance(raw, NatTrans):
            raw = raw.components
        if raw is None:
            raw = {c: fib_x.id_of(Mf.ob(Mg.ob(c))) for c in Mg.source.objects}
        try:
            mu = validate_nat_trans((Mg, Mf), arrows[h], raw)  # M(f)∘M(g): Mg, then Mf
        except NotNatural as exc:
            raise CoherenceViolation(("compositor", f, g, exc.args)) from exc
        for c, m in mu.components.items():
            if m not in fib_x.inverses:
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

    _check_associativity_coherence(base, fibers, arrows, mus)

    strict = all(
        fibers[base.src[f]].is_identity(m)
        for (f, _), mu in mus.items()
        for m in mu.components.values()
    ) and all(
        fibers[x].is_identity(m) for x, eta in etas.items() for m in eta.components.values()
    )

    return IndexedCat(base, fibers, arrows, mus, etas, strict)


def _check_associativity_coherence(base, fibers, arrows, mus) -> None:
    """Light's test on the base's S (see the module docstring), with a
    sweep of every triple to name the first ``CoherenceViolation``."""
    out_of = {x: [] for x in base.objects}
    into = {x: [] for x in base.objects}
    for m in base.morphisms:
        out_of[base.src[m]].append(m)
        into[base.tgt[m]].append(m)
    table, src, tgt = base.table, base.src, base.tgt
    comps = {fg: mu.components for fg, mu in mus.items()}

    def incoherent_at(f, g, h):
        """The first object d of fiber(tgt h) where the square of (f, g, h)
        fails, or None."""
        fib = fibers[src[f]].table
        Mf, Mh = arrows[f].on_morphisms, arrows[h].on_objects
        mu_gh, mu_fg = comps[(g, h)], comps[(f, g)]
        mu_f_gh, mu_fg_h = comps[(f, table[(g, h)])], comps[(table[(f, g)], h)]
        for d in fibers[tgt[h]].objects:
            if fib[(Mf[mu_gh[d]], mu_f_gh[d])] != fib[(mu_fg[Mh[d]], mu_fg_h[d])]:
                return d
        return None

    if all(
        incoherent_at(f, g, h) is None
        for g in base.generators
        for f in into[src[g]]
        for h in out_of[tgt[g]]
    ):
        return
    for f in base.morphisms:
        for g in out_of[tgt[f]]:
            for h in out_of[tgt[g]]:
                d = incoherent_at(f, g, h)
                if d is not None:
                    raise CoherenceViolation(((f, g, h), d))
    raise CategoryError("internal error: Light's test failed, the full check held")


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
