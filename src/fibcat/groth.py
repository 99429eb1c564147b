"""The Grothendieck construction and the theory of fibrations it carries.

Total-category objects are pairs (x, a) of a base object and a fiber object;
morphisms are pairs (f, k) with f: x→y in the base and k: a → M(f)(b) in the
fiber over x.  Composition twists the second factor through the arrow
functors and the compositor:

    (g, l)∘(f, k) = (g∘f,  mu[f,g](c) ∘ M(f)(l) ∘ k)

Identities are (id_x, eta_x(a)), which is (id_x, id_a) whenever the unitors
are identities.

For any functor P, phi: a→b over f: x→y is cartesian when, for every object
t, psi ↦ (P(psi), psi;phi) is a bijection from hom(t, a) onto the pairs
(g: P(t)→x, theta: t→b) with P(theta) = g;f: each hom-square is a pullback
of sets, the per-object form ``limits`` uses for pullback terminality.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .core import (
    Check,
    FinCat,
    CategoryError,
    UnknownMorphism,
    assemble,
    per_composite,
    subcategory,
)
from .functors import FinFunctor, NatTrans, validate_functor
from .indexed import IndexedCat


class FibrationError(CategoryError):
    pass


class NotAFibration(FibrationError):
    pass


class TriangleDoesNotCommute(FibrationError):
    pass


@dataclass(frozen=True)
class TotalMor:
    base_part: str
    fiber_part: str


@dataclass(frozen=True, eq=False)
class GrothResult:
    """Total category and projection, plus the pair encodings both ways."""

    indexed: IndexedCat
    total: FinCat
    proj: FinFunctor
    obj_of: dict  # total object id -> (x, a)
    mor_of: dict  # total morphism id -> TotalMor
    obj_id: dict  # (x, a) -> total object id
    mor_id: dict  # (f, k, b) -> total morphism id


def pair_id(a: str, b: str) -> str:
    """Id of the pair (a, b): a total-category object, and an object or a
    morphism of ``generators.product_category``, which shares the format so
    that the total category of a constant indexed category is the product
    on the nose."""
    return "(%s@%s)" % (a, b)


def _enc_mor(f: str, k: str, b: str) -> str:
    # The target fiber object disambiguates (f, k) when M(f) identifies
    # fiber objects; without it distinct morphisms could share an id.
    return "(%s@%s@%s)" % (f, k, b)


def grothendieck(M: IndexedCat) -> GrothResult:
    """Build and fully validate the total category and its projection."""
    base, fibers, arrows, mus = M.base, M.fibers, M.arrows, M.compositors
    obj_id, obj_of = {}, {}
    for x in base.objects:
        for a in fibers[x].objects:
            t = pair_id(x, a)
            obj_id[(x, a)] = t
            obj_of[t] = (x, a)
    if len(obj_of) != len(obj_id):
        raise CategoryError("total object id collision")

    # A morphism (f, k): (x, a) → (y, b) has payload (f, k, b).
    mor_id, blocks = {}, {}
    for f in base.morphisms:
        x, y = base.src[f], base.tgt[f]
        fib_x, Mf = fibers[x], arrows[f]
        for b in fibers[y].objects:
            mfb = Mf.ob(b)
            for a in fib_x.objects:
                ks = fib_x.hom(a, mfb)
                if ks:
                    block = blocks.setdefault((obj_id[(x, a)], obj_id[(y, b)]), {})
                    for k in ks:
                        block[(f, k, b)] = mor_id[(f, k, b)] = _enc_mor(f, k, b)
    mor_of = {t: TotalMor(f, k) for (f, k, _), t in mor_id.items()}
    if len(mor_of) != len(mor_id):
        raise CategoryError("total morphism id collision")

    def compose(p, q):
        # second projection of g applied to l, then the compositor at c
        (f, k, _), (g, l, c) = p, q
        fib = fibers[base.src[f]].table
        return (
            base.table[(f, g)],
            fib[(fib[(k, arrows[f].on_morphisms[l])], mus[(f, g)].components[c])],
            c,
        )

    identities = {
        obj_id[(x, a)]: (base.id_of(x), M.eta(x).at(a), a)
        for x in base.objects
        for a in fibers[x].objects
    }
    total = assemble(identities, blocks, per_composite(blocks, compose))
    proj = validate_functor(
        total,
        base,
        {t: xa[0] for t, xa in obj_of.items()},
        {t: tm.base_part for t, tm in mor_of.items()},
    )
    return GrothResult(M, total, proj, obj_of, mor_of, obj_id, mor_id)


# ---------------------------------------------------------------------------
# Cartesian morphisms and fibrations, for arbitrary functors
# ---------------------------------------------------------------------------


def _over_map(P: FinFunctor) -> dict:
    """Total morphisms grouped by (base image, total target), cached."""
    over = P.cache("over")
    if not over:
        for phi in P.source.morphisms:
            over.setdefault((P.mor(phi), P.source.tgt[phi]), []).append(phi)
    return over


def is_cartesian(P: FinFunctor, phi: str) -> bool:
    """Full universal property: the hom-set bijection of the module
    docstring at every t, as equal sizes and no two psi with one image.  An
    object with no map into b has no pair and no map into a either."""
    A, X = P.source, P.target
    if phi not in A.src:
        raise UnknownMorphism(phi)
    cache = P.cache("cartesian")
    if phi in cache:
        return cache[phi]
    a, b, f = A.src[phi], A.tgt[phi], P.mor(phi)

    def bijective(t):
        psis = A.hom(t, a)
        over_f = Counter(X.table[(g, f)] for g in X.hom(P.ob(t), X.src[f]))
        pairs = sum(over_f[P.mor(theta)] for theta in A.hom(t, b))
        return len(psis) == pairs == len({(P.mor(psi), A.table[(psi, phi)]) for psi in psis})

    cache[phi] = result = all(bijective(t) for t in A.objects if A.hom(t, b))
    return result


def fiber_objects(P: FinFunctor, x: str) -> tuple:
    return tuple(t for t in P.source.objects if P.ob(t) == x)


def fiber(P: FinFunctor, x: str) -> FinCat:
    """Subcategory of everything sitting over x and id_x."""
    P.target.require_object(x)
    cache = P.cache("fiber")
    if x in cache:
        return cache[x]
    A = P.source
    idx = P.target.id_of(x)
    fib = subcategory(A, fiber_objects(P, x), [m for m in A.morphisms if P.mor(m) == idx])
    cache[x] = fib
    return fib


def fiber_inclusion(P: FinFunctor, x: str) -> FinFunctor:
    fib = fiber(P, x)
    return validate_functor(
        fib,
        P.source,
        {o: o for o in fib.objects},
        {m: m for m in fib.morphisms},
    )


def _least_lifts(P: FinFunctor):
    """The least cartesian lift of each (f, b), identities for identities,
    with f in base order and b in fiber order, and the first (f, b) that has
    no cartesian lift (None when every one has)."""
    X, A = P.target, P.source
    over = _over_map(P)
    lifts = {}
    for f in X.morphisms:
        for b in fiber_objects(P, X.tgt[f]):
            candidates = (A.id_of(b),) if X.is_identity(f) else over.get((f, b), ())
            phi = next((phi for phi in candidates if is_cartesian(P, phi)), None)
            if phi is None:
                return lifts, (f, b)
            lifts[(f, b)] = phi
    return lifts, None


def is_fibration(P: FinFunctor) -> Check:
    """Every base morphism has a cartesian lift to every object over its target."""
    _, missing = _least_lifts(P)
    return Check(True) if missing is None else Check(False, missing)


@dataclass(frozen=True, eq=False)
class Cleaving:
    P: FinFunctor
    entries: dict  # (base morphism f, total object b over tgt f) -> lift

    def lift(self, f: str, b: str) -> str:
        return self.entries[(f, b)]

    def reindexed_object(self, f: str, b: str) -> str:
        return self.P.source.src[self.entries[(f, b)]]


def choose_cleaving(P: FinFunctor) -> Cleaving:
    """Deterministic cleaving: the least cartesian lift, identities for identities."""
    lifts, missing = _least_lifts(P)
    if missing is not None:
        raise NotAFibration(missing)
    return Cleaving(P, lifts)


def cartesian_factor(P: FinFunctor, phi: str, g: str, theta: str):
    """The unique psi over g with phi∘psi = theta; None when there is no
    such psi or more than one."""
    A = P.source
    found = None
    for psi in A.hom(A.src[theta], A.src[phi]):
        if P.mor(psi) == g and A.comp(psi, phi) == theta:
            if found is not None:
                return None
            found = psi
    return found


def reindexing(P: FinFunctor, cleaving: Cleaving, f: str) -> FinFunctor:
    """Fiber-to-fiber functor induced by the cleaving along f: x→y."""
    X = P.target
    x, y = X.src[f], X.tgt[f]
    fib_y, fib_x = fiber(P, y), fiber(P, x)
    on_objects = {b: cleaving.reindexed_object(f, b) for b in fib_y.objects}
    on_morphisms = {}
    A = P.source
    idx = X.id_of(x)
    for psi in fib_y.morphisms:
        b, b2 = fib_y.src[psi], fib_y.tgt[psi]
        theta = A.comp(cleaving.lift(f, b), psi)
        w = cartesian_factor(P, cleaving.lift(f, b2), idx, theta)
        if w is None:
            raise NotAFibration((f, b2))
        on_morphisms[psi] = w
    return validate_functor(fib_y, fib_x, on_objects, on_morphisms)


def canonical_lift(gr: GrothResult, f: str, b: str) -> str:
    """The lift (f, id) of f to the total object b over tgt(f)."""
    M = gr.indexed
    x = M.base.src[f]
    _, b_fib = gr.obj_of[b]
    return gr.mor_id[(f, M.fiber_at(x).id_of(M.arrow_at(f).ob(b_fib)), b_fib)]


def check_fibred_functor(H: FinFunctor, P: FinFunctor, Q: FinFunctor) -> Check:
    """H commutes with the projections and preserves cartesian morphisms."""
    if H.source is not P.source or H.target is not Q.source:
        raise TriangleDoesNotCommute("endpoint categories differ")
    for x in P.source.objects:
        if Q.ob(H.ob(x)) != P.ob(x):
            raise TriangleDoesNotCommute(("object", x))
    for m in P.source.morphisms:
        if Q.mor(H.mor(m)) != P.mor(m):
            raise TriangleDoesNotCommute(("morphism", m))
    for phi in P.source.morphisms:
        if is_cartesian(P, phi) and not is_cartesian(Q, H.mor(phi)):
            return Check(False, phi)
    return Check(True)


def check_fibred_nat_trans(beta: NatTrans, H: FinFunctor, K: FinFunctor, P: FinFunctor, Q: FinFunctor) -> Check:
    """All components of beta are vertical (project to identities)."""
    check_fibred_functor(H, P, Q)
    check_fibred_functor(K, P, Q)
    for a in P.source.objects:
        comp = beta.at(a)
        if Q.mor(comp) != P.target.id_of(P.ob(a)):
            return Check(False, (a, comp))
    return Check(True)


def fiber_iso_to_indexed_fiber(gr: GrothResult, x: str) -> FinFunctor:
    """The canonical isomorphism M(x) → fiber of the projection over x."""
    M = gr.indexed
    fib_x = M.fiber_at(x)
    fib_total = fiber(gr.proj, x)
    eta = M.eta(x)
    idx = M.base.id_of(x)
    on_objects = {a: gr.obj_id[(x, a)] for a in fib_x.objects}
    on_morphisms = {}
    for k in fib_x.morphisms:
        b = fib_x.tgt[k]
        on_morphisms[k] = gr.mor_id[(idx, fib_x.comp(k, eta.at(b)), b)]
    return validate_functor(fib_x, fib_total, on_objects, on_morphisms)
