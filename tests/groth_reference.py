"""Reference cartesian-morphism search: one ``cartesian_factor`` per pair.

This is how ``fibcat.groth`` decided cartesian morphisms and fibrations
before ``is_cartesian`` became a per-object hom-set bijection and one scan
began to serve ``is_fibration`` and ``choose_cleaving``: every pair
(g, theta) with P(theta) = g;f is factored on its own, both functions walk
the lifts themselves, and ``choose_cleaving`` checks its entries once more.
``reindexing`` factors each fiber morphism on its own, as the library did
before ``straighten`` found every factor in one search.  It is kept only as the oracle for ``test_groth_reference.py`` and imports
nothing private from ``fibcat``.  Its caches live under ``reference_*`` keys
so they never share results with the library.
"""

from __future__ import annotations

from fibcat.core import Check, UnknownMorphism
from fibcat.functors import FinFunctor, validate_functor
from fibcat.groth import Cleaving, NotAFibration, fiber, fiber_objects


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


def over_map(P: FinFunctor) -> dict:
    """Total morphisms grouped by (base image, total target), cached."""
    cache = P.cache("reference_over")
    if "map" not in cache:
        m = {}
        for phi in P.source.morphisms:
            m.setdefault((P.mor(phi), P.source.tgt[phi]), []).append(phi)
        cache["map"] = m
    return cache["map"]


def is_cartesian(P: FinFunctor, phi: str) -> bool:
    """Full universal property: every compatible morphism factors uniquely.

    For every g composable with P(phi) and every theta over P(phi)∘g into
    tgt(phi) there must be exactly one psi over g with phi∘psi = theta.
    """
    A, X = P.source, P.target
    if phi not in A.src:
        raise UnknownMorphism(phi)
    cache = P.cache("reference_cartesian")
    if phi in cache:
        return cache[phi]
    f = P.mor(phi)
    b = A.tgt[phi]
    over = over_map(P)
    result = all(
        cartesian_factor(P, phi, g, theta) is not None
        for g in X.morphisms
        if X.tgt[g] == X.src[f]
        for theta in over.get((X.comp(g, f), b), ())
    )
    cache[phi] = result
    return result


def is_fibration(P: FinFunctor) -> Check:
    """Every base morphism has a cartesian lift to every object over its target."""
    X = P.target
    for f in X.morphisms:
        y = X.tgt[f]
        for b in fiber_objects(P, y):
            lifts = over_map(P).get((f, b), ())
            if not any(is_cartesian(P, phi) for phi in lifts):
                return Check(False, (f, b))
    return Check(True)


def choose_cleaving(P: FinFunctor) -> Cleaving:
    """Deterministic cleaving: the least cartesian lift, identities for identities."""
    X = P.target
    A = P.source
    entries = {}
    over = over_map(P)
    for f in X.morphisms:
        y = X.tgt[f]
        for b in fiber_objects(P, y):
            if X.is_identity(f):
                entries[(f, b)] = A.id_of(b)
                continue
            for phi in over.get((f, b), ()):  # hom lists are sorted
                if is_cartesian(P, phi):
                    entries[(f, b)] = phi
                    break
            else:
                raise NotAFibration((f, b))
    for (f, b), phi in entries.items():
        if not is_cartesian(P, phi):
            raise NotAFibration((f, b))
    return Cleaving(P, entries)


def reindexing(P: FinFunctor, cleaving: Cleaving, f: str) -> FinFunctor:
    """Fiber-to-fiber functor induced by the cleaving along f: x→y, one
    ``cartesian_factor`` per fiber morphism."""
    X, A = P.target, P.source
    x, y = X.src[f], X.tgt[f]
    fib_y, fib_x = fiber(P, y), fiber(P, x)
    on_objects = {b: A.src[cleaving.lift(f, b)] for b in fib_y.objects}
    on_morphisms = {}
    for psi in fib_y.morphisms:
        b, b2 = fib_y.src[psi], fib_y.tgt[psi]
        theta = A.comp(cleaving.lift(f, b), psi)
        w = cartesian_factor(P, cleaving.lift(f, b2), X.id_of(x), theta)
        if w is None:
            raise NotAFibration((f, b2))
        on_morphisms[psi] = w
    return validate_functor(fib_y, fib_x, on_objects, on_morphisms)
