"""Reference cartesian-morphism search: one ``cartesian_factor`` per pair.

This is how ``fibcat.groth`` decided cartesian morphisms and fibrations
before ``is_cartesian`` became a per-object hom-set bijection and one scan
began to serve ``is_fibration`` and ``choose_cleaving``: every pair
(g, theta) with P(theta) = g;f is factored on its own, both functions walk
the lifts themselves, and ``choose_cleaving`` checks its entries once more.
``reindexing`` factors each fiber morphism on its own, as the library did
before ``straighten`` found every factor in one search.

Two later library forms are kept as oracles as well.
``is_cartesian_by_counts`` is the per-object hom-set bijection, decided for
one phi at a time by ``bincount``s over the codings, as ``is_cartesian`` did
before ``groth`` decided every phi of a functor at once, by one labelled
sweep and one total per (b, f); it is fast enough to check that mask on
functors too large for the per-pair search.  ``check_fibred_functor`` walks
the objects and the morphisms one id at a time, as the library did before
it compared the code maps and the cartesian masks.

All of it is kept only as the oracle for ``test_groth_reference.py`` and
imports nothing private from ``fibcat``.  Its caches live under
``reference_*`` keys so they never share results with the library.
"""

from __future__ import annotations

import numpy as np

from fibcat.core import Check, UnknownMorphism
from fibcat.functors import FinFunctor, validate_functor
from fibcat.groth import Cleaving, NotAFibration, TriangleDoesNotCommute, fiber, fiber_objects


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


def is_cartesian_by_counts(P: FinFunctor, phi: str) -> bool:
    """The hom-set bijection at every t for one phi: a→b over f: x→y.

    Per t, |hom(t, a)| must equal the number of pairs: the sum over theta:
    t→b of the number of g: P(t)→x with g;f = P(theta), read off a count of
    every g;f, as the source of g;f is that of g.  No two psi into a may
    share (P(psi), psi;phi); as psi;phi starts at t, pairs from distinct t
    never meet, so the pairs of all t are compared at once."""
    A, X = P.source, P.target
    if phi not in A.src:
        raise UnknownMorphism(phi)
    cache = P.cache("reference_counts")
    if phi not in cache:
        ac, xc, m = A.coding, X.coding, P.code_map
        p = ac.code[phi]
        f, psis, thetas = m[p], ac.into[ac.src[p]], ac.into[ac.tgt[p]]
        sizes = np.bincount(ac.src[psis], minlength=len(A.objects))
        over_f = np.bincount(xc.cells[xc.cell(xc.into[xc.src[f]], f)], minlength=len(X.morphisms))
        pairs = np.bincount(ac.src[thetas], weights=over_f[m[thetas]], minlength=len(A.objects))
        images = m[psis] * len(A.morphisms) + ac.cells[ac.cell(psis, p)]
        cache[phi] = np.array_equal(sizes, pairs) and len(np.unique(images)) == len(psis)
    return cache[phi]


def check_fibred_functor(H: FinFunctor, P: FinFunctor, Q: FinFunctor) -> Check:
    """H commutes with the projections and preserves cartesian morphisms,
    one object and one morphism at a time, by id."""
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
