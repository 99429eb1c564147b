"""The Grothendieck construction and the theory of fibrations it carries.

Total-category objects are pairs (x, a) of a base object and a fiber object;
morphisms are pairs (f, k) with f: x→y in the base and k: a → M(f)(b) in the
fiber over x.  Composition twists the second factor through the arrow
functors and the compositor:

    (g, l)∘(f, k) = (g∘f,  mu[f,g](c) ∘ M(f)(l) ∘ k)

Identities are (id_x, eta_x(a)), which is (id_x, id_a) whenever the unitors
are identities.

``grothendieck`` lists the morphisms (f, k, b) by f in base order, b in
fiber order and k by source and id: one segment per (f, b), the morphisms
into M(f)(b) of the fiber over x.  It fills every cell of the total's
coding (see ``core.Coding``) from the coding of the base and the arrays of
``M.coding`` (see ``indexed.IndexedCoding``), where the fibers are joined
as the coding of their disjoint union, M(f) is an array over codes and
mu[f, g](c) a code; ``validate_indexed`` made that coding, so the data is
not converted again.  For p = (f, k, b): (x, a) → Y = (y, b) and q = (g,
l, c) out of Y,

    p;q = (f;g, k;u, c),  u = M(f)(l);mu[f, g](c).

u does not depend on k, only on f, Y and q, so it is composed once per (f,
Y, q), and so are the three tests that decide whether the composite exists:
M(f)(l) starts at M(f)(b), where every k ends, M(f)(l) is composable with
mu[f, g](c), and u ends at M(f;g)(c).  Each cell then costs a few gathers,
a round of cells at a time: k;u from the joined fiber cells, and its code
from the start of the segment of (f;g, c) plus the rank of k;u among the
fiber codes into its target.  A composite that fails a test has no cell,
which raises ``CompositeEndpointViolation((p, q))`` for the first such
(p, q) in cell order; only an indexed category built without
``validate_indexed`` has one.  ``tests/core_reference.py`` keeps the
formula, one composite at a time, as the oracle.

For any functor P, phi: a→b over f: x→y is cartesian when, for every object
t, psi ↦ (P(psi), psi;phi) is a bijection from hom(t, a) onto the pairs
(g: P(t)→x, theta: t→b) with P(theta) = g;f: each hom-square is a pullback
of sets, the per-object form ``limits`` uses for pullback terminality.

``straighten`` is the converse (Gray, "Fibred and cofibred categories",
1966; Streicher, arXiv:1801.02927): a fibration P and a cleaving, a
cartesian lift(f, b) of each f: x→y to each b over y, give the indexed
category with fibers ``fiber(P, x)``.  Each theta: a→b over f is w;lift(f,
b) for exactly one w over id_x, its vertical part, so the composites
w;lift(f, b), over every lift and every w over an identity into its
source, are every morphism once: one search writes each w at the code of
w;lift(f, b).  M(f) sends b to the source of lift(f, b) and psi: b→b2 to
the vertical part of lift(f, b);psi, mu[f, g](c) is the vertical part of
lift(f, M(g)(c));lift(g, c) and eta[x](a) that of id_a.  Then (f, k, b) ↦
k;lift(f, b) is an isomorphism from the total back to the source of P.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Check,
    FinCat,
    CategoryError,
    CompositeEndpointViolation,
    UnknownMorphism,
    from_cells,
    runs,
    subcategory,
)
from .functors import FinFunctor, NatTrans, validate_functor
from .indexed import IndexedCat, validate_indexed


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
    base, fibers, arrows = M.base, M.fibers, M.arrows
    obj_id, obj_of = {}, {}
    for x in base.objects:
        for a in fibers[x].objects:
            t = pair_id(x, a)
            obj_id[(x, a)] = t
            obj_of[t] = (x, a)
    if len(obj_of) != len(obj_id):
        raise CategoryError("total object id collision")

    # The morphisms (f, k, b), one segment per (f, b): the segment of the
    # j-th b over tgt f starts at firsts[first[code of f] + j].  Each run of
    # it with one source of k is a row (code of f, j, first code of k in its
    # fiber, length) of ``runs``.
    mor_id, homs, firsts, runs = {}, {}, [], []
    first = np.empty(len(base.morphisms), np.int64)  # per base code
    for f in base.morphisms:
        x, y = base.src[f], base.tgt[f]
        fib_x, Mf, code = fibers[x], arrows[f], base.coding.code[f]
        first[code] = len(firsts)
        for j, b in enumerate(fibers[y].objects):
            mfb, Y = Mf.ob(b), obj_id[(y, b)]
            firsts.append(len(mor_id))
            for a in fib_x.objects:
                ks = fib_x.hom(a, mfb)
                if ks:
                    ids = [_enc_mor(f, k, b) for k in ks]
                    mor_id.update(zip([(f, k, b) for k in ks], ids))
                    homs.setdefault((obj_id[(x, a)], Y), []).extend(ids)
                    runs.append((code, j, fib_x.coding.start[(a, mfb)], len(ks)))
    mor_of = {t: TotalMor(f, k) for (f, k, _), t in mor_id.items()}
    if len(mor_of) != len(mor_id):
        raise CategoryError("total morphism id collision")

    homs = {xy: tuple(sorted(ms)) for xy, ms in homs.items()}
    # (id x, eta[a], a) runs from (x, src eta[a]) to (x, a)
    identity, number, C = {}, dict(zip(obj_of, range(len(obj_of)))), M.coding  # numbers as in C
    for t in sorted(obj_of):
        x, a = obj_of[t]
        eta = C.eta[number[t]]
        identity[t] = mor_id.get((base.id_of(x), C.ids[eta], a)) if C.src[eta] == number[t] else None
    objects = np.array([number[t] for t in identity], np.int64)
    runs, firsts = np.array(runs, np.int64).reshape(-1, 4), np.array(firsts, np.int64)
    total = from_cells(identity, homs, lambda T: _fill(T, M, objects, mor_id, runs, firsts, first))
    proj = validate_functor(
        total,
        base,
        {t: xa[0] for t, xa in obj_of.items()},
        {t: tm.base_part for t, tm in mor_of.items()},
    )
    return GrothResult(M, total, proj, obj_of, mor_of, obj_id, mor_id)


def _fill(T, M: IndexedCat, bs, mor_id: dict, runs, firsts, first) -> None:
    """Write every cell of the total's coding ``T`` by the gathers of the
    module docstring, or raise ``CompositeEndpointViolation((p, q))`` for the
    first cell in cell order whose composite is not there.  ``bs`` holds
    the number of b in the coding of the joined fibers, ``M.coding``, for
    each total object (y, b)."""
    B, C = M.base.coding, M.coding
    code0, obj0, src, tgt, row, offset, cells = C.code0, C.obj0, C.src, C.tgt, C.row, C.offset, C.cells
    image, image_ob, at, ob_at, mu, mu_at = C.image, C.image_ob, C.at, C.ob_at, C.mu, C.mu_at

    # Each total code's (f, k, b): its base code, its joined fiber code and
    # the joined number of b; perm[i] is the code of the i-th of ``mor_id``,
    # and seg_at[h] + c is the index in ``firsts`` of the segment of (h, c).
    n, (f_run, j_run, k_run, sizes) = len(mor_id), runs.T
    perm = np.fromiter(map(T.code.__getitem__, mor_id.values()), np.int64, n)
    f_of, k_of, b_of = (np.empty(n, np.int64) for _ in range(3))
    f_of[perm] = np.repeat(f_run, sizes)
    b_of[perm] = np.repeat(obj0[B.tgt[f_run]] + j_run, sizes)
    k_of[perm] = np.arange(n) + np.repeat(code0[B.src[f_run]] + k_run - np.cumsum(sizes) + sizes, sizes)
    seg_at = first - obj0[B.tgt]

    # Per total object Y = (y, b), base code f into y and code q = (g, l, c)
    # out of Y, at place ubase[Y] + (place of f into y) * nq[Y] + (place of
    # q out of Y): the column of u = M(f)(l);mu[f, g](c) among the morphisms
    # out of its source, and the first total payload of the segment of (f;g,
    # c), -1 where u is not there: M(f)(l) does not start at M(f)(b), is not
    # composable with mu, or u does not end at M(f;g)(c).
    ys = np.searchsorted(obj0, bs, "right") - 1
    nq = np.diff(T.out)
    width = np.array([len(fs) for fs in B.into], np.int64)[ys] * nq
    ubase = np.cumsum(width) - width
    col, start = np.empty(int(width.sum()), np.int64), np.empty(int(width.sum()), np.int64)
    for Y, (y, b) in enumerate(zip(ys.tolist(), bs.tolist())):
        fs, q = B.into[y][:, None], slice(T.out[Y], T.out[Y + 1])
        g, l, c = f_of[q], k_of[q], b_of[q]
        bc = B.cell(fs, g)
        fg, mfl, mu_c = B.cells[bc], image[at[fs] + l], mu[mu_at[bc] + c]
        ok = (src[mfl] == image_ob[ob_at[fs] + b]) & (tgt[mfl] == src[mu_c])
        u = cells[np.where(ok, row[mfl] + offset[mu_c], 0)]
        ok &= tgt[u] == image_ob[ob_at[fg] + c]
        span = slice(ubase[Y], ubase[Y] + width[Y])
        col[span] = np.where(ok, offset[u], 0).ravel()
        start[span] = np.where(ok, firsts[seg_at[fg] + c], -1).ravel()

    # Cell (p, q) for p = (f, k, b) into Y: the code of (f;g, k;u, c), the
    # rank of k;u in its segment past the segment's start, a round of
    # ``T.rounds()`` at a time.
    shift = ubase[T.tgt] + B.ranks[f_of] * nq[T.tgt] - T.row[:-1]
    k_row = row[k_of]
    for lo, hi in T.rounds():
        c0, c1 = T.row[lo], T.row[hi]
        sizes = np.diff(T.row[lo : hi + 1])
        u_at = np.arange(c0, c1) + np.repeat(shift[lo:hi], sizes)
        s = start[u_at]
        if (s < 0).any():
            cell = c0 + int(np.argmax(s < 0))
            p = int(np.searchsorted(T.row, cell, "right")) - 1
            q = cell - T.row[p] + T.out[T.tgt[p]]
            raise CompositeEndpointViolation((T.ids[p], T.ids[q]))
        T.cells[c0:c1] = perm[s + C.ranks[cells[np.repeat(k_row[lo:hi], sizes) + col[u_at]]]]


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
    docstring at every t, as equal sizes and no two psi with one image,
    counted on the cells of the two codings with ``P.code_map``.

    Per t, |hom(t, a)| must equal the number of pairs: the sum over theta:
    t→b of the number of g: P(t)→x with g;f = P(theta), read off a count of
    every g;f, as the source of g;f is that of g.  An object with no map
    into b has no pair and no map into a either, so the sizes are compared
    at every object at once.  No two psi may share (P(psi), psi;phi); as
    psi;phi starts at t, pairs from distinct t never meet, so the pairs of
    all t are compared at once."""
    A, X = P.source, P.target
    if phi not in A.src:
        raise UnknownMorphism(phi)
    cache = P.cache("cartesian")
    if phi in cache:
        return cache[phi]
    ac, xc, m = A.coding, X.coding, P.code_map
    p = ac.code[phi]
    f, psis, thetas = m[p], ac.into[ac.src[p]], ac.into[ac.tgt[p]]
    sizes = np.bincount(ac.src[psis], minlength=len(A.objects))
    over_f = np.bincount(xc.cells[xc.cell(xc.into[xc.src[f]], f)], minlength=len(X.morphisms))
    pairs = np.bincount(ac.src[thetas], weights=over_f[m[thetas]], minlength=len(A.objects))
    images = m[psis] * len(A.morphisms) + ac.cells[ac.cell(psis, p)]
    cache[phi] = result = np.array_equal(sizes, pairs) and len(np.unique(images)) == len(psis)
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


def choose_cleaving(P: FinFunctor) -> Cleaving:
    """Deterministic cleaving: the least cartesian lift, identities for identities."""
    lifts, missing = _least_lifts(P)
    if missing is not None:
        raise NotAFibration(missing)
    return Cleaving(P, lifts)


def straighten(P: FinFunctor, cleaving: Cleaving = None) -> IndexedCat:
    """The indexed category of P and a cleaving, ``choose_cleaving(P)`` if
    none is given (see the module docstring), checked by ``validate_indexed``
    on its arrows as bare functors.  The first (f, b), by f and then b, whose
    lift is missing, not over f into b or not cartesian raises
    ``NotAFibration((f, b))``, as ``choose_cleaving`` does."""
    X, A, cleaving = P.target, P.source, choose_cleaving(P) if cleaving is None else cleaving
    ac, xc, m = A.coding, X.coding, P.code_map
    number, fibers = dict(zip(A.objects, range(len(A.objects)))), {x: fiber(P, x) for x in X.objects}
    obs = {y: np.array([number[b] for b in F.objects], np.int64) for y, F in fibers.items()}  # numbers over y
    lift = np.full((len(xc.ids), len(A.objects)), -1, np.int64)  # [code of f, number of b]
    for f in X.morphisms:
        for b in fibers[X.tgt[f]].objects:
            phi = cleaving.entries.get((f, b))
            if phi not in A.src or P.mor(phi) != f or A.tgt[phi] != b or not is_cartesian(P, phi):
                raise NotAFibration((f, b))
            lift[xc.code[f], number[b]] = ac.code[phi]

    # vertical[theta]: the w over an identity with w;lift(P(theta), tgt
    # theta) = theta, written at the cell of every w into the source of a lift.
    ws = np.flatnonzero(np.isin(m, xc.units))
    ws = ws[np.argsort(ac.tgt[ws], kind="stable")]
    ends, ls = np.bincount(ac.tgt[ws], minlength=len(A.objects)), lift[lift >= 0]
    i, j = runs((np.cumsum(ends) - ends)[ac.src[ls]], ends[ac.src[ls]])
    vertical = np.empty(len(ac.ids), np.int64)
    vertical[ac.cells[ac.cell(ws[j], ls[i])]] = ws[j]

    def parts(k, l):
        """The vertical parts of the composites k;l, as ids."""
        return map(ac.ids.__getitem__, vertical[ac.cells[ac.cell(k, l)]].tolist())

    arrows, compositors = {}, {}
    for f in X.morphisms:
        y, ls = X.tgt[f], lift[xc.code[f]]
        F, ks = fibers[y], np.flatnonzero(m == xc.code[X.id_of(y)])  # the codes of fiber(y)
        on_objects = dict(zip(F.objects, map(A.objects.__getitem__, ac.src[ls[obs[y]]].tolist())))
        arrows[f] = FinFunctor(F, fibers[X.src[f]], on_objects, dict(zip(F.coding.ids, parts(ls[ac.src[ks]], ks))))
    for f, g in zip(*(map(xc.ids.__getitem__, k.tolist()) for k in xc.pairs())):
        lg = lift[xc.code[g], obs[X.tgt[g]]]
        compositors[(f, g)] = dict(zip(fibers[X.tgt[g]].objects, parts(lift[xc.code[f], ac.src[lg]], lg)))
    unitors = {x: dict(zip(F.objects, parts(ac.units[obs[x]], ac.units[obs[x]]))) for x, F in fibers.items()}  # id_a;id_a
    return validate_indexed(X, fibers, arrows, compositors, unitors)


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
