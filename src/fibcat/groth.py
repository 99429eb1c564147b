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
``_cartesian`` decides every phi of P at once, once per functor, by two
tests on into(a), the morphisms into a: psi ↦ (P(psi), psi;phi) is
injective there (``Coding.distinct`` labelled by P, the mono scan with a
label per row), and |into(a)| = N(b, f), the sum over g into x of the
theta into b with P(theta) = g;f, which depends on (b, f) alone.  Each psi
gives one pair at its own source t, as psi;phi starts at t, so injectivity
bounds |hom(t, a)| by the pairs at t; the bounds sum to |into(a)| ≤ N(b,
f), so equal totals make every one tight, and conversely bijections at
every t pass both tests.  ``is_cartesian``, ``is_fibration``,
``choose_cleaving``, ``straighten`` and ``check_fibred_functor`` read it.

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
        for j, (b, i) in enumerate(zip(fibers[y].objects, Mf.ob_map.tolist())):
            mfb, Y = Mf.target.objects[i], obj_id[(y, b)]
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


def _cartesian(P: FinFunctor) -> np.ndarray:
    """The mask of the cartesian codes of ``P.source``, kept in
    ``P.cache("cartesian")``, by the two tests of the module docstring, psi
    labelled by P(psi).  N(b, f) counts the codes keyed (tgt, P) = (b, g;f)
    over the g into src f."""
    cache = P.cache("cartesian")
    if "mask" not in cache:
        ac, xc, m, n = P.source.coding, P.target.coding, P.code_map, len(P.target.morphisms)
        keys, which, count = np.unique(ac.tgt.astype(np.int64) * n + m, return_inverse=True, return_counts=True)
        b, f = np.divmod(keys, n)
        into = np.bincount(xc.tgt, minlength=len(xc.units))
        i, g = runs((np.cumsum(into) - into)[xc.src[f]], into[xc.src[f]])
        want = b[i] * n + xc.cells[xc.cell(np.argsort(xc.tgt, kind="stable")[g], f[i])]
        at = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        pairs = np.bincount(i, np.where(keys[at] == want, count[at], 0), len(keys))
        sizes = np.bincount(ac.tgt, minlength=len(ac.units))[ac.src]  # |into(a)| for each phi
        cache["mask"] = ac.distinct(m) & (sizes == pairs[which])
    return cache["mask"]


def is_cartesian(P: FinFunctor, phi: str) -> bool:
    """Whether phi is cartesian for P: its entry in ``_cartesian(P)``."""
    P.source.require_morphism(phi)
    return bool(_cartesian(P)[P.source.coding.code[phi]])


def fiber_objects(P: FinFunctor, x: str) -> tuple:
    """The objects over x, in the order of ``P.source.objects``."""
    P.target.require_object(x)
    over = np.flatnonzero(P.ob_map == P.target.coding.src[P.target.coding.code[P.target.id_of(x)]])
    return tuple(map(P.source.objects.__getitem__, over.tolist()))


def fiber(P: FinFunctor, x: str) -> FinCat:
    """Subcategory of everything sitting over x and id_x."""
    cache = P.cache("fiber")
    if x not in cache:
        objects, over = fiber_objects(P, x), np.flatnonzero(P.code_map == P.target.coding.code[P.target.id_of(x)])
        cache[x] = subcategory(P.source, objects, [P.source.coding.ids[c] for c in over.tolist()])
    return cache[x]


def fiber_inclusion(P: FinFunctor, x: str) -> FinFunctor:
    fib = fiber(P, x)
    return validate_functor(
        fib,
        P.source,
        {o: o for o in fib.objects},
        {m: m for m in fib.morphisms},
    )


def _least_lifts(P: FinFunctor):
    """The least cartesian lift of each (f, b) by id, identities for
    identities, with f in base order and b in fiber order, None where there
    is none; and the first (f, b) that has none, or None."""
    X, A, m, ac, n = P.target, P.source, P.code_map, P.source.coding, len(P.source.objects)
    by_id = np.fromiter(map(ac.code.__getitem__, A.morphisms), np.int64, len(A.morphisms))
    cart = by_id[_cartesian(P)[by_id]]
    _, first = np.unique(m[cart] * n + ac.tgt[cart], return_index=True)
    least = {(X.coding.ids[m[c]], A.objects[ac.tgt[c]]): ac.ids[c] for c in cart[first].tolist()}
    pairs = [(f, b) for f in X.morphisms for b in fiber_objects(P, X.tgt[f])]
    lifts = {(f, b): A.id_of(b) if X.is_identity(f) else least.get((f, b)) for f, b in pairs}
    return lifts, next((fb for fb, phi in lifts.items() if phi is None), None)


def is_fibration(P: FinFunctor) -> Check:
    """Every base morphism has a cartesian lift to every object over its target."""
    missing = _least_lifts(P)[1]
    return Check(missing is None, missing)


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
    fibers = {x: fiber(P, x) for x in X.objects}
    obs = {y: np.flatnonzero(P.ob_map == i) for i, y in enumerate(X.objects)}  # the numbers over y
    lift = np.full((len(xc.ids), len(A.objects)), -1, np.int64)  # [code of f, number of b]
    for f in X.morphisms:
        code = xc.code[f]
        for b in obs[X.tgt[f]].tolist():
            phi = ac.code.get(cleaving.entries.get((f, A.objects[b])), -1)
            if phi < 0 or m[phi] != code or ac.tgt[phi] != b or not _cartesian(P)[phi]:
                raise NotAFibration((f, A.objects[b]))
            lift[code, b] = phi

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
    """H commutes with the projections, over one base, and preserves
    cartesian morphisms: the first object, then the first morphism by id,
    where Q∘H and P differ raises ``TriangleDoesNotCommute``, and the first
    cartesian phi by id whose image is not cartesian is the counterexample."""
    if H.source is not P.source or H.target is not Q.source or P.target is not Q.target:
        raise TriangleDoesNotCommute("endpoint categories differ")
    A, ids = P.source, P.source.coding.ids
    bad = np.flatnonzero(Q.ob_map[H.ob_map] != P.ob_map)
    if bad.size:
        raise TriangleDoesNotCommute(("object", A.objects[bad[0]]))
    bad = np.flatnonzero(Q.code_map[H.code_map] != P.code_map)
    if bad.size:
        raise TriangleDoesNotCommute(("morphism", min(ids[k] for k in bad.tolist())))
    bad = np.flatnonzero(_cartesian(P) & ~_cartesian(Q)[H.code_map])
    return Check(False, min(ids[k] for k in bad.tolist())) if bad.size else Check(True)


def check_fibred_nat_trans(beta: NatTrans, H: FinFunctor, K: FinFunctor, P: FinFunctor, Q: FinFunctor) -> Check:
    """All components of beta are vertical (project to identities); else
    the first object, with its component, where one is not."""
    check_fibred_functor(H, P, Q)
    check_fibred_functor(K, P, Q)
    comps = [beta.at(a) for a in P.source.objects]
    bad = np.flatnonzero(Q.code_map[[Q.source.coding.code[c] for c in comps]] != P.target.coding.units[P.ob_map])
    return Check(False, (P.source.objects[bad[0]], comps[bad[0]])) if bad.size else Check(True)
