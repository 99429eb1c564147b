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
decided by Light's test on generators.  Once the arrows are functors, the
data is coded once, on the coding of the disjoint union of the fibers
(``IndexedCoding``), and every later check is an array gather over all
base cells, objects or triples at once; no check reads a string
``table``.

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

import functools
import itertools
from dataclasses import dataclass

import numpy as np

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

    @functools.cached_property
    def coding(self) -> "IndexedCoding":
        """The data in integers (see ``IndexedCoding``); made on first read."""
        mus = [self.compositors[fg].components for fg in _cell_pairs(self.base)]
        etas = [self.unitors[x].components for x in self.base.objects]
        return IndexedCoding(self.base, self.fibers, self.arrows, mus, etas)

    def __repr__(self):
        return "IndexedCat(base=%r, %d fibers, strict=%s)" % (
            self.base,
            len(self.fibers),
            self.strict,
        )


class IndexedCoding:
    """An indexed category's data on the coding of the disjoint union of its
    fibers: the fiber over the i-th base object keeps its codes, objects
    and cells (see ``core.Coding``), shifted by code0[i], obj0[i] and the
    cells before it.  The last code, none, stands for a missing morphism:
    source -1, target -2, row 0.  The cell of (k, l) is row[k] + offset[l];
    ``is_id`` and ``iso`` mask the identities and isos; gens[gen0[i]:gen0[i
    + 1]] is the i-th fiber's S.  For f: x→y in the base, image[at[f] + l]
    is M(f)(l) for a code l over y, and image_ob[ob_at[f] + b] is M(f)(b)
    for an object b over y (-3 if missing); mu[mu_at[t] + c] is mu[f,
    g](c) for the t-th base cell (f, g), from the dicts ``mus``, and eta[a]
    is eta[x](a), from ``etas``."""

    def __init__(self, base: FinCat, fibers: dict, arrows: dict, mus: list, etas: list):
        B, fibs, (f, g) = base.coding, [fibers[x] for x in base.objects], base.coding.pairs()
        cs, xs, ys = [F.coding for F in fibs], B.src.tolist(), B.tgt.tolist()
        self.code0 = code0 = np.cumsum([0] + [len(c.ids) for c in cs])
        self.obj0 = obj0 = np.cumsum([0] + [len(F.objects) for F in fibs])
        cell0, none = np.cumsum([0] + [len(c.cells) for c in cs]), int(code0[-1])
        numbers = [dict(zip(F.objects, range(len(F.objects)))) for F in fibs]

        def joined(arrays, *end):
            return np.concatenate([*arrays, np.array(end, np.int64)]).astype(np.int64)

        def flat(lists):
            return np.fromiter(itertools.chain.from_iterable(lists), np.int64)

        def firsts(sizes, less):  # where blocks of ``sizes`` laid end to end start
            return np.cumsum(sizes) - sizes - less

        self.src = joined((c.src + o for c, o in zip(cs, obj0)), -1)
        self.tgt = joined((c.tgt + o for c, o in zip(cs, obj0)), -2)
        self.row = joined((c.row[:-1] + o for c, o in zip(cs, cell0)), 0)
        self.offset = joined((np.arange(len(c.ids)) - c.out[c.src] for c in cs), 0)
        self.cells = joined(c.cells + o for c, o in zip(cs, code0))
        self.ranks = joined(c.ranks for c in cs)
        each = list(zip(fibs, cs, code0))
        self.is_id, self.iso = np.zeros((2, none + 1), bool)
        self.is_id[flat([o + c.code[i] for i in F.identity.values()] for F, c, o in each)] = True
        self.iso[flat([o + c.code[m] for m in F.inverses] for F, c, o in each)] = True
        gens = [[o + c.code[g] for g in F.generators] for F, c, o in each]
        self.gens, self.gen0 = flat(gens), np.cumsum([0] + list(map(len, gens)))
        self.image = flat(_on(arrows[h].on_morphisms, cs[x].code, code0[x], none, cs[y].ids)
                          for h, x, y in zip(B.ids, xs, ys))
        self.at = firsts(np.diff(code0)[B.tgt], code0[B.tgt])
        self.image_ob = flat(_on(arrows[h].on_objects, numbers[x], obj0[x], -3, fibs[y].objects)
                             for h, x, y in zip(B.ids, xs, ys))
        self.ob_at = firsts(np.diff(obj0)[B.tgt], obj0[B.tgt])
        self.mu = flat(_on(comps, cs[x].code, code0[x], none, fibs[z].objects)
                       for comps, x, z in zip(mus, B.src[f].tolist(), B.tgt[g].tolist()))
        self.mu_at = firsts(np.diff(obj0)[B.tgt[g]], obj0[B.tgt[g]])
        self.eta = flat(_on(e, c.code, o, none, F.objects) for e, (F, c, o) in zip(etas, each))


def _cell_pairs(base: FinCat) -> list:
    """The pairs (f, g) of the cells of ``base.coding``, in cell order."""
    B = base.coding
    return list(zip(*(map(B.ids.__getitem__, k.tolist()) for k in B.pairs())))


def _on(table, to, shift, missing, keys) -> list:
    """The number in ``to``, plus ``shift``, of the image under ``table``
    of each of ``keys``, or ``missing``."""
    return [missing if (k := to.get(table.get(m), -1)) < 0 else k + shift for m in keys]


def _runs(starts, sizes):
    """For runs of ``sizes`` consecutive numbers from ``starts``: the run of
    each number, and the number."""
    run = np.repeat(np.arange(len(sizes)), sizes)
    return run, np.arange(len(run)) + np.repeat(starts - np.cumsum(sizes) + sizes, sizes)


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
    as its source (see ``functors.validate_nat_trans``).

    After the arrows, every check runs on ``IndexedCoding`` for all items at
    once, and names the first failure in the order of a check of one at a
    time: compositors in base cell order (see ``FinCat``), unitors by base
    object, each checked again alone for its error, then the unit laws.
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
    B, pairs = base.coding, _cell_pairs(base)
    known = set(pairs)
    for key in compositors:
        if key not in known:
            raise IndexedError("compositor for %r, which is no composable pair" % (key,))
    for x in unitors:
        if x not in base.identity:
            raise IndexedError("unitor over unknown object %r" % (x,))

    def given(raw, objects, default):  # the components raw gives, else default(a) at each a
        raw = raw.components if isinstance(raw, NatTrans) else raw
        return {a: default(a) for a in objects} if raw is None else dict(raw)

    mus = [
        given(compositors.get((f, g)), fibers[base.tgt[g]].objects,
              lambda c: fibers[base.src[f]].id_of(arrows[f].ob(arrows[g].ob(c))))
        for f, g in pairs
    ]
    etas = [given(unitors.get(x), fibers[x].objects, fibers[x].id_of) for x in base.objects]
    C = IndexedCoding(base, fibers, arrows, mus, etas)
    (F, G), hs = B.pairs(), [arrows[B.ids[h]] for h in B.cells.tolist()]
    unit = np.array([B.code[base.id_of(x)] for x in base.objects], np.int64)
    # The first failing compositor, then unitor, is checked again alone.
    bad = _unnatural(C, [G, F], B.cells, B.tgt[G], C.mu, C.mu_at, mus)
    if bad.any():
        t = int(np.argmax(bad))
        (f, g), fib = pairs[t], fibers[base.src[pairs[t][0]]]
        try:
            mu = validate_nat_trans((arrows[g], arrows[f]), hs[t], mus[t])
        except NotNatural as exc:
            raise CoherenceViolation(("compositor", f, g, exc.args)) from exc
        raise CompositorNotIso((f, g, *next(cm for cm in mu.components.items() if cm[1] not in fib.inverses)))
    bad = _unnatural(C, [], unit, np.arange(len(unit)), C.eta, np.zeros_like(unit), etas)
    if bad.any():
        t = int(np.argmax(bad))
        x, fib = base.objects[t], fibers[base.objects[t]]
        try:
            eta = validate_nat_trans(identity_functor(fib), arrows[base.id_of(x)], etas[t])
        except NotNatural as exc:
            raise UnitorViolation((x, exc.args)) from exc
        raise UnitorViolation((x, *next(am for am in eta.components.items() if am[1] not in fib.inverses)))

    # Unit coherence: contracting against an identity is the identity, at
    # each f: x→y in the order of ``base.morphisms`` and b over y.
    order = np.array([B.code[f] for f in base.morphisms], np.int64)
    r, b = _runs(C.obj0[B.tgt[order]], np.diff(C.obj0)[B.tgt[order]])
    f, mfb = order[r], C.image_ob[C.ob_at[order[r]] + b]
    mu_l = C.mu[C.mu_at[B.cell(unit[B.src[f]], f)] + b]
    mu_r = C.mu[C.mu_at[B.cell(f, unit[B.tgt[f]])] + b]
    left = ~C.is_id[C.cells[C.row[C.eta[mfb]] + C.offset[mu_l]]]
    right = ~C.is_id[C.cells[C.row[C.image[C.at[f] + C.eta[b]]] + C.offset[mu_r]]]
    if (left | right).any():
        i = int(np.argmax(left | right))
        f, y = base.morphisms[r[i]], B.tgt[f[i]]
        b = fibers[base.objects[y]].objects[b[i] - C.obj0[y]]
        raise UnitorViolation(("left unit" if left[i] else "right unit", f, b))

    _check_associativity_coherence(base, fibers, C, order)
    mus = {(f, g): NatTrans((arrows[g], arrows[f]), h, c) for (f, g), h, c in zip(pairs, hs, mus)}
    etas = {
        x: NatTrans(identity_functor(fibers[x]), arrows[base.id_of(x)], c) for x, c in zip(base.objects, etas)
    }
    M = IndexedCat(base, fibers, arrows, mus, etas, bool(C.is_id[C.mu].all() and C.is_id[C.eta].all()))
    vars(M)["coding"] = C  # the coding just checked is the one M.coding would make
    return M


def _unnatural(C: IndexedCoding, path, target, fiber, comps, at, given):
    """The mask of the transformations t from M(path[0][t]), M(path[1][t]),
    ... in turn (none: the identity) to M(target[t]), out of the fiber over
    fiber[t], that are no natural isos with the components given[t], the
    one at c comps[at[t] + c]; naturality by Light's test, once typed."""
    sizes = np.diff(C.obj0)[fiber]
    bad = np.array(list(map(len, given)), np.int64) != sizes
    t, c = _runs(C.obj0[fiber], sizes)
    m, ob = comps[at[t] + c], c
    for P in path:
        ob = C.image_ob[C.ob_at[P[t]] + ob]
    bad[t[(C.src[m] != ob) | (C.tgt[m] != C.image_ob[C.ob_at[target[t]] + c]) | ~C.iso[m]]] = True
    t, k = _runs(C.gen0[fiber], np.diff(C.gen0)[fiber])
    t, k = t[~bad[t]], C.gens[k[~bad[t]]]
    along = k
    for P in path:
        along = C.image[C.at[P[t]] + along]
    left = C.cells[C.row[comps[at[t] + C.src[k]]] + C.offset[C.image[C.at[target[t]] + k]]]
    bad[t[left != C.cells[C.row[along] + C.offset[comps[at[t] + C.tgt[k]]]]]] = True
    return bad


def _check_associativity_coherence(base, fibers, C: IndexedCoding, order) -> None:
    """Light's test on the base's S (see the module docstring), then, if it
    fails, a sweep of every triple, one f at a time in the ``order`` of
    ``base.morphisms``, to name the first ``CoherenceViolation``."""
    B = base.coding
    after = order[np.argsort(B.src[order], kind="stable")]  # out of x, in order, from B.out[x]

    def then(*codes):
        """Each sequence of ``codes`` followed by each code out of its end."""
        r, j = _runs(B.out[B.tgt[codes[-1]]], np.diff(B.out)[B.tgt[codes[-1]]])
        return (*(k[r] for k in codes), after[j])

    def incoherent(f, g, h):
        """Per triple i and object d over tgt h[i], in turn: i, d and
        whether the coherence square of the triple fails at d."""
        i, d = _runs(C.obj0[B.tgt[h]], np.diff(C.obj0)[B.tgt[h]])
        f, g, h, fg, gh = f[i], g[i], h[i], B.cell(f[i], g[i]), B.cell(g[i], h[i])

        def mu(cell, d):
            return C.mu[C.mu_at[cell] + d]

        lhs = C.row[C.image[C.at[f] + mu(gh, d)]] + C.offset[mu(B.cell(f, B.cells[gh]), d)]
        rhs = C.row[mu(fg, C.image_ob[C.ob_at[h] + d])] + C.offset[mu(B.cell(B.cells[fg], h), d)]
        return i, d, C.cells[lhs] != C.cells[rhs]

    for g in (B.code[s] for s in base.generators):
        fs = B.into[B.src[g]]
        if incoherent(*then(fs, np.full(len(fs), g)))[2].any():
            break
    else:
        return
    for f in order.tolist():
        f, g, h = then(*then(np.array([f])))
        i, d, bad = incoherent(f, g, h)
        if bad.any():
            i, d = i[np.argmax(bad)], d[np.argmax(bad)]
            b = fibers[base.objects[B.tgt[h[i]]]].objects[d - C.obj0[B.tgt[h[i]]]]
            raise CoherenceViolation((tuple(B.ids[k[i]] for k in (f, g, h)), b))
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
    hs = map(M.base.coding.ids.__getitem__, M.base.coding.cells.tolist())
    for (f, g), h in zip(_cell_pairs(M.base), hs):
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
