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
triple; functoriality, naturality (see ``functors``) and associativity
coherence are decided by Light's test on generators.  The data is coded
once, on the coding of the disjoint union of the fibers
(``IndexedCoding``), and every check is an array gather over all arrows,
base cells, objects or triples at once; no check reads a string ``table``.

The coding is what an ``IndexedCat`` keeps.  Each arrow M(f) is an array
over codes, made from its ``FinFunctor.code_map``; every compositor and
unitor is only a run of codes in ``mu`` and ``eta``: the identities at
M(f)M(g)(c), or at c, by one gather where none are given, and a given
table coded once.  ``IndexedCat.compositors`` and ``.unitors`` are
read-only mappings of views: the ``NatTrans`` of a key is made from the
arrays the first time it is read.  The arrows are checked by
``functors.unfunctorial``, the array check that ``validate_functor`` runs
on one functor, here on every arrow at once, so a functor has one
definition; the first failing arrow, in ``base.morphisms`` order, is then
checked alone by ``validate_functor`` for its error.  So are the
compositors and unitors: all at once by ``functors.unnatural``, the first
failing one alone by ``validate_nat_trans``.

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
arrows being functors, so that is checked first.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .core import FinCat, CategoryError, automorphisms, runs, subcategory
from .functors import (
    FinFunctor,
    NatTrans,
    NotAFunctor,
    NotNatural,
    compose_functors,
    functors_equal,
    identity_functor,
    light_pairs,
    unfunctorial,
    unnatural,
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
    compositors: Mapping  # (f, g) composable -> NatTrans mu[f,g]
    unitors: Mapping  # base object -> NatTrans eta[x]
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
        """The data in integers (see ``IndexedCoding``); made on first read,
        unless ``validate_indexed`` made it."""
        C = IndexedCoding(self.base, self.fibers, self.arrows)
        C.code(self.compositors, self.unitors)
        return C

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
    source -1, target -2, row 0.  The cell of (k, l) is ``cell(k, l)``,
    row[k] + offset[l]; ``units`` holds the code of each object's identity,
    ``is_id`` and ``iso`` mask the identities and isos, and gens[gen0[i]:
    gen0[i + 1]] is the i-th fiber's S.  For f: x→y in the base,
    image[at[f] + l] is M(f)(l) for a code l over y, and image_ob[ob_at[f]
    + b] is M(f)(b) for an object b over y (-3 if missing); an arrow not
    given maps everything to nothing.  Once ``code`` has run, mu[mu_at[t] +
    c] is mu[f, g](c) for the t-th base cell (f, g) and c over its fiber
    ``mu_over[t]``, and eta[a] is eta[x](a)."""

    def __init__(self, base: FinCat, fibers: dict, arrows: dict):
        B, fibs = base.coding, [fibers[x] for x in base.objects]
        self.base, self.fibers, self.arrows = base, fibs, arrows
        cs = [F.coding for F in fibs]
        self.code0 = code0 = np.cumsum([0] + [len(c.ids) for c in cs])
        self.obj0 = obj0 = np.cumsum([0] + [len(F.objects) for F in fibs])
        cell0, none = np.cumsum([0] + [len(c.cells) for c in cs]), int(code0[-1])

        def joined(arrays, *end):
            return np.concatenate([*arrays, np.array(end, np.int64)]).astype(np.int64)

        self.src = joined((c.src + o for c, o in zip(cs, obj0)), -1)
        self.tgt = joined((c.tgt + o for c, o in zip(cs, obj0)), -2)
        self.row = joined((c.row[:-1] + o for c, o in zip(cs, cell0)), 0)
        self.offset = joined((np.arange(len(c.ids)) - c.out[c.src] for c in cs), 0)
        self.cells = joined(c.cells + o for c, o in zip(cs, code0))
        self.ranks = joined(c.ranks for c in cs)
        self.units = joined(c.units + o for c, o in zip(cs, code0))
        self.is_id = np.zeros(none + 1, bool)
        self.is_id[self.units] = True
        self.iso = joined((c.inverse for c in cs), -1) >= 0
        self.gens = joined(c.gens + o for c, o in zip(cs, code0))
        self.gen0 = np.cumsum([0] + [len(c.gens) for c in cs])

        # Each arrow as the joined codes of its code_map and ob_map.
        Fs, sizes, obs = [arrows.get(h) for h in B.ids], np.diff(code0)[B.tgt], np.diff(obj0)[B.tgt]
        maps = [np.full(n, -1) if F is None else F.code_map for F, n in zip(Fs, sizes.tolist())]
        on = np.concatenate([np.empty(0, np.intp), *maps])
        self.image = np.where(on < 0, none, on + np.repeat(code0[B.src], sizes))
        self.at = _firsts(sizes, code0[B.tgt])
        maps = [np.full(n, -1) if F is None else F.ob_map for F, n in zip(Fs, obs.tolist())]
        on = np.concatenate([np.empty(0, np.intp), *maps])
        self.image_ob = np.where(on < 0, -3, on + np.repeat(obj0[B.src], obs))
        self.ob_at = _firsts(obs, obj0[B.tgt])
        self.mu_over = B.tgt[B.pairs()[1]]
        self.mu_at = _firsts(np.diff(obj0)[self.mu_over], obj0[self.mu_over])

    def cell(self, k, l):
        """The cells of the joined codes (k, l), which must be composable."""
        return self.row[k] + self.offset[l]

    @functools.cached_property
    def ids(self) -> tuple:
        """The id of each joined code in its fiber; None for none."""
        return (*itertools.chain.from_iterable(F.coding.ids for F in self.fibers), None)

    def components(self, codes, at, i) -> dict:
        """The components codes[at + c] at the objects c over the i-th base
        object, by id."""
        objects, at = self.fibers[i].objects, at + self.obj0[i]
        return dict(zip(objects, map(self.ids.__getitem__, codes[at : at + len(objects)].tolist())))

    def unfunctorial(self) -> np.ndarray:
        """The mask, by base code, of the arrows that are no functors
        between their fibers, all checked at once by
        ``functors.unfunctorial``; an arrow not given is none."""
        B, y = self.base.coding, self.base.coding.tgt
        obs, codes = np.diff(self.obj0)[y], np.diff(self.code0)[y]
        Fs = [self.arrows.get(h) for h in B.ids]
        whole = np.array(
            [F is not None and (len(F.on_objects), len(F.on_morphisms)) == (k, n)
             for F, k, n in zip(Fs, obs.tolist(), codes.tolist())],
            bool,
        )
        # Light's pairs of each fiber, joined, then those of fiber y for
        # each arrow out of it.
        pairs = [light_pairs(F) for F in self.fibers]
        f, g = (np.concatenate([np.empty(0, np.intp), *(p[j] + o for p, o in zip(pairs, self.code0))])
                for j in (0, 1))
        per = np.array([len(p[0]) for p in pairs], np.int64)
        i, j = runs(_firsts(per, 0)[y], per[y])
        items = (runs(self.obj0[y], obs), runs(self.code0[y], codes), (i, f[j], g[j]))
        maps = (self.at, self.image, self.ob_at, self.image_ob)
        return unfunctorial(self, self, maps, items, whole)

    def unnatural(self, extra) -> np.ndarray:
        """The mask of the compositors, in base cell order, then the
        unitors, by base object, that are no natural isos or whose tables
        have another number of keys (``extra``), by one ``unnatural``:
        mu[f, g] runs from the path M(g), M(f) to M(f;g), eta[x] from the
        identity twice (one more block of the arrays, at base code -1)."""
        B, identity = self.base.coding, np.full(len(self.fibers), -1)  # eta[x]'s source, twice
        at, ob_at = np.append(self.at, len(self.image)), np.append(self.ob_at, len(self.image_ob))
        image, image_ob = np.append(self.image, np.arange(len(self.src))), np.append(self.image_ob, np.arange(self.obj0[-1]))
        (f, g), h = (np.append(k, identity) for k in B.pairs()), np.append(B.cells, B.units)
        F, G = ([(at[k], image, ob_at[k], image_ob) for k in ks] for ks in ([g, f], [h]))
        fiber, codes = np.append(self.mu_over, np.arange(len(identity))), np.append(self.mu, self.eta)
        comps = np.append(self.mu_at, np.full(len(identity), len(self.mu))), codes
        t, c = runs(self.obj0[fiber], np.diff(self.obj0)[fiber])
        s, k = runs(self.gen0[fiber], np.diff(self.gen0)[fiber])
        k = self.gens[k]
        bad = unnatural(self, self, F, G, comps, ((t, c), (s, k))) | extra
        bad[t[~self.iso[codes[comps[0][t] + c]]]] = True
        return bad

    def code(self, compositors, unitors):
        """Code the compositors, by composable base pair, and the unitors, by
        base object, as ``mu`` and ``eta``: the identities at M(f)M(g)(c),
        or at c, by one gather, and over them each table given, a dict or a
        ``NatTrans``, coded once; the views of a coding of this base and
        these very fibers give its arrays.  Return the masks of the cells
        and base objects whose tables have another number of keys than
        their fiber has objects.  A key that names no composable pair, then
        no base object, raises ``IndexedError``."""
        B = self.base.coding
        f, g = B.pairs()
        t, c = runs(self.obj0[self.mu_over], np.diff(self.obj0)[self.mu_over])
        mu = self.units[self.image_ob[self.ob_at[f[t]] + self.image_ob[self.ob_at[g[t]] + c]]]
        self.mu, extra_mu = self._coded(
            compositors, "mu", mu, lambda: cell_pairs(self.base), self.mu_at, self.mu_over, B.src[f],
            "compositor for %r, which is no composable pair",
        )
        n = np.arange(len(self.fibers))
        self.eta, extra_eta = self._coded(
            unitors, "eta", self.units.copy(), lambda: self.base.objects, np.zeros_like(n), n, n,
            "unitor over unknown object %r",
        )
        return extra_mu, extra_eta

    def _coded(self, tables, name, codes, keys, at, over, into, unknown):
        """``codes`` with each of ``tables`` written over it: the table of
        the p-th of ``keys()`` holds the component at c, an object over the
        base object numbered over[p], at codes[at[p] + c], a morphism of the
        fiber numbered into[p].  With the mask of the places whose tables
        have another number of keys than their fiber has objects."""
        extra = np.zeros(len(at), bool)
        if not tables:
            return codes, extra
        if isinstance(tables, _Views) and tables.coding.base is self.base and all(
            map(operator.is_, tables.coding.fibers, self.fibers)
        ):
            return getattr(tables.coding, name), extra
        place = {k: p for p, k in enumerate(keys())}
        ps, values = [], []
        for key, table in tables.items():
            p = place.get(key, -1)
            if p < 0:
                raise IndexedError(unknown % (key,))
            table, objects = _table(table), self.fibers[over[p]].objects
            extra[p] = len(table) != len(objects)
            ps.append(p)
            values.extend(map(table.get, objects))
        ps = np.array(ps, np.int64)
        i, where = runs(at[ps] + self.obj0[over[ps]], np.diff(self.obj0)[over[ps]])
        fiber = into[ps[i]].tolist()
        to = {x: dict(zip(self.fibers[x].coding.ids, itertools.count(int(self.code0[x])))) for x in set(fiber)}
        none = itertools.repeat(int(self.code0[-1]))
        codes[where] = np.fromiter(map(dict.get, map(to.__getitem__, fiber), values, none), np.int64, len(values))
        return codes, extra


class _Views(Mapping):
    """Transformations of an ``IndexedCoding`` as a read-only mapping to
    ``NatTrans`` values, each made from the coding's arrays the first time
    its key is read, and kept."""

    def __init__(self, coding: IndexedCoding):
        self.coding, self._made = coding, {}

    def __getitem__(self, key):
        view = self._made.get(key)
        if view is None:
            view = self._made[key] = self._view(key)
        return view

    def __iter__(self):
        return iter(self._keys)


class _Compositors(_Views):
    """mu[f, g] by composable base pair (f, g), in base cell order."""

    @functools.cached_property
    def _keys(self) -> list:
        return cell_pairs(self.coding.base)

    def __len__(self):
        return len(self.coding.base.coding.cells)

    def _view(self, key) -> NatTrans:
        C, base, B = self.coding, self.coding.base, self.coding.base.coding
        try:
            f, g = key
            composable = base.tgt[f] == base.src[g]
        except (KeyError, TypeError, ValueError):
            composable = False
        if not composable:
            raise KeyError(key)
        t = int(B.cell(B.code[f], B.code[g]))
        mu = C.components(C.mu, C.mu_at[t], C.mu_over[t])
        return NatTrans((C.arrows[g], C.arrows[f]), C.arrows[B.ids[B.cells[t]]], mu)


class _Unitors(_Views):
    """eta[x] by base object x."""

    @property
    def _keys(self) -> tuple:
        return self.coding.base.objects

    def __len__(self):
        return len(self._keys)

    def _view(self, x) -> NatTrans:
        C, base = self.coding, self.coding.base
        if x not in base.identity:
            raise KeyError(x)
        i = base.objects.index(x)
        return NatTrans(identity_functor(C.fibers[i]), C.arrows[base.id_of(x)], C.components(C.eta, 0, i))


def cell_pairs(base: FinCat) -> list:
    """The pairs (f, g) of the cells of ``base.coding``, in cell order."""
    B = base.coding
    return list(zip(*(map(B.ids.__getitem__, k.tolist()) for k in B.pairs())))


def _firsts(sizes, less):
    """Where blocks of ``sizes`` laid end to end start, less ``less``."""
    return np.cumsum(sizes) - sizes - less


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

    Every check runs on ``IndexedCoding`` for all items at once, and names
    the first failure in the order of a check of one at a time: arrows in
    the order of ``base.morphisms``, each checked again alone by
    ``validate_functor`` for its error, compositors in base cell order (see
    ``FinCat``), unitors by base object, each checked again alone for its
    error, then the unit laws.  The compositors and unitors of the result
    are views of its coding (see the module docstring).
    """
    fibers = dict(fibers)
    arrows = dict(arrows)
    for x in base.objects:
        if x not in fibers:
            raise IndexedError("no fiber over %r" % x)
    for x in fibers:
        if x not in base.identity:
            raise IndexedError("fiber over unknown object %r" % (x,))

    def misfit(f):  # why the arrow at f is no functor between its fibers, before its tables
        if f not in arrows:
            return ("no arrow functor", f)
        F = arrows[f]
        if not isinstance(F, FinFunctor):
            return ("not a functor", f)
        if F.source is not fibers[base.tgt[f]] or F.target is not fibers[base.src[f]]:
            return ("contravariance endpoints", f)
        return None

    misfits = {f: why for f in base.morphisms if (why := misfit(f)) is not None}
    B = base.coding
    C = IndexedCoding(base, fibers, {f: arrows[f] for f in base.morphisms if f not in misfits})
    bad = C.unfunctorial()
    if misfits or bad.any():
        for f in base.morphisms:
            if f in misfits:
                raise BadFiberFunctor(misfits[f])
            if bad[B.code[f]]:
                F = arrows[f]
                try:
                    validate_functor(F.source, F.target, F.on_objects, F.on_morphisms)
                except NotAFunctor as exc:
                    raise BadFiberFunctor(("not a functor", f, exc.args)) from exc
                raise CategoryError("internal error: the arrow check failed, validate_functor held")
    for f in arrows:
        if f not in base.src:
            raise IndexedError("arrow for unknown morphism %r" % (f,))

    compositors, unitors = compositors or {}, unitors or {}
    bad = C.unnatural(np.concatenate(C.code(compositors, unitors)))
    # The first failing compositor, then unitor, is checked again alone,
    # on its table as given, or the identities.
    if bad.any():
        t, (F, G) = int(np.argmax(bad)), B.pairs()
        if t < len(F):
            key = f, g = B.ids[F[t]], B.ids[G[t]]
            fib, given, table = fibers[base.src[f]], compositors.get(key), C.components(C.mu, C.mu_at[t], C.mu_over[t])
            source, target = (arrows[g], arrows[f]), arrows[B.ids[B.cells[t]]]
            not_natural, noniso = lambda args: CoherenceViolation(("compositor", f, g, args)), CompositorNotIso
        else:
            x = base.objects[t - len(F)]
            key, fib, given, table = (x,), fibers[x], unitors.get(x), C.components(C.eta, 0, t - len(F))
            source, target = identity_functor(fib), arrows[base.id_of(x)]
            not_natural, noniso = lambda args: UnitorViolation((x, args)), UnitorViolation
        try:
            alpha = validate_nat_trans(source, target, table if given is None else _table(given))
        except NotNatural as exc:
            raise not_natural(exc.args) from exc
        raise noniso((*key, *next(cm for cm in alpha.components.items() if cm[1] not in fib.inverses)))

    # Unit coherence: contracting against an identity is the identity, at
    # each f: x→y in the order of ``base.morphisms`` and b over y.
    order = np.array([B.code[f] for f in base.morphisms], np.int64)
    r, b = runs(C.obj0[B.tgt[order]], np.diff(C.obj0)[B.tgt[order]])
    f, mfb = order[r], C.image_ob[C.ob_at[order[r]] + b]
    mu_l = C.mu[C.mu_at[B.cell(B.units[B.src[f]], f)] + b]
    mu_r = C.mu[C.mu_at[B.cell(f, B.units[B.tgt[f]])] + b]
    left = ~C.is_id[C.cells[C.cell(C.eta[mfb], mu_l)]]
    right = ~C.is_id[C.cells[C.cell(C.image[C.at[f] + C.eta[b]], mu_r)]]
    if (left | right).any():
        i = int(np.argmax(left | right))
        f, y = base.morphisms[r[i]], B.tgt[f[i]]
        b = fibers[base.objects[y]].objects[b[i] - C.obj0[y]]
        raise UnitorViolation(("left unit" if left[i] else "right unit", f, b))

    _check_associativity_coherence(base, fibers, C, order)
    strict = bool(C.is_id[C.mu].all() and C.is_id[C.eta].all())
    M = IndexedCat(base, fibers, arrows, _Compositors(C), _Unitors(C), strict)
    vars(M)["coding"] = C  # the coding just checked is the one M.coding would make
    return M


def _table(given) -> dict:
    """The component table of a ``NatTrans`` or of a table."""
    return given.components if isinstance(given, NatTrans) else given


def _check_associativity_coherence(base, fibers, C: IndexedCoding, order) -> None:
    """Light's test on the base's S (see the module docstring), then, if it
    fails, a sweep of every triple, one f at a time in the ``order`` of
    ``base.morphisms``, to name the first ``CoherenceViolation``."""
    B = base.coding
    after = order[np.argsort(B.src[order], kind="stable")]  # out of x, in order, from B.out[x]

    def then(*codes):
        """Each sequence of ``codes`` followed by each code out of its end."""
        r, j = runs(B.out[B.tgt[codes[-1]]], np.diff(B.out)[B.tgt[codes[-1]]])
        return (*(k[r] for k in codes), after[j])

    def incoherent(f, g, h):
        """Per triple i and object d over tgt h[i], in turn: i, d and
        whether the coherence square of the triple fails at d."""
        i, d = runs(C.obj0[B.tgt[h]], np.diff(C.obj0)[B.tgt[h]])
        f, g, h, fg, gh = f[i], g[i], h[i], B.cell(f[i], g[i]), B.cell(g[i], h[i])

        def mu(cell, d):
            return C.mu[C.mu_at[cell] + d]

        lhs = C.cell(C.image[C.at[f] + mu(gh, d)], mu(B.cell(f, B.cells[gh]), d))
        rhs = C.cell(mu(fg, C.image_ob[C.ob_at[h] + d]), mu(B.cell(B.cells[fg], h), d))
        return i, d, C.cells[lhs] != C.cells[rhs]

    for g in B.gens.tolist():
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
    for (f, g), h in zip(cell_pairs(M.base), hs):
        if not functors_equal(compose_functors(M.arrow_at(g), M.arrow_at(f)), M.arrow_at(h)):
            return False
    return True


def restrict_to_aut(M: IndexedCat, x: str) -> IndexedCat:
    """Restrict to the one-object subcategory of automorphisms of ``x``."""
    auts = automorphisms(M.base, x)
    base_r = subcategory(M.base, [x], auts)
    C, B, i = M.coding, M.base.coding, M.base.objects.index(x)
    codes = np.array([B.code[f] for f in auts], np.int64)
    cells = B.cell(codes[:, None], codes).tolist()  # cells[j][k]: the cell of (auts[j], auts[k])
    return validate_indexed(
        base_r,
        {x: M.fiber_at(x)},
        {f: M.arrow_at(f) for f in auts},
        {(f, g): C.components(C.mu, C.mu_at[t], i) for f, ts in zip(auts, cells) for g, t in zip(auts, ts)},
        {x: C.components(C.eta, 0, i)},
    )
