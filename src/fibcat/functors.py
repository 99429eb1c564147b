"""Functors and natural transformations between finite categories.

``validate_functor`` checks composites by Light's test, as ``core`` checks
associativity.  Call g *preserved* by F when F(f;g) = F(f);F(g) for every f
into src g.  Once F preserves identities, which is checked first, every
identity is preserved: F(f;id) = F(f) = F(f);id = F(f);F(id).  If g1 and g2
are preserved and composable, so is g1;g2:

    F(f;(g1;g2)) = F((f;g1);g2) = F(f;g1);F(g2) = F(f);F(g1);F(g2)
                 = F(f);F(g1;g2),

using g2, then g1, then g2 at f = g1.  So the preserved morphisms are
closed under composition, and since the generating set S of the source
(``FinCat.generators``) generates every morphism with the identities, F
preserves every composite exactly when every g in S is preserved.  Only the
pairs (f, g) with g in S are compared, all at once on the cells of the two
codings (see ``core.Coding``), with F as an array from source codes to
target codes; if one fails, every cell of the source is compared in cell
order, so the error names the same first pair as a check of every
composite: the first in cell order (see ``FinCat``).

All of it is one array check, ``unfunctorial``, over the codes of many
maps at once: objects and morphisms mapped, endpoints, identities, then
Light's test, each on the maps that passed the checks before it.
``validate_functor`` runs it on one functor, as ``code_map`` and
``ob_map``, and ``indexed.validate_indexed`` on every arrow of an indexed
category at once, on the coding of the disjoint union of its fibers, so
both callers share one definition of a functor.  A map it rejects is
checked again one table entry at a time, only to name the first failure.

``validate_nat_trans`` checks naturality squares the same way.  Let F and
G be functors and α a family of components typed α_x: F(x) → G(x).  Every
identity square commutes: F(id_x);α_x = α_x = α_x;G(id_x), as F and G
preserve identities.  If the squares of k1: a→b and k2: b→c commute, so
does the square of k1;k2:

    F(k1;k2);α_c = F(k1);F(k2);α_c = F(k1);α_b;G(k2)
                 = α_a;G(k1);G(k2) = α_a;G(k1;k2),

using that F preserves k1;k2, then the squares of k2 and k1, then that G
preserves k1;k2.  So the morphisms whose squares commute are closed under
composition, and α is natural exactly when the square of every g in the
source's S commutes; the argument needs F and G to be functors, so
``validate_nat_trans`` takes them as ``FinFunctor`` values or paths of
them.  ``unnatural`` is the one array check of naturality, over many
families of components at once, as ``unfunctorial`` is of functors:
``validate_nat_trans`` runs it on one family, ``indexed.validate_indexed``
on every compositor and unitor, ``theorem``'s witness search on many
candidate units.  In a family it rejects, each square is checked again as
a family of its own, so the error names the first failing one in the
source's morphism order.  Neither check reads a string ``table``.

``enumerate_functors`` is the one functor search.  It assigns images in a
fixed order, identities from the object map, and each composite as soon as
its two factors are assigned, so a partial map is dropped at the first
composite that disagrees; its complete maps are functors, and each passes
``validate_functor`` as its certificate.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import Check, FinCat, CategoryError


class NotAFunctor(CategoryError):
    pass


class NotNatural(CategoryError):
    pass


class SearchBudgetExceeded(CategoryError):
    """A bounded search ran out of budget; see ``enumerate_functors``."""


@dataclass(frozen=True, eq=False, repr=False)
class FinFunctor:
    source: FinCat
    target: FinCat
    on_objects: dict
    on_morphisms: dict
    _caches: dict = field(default_factory=dict, compare=False, repr=False)

    def ob(self, x: str) -> str:
        return self.on_objects[x]

    def mor(self, f: str) -> str:
        return self.on_morphisms[f]

    def cache(self, key: str) -> dict:
        return self._caches.setdefault(key, {})

    @functools.cached_property
    def code_map(self) -> np.ndarray:
        """The code, in the target's coding, of the image of each code of
        the source's, or -1 where the table maps it to no morphism of the
        target; made on first read."""
        images = map(self.on_morphisms.get, self.source.coding.ids)
        codes = map(self.target.coding.code.get, images, itertools.repeat(-1))
        return np.fromiter(codes, np.intp, len(self.source.morphisms))

    @functools.cached_property
    def ob_map(self) -> np.ndarray:
        """The number, among the target's objects, of the image of each of
        the source's objects, or -1 where the table maps it to none; made
        on first read."""
        T = self.target
        number = dict(zip(T.objects, range(len(T.objects))))
        images = map(self.on_objects.get, self.source.objects)
        return np.fromiter(map(number.get, images, itertools.repeat(-1)), np.intp, len(self.source.objects))

    def __repr__(self):
        return "FinFunctor(%r -> %r)" % (self.source, self.target)


@dataclass(frozen=True, eq=False)
class NatTrans:
    source: FinFunctor  # or a path of functors, see ``validate_nat_trans``
    target: FinFunctor
    components: dict

    def at(self, x: str) -> str:
        return self.components[x]


def validate_functor(source: FinCat, target: FinCat, on_objects, on_morphisms) -> FinFunctor:
    """Check that the tables map exactly the source's objects and morphisms,
    and preserve endpoints, identities and all composites, the last by
    Light's test, all by ``unfunctorial`` (see the module docstring).  A
    failure is named in the order: source objects, an unknown object,
    source morphisms, an unknown morphism, identities, composites.  Ids are
    strings."""
    F = FinFunctor(source, target, dict(on_objects), dict(on_morphisms))
    whole = np.array([(len(F.on_objects), len(F.on_morphisms)) == (len(source.objects), len(source.morphisms))])
    zero = np.zeros(1, np.intp)
    maps = (zero, F.code_map, zero, F.ob_map)
    if unfunctorial(source.coding, target.coding, maps, _items(source), whole)[0]:
        _raise_first_failure(F)
    return F


def _items(C: FinCat) -> tuple:
    """The items ``unfunctorial`` reads of one map out of ``C``, numbered 0:
    its objects, its codes and the pairs of Light's test; made once per
    category."""
    memo = C.cache("unfunctorial")
    if not memo:
        k, n, (f, g) = len(C.objects), len(C.morphisms), light_pairs(C)
        zeros = np.zeros(max(k, n, len(f)), np.intp)
        memo["items"] = (zeros[:k], np.arange(k)), (zeros[:n], np.arange(n)), (zeros[: len(f)], f, g)
    return memo["items"]


def light_pairs(C: FinCat) -> tuple:
    """The codes (f, g) that Light's test composes: every f into src g,
    for each g in the generating set S of ``C`` in turn; made once per
    category."""
    memo = C.cache("light_pairs")
    if not memo:
        K = C.coding
        runs = [K.into[x] for x in K.src[K.gens].tolist()]
        memo["pairs"] = np.concatenate([np.empty(0, np.intp), *runs]), np.repeat(K.gens, list(map(len, runs)))
    return memo["pairs"]


def unfunctorial(S, T, maps, items, whole) -> np.ndarray:
    """The mask of the maps i = 0, 1, ... from the codes and objects of the
    coding ``S`` to those of ``T`` that are no functors.  ``S`` and ``T``
    code categories, as ``core.Coding`` does (``src``, ``tgt``, ``cells``,
    ``cell`` and ``units``), or several laid side by side, as
    ``indexed.IndexedCoding`` does.  With ``maps`` = (at, image, ob_at,
    image_ob), map i sends the code k to image[at[i] + k], the object o to
    image_ob[ob_at[i] + o], and either to a negative number, or a morphism
    to a code whose source is none, where it maps it to nothing.
    ``items`` = (objects, codes, pairs) lists (i, o) for every object o of
    the source of map i, (i, k) for every code k, and (i, f, g) for the
    pairs Light's test composes (see ``light_pairs``); ``whole[i]`` tells
    whether map i's tables have no key beyond its source's ids.  Checked in
    turn, each on the maps that passed so far, until every map has failed:
    every object mapped, every morphism mapped with its endpoints,
    identities, composites."""
    at, image, ob_at, image_ob = maps
    bad = ~whole

    def passing(items):  # the items of the maps that have not failed yet
        if not bad.any():
            return items
        keep = ~bad[items[0]]
        return tuple(a[keep] for a in items)

    objects, codes, pairs = items
    i, o = objects
    bad[i[image_ob[ob_at[i] + o] < 0]] = True
    if bad.all():
        return bad
    i, k = passing(codes)
    m = image[at[i] + k]
    ends = (T.src[m] == image_ob[ob_at[i] + S.src[k]]) & (T.tgt[m] == image_ob[ob_at[i] + S.tgt[k]])
    bad[i[(m < 0) | ~ends]] = True
    if bad.all():
        return bad
    i, o = passing(objects)
    bad[i[image[at[i] + S.units[o]] != T.units[image_ob[ob_at[i] + o]]]] = True
    if bad.all():
        return bad
    i, f, g = passing(pairs)
    made = T.cells[T.cell(image[at[i] + f], image[at[i] + g])]
    bad[i[made != image[at[i] + S.cells[S.cell(f, g)]]]] = True
    return bad


def _raise_first_failure(F: FinFunctor):
    """Raise the first ``NotAFunctor`` of F's tables, which ``unfunctorial``
    rejected, in ``validate_functor``'s order; composites are compared in
    cell order, so the first failing pair is the first of the source's
    table (see ``FinCat``)."""
    source, target, ob, mor = F.source, F.target, F.on_objects, F.on_morphisms
    for x in source.objects:
        if x not in ob:
            raise NotAFunctor(("object not mapped", x))
        if ob[x] not in target.identity:
            raise NotAFunctor(("image object unknown", x, ob[x]))
    if len(ob) > len(source.objects):
        unknown = next(x for x in ob if x not in source.identity)
        raise NotAFunctor(("unknown object mapped", unknown))
    for f in source.morphisms:
        if f not in mor:
            raise NotAFunctor(("morphism not mapped", f))
        g = mor[f]
        if g not in target.src:
            raise NotAFunctor(("image morphism unknown", f, g))
        if target.src[g] != ob[source.src[f]] or target.tgt[g] != ob[source.tgt[f]]:
            raise NotAFunctor(("endpoints not preserved", f, g))
    if len(mor) > len(source.morphisms):
        unknown = next(f for f in mor if f not in source.src)
        raise NotAFunctor(("unknown morphism mapped", unknown))
    for x in source.objects:
        if mor[source.id_of(x)] != target.id_of(ob[x]):
            raise NotAFunctor(("identity not preserved", x))
    sc, tc, m = source.coding, target.coding, F.code_map
    for lo, hi in sc.rounds():
        f, g = sc.pairs(lo, hi)
        bad = np.flatnonzero(tc.cells[tc.cell(m[f], m[g])] != m[sc.cells[sc.row[lo] : sc.row[hi]]])
        if bad.size:
            raise NotAFunctor(("composite not preserved", sc.ids[f[bad[0]]], sc.ids[g[bad[0]]]))
    raise CategoryError("internal error: Light's test failed, the full check held")


def enumerate_functors(A: FinCat, B: FinCat, objects=None, allowed=None, budget=None):
    """Every functor A → B in lexicographic order (see the module
    docstring): first the images of the objects that the map ``objects``
    does not fix, in ``A.objects`` order, each over ``B.objects``; then
    those of ``A.morphisms``, each over its hom-set of B in id order or,
    where ``allowed[f]`` is given, over those ids alone.  ``budget``, when
    given, is a one-element list of the units left, which callers may
    share: each image tried at a morphism that nothing forces costs one, so
    does each complete map, and ``SearchBudgetExceeded`` is raised below
    zero."""
    fixed, K, L = dict(objects or {}), A.coding, B.coding
    free = [x for x in A.objects if x not in fixed]
    after, before = [[] for _ in K.ids], [[] for _ in K.ids]  # (g, k;g) and (f, f;k) for each code k
    for f, g, h in zip(*(a.tolist() for a in (*K.pairs(), K.cells))):
        after[f].append((g, h))
        before[g].append((f, h))
    cells, row, out, src = (a.tolist() for a in (L.cells, L.row, L.out, L.src))
    order, number = [K.code[f] for f in A.morphisms], dict(zip(B.objects, range(len(B.objects))))
    allow = {K.code[f]: {L.code.get(m) for m in ms} for f, ms in (allowed or {}).items()}
    budget = [float("inf")] if budget is None else budget
    val, trail = [-1] * len(K.ids), []

    def charge():
        budget[0] -= 1
        if budget[0] < 0:
            raise SearchBudgetExceeded()

    def settle(k, v) -> bool:
        """Assign v to k and every composite that follows; False at the
        first that disagrees."""
        todo = [(k, v)]
        while todo:
            k, v = todo.pop()
            if val[k] >= 0 or (k in allow and v not in allow[k]):
                if val[k] != v:
                    return False
                continue
            val[k] = v
            trail.append(k)
            todo += [(h, cells[row[v] + val[g] - out[src[val[g]]]]) for g, h in after[k] if val[g] >= 0]
            todo += [(h, cells[row[val[f]] + v - out[src[v]]]) for f, h in before[k] if val[f] >= 0]
        return True

    def undo(mark):
        while len(trail) > mark:
            val[trail.pop()] = -1

    def next_free(p):
        while p < len(order) and val[order[p]] >= 0:
            p += 1
        return p

    for images in itertools.product(B.objects, repeat=len(free)):
        ob = {**fixed, **dict(zip(free, images))}
        ends = [ob[x] for x in A.objects]
        choices = [B.hom_codes(ends[s], ends[t]).tolist() for s, t in zip(K.src.tolist(), K.tgt.tolist())]
        choices = [[m for m in c if k not in allow or m in allow[k]] for k, c in enumerate(choices)]
        units = L.units[[number[y] for y in ends]].tolist()
        if all(choices) and all(map(settle, K.units.tolist(), units)):
            frames = [[next_free(0), 0, len(trail)]]  # position, next choice, trail mark
            while frames:
                frame = frames[-1]
                p, i, mark = frame
                undo(mark)
                if p == len(order):
                    frames.pop()
                    charge()
                    yield validate_functor(A, B, ob, dict(zip(A.morphisms, (L.ids[val[k]] for k in order))))
                elif i == len(choices[order[p]]):
                    frames.pop()
                else:
                    frame[1] = i + 1
                    charge()
                    if settle(order[p], choices[order[p]][i]):
                        frames.append([next_free(p + 1), 0, len(trail)])
        undo(0)


def identity_functor(C: FinCat) -> FinFunctor:
    return FinFunctor(C, C, {x: x for x in C.objects}, {f: f for f in C.morphisms})


def compose_functors(F: FinFunctor, G: FinFunctor) -> FinFunctor:
    """F followed by G (so the classical composite G∘F).  G must start at
    the very category F ends at; an equal copy is another category."""
    if F.target is not G.source:
        raise NotAFunctor("composition endpoint mismatch")
    return FinFunctor(
        F.source,
        G.target,
        {x: G.on_objects[y] for x, y in F.on_objects.items()},
        {f: G.on_morphisms[g] for f, g in F.on_morphisms.items()},
    )


def functors_equal(F: FinFunctor, G: FinFunctor) -> bool:
    return F.on_objects == G.on_objects and F.on_morphisms == G.on_morphisms


def validate_nat_trans(F, G, components) -> NatTrans:
    """Check that there is exactly one component per source object, its
    typing, and every naturality square, by ``unnatural`` (see the module
    docstring).  Ids are strings.  F and G are functors, either given as a
    path, a tuple (F1, ..., Fk) of composable functors that stands for F1
    followed by ... Fk, whose composite is never built: each code and
    object is mapped by each functor in turn.  The ``NatTrans`` keeps F and
    G as given."""
    Fs, Gs = (P if isinstance(P, tuple) else (P,) for P in (F, G))  # a functor is a path of one
    if any(a.target is not b.source for P in (Fs, Gs) for a, b in zip(P, P[1:])):
        raise NotAFunctor("composition endpoint mismatch")
    S, T = Fs[0].source, Fs[-1].target
    if Gs[0].source is not S or Gs[-1].target is not T:
        raise NotNatural("parallel functors required")
    comp, sc, tc, k, n = dict(components), S.coding, T.coding, len(S.objects), len(S.coding.ids)
    zero = np.zeros(max(n, 1), np.intp)  # every family reads the one table of each functor
    paths = [[(zero, P.code_map, zero, P.ob_map) for P in path] for path in (Fs, Gs)]
    codes = np.array([tc.code.get(comp.get(x), -1) for x in S.objects], np.intp)
    items = (zero[:k], np.arange(k)), (zero[: len(sc.gens)], sc.gens)
    if len(comp) == k and not unnatural(sc, tc, *paths, (zero[:1], codes), items)[0]:
        return NatTrans(F, G, comp)
    for x in S.objects:  # the first failure, as a check of one item at a time meets it
        if x not in comp:
            raise NotNatural(("component missing", x))
        if comp[x] not in T.src:
            raise NotNatural(("component unknown", x, comp[x]))
        if (T.src[comp[x]], T.tgt[comp[x]]) != tuple(functools.reduce(lambda y, P: P.ob(y), p, x) for p in (Fs, Gs)):
            raise NotNatural(("component endpoints", x, comp[x]))
    if len(comp) > k:
        raise NotNatural(("component for unknown object", next(x for x in comp if x not in S.identity)))
    bad = np.flatnonzero(unnatural(sc, tc, *paths, (zero, codes), ((zero[:0],) * 2, (np.arange(n),) * 2)))
    if bad.size:  # each square a family of its own
        raise NotNatural(("square", min(sc.ids[k] for k in bad.tolist())))
    raise CategoryError("internal error: Light's test failed, the full check held")


def unnatural(S, T, F, G, comps, items) -> np.ndarray:
    """The mask of the families of components, numbered 0, 1, ... as
    ``comps`` = (at, codes) lists them, that are no natural transformations
    F ⇒ G of maps from the coding ``S`` to ``T`` (as in ``unfunctorial``).
    F and G are paths: lists of maps (at, image, ob_at, image_ob), as in
    ``unfunctorial``, applied in turn; [] is the identity.  Family i has the
    component codes[at[i] + o] at the object o.  ``items`` = (objects,
    squares) lists the (i, o) whose components are typed and the (i, k)
    whose squares are composed (Light's S suffices).  A family fails at a
    component that is negative or not typed F(o) → G(o), then, once its
    listed ones are typed, at a square that does not commute."""
    at, codes = comps

    def along(path, i, k, ob=False):  # k, a code or an object, through path
        for on, image, ob_on, image_ob in path:
            k = image_ob[ob_on[i] + k] if ob else image[on[i] + k]
        return k

    bad = np.zeros(len(at), bool)
    (i, o), (j, k) = items
    m = codes[at[i] + o]
    bad[i[(m < 0) | (T.src[m] != along(F, i, o, True)) | (T.tgt[m] != along(G, i, o, True))]] = True
    if bad.any():  # the squares of the families still typed
        j, k = j[~bad[j]], k[~bad[j]]
    left = T.cells[T.cell(codes[at[j] + S.src[k]], along(G, j, k))]
    bad[j[left != T.cells[T.cell(along(F, j, k), codes[at[j] + S.tgt[k]])]]] = True
    return bad


def identity_nat_trans(F: FinFunctor) -> NatTrans:
    return NatTrans(F, F, {x: F.target.id_of(F.ob(x)) for x in F.source.objects})


@dataclass(frozen=True)
class FunctorProperties:
    full: Check
    faithful: Check
    essentially_surjective: Check

    @property
    def equivalence(self) -> bool:
        return bool(self.full and self.faithful and self.essentially_surjective)


def functor_properties(F: FinFunctor) -> FunctorProperties:
    """Fullness, faithfulness and essential surjectivity, all exhaustive."""
    S, T = F.source, F.target
    full = Check(True)
    faithful = Check(True)
    for x, y in itertools.product(S.objects, repeat=2):
        image = {}
        for f in S.hom(x, y):
            g = F.mor(f)
            if g in image and faithful.holds:
                faithful = Check(False, (image[g], f))
            image.setdefault(g, f)
        if full.holds:
            for g in T.hom(F.ob(x), F.ob(y)):
                if g not in image:
                    full = Check(False, (x, y, g))
                    break
    hit = set(F.on_objects.values())
    lone = (t for t in T.objects if t not in hit and not any(f in T.inverses for h in hit for f in T.hom(t, h)))
    t = next(lone, None)
    return FunctorProperties(full, faithful, Check(t is None, t))
