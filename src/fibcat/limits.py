"""Pullbacks and weak pushouts by exhaustive universal-property search.

A pullback of a cospan is a terminal commutative square over it; a weak
pushout of a span is a pullback square over that span which is initial among
all pullback squares on the same span.  Both searches are exact over the
whole category, so a positive answer is a certificate.

Terminality is decided by counting.  A competitor of (f1, f2) is a
commuting (q, u, v), listed by q in object order, then u and v in hom-set
order.  A competitor (p, u0, v0) sends each w: q→p to the competitor (q,
w;u0, w;v0), and it is terminal exactly when that map is a bijection from
hom(q, p) onto the competitors at q, for every q.  These are finite sets, so
that holds exactly when both of these do:

* for every object q, |hom(q, p)| equals the number K_q(f1, f2) of
  competitors at q: the hom-count column of p equals the cospan's count
  column;
* w ↦ (w;u0, w;v0) is injective on the morphisms into p.  The maps for two
  objects q have images with different sources, so this is injectivity of
  each.  It is automatic when u0 or v0 is mono, as w;u0 = w';u0 then gives
  w = w'.

Every competitor at q meets one h = u;f1 = v;f2 in hom(q, d), for d =
tgt(f1), so K_q(f1, f2) = sum over h of N[f1, h] N[f2, h], where N[f, h] is
the number of u with u;f = h, over the morphisms f and h into d.  N is read
off the cells (u, f) once per d, and so is the least such u.

The chosen pullback is the first terminal competitor, as a scan of the
competitors in order finds it.  By the criterion, a competitor is terminal
only at an object whose hom-count column is the cospan's count column.  So
the chosen one is at the first such object that has an injective
competitor, and it is the first injective competitor there.  The search
hashes the count column to propose the first object with that column,
compares the two columns object by object, and takes the least competitor
there.  If neither leg is mono, injectivity is checked on the cells, and a
failure moves on to the next competitor and then the next object with that
column.  The representative, every counterexample and every report byte are
the ones of the per-competitor scan that ``tests/limits_reference.py``
keeps.

``_pullbacks_into`` decides every cospan into d at once and keeps three
``int32`` arrays in ``_pairs`` order: the apex's object number, -1 where the
cospan has no pullback, and the two legs' codes.  For an isomorphism a of
d, u;f1 = v;f2 exactly when u;f1;a = v;f2;a, so the cospans (f1, f2) and
(f1;a, f2;a) have the same competitors in the same order and the same
chosen pullback.  So only the rows f1 that are least in their orbit under
the automorphisms of d are searched, in rounds of at most ``_ROUND``
counts; every other row f1 is read from the row of f1;a, at f2;a, with a
composed on the cells.  A ``Pullback``, with its mediator table, is made
only when ``pullback`` or ``as_pullback`` is asked for one, and
``pullback`` keeps it.

Squares are tested on the same arrays.  A commuting square with apex p' is
a competitor of its cospan.  If the cospan has a chosen pullback at p, its
count column is the hom-count column of p, and otherwise no competitor is
terminal.  So the square is a pullback square exactly when its cospan has a
chosen apex with the hom-count column of p' and its legs are injective, and
neither ``is_pullback_square`` nor ``preserves_pullbacks`` searches an
isomorphism or reads a mediator.

* Completions.  A commuting square over the span (g1, g2) and the cospan
  (f1, f2) is a pullback square exactly when (g1, g2) = (w;u0, w;v0) for an
  isomorphism w into the apex of the chosen pullback (P, u0, v0) of
  (f1, f2).  So the spans completed by (f1, f2) form one class, the iso
  orbit of (u0, v0), and every span of a class has the same completion
  cospans.  One walk over the arrays, ``_cospan_walk``, keys each cospan by
  the least span of its orbit and gives each class its cospans, and it
  also decides condition 6.  Its order (d, f1, f2) is the one in which a
  per-span scan lists completions, so the lists need no sorting, and a
  span in no class is vacuous without any square being tested.
  Initiality of a completion reads only the cospans, never the span, so it
  too is computed once per class.
* Weak pushouts.  Whether a span has a weak pushout, and which completion
  is chosen, is therefore a property of its class: ``_chosen`` finds the
  first initial completion once per class, and ``has_weak_pushouts`` asks
  it once per span.  The ``Square`` keys of ``WeakPushout.mediators`` are
  built only when a caller asks ``weak_pushout`` for a ``WeakPushout``.

Cospans and spans are enumerated once, by ``_pairs``, as raw id pairs;
``all_cospans`` and ``all_spans`` wrap them in dataclasses for callers.
Results are cached on the category instance, which keeps whole-category
audits tractable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count, product, starmap

import numpy as np

from .core import Check, FinCat, CategoryError
from .functors import FinFunctor


class NotACospan(CategoryError):
    pass


class NotASpan(CategoryError):
    pass


class NonCommuting(CategoryError):
    pass


@dataclass(frozen=True)
class Cospan:
    """A pair of morphisms f1: c1→d, f2: c2→d with a common target."""

    f1: str
    f2: str


@dataclass(frozen=True)
class Span:
    """A pair of morphisms g1: p→c1, g2: p→c2 with a common source."""

    g1: str
    g2: str


@dataclass(frozen=True)
class Square:
    """A commutative square: right∘top = bottom∘left.

    top: p→c1, left: p→c2, right: c1→d, bottom: c2→d.
    """

    top: str
    left: str
    right: str
    bottom: str


@dataclass(frozen=True)
class Pullback:
    apex: str
    leg1: str  # apex -> src(f1)
    leg2: str  # apex -> src(f2)
    mediators: dict  # (q, u, v) -> unique mediator w: q -> apex

    def square(self, cospan: Cospan) -> Square:
        return Square(self.leg1, self.leg2, cospan.f1, cospan.f2)


@dataclass(frozen=True)
class WeakPushout:
    apex: str
    square: Square
    mediators: dict  # competing pullback square -> unique mediator


def check_cospan(C: FinCat, cospan: Cospan) -> None:
    C.require_morphism(cospan.f1)
    C.require_morphism(cospan.f2)
    if C.tgt[cospan.f1] != C.tgt[cospan.f2]:
        raise NotACospan((cospan.f1, cospan.f2))


def check_span(C: FinCat, span: Span) -> None:
    C.require_morphism(span.g1)
    C.require_morphism(span.g2)
    if C.src[span.g1] != C.src[span.g2]:
        raise NotASpan((span.g1, span.g2))


def _composite(coding, f, g):
    """The code of f;g, for composable codes f and g."""
    return coding.cells[coding.cell(f, g)]


def check_square(C: FinCat, sq: Square) -> None:
    for m in (sq.top, sq.left, sq.right, sq.bottom):
        C.require_morphism(m)
    ok = (
        C.src[sq.top] == C.src[sq.left]
        and C.tgt[sq.top] == C.src[sq.right]
        and C.tgt[sq.left] == C.src[sq.bottom]
        and C.tgt[sq.right] == C.tgt[sq.bottom]
    )
    if ok:
        coding = C.coding
        top, left, right, bottom = (coding.code[m] for m in (sq.top, sq.left, sq.right, sq.bottom))
        ok = _composite(coding, top, right) == _composite(coding, left, bottom)
    if not ok:
        raise NonCommuting(sq)


_ROUND = 1 << 20  # counts compared per numpy round, as core's sweeps
_UNDECIDED = object()


def _hom_counts(C: FinCat) -> dict:
    """What every search on C shares, made once: ``pos``, the position of
    each code among the codes into its target; ``first``, the first object
    whose hom-count column |hom(-, p)| is that of p, for each object p;
    ``weights``, which hash a column to an integer, and ``keys`` and
    ``firsts``, the hashes of the distinct columns, sorted, with their first
    objects; ``isos_into``, the isomorphisms into each object."""
    memo = C.cache("hom_counts")
    if not memo:
        coding, k = C.coding, len(C.objects)
        counts = np.bincount(coding.src * k + coding.tgt, minlength=k * k).reshape(k, k)
        seen = {}
        columns = map(tuple, counts.T.tolist())
        first = np.array([seen.setdefault(col, p) for p, col in enumerate(columns)], np.int64)
        firsts = np.flatnonzero(first == np.arange(k))
        for seed in count():
            rng = random.Random(seed)
            weights = np.array([rng.randrange(1, 1 << 20) for _ in range(k)])
            keys = weights @ counts[:, firsts]
            if _distinct(keys):
                break
        pos = np.empty(len(coding.ids), np.int64)
        for ms in coding.into:
            pos[ms] = np.arange(len(ms))
        isos = np.zeros(len(coding.ids), bool)
        isos[[coding.code[a] for a in C.inverses]] = True
        order = np.argsort(keys)
        memo.update(
            counts=counts, pos=pos, first=first, weights=weights,
            keys=keys[order], firsts=firsts[order], isos_into=[ms[isos[ms]] for ms in coding.into],
        )
    return memo


def _pullbacks_into(C: FinCat, d: int):
    """The chosen pullback of every cospan into the object numbered d, as
    three ``int32`` arrays in ``_pairs`` order: the apex's object number,
    or -1 where the cospan has no pullback, and the codes of the two legs.
    Made once per object (see the module docstring)."""
    memo = C.cache("pullbacks_into")
    if d in memo:
        return memo[d]
    coding, hc = C.coding, _hom_counts(C)
    counts, pos = hc["counts"], hc["pos"]
    ms = coding.into[d]
    n, none = len(ms), len(coding.ids)
    # hom(q, d) is the run bounds[q]:bounds[q + 1] of ms
    bounds = np.searchsorted(coding.src[ms], np.arange(len(C.objects) + 1))
    qs = np.flatnonzero(np.diff(bounds))
    # N[f, h]: the number of u with u;f = h; least[f, h]: the least such u
    at, us = [], []
    for c in qs.tolist():
        u, f = coding.into[c], np.arange(bounds[c], bounds[c + 1])
        at.append((f * n + pos[_composite(coding, u[:, None], ms[f])]).ravel())
        us.append(np.repeat(u, len(f)))
    at, us = np.concatenate(at), np.concatenate(us)
    N = np.bincount(at, minlength=n * n).reshape(n, n)
    least = np.full(n * n, none, np.int64)
    np.minimum.at(least, at, us)
    least = least.reshape(n, n)
    del at, us
    # the least f;a over the automorphisms a of d, and the a that makes it
    auts = hc["isos_into"][d]
    auts = auts[coding.src[auts] == d]
    twisted = pos[_composite(coding, ms[:, None], auts)]
    j = twisted.argmin(1)
    rep, twist = twisted[np.arange(n), j], auts[j]
    rows = np.flatnonzero(rep == np.arange(n))
    del twisted

    # zero[p]: no object without a map into d maps to p
    outside = np.ones(len(C.objects), bool)
    outside[qs] = False
    zero = ~counts[outside].any(0)
    found = np.full((3, len(rows), n), -1, np.int32)
    step = max(1, _ROUND // (n * n))
    for lo in range(0, len(rows), step):
        r = rows[lo : lo + step]
        K = np.add.reduceat(N[r][:, None, :] * N[None, :, :], bounds[qs], axis=2)
        key = K @ hc["weights"][qs]
        slot = np.minimum(np.searchsorted(hc["keys"], key), len(hc["keys"]) - 1)
        hit = hc["keys"][slot] == key
        p = np.where(hit, hc["firsts"][slot], 0)
        hit &= zero[p] & (np.moveaxis(counts[qs][:, p], 0, -1) == K).all(-1)
        p[~hit] = -1
        for x in np.flatnonzero(np.bincount(p[p >= 0])).tolist():
            i, f2 = np.nonzero(p == x)
            a = least[r[i], bounds[x] : bounds[x + 1]]
            b = least[f2, bounds[x] : bounds[x + 1]]
            a = np.where(b < none, a, none)
            h = a.argmin(1)
            u, v = a[np.arange(len(i)), h], b[np.arange(len(i)), h]
            found[0, lo + i, f2], found[1, lo + i, f2], found[2, lo + i, f2] = x, u, v
            for k in np.flatnonzero(~(coding.monos[u] | coding.monos[v])).tolist():
                found[:, lo + i[k], f2[k]] = _first_terminal(C, ms[r[i[k]]], ms[f2[k]], x)
    # fill every row f1 from the row of its representative f1;a, at f2;a
    at = np.searchsorted(rows, rep)[:, None], pos[_composite(coding, ms, twist[:, None])]
    memo[d] = tuple(x[at].ravel() for x in found)
    return memo[d]


def _first_terminal(C: FinCat, f1, f2, p: int):
    """(apex, leg1, leg2) of the first terminal competitor of the cospan
    (f1, f2) of codes, whose count column is that of the object p, or (-1,
    -1, -1): the first injective competitor at the first object with p's
    column that has one."""
    coding, first = C.coding, _hom_counts(C)["first"]
    c1, c2 = (coding.into[coding.src[f]] for f in (f1, f2))
    for x in np.flatnonzero(first == first[p]).tolist():
        us, vs = c1[coding.src[c1] == x], c2[coding.src[c2] == x]
        made = _composite(coding, vs, f2)
        for u, h in zip(us.tolist(), _composite(coding, us, f1).tolist()):
            for v in vs[made == h].tolist():
                if _injective(coding, x, u, v):
                    return x, u, v
    return -1, -1, -1


def _distinct(a) -> bool:
    """Whether the entries of the array ``a`` are pairwise distinct."""
    a = np.sort(a)
    return not (a[1:] == a[:-1]).any()


def _injective(coding, p: int, u, v) -> bool:
    """Whether w ↦ (w;u, w;v) is injective on the codes w into the object
    numbered p, for codes u and v out of it."""
    if coding.monos[u] or coding.monos[v]:
        return True
    ws = coding.into[p]
    made = _composite(coding, ws, u).astype(np.int64) * len(coding.ids) + _composite(coding, ws, v)
    return _distinct(made)


def _at(C: FinCat, d: int, f1, f2):
    """The place, in the arrays of ``_pullbacks_into(C, d)``, of the
    cospans (f1, f2) of codes into the object numbered d."""
    pos = _hom_counts(C)["pos"]
    return pos[f1] * len(C.coding.into[d]) + pos[f2]


def _package(C: FinCat, p: int, u, v) -> Pullback:
    """The ``Pullback`` (p, u, v) of codes, terminal, with its mediator
    table: each w into p mediates to the competitor (src w, w;u, w;v)."""
    coding = C.coding
    ws = coding.into[p]
    ids, objects = coding.ids, C.objects
    competitors = zip(
        (objects[x] for x in coding.src[ws].tolist()),
        map(ids.__getitem__, _composite(coding, ws, u).tolist()),
        map(ids.__getitem__, _composite(coding, ws, v).tolist()),
    )
    mediators = dict(zip(competitors, map(ids.__getitem__, ws.tolist())))
    return Pullback(objects[p], ids[u], ids[v], mediators)


def pullback(C: FinCat, cospan: Cospan):
    """The chosen pullback of a cospan, or None when none exists.

    Ties between isomorphic answers are broken by the lexicographically least
    (apex, leg1, leg2), which makes outputs reproducible.  The ``Pullback``,
    with its mediator table, is made when first asked for and kept.
    """
    check_cospan(C, cospan)
    cache = C.cache("pullbacks")
    key = (cospan.f1, cospan.f2)
    pb = cache.get(key, _UNDECIDED)
    if pb is _UNDECIDED:
        coding = C.coding
        f1, f2 = coding.code[cospan.f1], coding.code[cospan.f2]
        d = int(coding.tgt[f1])
        i = _at(C, d, f1, f2)
        p, u, v = (int(x[i]) for x in _pullbacks_into(C, d))
        pb = cache[key] = None if p < 0 else _package(C, p, u, v)
    return pb


def as_pullback(C: FinCat, cospan: Cospan, leg1: str, leg2: str):
    """Package a chosen competitor as a pullback, or None if not terminal.

    Unlike ``pullback`` this lets the caller pick a non-canonical
    representative; the mediator table is rebuilt for that choice.  Legs
    that do not form a commuting square over the cospan give None.
    """
    check_cospan(C, cospan)
    p = C.src[leg1]
    if leg2 not in C.src or C.src[leg2] != p:
        return None
    if C.tgt[leg1] != C.src[cospan.f1] or C.tgt[leg2] != C.src[cospan.f2]:
        return None
    coding = C.coding
    u, v, f1, f2 = (coding.code[m] for m in (leg1, leg2, cospan.f1, cospan.f2))
    if _composite(coding, u, f1) != _composite(coding, v, f2):
        return None
    if not _is_pullback(C, leg1, leg2, cospan.f1, cospan.f2):
        return None
    return _package(C, int(coding.src[u]), u, v)


def _is_pullback(C: FinCat, top: str, left: str, right: str, bottom: str) -> bool:
    """``is_pullback_square`` for a square already known to commute: its
    cospan has a chosen apex with the hom-count column of src top, and w ↦
    (w;top, w;left) is injective (see the module docstring)."""
    coding, first = C.coding, _hom_counts(C)["first"]
    t, l, r, b = map(coding.code.__getitem__, (top, left, right, bottom))
    d, p = int(coding.tgt[r]), int(coding.src[t])
    apex = _pullbacks_into(C, d)[0][_at(C, d, r, b)]
    return bool(apex >= 0 and first[p] == first[apex] and _injective(coding, p, t, l))


def is_pullback_square(C: FinCat, sq: Square) -> bool:
    """Whether the square is terminal over its own cospan.

    A commuting square is a pullback square exactly when its cospan has a
    chosen pullback whose apex has the hom-count column of the square's and
    its legs are injective on the maps into its apex; no isomorphism is
    searched and no mediator made.
    """
    check_square(C, sq)
    return _is_pullback(C, sq.top, sq.left, sq.right, sq.bottom)


class _CompletionClass:
    """The cospans completed by one iso orbit of spans, in ``all_cospans``
    order, the memoised initiality of each completion and the position of
    the chosen (first initial) one."""

    __slots__ = ("cospans", "initiality", "chosen")

    def __init__(self, cospans):
        self.cospans = cospans
        self.initiality = {}
        self.chosen = _UNDECIDED


def _pairs(C: FinCat, into: bool):
    """The cospans (``into``) or the spans as raw id pairs, in the one audit
    order: by the common end, then both legs by their other end and
    hom-set order."""
    objects, hom = C.objects, C.hom
    for d in objects:
        ms = [f for x in objects for f in (hom(x, d) if into else hom(d, x))]
        yield from product(ms, repeat=2)


def _orbit(C: FinCat, p: int, u, v):
    """The spans (w;u, w;v), keyed w;u * n + w;v for n codes, for every
    isomorphism w into the object numbered p (a row each) and the spans (u,
    v) of codes out of p (a column each)."""
    coding = C.coding
    ws = _hom_counts(C)["isos_into"][p][:, None]
    return _composite(coding, ws, u).astype(np.int64) * len(coding.ids) + _composite(coding, ws, v)


def _cospan_walk(C: FinCat):
    """(``has_pullbacks`` answer, completion index) from one memoised pass
    over the chosen pullbacks of the cospans into each object.  The legs of
    each are keyed by the least span of their iso orbit, composed on the
    cells, and each class takes its cospans in ``_pairs`` order."""
    memo = C.cache("cospan_walk")
    if not memo:
        coding, isos_into = C.coding, _hom_counts(C)["isos_into"]
        n, names = len(coding.ids), np.array(coding.ids, object)
        keys, f1s, f2s = ([np.empty(0, np.int64)] for _ in range(3))
        first, total = None, 0
        for d, ms in enumerate(coding.into):
            apex, leg1, leg2 = _pullbacks_into(C, d)
            total += apex.size
            has = np.flatnonzero(apex >= 0)
            if first is None and has.size < apex.size:
                i = int(np.argmin(apex >= 0))
                first = Cospan(*names[ms[[i // len(ms), i % len(ms)]]].tolist())
            legs, at = np.unique(leg1[has].astype(np.int64) * n + leg2[has], return_inverse=True)
            u, v = divmod(legs, n)
            p = coding.src[u]
            for x in np.flatnonzero(np.bincount(p)).tolist():
                if len(isos_into[x]) > 1:
                    legs[p == x] = _orbit(C, x, u[p == x], v[p == x]).min(0)
            keys.append(legs[at])
            f1s.append(ms[has // len(ms)])
            f2s.append(ms[has % len(ms)])
        keys, at = np.unique(np.concatenate(keys), return_inverse=True)
        order = np.argsort(at, kind="stable")
        f1s, f2s = (names[np.concatenate(f)[order]].tolist() for f in (f1s, f2s))
        cuts = np.searchsorted(at[order], np.arange(len(keys) + 1)).tolist()
        classes = [
            _CompletionClass(list(zip(f1s[lo:hi], f2s[lo:hi]))) for lo, hi in zip(cuts, cuts[1:])
        ]
        # every span of a class's orbit is completed by the class's cospans
        index = {}
        u, v = divmod(keys, n)
        p = coding.src[u]
        for x in np.flatnonzero(np.bincount(p)).tolist():
            k = np.flatnonzero(p == x)
            spans = _orbit(C, x, u[k], v[k])
            owners = map(classes.__getitem__, np.broadcast_to(k, spans.shape).ravel().tolist())
            g1, g2 = (names[s].tolist() for s in divmod(spans.ravel(), n))
            index.update(zip(zip(g1, g2), owners))
        memo["check"] = (
            Check(True, info={"cospans": total}) if first is None else Check(False, first)
        )
        memo["index"] = index
    return memo["check"], memo["index"]


def _completion_index(C: FinCat) -> dict:
    """Span (g1, g2) -> its ``_CompletionClass``; a span with no
    pullback-square completion is absent."""
    return _cospan_walk(C)[1]


def _pullback_completions(C: FinCat, g1: str, g2: str) -> list:
    """All pullback-square completions of the span (g1, g2), in (d, f1, f2)
    order.  The squares commute by construction, so they skip
    ``check_square``."""
    cls = _completion_index(C).get((g1, g2))
    return [] if cls is None else [Square(g1, g2, f1, f2) for (f1, f2) in cls.cospans]


def _initiality(C: FinCat, cls: _CompletionClass, right: str, bottom: str):
    """Unique mediators from the completion (right, bottom) to every
    completion of its class, memoised on the class.

    hom(d, z) is indexed once per target z by (right;h, bottom;h), so each
    completion costs one lookup.  Returns (mediators, failure): mediators
    lists one h per class cospan; failure is (position, "no_mediator") or
    (position, "non_unique") for the first cospan that breaks initiality,
    so the two ways stay distinguishable.
    """
    key = (right, bottom)
    if key in cls.initiality:
        return cls.initiality[key]
    table = C.table
    d = C.tgt[right]
    by_target = {}
    mediators, failure = [], None
    for j, (f1, f2) in enumerate(cls.cospans):
        z = C.tgt[f1]
        index = by_target.get(z)
        if index is None:
            index = by_target[z] = {}
            for h in C.hom(d, z):
                index.setdefault((table[(right, h)], table[(bottom, h)]), []).append(h)
        found = index.get((f1, f2), ())
        if len(found) != 1:
            mediators, failure = None, (j, "non_unique" if found else "no_mediator")
            break
        mediators.append(found[0])
    result = cls.initiality[key] = (mediators, failure)
    return result


def _chosen(C: FinCat, cls: _CompletionClass):
    """Position of the first initial completion of the class, or None when
    its spans have no weak pushout; memoised on the class."""
    if cls.chosen is _UNDECIDED:
        cls.chosen = next(
            (
                i
                for i, (right, bottom) in enumerate(cls.cospans)
                if _initiality(C, cls, right, bottom)[1] is None
            ),
            None,
        )
    return cls.chosen


def weak_pushout(C: FinCat, span: Span):
    """The chosen weak pushout of a span, or None.

    A weak pushout is a pullback-square completion of the span through which
    every other pullback-square completion factors uniquely; the first one
    in completion order is chosen.
    """
    check_span(C, span)
    cls = _completion_index(C).get((span.g1, span.g2))
    i = None if cls is None else _chosen(C, cls)
    if i is None:
        return None
    right, bottom = cls.cospans[i]
    mediators, _ = _initiality(C, cls, right, bottom)
    squares = _pullback_completions(C, span.g1, span.g2)
    return WeakPushout(C.tgt[right], squares[i], dict(zip(squares, mediators)))


def is_weak_pushout_square(C: FinCat, sq: Square) -> Check:
    """Full universal check of a single candidate square."""
    check_square(C, sq)
    if not _is_pullback(C, sq.top, sq.left, sq.right, sq.bottom):
        return Check(False, (sq, "not_a_pullback_square"))
    cls = _completion_index(C)[(sq.top, sq.left)]
    _, failure = _initiality(C, cls, sq.right, sq.bottom)
    if failure is not None:
        j, reason = failure
        return Check(False, (Square(sq.top, sq.left, *cls.cospans[j]), reason))
    return Check(True)


def has_pullback_square_completion(C: FinCat, span: Span) -> bool:
    check_span(C, span)
    return (span.g1, span.g2) in _completion_index(C)


def all_cospans(C: FinCat):
    return starmap(Cospan, _pairs(C, into=True))


def has_pullbacks(C: FinCat) -> Check:
    """Every cospan has a pullback; the counterexample is the first that has
    none, and a passing check counts the cospans.  It is read from the
    cached cospan walk, which also builds condition 7's completion index,
    so on a failing category the walk still runs to the end: the searches
    condition 7 needs anyway."""
    return _cospan_walk(C)[0]


def all_spans(C: FinCat):
    return starmap(Span, _pairs(C, into=False))


def has_weak_pushouts(C: FinCat) -> Check:
    """Every span with a pullback-square completion has a weak pushout; the
    counterexample is the first span that has none, and a passing check
    counts the spans and the vacuous ones (those with no completion)."""
    index = _completion_index(C)
    n = vacuous = 0
    for n, span in enumerate(_pairs(C, into=False), 1):
        cls = index.get(span)
        if cls is None:
            vacuous += 1
        elif _chosen(C, cls) is None:
            return Check(False, Span(*span))
    return Check(True, info={"spans": n, "vacuous_spans": vacuous})


def _image_square(F: FinFunctor, sq: Square) -> Square:
    return Square(F.mor(sq.top), F.mor(sq.left), F.mor(sq.right), F.mor(sq.bottom))


def preserves_pullbacks(F: FinFunctor) -> Check:
    """Image of every chosen pullback square is a pullback square.

    Pullback squares over a cospan agree up to an apex isomorphism and
    functors preserve isomorphisms, so checking the chosen one per cospan
    covers them all.  A functor's image of a commuting square commutes, so
    the images of the chosen squares into each object, coded through
    ``F.code_map``, go straight to the terminality test of ``_is_pullback``,
    all at once.
    """
    C, T, m = F.source, F.target, F.code_map
    first, monos = _hom_counts(T)["first"], T.coding.monos
    n = 0
    for d, ms in enumerate(C.coding.into):
        apex, leg1, leg2 = _pullbacks_into(C, d)
        has = np.flatnonzero(apex >= 0)
        if not has.size:
            continue
        f1, f2 = (ms[k] for k in divmod(has, len(ms)))
        top, left, right, bottom = m[leg1[has]], m[leg2[has]], m[f1], m[f2]
        e = int(T.coding.tgt[right[0]])
        image = _pullbacks_into(T, e)[0][_at(T, e, right, bottom)]
        p = T.coding.src[top]
        ok = (image >= 0) & (first[p] == first[image])
        for k in np.flatnonzero(ok & ~monos[top] & ~monos[left]).tolist():
            ok[k] = _injective(T.coding, p[k], top[k], left[k])
        if not ok.all():
            k = int(np.argmin(ok))
            square = (leg1[has[k]], leg2[has[k]], f1[k], f2[k])
            return Check(False, Square(*map(C.coding.ids.__getitem__, square)))
        n += has.size
    return Check(True, info={"pullback_squares_checked": n})


def preserves_weak_pushouts(F: FinFunctor) -> Check:
    """Image of every chosen weak pushout square passes the universal check."""
    C = F.source
    index = _completion_index(C)
    n = 0
    for g1, g2 in _pairs(C, into=False):
        cls = index.get((g1, g2))
        i = None if cls is None else _chosen(C, cls)
        if i is None:
            continue
        n += 1
        sq = Square(g1, g2, *cls.cospans[i])
        verdict = is_weak_pushout_square(F.target, _image_square(F, sq))
        if not verdict:
            return Check(False, (sq, verdict.counterexample))
    return Check(True, info={"weak_pushout_squares_checked": n})
