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
the number of u with u;f = h, over the morphisms f and h into d; only the h
that factor through f1 add to it.  N, numbered as the cospans (f, h), and
the least such u are read off the cells once, a source object at a time.

The chosen pullback is the first terminal competitor, as a scan of the
competitors in order finds it.  By the criterion, a competitor is terminal
only at an object whose hom-count column is the cospan's count column.  So
the chosen one is at the first such object that has an injective
competitor, and it is the first injective competitor there.  The search
hashes the count column to propose the first object p with that column,
checks the counts at the sources of the h that factor through f1 against
p's column and their sum against |into p|, and takes the least competitor
at p.  If neither leg is mono, injectivity is checked on the cells, and a
failure moves on to the next competitor and then the next object with that
column.  The representative, every counterexample and every report byte are
the ones of the per-competitor scan that ``tests/limits_reference.py``
keeps.

``_pullbacks`` decides every cospan of C in passes over all of C, with no
loop over targets, and keeps an ``int32`` record per cospan, numbered in
``_pairs`` order (``_cospan``): the apex's object number, -1 where the
cospan has no pullback, the legs' codes and the completion class.  For an
isomorphism a of d, u;f1 = v;f2 exactly when u;f1;a = v;f2;a, so the
cospans (f1, f2) and (f1;a, f2;a) have the same competitors in the same
order and the same chosen pullback.  So only the rows f1 least in their
orbit under the automorphisms of d are searched, in rounds of cospans whose
f1 have one number of h that factor through them; the least competitors of
a round's hits take one gather per number of those h in hom(p, d).  Every
other row f1 is then filled from the row of f1;a, at f2;a.  A
``Pullback``, with its mediator table, is made only when ``pullback`` or
``as_pullback`` is asked for one, and ``pullback`` keeps it.

Squares are tested on the same records, read at their cospans' numbers.  A
commuting square with apex p' is a competitor of its cospan.  If the cospan
has a chosen pullback at p, its count column is the hom-count column of p,
and otherwise no competitor is terminal.  So the square is a pullback
square exactly when its cospan has a chosen apex with the hom-count column
of p' and its legs are injective, and neither ``is_pullback_square`` nor
``preserves_pullbacks`` searches an isomorphism or reads a mediator.

* Completions.  A commuting square over the span (g1, g2) and the cospan
  (f1, f2) is a pullback square exactly when (g1, g2) = (w;u0, w;v0) for an
  isomorphism w into the apex of the chosen pullback (P, u0, v0) of
  (f1, f2).  So the spans completed by (f1, f2) form one class, the iso
  orbit of (u0, v0), with one span per w as the legs of a pullback are
  injective, and every span of a class has the same completion cospans.
  Classes are keyed by the least span of their orbits, the first in
  ``_pairs`` order, and numbered on the searched rows, whose cospans share
  their legs with the rows filled from them.  ``_cospan_walk`` lists each
  class's cospans by number, in the (d, f1, f2) order in which a per-span
  scan lists completions, and decides condition 6.  A span's class is found
  from the least span of its orbit, and a span in no class is vacuous
  without any square being tested.
* Weak pushouts.  Call the cospan (r;h, b;h), for h out of d, the one that
  h hits from the completion (r, b) into d.  (r, b) is initial exactly when
  it hits every cospan of its class exactly once.  For a cospan (f1, f2) of
  the class, r;h = f1 forces tgt h = tgt f1, so its mediators are exactly
  the h out of d that hit it: none is ``no_mediator``, several are
  ``non_unique``.  The cospans of a class are distinct, so (r, b) is
  initial when its hits in the class number the class's cospans and none is
  hit twice.  Each hit is read from the rows of r and b in the cells, and
  its class from the class numbers.  Initiality reads only the cospans,
  never the span, so ``_chosen`` finds the first initial completion once
  per class, trying the next completion of every undecided class in one
  batched pass; the first span without a weak pushout is the key of the
  first class without a chosen completion.

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

from .core import Check, FinCat, CategoryError, runs
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


_ROUND = 1 << 20  # numbers per numpy round: a few MB an array; the size is not tuned by measurement
_PRODUCTS = 1 << 14  # products per round of the search, each with ~10 numbers
_UNDECIDED = object()
# what ``_pullbacks`` keeps of a cospan, one record per cospan
_FOUND = np.dtype([("apex", np.int32), ("leg1", np.int32), ("leg2", np.int32), ("cls", np.int32)])


def _hom_counts(C: FinCat) -> dict:
    """What every search on C shares, made once: ``counts``, |hom(q, p)|;
    ``first``, the first object with the hom-count column of p, for each p;
    ``weights``, which hash a column, and ``keys`` and ``firsts``, the
    distinct columns' hashes, sorted, and first objects; ``into``, the codes
    by target, those into x from ``start[x]`` on, of which ``isos`` and
    ``auts`` hold the isomorphisms and automorphisms, from ``iso_at[x]`` and
    ``aut_at[x]`` on; ``width``, |into x|; ``before``, the number of cospans
    into the objects before x; and ``base``, the number of each cospan (f,
    h) less the rank of h."""
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
        into = np.concatenate(coding.into)
        isos = into[coding.inverse[into] >= 0]
        auts = isos[coding.src[isos] == coding.tgt[isos]]
        order = np.argsort(keys)
        width = np.bincount(coding.tgt, minlength=k)
        before = np.concatenate(([0], np.cumsum(width * width)))
        memo.update(
            counts=counts, first=first, weights=weights, keys=keys[order], firsts=firsts[order],
            isos=isos, iso_at=np.searchsorted(coding.tgt[isos], np.arange(k + 1)),
            auts=auts, aut_at=np.searchsorted(coding.tgt[auts], np.arange(k + 1)),
            width=width, before=before, into=into, start=np.concatenate(([0], np.cumsum(width))),
            base=before[coding.tgt] + coding.ranks * width[coding.tgt],
        )
    return memo


def _factorings(C: FinCat):
    """N and ``least``, numbered as cospans by ``_cospan``: for the cospan
    (f, h) of codes, the number of u with u;f = h, and the least such u, or
    n for n codes where there is none.  Read off the cells one source
    object's block of rows at a time; a u;f with f mono is the only u
    there, so only the columns of the f that are not mono are counted."""
    coding, hc = C.coding, _hom_counts(C)
    n = len(coding.ids)
    N = np.zeros(hc["before"][-1], np.int32)
    least = np.full(len(N), n, np.int32)
    for c, us in enumerate(coding.into):
        lo, hi = coding.out[c : c + 2]
        at = hc["base"][lo:hi] + coding.ranks[coding.block(us, c)]
        mono = coding.monos[lo:hi]
        if not mono.all():
            many = at[:, ~mono]
            np.minimum.at(least, many, np.broadcast_to(us[:, None], many.shape))
            np.add.at(N, many, 1)
            at = at[:, mono]
        least[at], N[at] = us[:, None], 1
    return N, least


def _orbits(C: FinCat):
    """For each code f into an object d, the least f;a over the
    automorphisms a of d, and the first a that makes it."""
    coding, hc = C.coding, _hom_counts(C)
    rep, twist = np.arange(len(coding.ids)), np.full(len(coding.ids), -1)
    aut_at = hc["aut_at"][coding.tgt]
    for f, places in _grouped(aut_at, hc["aut_at"][coding.tgt + 1] - aut_at):
        if places.shape[1] > 1:
            a = hc["auts"][places]
            made = _composite(coding, f[:, None], a)
            j = (np.arange(len(f)), made.argmin(1))
            rep[f], twist[f] = made[j], a[j]
    return rep, twist


def _grouped(starts, sizes, most=_ROUND):
    """The places i with one value of ``sizes[i]`` at a time, at most
    ``most`` numbers (or one place) a round, each with the range of
    ``sizes[i]`` numbers from ``starts[i]`` as a row."""
    for size in np.unique(sizes).tolist():
        every = np.flatnonzero(sizes == size)
        step = max(1, most // max(size, 1))
        for lo in range(0, len(every), step):
            i = every[lo : lo + step]
            yield i, starts[i][:, None] + np.arange(size)


def _pullbacks(C: FinCat) -> dict:
    """The chosen pullback and the completion class of every cospan, as
    ``int32`` arrays numbered by ``_cospan``: ``apex``, the apex's object
    number or -1 where the cospan has no pullback, ``leg1`` and ``leg2``,
    the codes of the legs, and ``cls``, the class or -1; and ``keys``, the
    key (see ``_least``) of each class, increasing.  Made once, rows least
    in their orbits first (see the module docstring)."""
    memo = C.cache("cospans")
    if not memo:
        coding, hc = C.coding, _hom_counts(C)
        rep, twist = _orbits(C)
        found = np.full(4 * hc["before"][-1], -1, np.int32).view(_FOUND)
        at = _search(C, hc["into"][rep[hc["into"]] == hc["into"]], found)
        keys = _least(C, found["leg1"][at], found["leg2"][at])
        classes = np.unique(keys)
        found["cls"][at] = np.searchsorted(classes, keys)
        # fill the row of each other f1 from that of f1;a, at f2;a, for a
        # the twist of f1, rows of one width at a time
        f1 = hc["into"][rep[hc["into"]] != hc["into"]]
        d, row = coding.tgt[f1], coding.row[hc["into"]]
        for i, f2 in _grouped(hc["start"][d], hc["width"][d]):
            made = coding.cells[row[f2] + (twist[f1[i]] - coding.out[d[i]])[:, None]]
            to = hc["base"][f1[i]][:, None] + np.arange(f2.shape[1])
            found[to] = found[hc["base"][rep[f1[i]]][:, None] + coding.ranks[made]]
        memo.update({name: found[name] for name in _FOUND.names}, keys=classes)
    return memo


def _search(C: FinCat, rows, found):
    """Write the chosen pullback of every cospan (r, f2), for r in ``rows``,
    into ``found``, and return the numbers of those that have one.  A round
    takes at most ``_PRODUCTS`` of the products N[r, h] N[f2, h], over the
    h that factor through r (see the module docstring)."""
    coding, hc = C.coding, _hom_counts(C)
    N, least = _factorings(C)
    n, width, before, into, start = len(coding.ids), hc["width"], hc["before"], hc["into"], hc["start"]
    d = coding.tgt[rows]
    # row by row, the h with N[r, h] > 0, by rank: N[r, h], the least u
    # with u;r = h, and the source of h, whose first h in a row are ``new``
    row, at = runs(hc["base"][rows], width[d])
    keep = N[at] > 0
    row, at = row[keep], at[keep]
    h = at - hc["base"][rows][row]
    rN, ru, rq = N[at].astype(np.int64), least[at], coding.src[into[start[d][row] + h]]
    size = np.bincount(row, minlength=len(rows))
    new = np.ones(len(row), bool)
    new[1:] = (row[1:] != row[:-1]) | (rq[1:] != rq[:-1])
    sources = np.bincount(row[new], minlength=len(rows))
    # the cospans (r, f2), as r's place in ``rows`` and the rank of f2
    pair, rank = runs(np.zeros(len(rows), np.int64), width[d])
    hits = []
    # a round of cospans whose r have one number of h, each h in a column
    for c, j in _grouped(np.cumsum(size)[pair] - size[pair], size[pair], _PRODUCTS):
        i, f = pair[c], rank[c]
        e = d[i]
        at = ((before[e] + f * width[e])[:, None] + h[j]).ravel()  # the cospan (f2, h)
        j = j.ravel()
        made = rN[j] * N[at]
        heads = np.flatnonzero(new[j])  # where each (r, f2, q) starts
        K = made if heads.size == made.size else np.add.reduceat(made, heads)
        q, m = rq[j[heads]], sources[i]
        firsts = np.cumsum(m) - m
        key = np.add.reduceat(K * hc["weights"][q], firsts)
        slot = np.minimum(np.searchsorted(hc["keys"], key), len(hc["keys"]) - 1)
        p = np.where(hc["keys"][slot] == key, hc["firsts"][slot], -1)
        ok = np.logical_and.reduceat(K == hc["counts"][q, np.repeat(p, m)], firsts)
        p[~ok | (np.add.reduceat(K, firsts) != width[p])] = -1
        # the least competitor at p, over the h of hom(p, d), grouped by
        # how many of them factor through r
        x = np.flatnonzero(p >= 0)
        run = np.flatnonzero(q == np.repeat(p, m))
        u, v = np.empty((2, len(x)), np.int64)
        for g, places in _grouped(heads[run], np.append(heads[1:], len(made))[run] - heads[run]):
            a = np.where(made[places] > 0, ru[j[places]], n)
            places = places[np.arange(len(g)), a.argmin(1)]
            u[g], v[g] = ru[j[places]], least[at[places]]
        t = hc["base"][rows[i[x]]] + f[x]
        found["apex"][t], found["leg1"][t], found["leg2"][t] = p[x], u, v
        for y in np.flatnonzero(~(coding.monos[u] | coding.monos[v])).tolist():
            f2 = into[start[e[x[y]]] + f[x[y]]]
            found[t[y]] = (*_first_terminal(C, rows[i[x[y]]], f2, p[x[y]]), -1)
        hits.append(t[found["apex"][t] >= 0])
    return np.concatenate(hits)


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


def _cospan(C: FinCat, f1, f2):
    """The number of the cospans (f1, f2) of codes among all cospans, in
    ``_pairs`` order."""
    return _hom_counts(C)["base"][f1] + C.coding.ranks[f2]


def _cospan_codes(C: FinCat, t):
    """The codes (f1, f2) of the cospans numbered t."""
    hc = _hom_counts(C)
    d = np.searchsorted(hc["before"], t, "right") - 1
    f1, f2 = divmod(t - hc["before"][d], hc["width"][d])
    return hc["into"][hc["start"][d] + f1], hc["into"][hc["start"][d] + f2]


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
        i, found = _cospan(C, coding.code[cospan.f1], coding.code[cospan.f2]), _pullbacks(C)
        p, u, v = (int(found[x][i]) for x in ("apex", "leg1", "leg2"))
        pb = cache[key] = None if p < 0 else _package(C, p, u, v)
    return pb


def as_pullback(C: FinCat, cospan: Cospan, leg1: str, leg2: str):
    """Package a chosen competitor as a pullback, or None if not terminal.

    Unlike ``pullback`` this lets the caller pick a non-canonical
    representative; the mediator table is rebuilt for that choice.  An
    unknown leg raises ``UnknownMorphism``, as an unknown cospan leg does;
    legs that do not form a commuting square over the cospan give None.
    """
    check_cospan(C, cospan)
    C.require_morphism(leg1)
    C.require_morphism(leg2)
    p = C.src[leg1]
    if C.src[leg2] != p:
        return None
    if C.tgt[leg1] != C.src[cospan.f1] or C.tgt[leg2] != C.src[cospan.f2]:
        return None
    coding = C.coding
    u, v, f1, f2 = _codes(C, leg1, leg2, cospan.f1, cospan.f2)
    if _composite(coding, u, f1) != _composite(coding, v, f2):
        return None
    if not _is_pullback(C, u, v, f1, f2)[0]:
        return None
    return _package(C, int(coding.src[u[0]]), int(u[0]), int(v[0]))


def _codes(C: FinCat, *ids):
    """The code of each of ``ids``, as an array of one."""
    return np.array([[C.coding.code[m]] for m in ids])


def _is_pullback(C: FinCat, top, left, right, bottom):
    """Whether each commuting square of codes (top, left, right, bottom) is
    a pullback square, by the test in the module docstring."""
    coding, first = C.coding, _hom_counts(C)["first"]
    apex = _pullbacks(C)["apex"][_cospan(C, right, bottom)]
    p = coding.src[top]
    ok = (apex >= 0) & (first[p] == first[apex])
    for k in np.nonzero(ok & ~coding.monos[top] & ~coding.monos[left])[0].tolist():
        ok[k] = _injective(coding, p[k], top[k], left[k])
    return ok


def is_pullback_square(C: FinCat, sq: Square) -> bool:
    """Whether the square is terminal over its own cospan.

    A commuting square is a pullback square exactly when its cospan has a
    chosen pullback whose apex has the hom-count column of the square's and
    its legs are injective on the maps into its apex; no isomorphism is
    searched and no mediator made.
    """
    check_square(C, sq)
    return bool(_is_pullback(C, *_codes(C, sq.top, sq.left, sq.right, sq.bottom))[0])


def _pairs(C: FinCat, into: bool):
    """The cospans (``into``) or the spans as raw id pairs, in the one audit
    order: by the common end, then both legs by their other end and
    hom-set order."""
    objects, hom = C.objects, C.hom
    for d in objects:
        ms = [f for x in objects for f in (hom(x, d) if into else hom(d, x))]
        yield from product(ms, repeat=2)


def _least(C: FinCat, u, v):
    """The least span (w;u, w;v) over the isomorphisms w into the source of
    each span (u, v) of codes, keyed w;u * n + w;v for n codes.  Keys
    follow ``_pairs`` order, as codes are block-major."""
    coding, hc = C.coding, _hom_counts(C)
    n, at = len(coding.ids), hc["iso_at"]
    keys = u.astype(np.int64) * n + v
    p = coding.src[u]
    for i, places in _grouped(at[p], at[p + 1] - at[p]):
        if places.shape[1] > 1:
            w = hc["isos"][places]
            made = _composite(coding, w, u[i, None]).astype(np.int64) * n + _composite(coding, w, v[i, None])
            keys[i] = made.min(1)
    return keys


def _cospan_walk(C: FinCat) -> dict:
    """One memoised pass over the chosen pullbacks of all cospans:
    ``check``, the ``has_pullbacks`` answer, and the completion classes
    (see the module docstring).  ``cls`` holds the class of every cospan,
    numbered as by ``_cospan``, or -1; ``cospans`` holds the numbers of the
    cospans of class c from ``cuts[c]`` to ``cuts[c + 1]``; ``keys[c]``,
    increasing in c, is the key (see ``_least``) of the least span of
    class c, and ``spans[c]`` the number of its spans."""
    memo = C.cache("cospan_walk")
    if not memo:
        coding, found = C.coding, _pullbacks(C)
        cls, keys = found["cls"], found["keys"]
        has = np.flatnonzero(cls >= 0)
        check = Check(True, info={"cospans": len(cls)})
        if has.size < cls.size:
            f1, f2 = _cospan_codes(C, np.argmin(cls >= 0))
            check = Check(False, Cospan(coding.ids[f1], coding.ids[f2]))
        number = cls[has]
        cuts = np.concatenate(([0], np.cumsum(np.bincount(number, minlength=len(keys)))))
        # numpy sorts 16-bit keys stably by radix: by the low 16 bits of the
        # class numbers (``astype`` keeps them), then by the high ones
        order = np.argsort(number.astype(np.uint16), kind="stable")
        if len(keys) > 1 << 16:
            order = order[np.argsort((number[order] >> 16).astype(np.uint16), kind="stable")]
        iso_at = _hom_counts(C)["iso_at"]
        memo.update(
            check=check,
            cls=cls,
            cospans=has[order],
            cuts=cuts,
            keys=keys,
            spans=np.diff(iso_at)[coding.src[keys // len(coding.ids)]],
        )
    return memo


def _span_class(C: FinCat, g1: str, g2: str) -> int:
    """The completion class of the span (g1, g2), or -1 where it has no
    pullback-square completion."""
    coding, keys = C.coding, _cospan_walk(C)["keys"]
    u, v = coding.code[g1], coding.code[g2]
    key = _least(C, np.array([u]), np.array([v]))[0]
    c = int(np.searchsorted(keys, key))
    return c if c < len(keys) and keys[c] == key else -1


def _pullback_completions(C: FinCat, g1: str, g2: str) -> list:
    """All pullback-square completions of the span (g1, g2), in (d, f1, f2)
    order.  The squares commute by construction, so they skip
    ``check_square``."""
    c, walk, ids = _span_class(C, g1, g2), _cospan_walk(C), C.coding.ids
    if c < 0:
        return []
    lo, hi = walk["cuts"][c : c + 2]
    cospans = zip(*(f.tolist() for f in _cospan_codes(C, walk["cospans"][lo:hi])))
    return [Square(g1, g2, ids[f1], ids[f2]) for f1, f2 in cospans]


def _mediators(C: FinCat, r, b):
    """Every h out of the target of a completion (r, b) of codes that hits
    a cospan (r;h, b;h) of its own class, as (k, g, h): the place k of (r,
    b) in ``r`` and ``b``, and the number g of (r;h, b;h)."""
    coding, cls = C.coding, _cospan_walk(C)["cls"]
    k, step = runs(np.zeros(len(r), np.int64), coding.row[r + 1] - coding.row[r])
    g = _cospan(C, *(coding.cells[coding.row[x][k] + step] for x in (r, b)))
    keep = cls[g] == cls[_cospan(C, r, b)][k]
    return k[keep], g[keep], (coding.out[coding.tgt[r]][k] + step)[keep]


def _initial(C: FinCat, r, b):
    """Whether each completion (r, b) of codes is initial: its class has as
    many cospans as it has mediators, and no two of them reach one cospan.
    Decided for at most ``_ROUND`` mediators a round."""
    walk = _cospan_walk(C)
    cls, cuts, total = walk["cls"], walk["cuts"], len(walk["cls"])
    ok = np.zeros(len(r), bool)
    step = max(1, _ROUND // int(np.diff(C.coding.out).max(initial=1)))
    for lo in range(0, len(r), step):
        r_, b_ = r[lo : lo + step], b[lo : lo + step]
        c = cls[_cospan(C, r_, b_)]
        k, g, _ = _mediators(C, r_, b_)
        ok[lo : lo + step] = np.bincount(k, minlength=len(r_)) == cuts[c + 1] - cuts[c]
        reached = np.sort(k * total + g)
        ok[lo + reached[1:][reached[1:] == reached[:-1]] // total] = False
    return ok


def _chosen(C: FinCat):
    """The place in its class of each class's chosen completion, the first
    initial one, or -1 where its spans have no weak pushout; memoised."""
    walk = _cospan_walk(C)
    if "chosen" not in walk:
        cuts = walk["cuts"]
        chosen = np.full(len(cuts) - 1, -1, np.int64)
        todo, j = np.arange(len(chosen)), 0
        while todo.size:
            at = cuts[todo] + j
            ok = _initial(C, *_cospan_codes(C, walk["cospans"][at]))
            chosen[todo[ok]] = j
            j += 1
            todo = todo[~ok & (cuts[todo] + j < cuts[todo + 1])]
        walk["chosen"] = chosen
    return walk["chosen"]


def weak_pushout(C: FinCat, span: Span):
    """The chosen weak pushout of a span, or None.

    A weak pushout is a pullback-square completion of the span through which
    every other pullback-square completion factors uniquely; the first one
    in completion order is chosen.
    """
    check_span(C, span)
    c = _span_class(C, span.g1, span.g2)
    i = -1 if c < 0 else int(_chosen(C)[c])
    if i < 0:
        return None
    squares = _pullback_completions(C, span.g1, span.g2)
    # the one h to each completion, in the order of their cospans' numbers
    _, g, h = _mediators(C, *_codes(C, squares[i].right, squares[i].bottom))
    mediators = map(C.coding.ids.__getitem__, h[np.argsort(g)].tolist())
    return WeakPushout(C.tgt[squares[i].right], squares[i], dict(zip(squares, mediators)))


def is_weak_pushout_square(C: FinCat, sq: Square) -> Check:
    """Full universal check of a single candidate square.  A failure names
    the first completion of the span that the square hits never
    (``no_mediator``) or more than once (``non_unique``), so the two ways
    stay distinguishable."""
    check_square(C, sq)
    top, left, right, bottom = _codes(C, sq.top, sq.left, sq.right, sq.bottom)
    if not _is_pullback(C, top, left, right, bottom)[0]:
        return Check(False, (sq, "not_a_pullback_square"))
    walk = _cospan_walk(C)
    lo, hi = walk["cuts"][walk["cls"][_cospan(C, right, bottom)] + np.arange(2)]
    _, g, _ = _mediators(C, right, bottom)
    at = np.searchsorted(walk["cospans"][lo:hi], g)
    hits = np.bincount(at, minlength=hi - lo)
    j = int(np.argmax(hits != 1))
    if hits[j] != 1:
        reason = "non_unique" if hits[j] else "no_mediator"
        return Check(False, (_pullback_completions(C, sq.top, sq.left)[j], reason))
    return Check(True)


def has_pullback_square_completion(C: FinCat, span: Span) -> bool:
    check_span(C, span)
    return _span_class(C, span.g1, span.g2) >= 0


def all_cospans(C: FinCat):
    return starmap(Cospan, _pairs(C, into=True))


def has_pullbacks(C: FinCat) -> Check:
    """Every cospan has a pullback; the counterexample is the first that has
    none, and a passing check counts the cospans.  It is read from the
    cached cospan walk, which also builds condition 7's completion classes,
    so on a failing category the walk still runs to the end: the searches
    condition 7 needs anyway."""
    return _cospan_walk(C)["check"]


def all_spans(C: FinCat):
    return starmap(Span, _pairs(C, into=False))


def has_weak_pushouts(C: FinCat) -> Check:
    """Every span with a pullback-square completion has a weak pushout; the
    counterexample is the first span that has none, and a passing check
    counts the spans and the vacuous ones (those with no completion)."""
    walk, chosen, ids = _cospan_walk(C), _chosen(C), C.coding.ids
    if (chosen < 0).any():
        g1, g2 = divmod(int(walk["keys"][np.argmin(chosen)]), len(ids))
        return Check(False, Span(ids[g1], ids[g2]))
    n = int((np.diff(C.coding.out) ** 2).sum())
    return Check(True, info={"spans": n, "vacuous_spans": n - int(walk["spans"].sum())})


def _image_square(F: FinFunctor, sq: Square) -> Square:
    return Square(F.mor(sq.top), F.mor(sq.left), F.mor(sq.right), F.mor(sq.bottom))


def preserves_pullbacks(F: FinFunctor) -> Check:
    """Image of every chosen pullback square is a pullback square.

    Pullback squares over a cospan agree up to an apex isomorphism and
    functors preserve isomorphisms, so checking the chosen one per cospan
    covers them all.  A functor's image of a commuting square commutes, so
    the images of the chosen squares, coded through ``F.code_map``, go
    straight to the terminality test of ``_is_pullback``, ``_ROUND``
    cospans at a time.
    """
    C, m = F.source, F.code_map
    found = _pullbacks(C)
    has = np.flatnonzero(found["apex"] >= 0)
    for lo in range(0, len(has), _ROUND):
        t = has[lo : lo + _ROUND]
        square = found["leg1"][t], found["leg2"][t], *_cospan_codes(C, t)
        ok = _is_pullback(F.target, *(m[x] for x in square))
        if not ok.all():
            k = int(np.argmin(ok))
            return Check(False, Square(*(C.coding.ids[x[k]] for x in square)))
    return Check(True, info={"pullback_squares_checked": has.size})


def preserves_weak_pushouts(F: FinFunctor) -> Check:
    """Image of every chosen weak pushout square passes the universal check.

    A functor's image of a commuting square commutes, so the image squares,
    coded through ``F.code_map``, go straight to ``_is_pullback`` and
    ``_initial``.  The spans of a class share its chosen completion and
    differ by an isomorphism w into the apex, and their images by F(w), so
    the square of the class's key decides them all.
    """
    C, T, m = F.source, F.target, F.code_map
    walk, chosen, n = _cospan_walk(C), _chosen(C), len(C.coding.ids)
    c = np.flatnonzero(chosen >= 0)
    g1, g2 = divmod(walk["keys"][c], n)
    at = walk["cuts"][c] + chosen[c]
    f1, f2 = _cospan_codes(C, walk["cospans"][at])
    ok = _is_pullback(T, m[g1], m[g2], m[f1], m[f2])
    ok[ok] = _initial(T, m[f1[ok]], m[f2[ok]])
    if not ok.all():
        i = int(np.argmin(ok))
        sq = Square(*map(C.coding.ids.__getitem__, (g1[i], g2[i], f1[i], f2[i])))
        return Check(False, (sq, is_weak_pushout_square(T, _image_square(F, sq)).counterexample))
    return Check(True, info={"weak_pushout_squares_checked": int(walk["spans"][c].sum())})
