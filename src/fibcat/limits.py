"""Pullbacks and weak pushouts by exhaustive universal-property search.

A pullback of a cospan is a terminal commutative square over it; a weak
pushout of a span is a pullback square over that span which is initial among
all pullback squares on the same span.  Both searches enumerate every
candidate and verify mediator existence and uniqueness against every
competitor, so a positive answer is a certificate.

Terminality is checked object by object.  A competitor of (f1, f2) is a
commuting (q, u, v); a candidate (p, u0, v0) sends each w: q→p to the
competitor (q, w;u0, w;v0), so it is terminal exactly when that map is a
bijection from hom(q, p) onto the competitors at q, for every q.  The
candidates are tried in competitor order and the first terminal one is
kept, so the chosen representative and its mediator table are the ones a
mediator scan per competitor finds.

Two symmetries share that work without changing any answer or its order;
the third point below follows from the second.

* Pullbacks.  For an isomorphism a out of d = tgt(f1), u;f1;a = v;f2;a
  exactly when u;f1 = v;f2, so the cospan (f1;a, f2;a) has the very same
  competitor list, in the same order, and hence the same chosen pullback
  and mediator table.  One search stores its ``Pullback`` under every such
  cospan.
* Completions.  A commuting square over the span (g1, g2) and the cospan
  (f1, f2) is a pullback square exactly when (g1, g2) = (w;u0, w;v0) for an
  isomorphism w into the apex of the chosen pullback (P, u0, v0) of
  (f1, f2).  So the spans completed by (f1, f2) form one class, the iso
  orbit of (u0, v0), and every span of a class has the same completion
  cospans.  One walk over the cospans, ``_cospan_walk``, appends each
  cospan to its class and also decides condition 6.  Its order (d, f1, f2)
  is the one in which a per-span scan lists completions, so the lists need
  no sorting, and a span in no class is vacuous without any square being
  tested.  Initiality of a completion reads only the cospans, never the
  span, so it too is computed once per class.
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

from dataclasses import dataclass
from itertools import product, starmap

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


def check_square(C: FinCat, sq: Square) -> None:
    for m in (sq.top, sq.left, sq.right, sq.bottom):
        C.require_morphism(m)
    ok = (
        C.src[sq.top] == C.src[sq.left]
        and C.tgt[sq.top] == C.src[sq.right]
        and C.tgt[sq.left] == C.src[sq.bottom]
        and C.tgt[sq.right] == C.tgt[sq.bottom]
        and C.comp(sq.top, sq.right) == C.comp(sq.left, sq.bottom)
    )
    if not ok:
        raise NonCommuting(sq)


def _competitors(C: FinCat, f1: str, f2: str) -> list:
    """All (q, u, v) with f1∘u = f2∘v, in construction (lexicographic) order."""
    c1, c2 = C.src[f1], C.src[f2]
    table, homs = C.table, C.homs
    out = []
    for q in C.objects:
        us = homs.get((q, c1))
        if us is None:
            continue
        by_comp = {}
        for v in homs.get((q, c2), ()):
            by_comp.setdefault(table[(v, f2)], []).append(v)
        for u in us:
            for v in by_comp.get(table[(u, f1)], ()):
                out.append((q, u, v))
    return out


def _competitor_counts(comps: list) -> list:
    """(q, number of competitors at q) for every apex q, highest q first."""
    counts = {}
    for (q, _, _) in comps:
        counts[q] = counts.get(q, 0) + 1
    return list(reversed(counts.items()))


def _terminal_mediators(C: FinCat, p: str, u0: str, v0: str, counts: list, total: int):
    """Mediator table of the competitor (p, u0, v0), or None if not terminal.

    Each w: q→p gives the competitor (q, w;u0, w;v0), so the candidate is
    terminal exactly when, for every q, w ↦ (w;u0, w;v0) is a bijection from
    hom(q, p) onto the competitors at q: equal sizes, and no two w with one
    image.  An object with no competitor has no map into p either, so only
    the apexes in ``counts`` are visited, sizes first and highest q first
    (the competitors least likely to mediate).
    """
    homs = C.homs
    for q, n in counts:
        if len(homs.get((q, p), ())) != n:
            return None
    table = C.table
    mediators = {}
    for q, _ in counts:
        for w in homs[(q, p)]:
            mediators[(q, table[(w, u0)], table[(w, v0)])] = w
    return mediators if len(mediators) == total else None


def _isos_out(C: FinCat) -> dict:
    """Object -> the isomorphisms out of it (identity included), cached."""
    cache = C.cache("isos_out")
    if not cache:
        for a in C.inverses:
            cache.setdefault(C.src[a], []).append(a)
    return cache


def _pullback_of(C: FinCat, f1: str, f2: str):
    """Cached terminal competitor of the cospan (f1, f2), or None.

    The answer is stored under (f1;a, f2;a) for every iso a out of the
    target too: those cospans have the same competitors in the same order.
    """
    cache = C.cache("pullbacks")
    key = (f1, f2)
    if key in cache:
        return cache[key]
    comps = _competitors(C, f1, f2)
    counts = _competitor_counts(comps)
    result = None
    for (p, u0, v0) in comps:
        mediators = _terminal_mediators(C, p, u0, v0, counts, len(comps))
        if mediators is not None:
            result = Pullback(p, u0, v0, mediators)
            break
    table = C.table
    for a in _isos_out(C)[C.tgt[f1]]:
        cache[(table[(f1, a)], table[(f2, a)])] = result
    return result


def pullback(C: FinCat, cospan: Cospan):
    """The chosen pullback of a cospan, or None when none exists.

    Ties between isomorphic answers are broken by the lexicographically least
    (apex, leg1, leg2), which makes outputs reproducible.
    """
    check_cospan(C, cospan)
    return _pullback_of(C, cospan.f1, cospan.f2)


def as_pullback(C: FinCat, cospan: Cospan, leg1: str, leg2: str):
    """Package a chosen competitor as a pullback, or None if not terminal.

    Unlike ``pullback`` this lets the caller pick a non-canonical
    representative; the mediator table is rebuilt for that choice.  Legs
    that do not form a commuting square over the cospan give None.
    """
    check_cospan(C, cospan)
    comps = _competitors(C, cospan.f1, cospan.f2)
    p = C.src[leg1]
    if (p, leg1, leg2) not in comps:
        return None
    mediators = _terminal_mediators(C, p, leg1, leg2, _competitor_counts(comps), len(comps))
    return None if mediators is None else Pullback(p, leg1, leg2, mediators)


def _is_pullback(C: FinCat, top: str, left: str, right: str, bottom: str) -> bool:
    """``is_pullback_square`` for a square already known to commute."""
    pb = _pullback_of(C, right, bottom)
    if pb is None:
        return False
    w = pb.mediators.get((C.src[top], top, left))
    if w is None:  # commuting squares are always competitors
        raise CategoryError("internal error: competitor not indexed")
    return w in C.inverses


def is_pullback_square(C: FinCat, sq: Square) -> bool:
    """Whether the square is terminal over its own cospan.

    Uses the cached pullback: a commuting square is a pullback square exactly
    when its unique mediator into the chosen pullback is an isomorphism.
    """
    check_square(C, sq)
    return _is_pullback(C, sq.top, sq.left, sq.right, sq.bottom)


_UNDECIDED = object()


class _CompletionClass:
    """The cospans completed by one iso orbit of spans, in ``all_cospans``
    order, the memoised initiality of each completion and the position of
    the chosen (first initial) one."""

    __slots__ = ("cospans", "initiality", "chosen")

    def __init__(self):
        self.cospans = []
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


def _cospan_walk(C: FinCat):
    """(``has_pullbacks`` answer, completion index) from one memoised pass
    over the cospans; the public ``pullback`` runs only for a cospan whose
    answer no earlier search cached, once per iso orbit."""
    memo = C.cache("cospan_walk")
    if not memo:
        cache = C.cache("pullbacks")
        table, inverses, isos_out = C.table, C.inverses, _isos_out(C)
        index, first, n = {}, None, 0
        for n, key in enumerate(_pairs(C, into=True), 1):
            pb = cache.get(key, _UNDECIDED)
            if pb is _UNDECIDED:
                pb = pullback(C, Cospan(*key))
            if pb is None:
                if first is None:
                    first = Cospan(*key)
                continue
            cls = index.get((pb.leg1, pb.leg2))
            if cls is None:
                cls = _CompletionClass()
                for a in isos_out[pb.apex]:
                    w = inverses[a]
                    index[(table[(w, pb.leg1)], table[(w, pb.leg2)])] = cls
            cls.cospans.append(key)
        memo["check"] = Check(True, info={"cospans": n}) if first is None else Check(False, first)
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
    the image goes straight to the terminality test.
    """
    C = F.source
    n = 0
    for f1, f2 in _pairs(C, into=True):
        pb = _pullback_of(C, f1, f2)
        if pb is None:
            continue
        n += 1
        if not _is_pullback(F.target, F.mor(pb.leg1), F.mor(pb.leg2), F.mor(f1), F.mor(f2)):
            return Check(False, Square(pb.leg1, pb.leg2, f1, f2))
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
