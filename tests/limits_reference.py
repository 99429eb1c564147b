"""Reference pullback and weak-pushout search: the per-competitor mediator scan.

This is the search ``fibcat.limits`` ran before terminality became a
per-object bijection test, initiality an indexed lookup, and completions an
index of iso classes of spans built from the cospans: every cospan gets its
own pullback search and every span its own scan of commuting squares.  It is
kept only as the oracle for ``test_limits_reference.py`` and imports nothing
private from ``fibcat``, so it shares no search code with the library.  Its
caches live under ``reference_*`` keys so they never share results with the
library (``weak_pushout`` is not cached at all), and the squares it tests go
through the reference ``is_pullback_square``.
"""

from __future__ import annotations

from fibcat.core import CategoryError, Check, FinCat
from fibcat.limits import (
    Cospan,
    Pullback,
    Span,
    Square,
    WeakPushout,
    check_cospan,
    check_span,
    check_square,
)


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


def _pullback_of(C: FinCat, f1: str, f2: str):
    """Cached terminal competitor of the cospan (f1, f2), or None."""
    cache = C.cache("reference_pullbacks")
    key = (f1, f2)
    if key in cache:
        return cache[key]
    comps = _competitors(C, f1, f2)
    # Verification order: competitors least likely to mediate first.
    verify = sorted(comps, key=lambda t: t[0], reverse=True)
    table = C.table
    result = None
    for (p, u0, v0) in comps:
        mediators = {}
        ok = True
        for (q, u, v) in verify:
            found = None
            for w in C.hom(q, p):
                if table[(w, u0)] == u and table[(w, v0)] == v:
                    if found is not None:
                        found = None
                        ok = False
                        break
                    found = w
            if not ok or found is None:
                ok = False
                break
            mediators[(q, u, v)] = found
        if ok:
            result = Pullback(p, u0, v0, mediators)
            break
    cache[key] = result
    return result


def pullback(C: FinCat, cospan: Cospan):
    check_cospan(C, cospan)
    return _pullback_of(C, cospan.f1, cospan.f2)


def as_pullback(C: FinCat, cospan: Cospan, leg1: str, leg2: str):
    """Package a chosen competitor as a pullback, or None if not terminal."""
    check_cospan(C, cospan)
    comps = _competitors(C, cospan.f1, cospan.f2)
    table = C.table
    p = C.src[leg1]
    mediators = {}
    for (q, u, v) in comps:
        found = None
        for w in C.hom(q, p):
            if table[(w, leg1)] == u and table[(w, leg2)] == v:
                if found is not None:
                    return None
                found = w
        if found is None:
            return None
        mediators[(q, u, v)] = found
    return Pullback(p, leg1, leg2, mediators)


def is_pullback_square(C: FinCat, sq: Square) -> bool:
    check_square(C, sq)
    pb = _pullback_of(C, sq.right, sq.bottom)
    if pb is None:
        return False
    w = pb.mediators.get((C.src[sq.top], sq.top, sq.left))
    if w is None:  # commuting squares are always competitors
        raise CategoryError("internal error: competitor not indexed")
    return w in C.inverses


def _pullback_completions(C: FinCat, g1: str, g2: str) -> list:
    """All pullback-square completions of the span (g1, g2), cached."""
    cache = C.cache("reference_span_completions")
    key = (g1, g2)
    if key in cache:
        return cache[key]
    c1, c2 = C.tgt[g1], C.tgt[g2]
    table = C.table
    out = []
    for d in C.objects:
        by_comp = {}
        for f2 in C.hom(c2, d):
            by_comp.setdefault(table[(g2, f2)], []).append(f2)
        for f1 in C.hom(c1, d):
            for f2 in by_comp.get(table[(g1, f1)], ()):
                sq = Square(g1, g2, f1, f2)
                if is_pullback_square(C, sq):
                    out.append(sq)
    cache[key] = out
    return out


def _initial_mediators(C: FinCat, sq: Square, completions: list):
    """Unique mediators from ``sq`` to every pullback-square completion."""
    table = C.table
    d = C.tgt[sq.right]
    mediators = {}
    for other in completions:
        z = C.tgt[other.right]
        found = None
        for h in C.hom(d, z):
            if table[(sq.right, h)] == other.right and table[(sq.bottom, h)] == other.bottom:
                if found is not None:
                    return None, (other, "non_unique")
                found = h
        if found is None:
            return None, (other, "no_mediator")
        mediators[other] = found
    return mediators, None


def weak_pushout(C: FinCat, span: Span):
    check_span(C, span)
    completions = _pullback_completions(C, span.g1, span.g2)
    for sq in completions:
        mediators, failure = _initial_mediators(C, sq, completions)
        if failure is None:
            return WeakPushout(C.tgt[sq.right], sq, mediators)
    return None


def is_weak_pushout_square(C: FinCat, sq: Square) -> Check:
    check_square(C, sq)
    if not is_pullback_square(C, sq):
        return Check(False, (sq, "not_a_pullback_square"))
    completions = _pullback_completions(C, sq.top, sq.left)
    _, failure = _initial_mediators(C, sq, completions)
    if failure is not None:
        return Check(False, failure)
    return Check(True)
