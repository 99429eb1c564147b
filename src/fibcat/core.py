"""Finite categories as explicit composition tables.

Objects and morphisms are plain string identifiers.  A category carries its
identity table and its full composition table; ``validate_category`` checks
the axioms exhaustively, so everything downstream can rely on them.  Every
category the library builds enters through ``assemble``, which lays out the
tables from hom-set blocks before validating them.  All
values are immutable after validation and every predicate is a deterministic
exhaustive search over sorted identifiers.

The axiom check codes each composite as an ``int32``, its position in its
hom-set, and checks associativity with one numpy sweep per composable triple
of objects (a, b, c) over every d at once.  Its errors come in a fixed order:
totality and endpoints first, hom-block by hom-block, where a missing
composite comes before a composite in the wrong hom-set; then the first
non-associative triple in the order (a, b), c, d, (f, g, h).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import product

import numpy as np


class CategoryError(Exception):
    """Base class for category validation and lookup failures."""


class MissingIdentity(CategoryError):
    pass


class NonComposablePairInTable(CategoryError):
    pass


class MissingComposite(CategoryError):
    pass


class CompositeEndpointViolation(CategoryError):
    pass


class AssociativityViolation(CategoryError):
    pass


class UnitViolation(CategoryError):
    pass


class UnknownMorphism(CategoryError):
    pass


class UnknownObject(CategoryError):
    pass


@dataclass(frozen=True)
class Check:
    """Outcome of an exhaustive check, with a counterexample when it fails."""

    holds: bool
    counterexample: object = None
    info: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.holds


def first_failure(items, check) -> Check:
    """``Check(False, (x, counterexample))`` for the first x in ``items``
    whose ``check(x)`` fails, else ``Check(True)``."""
    for x in items:
        c = check(x)
        if not c:
            return Check(False, (x, c.counterexample))
    return Check(True)


@dataclass(frozen=True, eq=False, repr=False)
class FinCat:
    """A finite category given by identifier sets and lookup tables.

    ``table`` maps a composable pair ``(f, g)`` with ``tgt(f) == src(g)`` to
    the composite "f then g" (g∘f in applicative order).  ``homs`` maps
    ``(x, y)`` to the sorted tuple of morphisms x→y, ``inverses`` maps every
    isomorphism to its (unique) two-sided inverse.
    """

    objects: tuple
    morphisms: tuple
    src: dict
    tgt: dict
    identity: dict
    table: dict
    homs: dict
    inverses: dict
    identity_morphisms: frozenset
    _caches: dict = field(default_factory=dict, compare=False, repr=False)

    def __repr__(self):
        return "FinCat(%d objects, %d morphisms)" % (
            len(self.objects),
            len(self.morphisms),
        )

    def comp(self, first: str, then: str) -> str:
        """Composite of ``first`` followed by ``then``."""
        return self.table[(first, then)]

    def hom(self, x: str, y: str) -> tuple:
        return self.homs.get((x, y), ())

    def endos(self, x: str) -> tuple:
        return self.homs.get((x, x), ())

    def id_of(self, x: str) -> str:
        return self.identity[x]

    def is_identity(self, f: str) -> bool:
        return f in self.identity_morphisms

    def require_object(self, x: str) -> None:
        if x not in self.identity:
            raise UnknownObject(x)

    def require_morphism(self, f: str) -> None:
        if f not in self.src:
            raise UnknownMorphism(f)

    def cache(self, key: str) -> dict:
        return self._caches.setdefault(key, {})


def _intern(s: str) -> str:
    return sys.intern(str(s))


def validate_category(objects, morphisms, identity, composition) -> FinCat:
    """Check the category axioms exhaustively and return a ``FinCat``.

    ``morphisms`` is an iterable of ``(id, src, tgt)`` triples, ``identity``
    maps objects to morphism ids, ``composition`` maps composable pairs
    ``(first, then)`` to composite ids.  Composites with an identity on
    either side may be omitted; they are forced by the unit laws and are
    filled in here.
    """
    obs = tuple(sorted(_intern(x) for x in objects))
    if len(set(obs)) != len(obs):
        raise CategoryError("duplicate object identifiers")
    obset = set(obs)

    src, tgt = {}, {}
    for mid, s, t in morphisms:
        mid, s, t = _intern(mid), _intern(s), _intern(t)
        if mid in src:
            raise CategoryError("duplicate morphism identifier %r" % mid)
        if s not in obset:
            raise UnknownObject("morphism %r has unknown source %r" % (mid, s))
        if t not in obset:
            raise UnknownObject("morphism %r has unknown target %r" % (mid, t))
        src[mid], tgt[mid] = s, t
    mors = tuple(sorted(src))

    ident = {}
    for x in obs:
        if x not in identity:
            raise MissingIdentity("object %r has no identity morphism" % x)
        i = _intern(identity[x])
        if i not in src:
            raise MissingIdentity("identity %r of %r is not a morphism" % (i, x))
        if src[i] != x or tgt[i] != x:
            raise MissingIdentity(
                "identity %r of %r has endpoints (%r, %r)" % (i, x, src[i], tgt[i])
            )
        ident[x] = i
    id_mors = frozenset(ident.values())

    table = {}
    for (f, g), h in dict(composition).items():
        f, g, h = _intern(f), _intern(g), _intern(h)
        for m in (f, g, h):
            if m not in src:
                raise UnknownMorphism("composition table mentions %r" % m)
        if tgt[f] != src[g]:
            raise NonComposablePairInTable((f, g))
        table[(f, g)] = h

    # Unit laws force the identity composites; fill them in and reject
    # conflicting entries.
    for f in mors:
        for pair, forced in (((ident[src[f]], f), f), ((f, ident[tgt[f]]), f)):
            have = table.get(pair)
            if have is None:
                table[pair] = forced
            elif have != forced:
                raise UnitViolation((pair[0], pair[1], have))

    homs = {}
    for f in mors:
        homs.setdefault((src[f], tgt[f]), []).append(f)
    homs = {k: tuple(sorted(v)) for k, v in homs.items()}

    _check_completeness_and_associativity(table, homs)

    inverses = {}
    for f in mors:
        x, y = src[f], tgt[f]
        for g in homs.get((y, x), ()):
            if table[(f, g)] == ident[x] and table[(g, f)] == ident[y]:
                inverses[f] = g
                break

    return FinCat(
        objects=obs,
        morphisms=mors,
        src=src,
        tgt=tgt,
        identity=ident,
        table=table,
        homs=homs,
        inverses=inverses,
        identity_morphisms=id_mors,
    )


def assemble(identities: dict, blocks: dict, compose) -> FinCat:
    """Validate the category whose hom-sets are ``blocks``.

    ``blocks`` maps (x, y) to ``{payload: morphism id}`` for the morphisms
    x→y, ``identities`` maps each object to the payload of its identity and
    ``compose(x, p, q)`` is the payload of p: x→y followed by q: y→z.  Each
    composite is looked up in the block (x, z), so every table entry is the
    id string of the morphism list; a payload missing there raises
    ``MissingComposite``.  Morphisms and composites are listed in block
    order, so the table's insertion order is fixed by it.
    """
    out = {}
    for (y, z), qs in blocks.items():
        out.setdefault(y, []).append((z, qs))
    mors, comp = [], {}
    for (x, y), ps in blocks.items():
        mors.extend((pid, x, y) for pid in ps.values())
        for z, qs in out.get(y, ()):
            block = blocks.get((x, z), {})
            for p, pid in ps.items():
                for q, qid in qs.items():
                    r = compose(x, p, q)
                    h = block.get(r)
                    if h is None:
                        raise MissingComposite((pid, qid, r))
                    comp[(pid, qid)] = h
    identity = {
        x: blocks[(x, x)][e] for x, e in identities.items() if e in blocks.get((x, x), ())
    }
    return validate_category(identities, mors, identity, comp)


def subcategory(C: FinCat, objects, morphisms) -> FinCat:
    """The subcategory of ``C`` on ``objects`` and ``morphisms``, which must
    hold the identities of ``objects`` and be closed under composition."""
    blocks = {}
    for m in morphisms:
        blocks.setdefault((C.src[m], C.tgt[m]), {})[m] = m
    return assemble(
        {x: C.id_of(x) for x in objects}, blocks, lambda x, f, g: C.table[(f, g)]
    )


_SWEEP_CELLS = 1 << 20  # composable triples compared per numpy round


def _check_completeness_and_associativity(table, homs):
    """Exhaustive totality, endpoint and associativity checks.

    The largest generated categories have ~10^8 composable triples, far
    beyond what pure-Python loops handle, so the check works on ``int32``
    local codes: a morphism's code is its position in its hom-set.  The
    morphisms out of b are laid out by target, then by code, and
    ``rows[(a, b)]`` holds at row i and the column of g the code of f_i;g in
    hom(a, tgt g); its columns for c form the block L[a, b, c].

    Totality and endpoints are checked first, block by block: (a, b) sorted,
    then c.  Within a block a ``MissingComposite`` comes before a
    ``CompositeEndpointViolation``; each names its first pair in row-major
    order.  Associativity is then one sweep per (a, b, c) over every d at
    once: (f;g);h, read from ``rows[(a, c)]`` at the rows L[a, b, c] gives,
    must equal f;(g;h), read from ``rows[(a, b)]`` at the columns of the
    composites g;h.  An (a, b, c) that fails is rescanned d by d, so the
    reported ``AssociativityViolation`` is the first triple in the order
    (a, b), c, d, then (f, g, h) by position.
    """
    outs = {}
    for (x, y) in homs:
        outs.setdefault(x, []).append(y)
    for x in outs:
        outs[x].sort()
    offset, width = {}, {}  # (b, d) -> first column of hom(b, d); b -> columns
    for b, ds in outs.items():
        w = 0
        for d in ds:
            offset[(b, d)] = w
            w += len(homs[(b, d)])
        width[b] = w

    code = {xy: {m: i for i, m in enumerate(ms)} for xy, ms in homs.items()}
    rows = {}
    for (a, b) in sorted(homs):
        h1 = homs[(a, b)]
        r = rows[(a, b)] = np.empty((len(h1), width.get(b, 0)), dtype=np.int32)
        for c in outs.get(b, ()):
            h2 = homs[(b, c)]
            comps = list(map(table.get, product(h1, h2)))
            if None in comps:
                i, j = divmod(comps.index(None), len(h2))
                raise MissingComposite((h1[i], h2[j]))
            codes = list(map(code.get((a, c), {}).get, comps))
            if None in codes:
                n = codes.index(None)
                i, j = divmod(n, len(h2))
                raise CompositeEndpointViolation((h1[i], h2[j], comps[n]))
            o = offset[(b, c)]
            r[:, o : o + len(h2)] = np.array(codes, dtype=np.int32).reshape(len(h1), len(h2))

    # rows[(b, c)] with each code of g;h in hom(b, d) moved to its column
    # among the morphisms out of b, so it indexes the columns of rows[(a, b)].
    shifted = {}
    for (a, b) in sorted(homs):
        r_ab = rows[(a, b)]
        n1 = len(r_ab)
        for c in outs.get(b, ()):
            r_ac = rows[(a, c)]
            w = r_ac.shape[1]
            if w == 0:
                continue
            s = shifted.get((b, c))
            if s is None:
                shift = np.concatenate(
                    [np.full(len(homs[(c, d)]), offset[(b, d)], np.int32) for d in outs[c]]
                )
                s = shifted[(b, c)] = (rows[(b, c)] + shift).ravel()
            o, n2 = offset[(b, c)], len(homs[(b, c)])
            l_abc = r_ab[:, o : o + n2]
            chunk = max(1, _SWEEP_CELLS // (n2 * w))
            for i0 in range(0, n1, chunk):
                i1 = min(n1, i0 + chunk)
                left = np.take(r_ac, l_abc[i0:i1], axis=0).reshape(i1 - i0, -1)
                right = np.take(r_ab[i0:i1], s, axis=1)
                if not np.array_equal(left, right):
                    _raise_first_violation(homs, outs, offset, rows, a, b, c)


def _raise_first_violation(homs, outs, offset, rows, a, b, c):
    """Rescan a failing (a, b, c) one d at a time and raise the first
    ``AssociativityViolation`` in (d, f, g, h) order."""
    h1, h2 = homs[(a, b)], homs[(b, c)]
    r_ab, r_ac, r_bc = rows[(a, b)], rows[(a, c)], rows[(b, c)]
    o = offset[(b, c)]
    l_abc = r_ab[:, o : o + len(h2)]
    for d in outs[c]:
        h3 = homs[(c, d)]
        ocd, obd = offset[(c, d)], offset[(b, d)]
        l_acd = r_ac[:, ocd : ocd + len(h3)]
        l_bcd = r_bc[:, ocd : ocd + len(h3)]
        l_abd = r_ab[:, obd : obd + len(homs[(b, d)])]
        for i in range(len(h1)):
            bad = l_acd[l_abc[i]] != l_abd[i][l_bcd]
            if bad.any():
                j, k = map(int, np.argwhere(bad)[0])
                raise AssociativityViolation((h1[i], h2[j], h3[k]))


# ---------------------------------------------------------------------------
# Elementary predicates.  All are exhaustive; none mutate the category.
# ---------------------------------------------------------------------------


def mono_witness(C: FinCat, f: str):
    """A parallel pair (g1, g2) with f∘g1 = f∘g2 and g1 ≠ g2, if one exists."""
    C.require_morphism(f)
    x = C.src[f]
    table = C.table
    for w in C.objects:
        seen = {}
        for g in C.hom(w, x):
            c = table[(g, f)]
            if c in seen:
                return (seen[c], g)
            seen[c] = g
    return None


def is_mono(C: FinCat, f: str) -> bool:
    return mono_witness(C, f) is None


def is_iso(C: FinCat, f: str):
    """The two-sided inverse of ``f`` if it exists, else None."""
    C.require_morphism(f)
    return C.inverses.get(f)


def is_ei(C: FinCat) -> Check:
    """Every endomorphism is an isomorphism."""
    for x in C.objects:
        for f in C.endos(x):
            if f not in C.inverses:
                return Check(False, f)
    return Check(True)


def automorphisms(C: FinCat, x: str) -> tuple:
    C.require_object(x)
    return tuple(f for f in C.endos(x) if f in C.inverses)


def is_transitive(C: FinCat) -> Check:
    """Aut(y) acts transitively on hom(x, y) for every pair of objects.

    The action is a group action, so it suffices to check that the orbit of
    the first morphism in each hom-set is the whole hom-set.
    """
    table = C.table
    for (x, y), fs in sorted(C.homs.items()):
        auts = automorphisms(C, y)
        f1 = fs[0]
        orbit = {table[(f1, s)] for s in auts}
        for f2 in fs:
            if f2 not in orbit:
                return Check(False, (x, y, f1, f2))
    return Check(True)


def iso_classes(C: FinCat) -> tuple:
    """Partition of the objects by mutual isomorphism, sorted canonically."""
    parent = {x: x for x in C.objects}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for f, g in C.inverses.items():
        a, b = find(C.src[f]), find(C.tgt[f])
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups = {}
    for x in C.objects:
        groups.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(sorted(v)) for v in groups.values()))


def below_set(C: FinCat, y: str) -> tuple:
    """Isomorphism classes [x] with hom(x, y) nonempty."""
    C.require_object(y)
    return tuple(
        cls for cls in iso_classes(C) if C.hom(cls[0], y)
    )


def is_groupoid(C: FinCat) -> bool:
    return len(C.inverses) == len(C.morphisms)
